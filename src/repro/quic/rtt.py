"""Per-path RTT estimation (RFC 9002 Sec. 5).

Keeps latest/min/smoothed RTT and rttvar.  The XLINK QoE controller
reads ``smoothed + rttvar`` as the per-path delivery-time estimate
(Eq. 1: RTT_p + delta_p).
"""

from __future__ import annotations

from dataclasses import dataclass, field

INITIAL_RTT = 0.333  # RFC 9002 default initial RTT, seconds
GRANULARITY = 0.001
#: how long a receiver may hold an ACK (RFC 9000 default), seconds: both
#: endpoints advertise it, arm their ACK timers with it and add it to
#: the probe timeout
MAX_ACK_DELAY = 0.025


@dataclass
class RttEstimator:
    """EWMA RTT state for one path."""

    latest: float = 0.0
    min_rtt: float = float("inf")
    smoothed: float = INITIAL_RTT
    rttvar: float = INITIAL_RTT / 2
    has_sample: bool = False

    def update(self, rtt_sample: float, ack_delay: float = 0.0) -> None:
        """Fold in a new RTT sample (seconds), per RFC 9002."""
        if rtt_sample <= 0:
            raise ValueError("RTT sample must be positive")
        self.latest = rtt_sample
        if rtt_sample < self.min_rtt:
            self.min_rtt = rtt_sample
        # Subtract peer ack delay, but never below min_rtt.
        adjusted = rtt_sample
        if adjusted - ack_delay >= self.min_rtt:
            adjusted -= ack_delay
        if not self.has_sample:
            self.smoothed = adjusted
            self.rttvar = adjusted / 2
            self.has_sample = True
            return
        sample_var = abs(self.smoothed - adjusted)
        self.rttvar = 0.75 * self.rttvar + 0.25 * sample_var
        self.smoothed = 0.875 * self.smoothed + 0.125 * adjusted

    @property
    def delivery_time(self) -> float:
        """XLINK's per-path in-flight delivery-time estimate RTT + delta."""
        return self.smoothed + self.rttvar

    def pto(self) -> float:
        """Probe timeout per RFC 9002."""
        var = 4 * self.rttvar
        return self.smoothed + (var if var > GRANULARITY else GRANULARITY) \
            + MAX_ACK_DELAY
