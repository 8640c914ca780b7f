"""Double-thresholding QoE control (Alg. 1, Sec. 5.2.2).

The controller decides whether packet re-injection should currently be
enabled, from the client's latest QoE feedback:

1. Estimate play-time left Δt conservatively from
   (cached_frames / fps) and (cached_bytes * 8 / bps).
2. If Δt > T_th2 -> re-injection off (plenty of buffer; save cost).
   If Δt < T_th1 -> re-injection on (about to rebuffer; be responsive).
3. Otherwise compare Δt with the maximum in-flight delivery time
   deliverTime_max = max over paths with unacked packets of
   (RTT_p + delta_p): re-inject only if the slowest path cannot
   deliver before the buffer runs dry.

The two thresholds bound the traffic overhead: with re-injection-on
cost beta, C_min >= beta * P(Δt < T_th1) and
C_max <= beta * P(Δt < T_th2) (Sec. 5.2.2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.quic.frames import QoeSignals


class ReinjectionMode(enum.Enum):
    """Which re-injection insertion policy the scheduler uses (Fig. 4)."""

    NONE = "none"                  # vanilla-MP: no re-injection
    APPENDING = "appending"        # traditional: append to pkt_send_q tail
    STREAM_PRIORITY = "stream"     # insert before lower-priority streams
    FRAME_PRIORITY = "frame"       # + first-video-frame acceleration


@dataclass(frozen=True)
class ThresholdConfig:
    """The (T_th1, T_th2) pair, in seconds of play-time left.

    ``always_on`` short-circuits the algorithm (re-injection without
    QoE control -- the 15%-overhead configuration of Sec. 5.2).
    """

    t_th1: float = 0.5
    t_th2: float = 2.0
    always_on: bool = False

    def __post_init__(self) -> None:
        if not self.always_on and self.t_th1 > self.t_th2:
            raise ValueError(
                f"T_th1 ({self.t_th1}) must not exceed T_th2 ({self.t_th2})")


class DoubleThresholdController:
    """Stateful wrapper around Alg. 1.

    The server updates it from every QoE feedback; the scheduler asks
    :meth:`should_reinject` before inserting duplicate chunks.  When no
    feedback has arrived yet (e.g. video start-up) re-injection is
    allowed: the paper's Fig. 6 shows re-injection active right after
    the first frame, before the buffer has built up.
    """

    def __init__(self, config: Optional[ThresholdConfig] = None) -> None:
        self.config = config if config is not None else ThresholdConfig()
        self.last_qoe: Optional[QoeSignals] = None
        self.last_update_time: float = -1.0

    def update(self, qoe: QoeSignals, now: float) -> None:
        """Record the latest client QoE feedback."""
        self.last_qoe = qoe
        self.last_update_time = now

    def play_time_left(self, now: Optional[float] = None) -> Optional[float]:
        """Δt from the latest feedback, extrapolated for elapsed time.

        The paper notes Δt must be extrapolated when feedback is
        infrequent (Sec. 5.2.2 footnote): the client keeps playing
        while the feedback is in flight, so we subtract wall time
        elapsed since the report.
        """
        if self.last_qoe is None:
            return None
        dt = self.last_qoe.play_time_left()
        if now is not None and self.last_update_time >= 0:
            dt -= max(now - self.last_update_time, 0.0)
        return max(dt, 0.0)

    def should_reinject(self, max_delivery_time: float,
                        now: Optional[float] = None) -> bool:
        """Alg. 1: the re-injection decision."""
        cfg = self.config
        if cfg.always_on:
            return True
        dt = self.play_time_left(now)
        if dt is None:
            # No feedback yet (start-up): stay aggressive for QoE.
            return True
        if dt > cfg.t_th2:
            return False
        if dt < cfg.t_th1:
            return True
        # Middle band: compare with in-flight delivery time (Eq. 1).
        return dt < max_delivery_time
