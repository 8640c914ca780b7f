"""CUBIC congestion control (RFC 8312/9438), the paper's default.

Fig. 8's result -- faster ACK return grows cwnd faster -- depends on
Cubic's time-based window growth plus slow-start's ack clocking; both
are modeled here: W(t) = C*(t - K)^3 + W_max, with standard fast
convergence and a Reno-friendly region.
"""

from __future__ import annotations

from repro.quic.cc.base import (CongestionController, MAX_DATAGRAM_SIZE,
                                MINIMUM_WINDOW)

CUBIC_C = 0.4          # scaling constant (segments/s^3)
CUBIC_BETA = 0.7       # multiplicative decrease factor
FAST_CONVERGENCE = True


class CubicCc(CongestionController):
    """CUBIC with fast convergence and TCP-friendly region."""

    def __init__(self) -> None:
        super().__init__()
        self._w_max = 0.0            # window before last reduction (bytes)
        self._k = 0.0                # time to regain w_max (seconds)
        self._epoch_start = -1.0     # start of current CA epoch
        self._w_est = 0.0            # Reno-friendly window estimate (bytes)

    def _increase_window(self, acked_bytes: int, sent_time: float,
                         now: float, rtt: float) -> None:
        if self.in_slow_start:
            self.cwnd += acked_bytes
            if self.cwnd >= self.ssthresh:
                self.cwnd = self.ssthresh
                self._begin_epoch(now)
            return
        if self._epoch_start < 0:
            self._begin_epoch(now)
        t = now - self._epoch_start
        # Target window one RTT in the future, in segments -> bytes.
        seg = MAX_DATAGRAM_SIZE
        w_cubic = (CUBIC_C * ((t + rtt) - self._k) ** 3
                   + self._w_max / seg) * seg
        # Reno-friendly estimate grows ~1 segment per RTT.
        alpha = 3.0 * (1.0 - CUBIC_BETA) / (1.0 + CUBIC_BETA)
        self._w_est += alpha * seg * acked_bytes / self.cwnd
        target = max(w_cubic, self._w_est)
        if target > self.cwnd:
            # Standard cubic pacing of the increase.
            self.cwnd += (target - self.cwnd) * acked_bytes / self.cwnd
        else:
            # Minimal growth to stay ack-clocked.
            self.cwnd += 0.01 * seg * acked_bytes / self.cwnd

    def _begin_epoch(self, now: float) -> None:
        self._epoch_start = now
        seg = MAX_DATAGRAM_SIZE
        if self.cwnd < self._w_max:
            self._k = ((self._w_max / seg - self.cwnd / seg)
                       / CUBIC_C) ** (1.0 / 3.0)
        else:
            self._k = 0.0
            self._w_max = self.cwnd
        self._w_est = self.cwnd

    def _on_congestion_event(self, now: float) -> None:
        if FAST_CONVERGENCE and self.cwnd < self._w_max:
            self._w_max = self.cwnd * (1.0 + CUBIC_BETA) / 2.0
        else:
            self._w_max = self.cwnd
        self.cwnd = max(self.cwnd * CUBIC_BETA, MINIMUM_WINDOW)
        self.ssthresh = self.cwnd
        self._epoch_start = -1.0

    def reset(self) -> None:
        super().reset()
        self._w_max = 0.0
        self._k = 0.0
        self._epoch_start = -1.0
        self._w_est = 0.0
