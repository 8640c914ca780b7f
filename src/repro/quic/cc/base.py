"""Congestion controller interface.

Controllers are event-driven: the loss-detection layer reports packet
sends, acks and losses; the scheduler asks ``can_send`` before placing
a packet on the path.

Two controller families share this interface:

* **Loss-based** (NewReno, Cubic, LIA): window arithmetic only.  They
  keep ``paced = False``: the pacing timer skips their paths and no
  delivery-rate sample is built for them.
* **Model-based** (BBR, multipath-BBR): ``paced = True``.  They expose
  a ``pacing_rate`` and a ``next_send_time`` token-release deadline,
  and consume :class:`RateSample` objects built by the connection from
  the RFC-style ``delivered``/``delivered_time`` totals the loss
  detector stamps on every
  :class:`~repro.quic.loss_detection.SentPacket`.

``paced`` is the only switch: the connection reads it from the path's
controller wherever pacing or rate samples are concerned.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

#: Conventional max datagram size used for cwnd arithmetic.
MAX_DATAGRAM_SIZE = 1400

#: RFC 9002 initial window: min(10 * MDS, max(2 * MDS, 14720)).
INITIAL_WINDOW = min(10 * MAX_DATAGRAM_SIZE, max(2 * MAX_DATAGRAM_SIZE, 14720))

#: Minimum congestion window after collapse.
MINIMUM_WINDOW = 2 * MAX_DATAGRAM_SIZE


@dataclass(slots=True)
class RateSample:
    """One delivery-rate measurement (draft-cheng-iccrg-delivery-rate).

    Built by the connection per newly-acked in-flight packet:
    ``delivery_rate = (delivered - pkt_delivered) / (now - pkt_delivered_time)``
    where ``pkt_delivered``/``pkt_delivered_time`` were stamped on the
    packet at send time from the path's running ``delivered`` total.
    """

    delivery_rate: float     # bytes/sec over the sample interval
    rtt: float               # RTT of the sampled packet (sec)
    delivered: int           # path delivered-bytes total at ack time
    pkt_delivered: int       # delivered total stamped at send time
    now: float
    #: sample taken while the sender had no data to send; must not
    #: raise the bandwidth filter (it underestimates the link)
    app_limited: bool = False


class CongestionController(abc.ABC):
    """Abstract per-path congestion controller."""

    #: Model-based controllers set True; the connection then feeds
    #: rate samples and honors ``next_send_time`` in the pump.
    paced: bool = False

    def __init__(self) -> None:
        self.cwnd: float = float(INITIAL_WINDOW)
        self.bytes_in_flight: int = 0
        self.ssthresh: float = float("inf")
        self.recovery_start_time: float = -1.0

    # -- queries ---------------------------------------------------------

    def can_send(self, size: int = MAX_DATAGRAM_SIZE) -> bool:
        """True if a packet of ``size`` bytes fits in the window."""
        return self.bytes_in_flight + size <= self.cwnd

    @property
    def in_slow_start(self) -> bool:
        return self.cwnd < self.ssthresh

    def in_recovery(self, sent_time: float) -> bool:
        return sent_time <= self.recovery_start_time

    @property
    def pacing_rate(self) -> float:
        """Target send rate in bytes/sec; inf = unpaced (window-only)."""
        return float("inf")

    def next_send_time(self, now: float) -> float:
        """Earliest time the pacer releases the next packet.

        Unpaced controllers always answer ``now`` (no constraint).
        Paced controllers return their token-release deadline; the
        pump arms a lazy timer when it lies in the future.
        """
        return now

    # -- events ----------------------------------------------------------

    def on_packet_sent(self, size: int, now: float) -> None:
        self.bytes_in_flight += size

    def on_packet_acked(self, size: int, sent_time: float, now: float,
                        rtt: float) -> None:
        self.bytes_in_flight = max(self.bytes_in_flight - size, 0)
        if self.in_recovery(sent_time):
            return
        self._increase_window(size, sent_time, now, rtt)

    def on_packets_lost(self, size: int, latest_sent_time: float,
                        now: float) -> None:
        self.bytes_in_flight = max(self.bytes_in_flight - size, 0)
        if not self.in_recovery(latest_sent_time):
            self.recovery_start_time = now
            self._on_congestion_event(now)

    def on_rate_sample(self, sample: RateSample) -> None:
        """Consume a delivery-rate sample (model-based controllers).

        The connection only builds samples for controllers with
        ``paced = True``; the default is a no-op.
        """

    def on_discarded(self, size: int) -> None:
        """Packet no longer tracked (e.g. path abandoned)."""
        self.bytes_in_flight = max(self.bytes_in_flight - size, 0)

    def reset(self) -> None:
        """Collapse to the initial state (used by connection migration)."""
        self.cwnd = float(INITIAL_WINDOW)
        self.bytes_in_flight = 0
        self.ssthresh = float("inf")
        self.recovery_start_time = -1.0

    # -- algorithm hooks ---------------------------------------------------

    @abc.abstractmethod
    def _increase_window(self, acked_bytes: int, sent_time: float,
                         now: float, rtt: float) -> None:
        """Grow cwnd on an ack outside recovery."""

    @abc.abstractmethod
    def _on_congestion_event(self, now: float) -> None:
        """Shrink cwnd on entering recovery."""
