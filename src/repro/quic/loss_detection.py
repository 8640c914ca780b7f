"""Per-path loss detection (RFC 9002, simplified).

Each path has its own packet-number space (Sec. 6 design point 1), so
loss detection runs independently per path: packet-threshold (3) and
time-threshold (9/8 of the RTT) reordering detection, plus a probe
timeout (PTO) with exponential backoff.

The connection registers callbacks: ``on_lost`` re-queues stream data;
``on_pto`` triggers a probe.

Hot-path layout: packets are sent with monotonically increasing packet
numbers at monotonically non-decreasing times, so ``self.sent`` (a
plain insertion-ordered dict) *is* the packet-number-sorted, sent-time-
sorted in-flight ring -- no ``sorted()`` calls, no per-ACK scans over
the full packet-number history.  Aggregate counters
(``bytes_in_flight``, the ack-eliciting census, the oldest in-flight
entry) are maintained incrementally on send/ack/loss instead of being
recomputed by O(in-flight) sweeps on every timer query.
:meth:`PathLossDetector.on_packet_sent` is the only way into ``sent``
and rejects a send that would break that order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.quic.rtt import GRANULARITY, RttEstimator

PACKET_THRESHOLD = 3
TIME_THRESHOLD = 9.0 / 8.0
MAX_PTO_COUNT = 10


@dataclass(slots=True)
class SentPacket:
    """Bookkeeping for one sent packet in one path's PN space."""

    packet_number: int
    sent_time: float
    size: int
    ack_eliciting: bool
    in_flight: bool
    #: opaque payload descriptors the connection uses on ack/loss
    frames_info: tuple = ()
    #: delivery-rate bookkeeping (draft-cheng-iccrg-delivery-rate):
    #: the path's delivered-bytes total and its timestamp, copied from
    #: the detector at send time.  An ack of this packet then yields
    #: ``rate = (delivered_now - delivered) / (now - delivered_time)``.
    delivered: int = 0
    delivered_time: float = 0.0


class PathLossDetector:
    """Loss detection state for a single path's packet-number space."""

    def __init__(self, rtt: RttEstimator) -> None:
        self.rtt = rtt
        self.sent: Dict[int, SentPacket] = {}
        self.largest_acked: int = -1
        self.pto_count: int = 0
        self.loss_time: Optional[float] = None
        #: incremental aggregate over ``sent``
        self._bytes_in_flight = 0
        #: pn -> sent_time of tracked ack-eliciting packets, in send
        #: order: the ack-eliciting census, and its first value is the
        #: PTO base without walking the ACK-only packets a receiver's
        #: ``sent`` mostly holds
        self.eliciting_sent_time: Dict[int, float] = {}
        #: the last send, which the next one must follow
        self._last_pn = -1
        self._last_sent_time = float("-inf")
        #: the ``ranges[1:]`` of the last ACK processed, every one of
        #: them walked (see :meth:`on_ack_received`)
        self._acked_older: tuple = ()
        #: delivery-rate bookkeeping, kept on every path and read only
        #: for paced controllers (``AckHandler._feed_rate_samples``):
        #: total in-flight bytes delivered (cumulatively acked)
        self.delivered = 0
        #: virtual time of the most recent delivery (or send-epoch)
        self.delivered_time = 0.0
        #: ``delivered`` marker below which samples are app-limited
        self.app_limited_until = 0

    # -- send/ack/loss machinery ------------------------------------------

    def on_packet_sent(self, pkt: SentPacket) -> None:
        """Track ``pkt``.

        Raises ``ValueError`` unless its packet number is above, and its
        sent time not before, those of the previous packet sent.
        """
        pn = pkt.packet_number
        if pn <= self._last_pn:
            raise ValueError(
                f"packet number {pn} does not follow {self._last_pn}")
        if pkt.sent_time < self._last_sent_time:
            raise ValueError(
                f"sent time {pkt.sent_time} of packet {pn} is before "
                f"{self._last_sent_time}")
        self._last_pn = pn
        self._last_sent_time = pkt.sent_time
        if self._bytes_in_flight == 0:
            # Idle restart: the delivery interval opens now, not at the
            # last ack before the idle gap.
            self.delivered_time = pkt.sent_time
        pkt.delivered = self.delivered
        pkt.delivered_time = self.delivered_time
        self.sent[pn] = pkt
        if pkt.ack_eliciting:
            self.eliciting_sent_time[pn] = pkt.sent_time
        if pkt.in_flight:
            self._bytes_in_flight += pkt.size

    def _forget(self, pkt: SentPacket) -> None:
        """Update the aggregates for a packet leaving ``sent``."""
        if pkt.ack_eliciting:
            self.eliciting_sent_time.pop(pkt.packet_number, None)
        if pkt.in_flight:
            self._bytes_in_flight -= pkt.size

    def on_ack_received(
        self, ranges: tuple, ack_delay: float, now: float,
    ) -> Tuple[List[SentPacket], List[SentPacket], Optional[float]]:
        """Process an ACK_MP for this path.

        ``ranges`` are disjoint ``(start, end)`` pairs, newest first,
        as the decoder yields them.  Returns (newly_acked, newly_lost,
        rtt_sample).
        """
        # Walking a range takes every number it covers out of ``sent``,
        # and none comes back: ``sent`` only takes numbers above all
        # sent so far.  A range walked once acknowledges nothing
        # ever after, and its end is already <= ``largest_acked``.  The
        # receiver's coverage only grows, so below its newest ranges an
        # ACK repeats a run of ranges the previous one carried: one
        # tuple comparison finds it and leaves the ranges above to walk.
        fresh, older, known = ranges, ranges[1:], self._acked_older
        if known and older:
            try:
                above = ranges.index(known[0], 1)
            except ValueError:
                pass
            else:
                if ranges[above:] == known[:len(ranges) - above]:
                    fresh = ranges[:above]
        largest_in_ack = max(fresh)[1] if fresh[1:] else fresh[0][1]
        sent = self.sent
        #: the RTT sample's packet: if tracked, it is acknowledged below
        largest_pkt: Optional[SentPacket] = None
        if largest_in_ack > self.largest_acked:
            self.largest_acked = largest_in_ack
            if largest_in_ack in sent:
                largest_pkt = sent[largest_in_ack]
        in_flight_before = self._bytes_in_flight
        newly_acked: List[SentPacket] = []
        for start, end in fresh:
            # ``sent`` is in packet-number order: walk it and stop past
            # the range, whatever span of numbers the range covers.
            hits = []
            for pn in sent:
                if pn > end:
                    break
                if pn >= start:
                    hits.append(sent[pn])
            for pkt in hits:
                del sent[pkt.packet_number]
                self._forget(pkt)
            newly_acked += hits
        # A range reaching past the last packet sent would cover
        # numbers that can still enter ``sent``: remember nothing.
        self._acked_older = older if largest_in_ack <= self._last_pn else ()
        rtt_sample: Optional[float] = None
        if largest_pkt is not None and largest_pkt.ack_eliciting:
            rtt_sample = now - largest_pkt.sent_time
            if rtt_sample > 0:
                self.rtt.update(rtt_sample, ack_delay)
        if newly_acked:
            self.pto_count = 0
            # the walk took only newly acked packets out of flight
            delivered = in_flight_before - self._bytes_in_flight
            if delivered:
                self.delivered += delivered
                self.delivered_time = now
        newly_lost = self._detect_losses(now)
        return newly_acked, newly_lost, rtt_sample

    def _detect_losses(self, now: float) -> List[SentPacket]:
        """Packet- and time-threshold loss detection."""
        self.loss_time = None
        if self.largest_acked < 0:
            return []
        loss_delay = TIME_THRESHOLD * max(self.rtt.latest or self.rtt.smoothed,
                                          self.rtt.smoothed, GRANULARITY)
        lost: List[SentPacket] = []
        largest_acked = self.largest_acked
        sent = self.sent
        for pn in sent:
            if pn > largest_acked:
                break  # ascending: nothing further can be <= largest
            pkt = sent[pn]
            # The 1e-9 slack matches the timer-fire comparison in the
            # connection; without it the timer can re-arm at the same
            # instant forever when it fires exactly at the threshold.
            too_old = pkt.sent_time - 1e-9 <= now - loss_delay
            too_far = largest_acked - pn >= PACKET_THRESHOLD
            if too_old or too_far:
                lost.append(pkt)
            else:
                candidate = pkt.sent_time + loss_delay
                if self.loss_time is None or candidate < self.loss_time:
                    self.loss_time = candidate
        for pkt in lost:
            del sent[pkt.packet_number]
            self._forget(pkt)
        return lost

    def on_loss_timer(self, now: float) -> List[SentPacket]:
        """Fire the time-threshold timer."""
        return self._detect_losses(now)

    def discard_all(self) -> List[SentPacket]:
        """Drop all tracked packets (path abandoned / PN space closed).

        Clears the loss timer too, so an abandoned path can never fire
        a stale time-threshold deadline.  Returns the discarded packets
        in packet-number order for the caller to release to congestion
        control and requeue.
        """
        pkts = list(self.sent.values())
        self.sent.clear()
        self.loss_time = None
        self._bytes_in_flight = 0
        self.eliciting_sent_time.clear()
        return pkts

    # -- timers -------------------------------------------------------------

    def pto_deadline(self) -> Optional[float]:
        """Absolute time at which PTO fires, based on oldest in-flight."""
        # Sent times are non-decreasing in insertion order, so the
        # first ack-eliciting entry carries the minimum sent time.
        for base in self.eliciting_sent_time.values():
            return base + self.rtt.pto() * (2 ** self.pto_count)
        return None

    def next_timer(self) -> Optional[float]:
        """Earlier of loss timer and PTO timer."""
        loss_time = self.loss_time
        pto = self.pto_deadline()
        if loss_time is None or (pto is not None and pto < loss_time):
            return pto
        return loss_time

    def on_pto(self) -> None:
        self.pto_count = min(self.pto_count + 1, MAX_PTO_COUNT)

    def oldest_unacked(self) -> Optional[SentPacket]:
        return next(iter(self.sent.values()), None)

    @property
    def has_unacked(self) -> bool:
        """True if ack-eliciting packets are outstanding (Eq. 1's filter)."""
        return bool(self.eliciting_sent_time)

    @property
    def bytes_in_flight(self) -> int:
        return self._bytes_in_flight
