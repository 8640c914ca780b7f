"""Per-path transport state.

A path bundles everything that is per-path in the multipath design:
the CID pair in use, its own packet-number space, RTT estimator, loss
detector, congestion controller, and lifecycle (:class:`PathState`).
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from typing import Optional, Tuple

from repro.quic.cid import ConnectionId
from repro.quic.frames import ack_pairs_wire, make_range
from repro.quic.loss_detection import PathLossDetector
from repro.quic.rtt import RttEstimator
from repro.traces.radio_profiles import RadioType


class PathState(enum.Enum):
    """Lifecycle of a path."""

    PENDING = "pending"        # created, not yet validated
    VALIDATING = "validating"  # PATH_CHALLENGE outstanding
    ACTIVE = "active"
    STANDBY = "standby"
    ABANDONED = "abandoned"


class Path:
    """Transport state for one network path of a connection."""

    def __init__(self, path_id: int, local_cid: ConnectionId,
                 remote_cid: ConnectionId, cc,
                 radio: Optional[RadioType] = None) -> None:
        #: the path identifier = sequence number of the DCID in use
        self.path_id = path_id
        self.local_cid = local_cid
        self.remote_cid = remote_cid
        self.radio = radio
        self.rtt = RttEstimator()
        self.loss = PathLossDetector(self.rtt)
        self.cc = cc
        self.state = PathState.PENDING
        #: the next packet number of this path's own space
        self.next_pn = 0
        self.largest_received_pn = -1
        #: receive-side: every range received, ascending and never
        #: forgotten; whether an ack is owed, and how many ack-eliciting
        #: packets arrived since the last one
        self.ack_pending: list = []
        self.ack_needed = False
        self.eliciting_since_ack = 0
        #: ``ack_pending[:-1]`` as successive ACK_MPs share it: the
        #: ranges, and their gap/length pairs as they follow the newest
        #: range on the wire.  A new gap adds the range it froze to
        #: both; a hole-fill leaves them stale (the wire None) until
        #: the next ACK.
        self._ack_older: tuple = ()
        self._ack_older_wire: Optional[bytes] = b""
        self.largest_recv_time = 0.0
        #: when anything was last received on this path (freshness)
        self.last_recv_time = 0.0
        #: per-path traffic counters
        self.bytes_sent = 0
        self.packets_received = 0
        #: challenge data outstanding, if validating
        self.challenge_data: Optional[bytes] = None

    def next_packet_number(self) -> int:
        pn = self.next_pn
        self.next_pn = pn + 1
        return pn

    @property
    def is_usable(self) -> bool:
        """Can the scheduler place packets here?"""
        return self.state in (PathState.ACTIVE, PathState.VALIDATING)

    def is_suspect(self, now: float) -> bool:
        """Heuristic path-quality check (Sec. 6 'Path close').

        A path is suspect when it has in-flight data but nothing has
        been received on it for several RTTs -- the signature of the
        sudden outages in Fig. 1a, during which the (frozen) smoothed
        RTT can no longer be trusted.
        """
        if not self.loss.has_unacked and self.packets_received == 0:
            return False
        threshold = 4 * self.rtt.smoothed
        return now - self.last_recv_time > (
            threshold if threshold > 0.25 else 0.25)

    def is_overdue(self, sent_time: float, now: float) -> bool:
        """Is a packet sent on this path at ``sent_time`` overdue?

        It is when the path is suspect -- a frozen RTT estimate means
        nothing, so everything on it is effectively overdue -- or when
        it is older than the path's delivery time estimate.  For a
        given path and ``now`` this can only turn false as
        ``sent_time`` grows, so the oldest packet is overdue whenever
        any packet is.
        """
        return now - sent_time > self.rtt.delivery_time \
            or self.is_suspect(now)

    def record_received(self, pn: int, now: float) -> bool:
        """Track a received packet number; returns False on duplicate."""
        self.last_recv_time = now
        ranges = self.ack_pending
        if ranges:
            # ``ranges`` is sorted and disjoint, so a pn past the newest
            # range -- the overwhelmingly common case -- extends it in
            # place or opens a gap above it, and the duplicate check
            # starts with the covering candidate.
            last = ranges[-1]
            if pn > last[1]:
                if pn == last[1] + 1:
                    ranges[-1] = (last[0], pn)
                else:
                    ranges.append((pn, pn))
                    if self._ack_older_wire is not None:
                        self._ack_older += (make_range(last),)
                        self._ack_older_wire = ack_pairs_wire(
                            ((pn, pn), last)) + self._ack_older_wire
                self.largest_received_pn = pn
                self.largest_recv_time = now
                self.ack_needed = True
                return True
            if pn >= last[0]:
                return False
        # Below the newest range (or the first packet): a duplicate, or
        # a late arrival that extends, joins or adds a range.
        at = bisect_left(ranges, (pn + 1,))  # ranges[:at] start <= pn
        if at and ranges[at - 1][1] >= pn:
            return False
        start = ranges[at - 1][0] \
            if at and ranges[at - 1][1] == pn - 1 else pn
        end = ranges[at][1] \
            if at < len(ranges) and ranges[at][0] == pn + 1 else pn
        ranges[at - (start < pn):at + (end > pn)] = [(start, end)]
        self._ack_older_wire = None
        if pn > self.largest_received_pn:
            self.largest_received_pn = pn
            self.largest_recv_time = now
        self.ack_needed = True
        return True

    def ack_ranges(self) -> Tuple[tuple, bytes]:
        """What an ACK_MP for this path carries: every range received,
        ascending, and the wire form of the gap/length pairs of all but
        the newest (``AckMpFrame.ranges`` and ``.older_wire``)."""
        pending = self.ack_pending
        if self._ack_older_wire is None:
            self._ack_older = tuple(map(make_range, pending[:-1]))
            self._ack_older_wire = ack_pairs_wire(pending[::-1])
        return (self._ack_older + (make_range(pending[-1]),),
                self._ack_older_wire)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Path(id={self.path_id}, state={self.state.value}, "
                f"srtt={self.rtt.smoothed * 1000:.1f}ms, "
                f"cwnd={self.cc.cwnd:.0f})")
