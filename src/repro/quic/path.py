"""Per-path transport state.

A path bundles everything that is per-path in the multipath design:
the CID pair in use, its own packet-number space, RTT estimator, loss
detector, congestion controller, validation state, and PATH_STATUS.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.quic.cid import ConnectionId
from repro.quic.frames import AckRange, PathStatus
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
                 radio: Optional[RadioType] = None,
                 max_ack_delay: float = 0.025) -> None:
        #: the path identifier = sequence number of the DCID in use
        self.path_id = path_id
        self.local_cid = local_cid
        self.remote_cid = remote_cid
        self.radio = radio
        self.rtt = RttEstimator()
        self.loss = PathLossDetector(self.rtt, max_ack_delay=max_ack_delay)
        self.cc = cc
        self.state = PathState.PENDING
        self.status = PathStatus.AVAILABLE
        #: the next packet number of this path's own space
        self.next_pn = 0
        self.largest_received_pn = -1
        #: receive-side: pending ack ranges, whether an ack is owed, and
        #: how many ack-eliciting packets arrived since the last one
        self.ack_pending: list = []
        self.ack_needed = False
        self.eliciting_since_ack = 0
        #: frame-tuple cache for :meth:`ack_frame_ranges`; ``_ack_rev``
        #: is bumped whenever ``ack_pending`` is rebuilt structurally
        self._ack_rev = 0
        self._ack_frame_cache: Optional[tuple] = None
        self.largest_recv_time = 0.0
        #: when anything was last received on this path (freshness)
        self.last_recv_time = 0.0
        #: per-path traffic counters
        self.bytes_sent = 0
        self.bytes_received = 0
        self.packets_sent = 0
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
        return self.state in (PathState.ACTIVE, PathState.VALIDATING) \
            and self.status != PathStatus.ABANDON

    @property
    def is_active(self) -> bool:
        return self.state is PathState.ACTIVE

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

    def record_received(self, pn: int, now: float) -> bool:
        """Track a received packet number; returns False on duplicate."""
        self.last_recv_time = now
        ranges = self.ack_pending
        if ranges:
            # In-order fast path: ``ranges`` is sorted and disjoint, so
            # a pn one past the newest range extends it in place -- the
            # overwhelmingly common case on a healthy path -- and the
            # duplicate check only needs the covering candidate.
            last = ranges[-1]
            if pn == last[1] + 1:
                ranges[-1] = (last[0], pn)
                self.largest_received_pn = pn
                self.largest_recv_time = now
                self.ack_needed = True
                return True
            if last[0] <= pn <= last[1]:
                return False
            if pn > last[1] + 1:
                ranges.append((pn, pn))
                self.largest_received_pn = pn
                self.largest_recv_time = now
                self.ack_needed = True
                return True
        for rng in ranges:
            if rng[0] <= pn <= rng[1]:
                return False
        self._merge_ack_range(pn)
        if pn > self.largest_received_pn:
            self.largest_received_pn = pn
            self.largest_recv_time = now
        self.ack_needed = True
        return True

    def ack_frame_ranges(self) -> tuple:
        """``ack_pending`` as a tuple of :class:`AckRange` for ACK frames.

        Between ACKs only the newest range normally changes (it extends
        in place as in-order packets arrive), so the tuple prefix --
        potentially hundreds of ranges on a path with permanent loss
        gaps -- is cached and only the last element is rebuilt.  The
        same ``AckRange`` objects are reused across calls, which also
        lets the frame encoder's tail cache verify by identity-fast
        tuple comparison.
        """
        ranges = self.ack_pending
        n = len(ranges)
        last_s, last_e = ranges[-1]
        cached = self._ack_frame_cache
        if cached is not None and cached[0] == self._ack_rev \
                and cached[1] == n and cached[2][-1].start == last_s:
            tup = cached[2]
            if tup[-1].end != last_e:
                tup = tup[:-1] + (AckRange(start=last_s, end=last_e),)
                self._ack_frame_cache = (self._ack_rev, n, tup)
            return tup
        tup = tuple(AckRange(start=s, end=e) for s, e in ranges)
        self._ack_frame_cache = (self._ack_rev, n, tup)
        return tup

    def _merge_ack_range(self, pn: int) -> None:
        self._ack_rev += 1
        new_ranges = []
        start, end = pn, pn
        for s, e in self.ack_pending:
            if e == start - 1:
                start = s
            elif s == end + 1:
                end = e
            elif e < start - 1 or s > end + 1:
                new_ranges.append((s, e))
            else:  # overlap
                start = min(start, s)
                end = max(end, e)
        new_ranges.append((start, end))
        new_ranges.sort()
        self.ack_pending = new_ranges

    def abandon(self) -> None:
        self.state = PathState.ABANDONED
        self.status = PathStatus.ABANDON

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Path(id={self.path_id}, state={self.state.value}, "
                f"srtt={self.rtt.smoothed * 1000:.1f}ms, "
                f"cwnd={self.cc.cwnd:.0f})")
