"""Multipath packet schedulers.

All schedulers implement the contract the connection's send pump uses:

- ``select_path(conn, chunk) -> Path | None`` -- pick the path a chunk
  goes on; ``None`` means every candidate is congestion-limited and the
  pump should stop.
- ``on_chunk_sent_out(conn, chunk, stream)`` -- the last byte of a
  queued chunk just left; priority-based re-injection hooks here
  (the "sends out the last packet in Stream 1 / of the first frame"
  triggers of Sec. 5.1).
- ``on_queue_empty(conn)`` -- pkt_send_q drained; the traditional
  appending re-injection trigger.
- ``on_qoe(conn, qoe)`` -- QoE feedback arrived (drives Alg. 1).
- ``on_ack(conn, path, acked, lost)`` -- ack bookkeeping.

Schedulers provided:

- :class:`SinglePathScheduler` -- SP baseline and the CM baseline's
  transport (always the active path).
- :class:`MinRttScheduler` -- vanilla-MP: lowest-RTT path with
  congestion window space, no re-injection (MPQUIC's default, also the
  Linux MPTCP default; Sec. 3 footnote 4).
- :class:`RoundRobinScheduler` -- naive alternation (ablations).
- :class:`XlinkScheduler` -- min-RTT path choice *plus* QoE-controlled
  priority-based re-injection (Sec. 5).
"""

from __future__ import annotations

from typing import Optional

from repro.core.qoe_control import (DoubleThresholdController,
                                    ReinjectionMode, ThresholdConfig)
from repro.quic.cc.base import MAX_DATAGRAM_SIZE
from repro.quic.frames import QoeSignals
from repro.quic.path import Path, PathState
from repro.quic.stream import FIRST_FRAME_PRIORITY

_ACTIVE = PathState.ACTIVE


class _BaseScheduler:
    """Shared no-op hooks."""

    def on_chunk_sent_out(self, conn, chunk, stream) -> None:
        pass

    def on_queue_empty(self, conn) -> None:
        pass

    def on_qoe(self, conn, qoe: QoeSignals) -> None:
        pass

    def on_ack(self, conn, path, acked, lost) -> None:
        pass


class SinglePathScheduler(_BaseScheduler):
    """Always the (single) active path; used by SP and CM baselines."""

    def select_path(self, conn, chunk) -> Optional[Path]:
        """The first active path with window room whose
        pacer (if any) has released."""
        now = conn.loop.now
        for p in conn.paths.values():
            if p.state is not _ACTIVE:
                continue
            cc = p.cc
            if cc.can_send(MAX_DATAGRAM_SIZE) and not (
                    cc.paced and cc.next_send_time(now) > now + 1e-9):
                return p
        return None


class MinRttScheduler(_BaseScheduler):
    """Vanilla-MP: lowest smoothed RTT among paths with window space."""

    def select_path(self, conn, chunk) -> Optional[Path]:
        """One pass, keeping the lowest smoothed RTT so far: ties go to
        the first path in ``conn.paths`` order.

        A pacing-blocked path is skipped rather than waited on, so a
        paced fast path never stalls data that a slower path could
        carry now; the connection's pacing timer re-pumps when the
        fast path's token releases.
        """
        now = conn.loop.now
        best = None
        best_rtt = 0.0
        for p in conn.paths.values():
            if p.state is not _ACTIVE:
                continue
            cc = p.cc
            if not cc.can_send(MAX_DATAGRAM_SIZE) or (
                    cc.paced and cc.next_send_time(now) > now + 1e-9):
                continue
            srtt = p.rtt.smoothed
            if best is None or srtt < best_rtt:
                best, best_rtt = p, srtt
        return best


class RoundRobinScheduler(_BaseScheduler):
    """Alternate across usable paths regardless of RTT."""

    def __init__(self) -> None:
        self._next = 0

    def select_path(self, conn, chunk) -> Optional[Path]:
        now = conn.loop.now
        usable = sorted(
            (p for p in conn.paths.values()
             if p.state is _ACTIVE and p.cc.can_send(MAX_DATAGRAM_SIZE)
             and not (p.cc.paced and p.cc.next_send_time(now) > now + 1e-9)),
            key=lambda p: p.path_id)
        if not usable:
            return None
        path = usable[self._next % len(usable)]
        self._next += 1
        return path


class XlinkScheduler(_BaseScheduler):
    """The XLINK scheduler: min-RTT dispatch + QoE-driven re-injection.

    ``mode`` selects the insertion policy of Fig. 4; the
    :class:`DoubleThresholdController` (Alg. 1) gates every
    re-injection decision unless configured ``always_on``.
    """

    def __init__(self,
                 mode: ReinjectionMode = ReinjectionMode.FRAME_PRIORITY,
                 thresholds: Optional[ThresholdConfig] = None) -> None:
        self.mode = mode
        self.controller = DoubleThresholdController(thresholds)
        self._last_sweep = -1e9
        #: the connection the armed monitor watches; ``None`` when idle
        self._monitor_conn = None
        #: how often the gate is re-evaluated while data is outstanding
        self.monitor_interval_s = 0.025

    # -- path selection ---------------------------------------------------

    def select_path(self, conn, chunk) -> Optional[Path]:
        """Min-RTT among the paths with window room and a released
        pacer, avoiding suspect ones; one pass over ``conn.paths``.

        Suspect paths (nothing received for several RTTs) are avoided
        when an alternative exists: XLINK "swiftly adapts packet
        distribution across fast varying links" (Sec. 7.3).  The
        vanilla min-RTT scheduler deliberately lacks this and keeps
        trusting a frozen RTT estimate -- the Fig. 1 failure mode.  A
        re-injected copy never goes on the path its original is stuck
        on: when that is the only candidate (the only non-suspect path,
        or the only path), the copy waits.
        """
        now = conn.loop.now
        exclude = chunk.exclude_path if chunk.kind == "reinject" else None
        any_fresh = False
        best = fresh = None
        best_rtt = fresh_rtt = 0.0
        for p in conn.paths.values():
            if p.state is not _ACTIVE:
                continue
            cc = p.cc
            if not cc.can_send(MAX_DATAGRAM_SIZE) or (
                    cc.paced and cc.next_send_time(now) > now + 1e-9):
                continue
            suspect = p.is_suspect(now)
            any_fresh = any_fresh or not suspect
            if p.path_id == exclude:
                continue
            srtt = p.rtt.smoothed
            if not suspect and (fresh is None or srtt < fresh_rtt):
                fresh, fresh_rtt = p, srtt
            if not any_fresh and (best is None or srtt < best_rtt):
                best, best_rtt = p, srtt
        return fresh if any_fresh else best

    # -- QoE feedback -------------------------------------------------------

    def on_qoe(self, conn, qoe: QoeSignals) -> None:
        self.controller.update(qoe, conn.loop.now)

    def _gate(self, conn) -> bool:
        """Ask Alg. 1 whether re-injection is currently allowed."""
        return self.controller.should_reinject(
            conn.max_delivery_time(), now=conn.loop.now)

    # -- re-injection triggers ----------------------------------------------

    @staticmethod
    def _fastest_path(conn) -> Optional[Path]:
        """The active path of lowest smoothed RTT (the first
        of equals), window or no window."""
        best = None
        for p in conn.paths.values():
            if p.state is _ACTIVE and (
                    best is None or p.rtt.smoothed < best.rtt.smoothed):
                best = p
        return best

    def _slow_path_ranges(self, conn, overdue_only: bool = False,
                          **filters) -> list:
        """Unacked ranges whose original copy is worth duplicating.

        Re-injection decouples the *fast* path from the *slow* path
        (Fig. 3b).  A duplicate is useful when the original is
        expected to arrive *later* than a fresh copy sent on the
        fastest path now -- which covers two cases:

        - the original is *overdue* (older than its path's delivery
          time estimate): it is stuck on a degraded path whose frozen
          RTT estimate no longer means anything (the Fig. 1a outage);
        - the original rides a path so slow that even a fresh copy on
          the fast path beats it (the heterogeneity case of Fig. 4).

        ``overdue_only=True`` restricts to the first case.  The bulk
        sweeps use it: in a sustained capacity-limited regime the
        broader predicate would keep duplicating the slower path's
        whole flow onto the fast one, and the redundancy would eat the
        very capacity the client needs (the throughput impact Sec. 5.2
        warns about).  The latency-critical stream/first-frame
        triggers keep the broad predicate.
        """
        fastest = self._fastest_path(conn)
        now = conn.loop.now
        fast_rtt = fastest.rtt.smoothed if fastest is not None else 0.0

        def wanted(orig, sent_time: float) -> bool:
            overdue = orig.is_overdue(sent_time, now)
            if overdue or overdue_only:
                return overdue
            if fastest is not None and orig.path_id == fastest.path_id:
                # Same path: a duplicate could only go on a slower one.
                return False
            expected_arrival = sent_time + orig.rtt.delivery_time
            return expected_arrival > now + fast_rtt

        # The predicate only reads (path, sent_time), so the connection
        # applies it per packet, before it builds any chunk.  Overdue
        # alone can only turn false as send times grow.
        return [(chunk, pid) for chunk, pid, _sent_time
                in conn.unacked_ranges(wanted=wanted,
                                       wanted_oldest_first=overdue_only,
                                       **filters)]

    def on_queue_empty(self, conn) -> None:
        """Traditional appending trigger: queue drained, duplicate the
        slow-path unacked_q tail onto the queue end (Fig. 3b / Fig. 4a).

        The sweep can only find work when some path's oldest
        ack-eliciting packet is overdue, so that one look per path
        comes first; the rate limit, Alg. 1's gate and the unacked_q
        walk run only after it.  Sweeps are rate-limited to one per
        fastest-path RTT: the real scheduler evaluates re-injection at
        send opportunities, and a duplicate sent less than an RTT after
        the original cannot have learned anything new about its fate.
        """
        if self.mode is ReinjectionMode.NONE:
            return
        if self._monitor_conn is None:
            self._ensure_monitor(conn)
        now = conn.loop.now
        if not conn.any_overdue(now):
            return
        fastest = self._fastest_path(conn)
        min_rtt = fastest.rtt.smoothed if fastest is not None else 0.05
        if now - self._last_sweep < min_rtt:
            return
        if self._gate(conn):
            self._sweep_overdue(conn)

    def _sweep_overdue(self, conn) -> bool:
        """Append a copy of every overdue slow-path range to the send
        queue; did it find any?"""
        swept = False
        for chunk, _path_id in self._slow_path_ranges(
                conn, overdue_only=True):
            conn.enqueue_reinjection(chunk, position=None)
            swept = True
        if swept:
            self._last_sweep = conn.loop.now
        return swept

    def _ensure_monitor(self, conn) -> None:
        """Arm the periodic gate re-evaluation.

        Re-injection urgency can arise *without* a transport event:
        during a full stall no acks arrive and the send queue stays
        empty while the client's buffer drains.  The monitor re-runs
        the appending sweep every ``monitor_interval_s`` as long as
        unacked data is outstanding, so Alg. 1 gets its chance to turn
        re-injection on the moment the (extrapolated) play-time-left
        crosses the threshold.
        """
        if self._monitor_conn is not None \
                or self.mode is ReinjectionMode.NONE:
            return
        self._monitor_conn = conn
        conn.loop.schedule_after(self.monitor_interval_s, self._monitor_tick)

    def _monitor_tick(self) -> None:
        """One monitor wakeup.  A bound method, not a closure that
        re-arms itself: a re-arm then allocates no reference cycle."""
        conn = self._monitor_conn
        if conn.closed or not any(
                p.loss.has_unacked for p in conn.paths.values()):
            self._monitor_conn = None
            return
        if not conn.send_queue and conn.any_overdue(conn.loop.now) \
                and self._gate(conn) and self._sweep_overdue(conn):
            conn.pump()
        conn.loop.schedule_after(self.monitor_interval_s, self._monitor_tick)

    def on_chunk_sent_out(self, conn, chunk, stream) -> None:
        """Priority triggers (Fig. 4b/4c)."""
        if self.mode in (ReinjectionMode.NONE, ReinjectionMode.APPENDING):
            return
        if chunk.kind != "new":
            return
        if self.mode is ReinjectionMode.FRAME_PRIORITY \
                and chunk.frame_priority == FIRST_FRAME_PRIORITY:
            self._reinject_first_frame(conn, chunk, stream)
        # Stream-priority trigger: last queued byte of this stream left.
        if not any(c.stream_id == chunk.stream_id and c.kind == "new"
                   for c in conn.send_queue):
            self._reinject_stream(conn, chunk, stream)

    def _reinject_first_frame(self, conn, chunk, stream) -> None:
        """First-video-frame acceleration: after the last first-frame
        packet leaves, duplicate its unacked packets *before* any unsent
        packets of other frames in the same stream (Fig. 4c).

        Unlike the bulk triggers, no slow-path filter is applied: the
        paper re-injects every unacked first-frame packet ("If there is
        any, the scheduler re-injects it").  The first frame is small,
        so the cost is negligible while the latency win bounds video
        start-up by the fast path.  A min-RTT-favoured but
        bandwidth-starved path is exactly the case the filter's RTT
        heuristic cannot see, and the unconditional duplicate covers it.
        """
        frame_end = stream.priority_range_end(FIRST_FRAME_PRIORITY)
        if frame_end is not None and chunk.end < frame_end:
            return  # more first-frame data still queued
        if not self._gate(conn):
            return
        pending = conn.unacked_ranges(stream_id=chunk.stream_id,
                                      frame_priority=FIRST_FRAME_PRIORITY)
        position = self._position_before_stream_tail(conn, chunk.stream_id)
        for dup, _path_id, _sent_time in pending:
            conn.enqueue_reinjection(dup, position=position)
            position += 1

    def _reinject_stream(self, conn, chunk, stream) -> None:
        """Stream-priority re-injection: duplicates of this stream's
        unacked packets go before unsent packets of lower-priority
        streams (Fig. 4b)."""
        if not self._gate(conn):
            return
        pending = self._slow_path_ranges(conn, stream_id=chunk.stream_id)
        if not pending:
            return
        position = self._position_before_lower_priority(
            conn, chunk.stream_priority)
        for dup, _path_id in pending:
            conn.enqueue_reinjection(dup, position=position)
            position += 1

    @staticmethod
    def _position_before_lower_priority(conn, stream_priority: int) -> int:
        """Index of the first queued chunk of a lower-priority stream."""
        for i, queued in enumerate(conn.send_queue):
            if queued.stream_priority > stream_priority:
                return i
        return len(conn.send_queue)

    @staticmethod
    def _position_before_stream_tail(conn, stream_id: int) -> int:
        """Index of the first unsent chunk of other frames in the stream."""
        for i, queued in enumerate(conn.send_queue):
            if queued.stream_id == stream_id and queued.kind == "new":
                return i
        return 0
