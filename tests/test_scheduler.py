"""Unit tests for schedulers and the path manager."""

import pytest

from repro.core import (MinRttScheduler, ReinjectionMode, RoundRobinScheduler,
                        SinglePathScheduler, ThresholdConfig,
                        WIRELESS_PREFERENCE_ORDER, XlinkScheduler,
                        select_primary_path)
from repro.quic.cc import NewRenoCc
from repro.quic.cid import ConnectionId
from repro.quic.connection import SendChunk
from repro.quic.frames import QoeSignals
from repro.quic.path import Path, PathState
from repro.traces.radio_profiles import RadioType


class FakeLoop:
    def __init__(self, now=0.0):
        self.now = now

    def schedule_after(self, delay, cb):
        return type("E", (), {"cancel": lambda self: None})()


class FakeConn:
    """Just enough connection surface for scheduler unit tests."""

    def __init__(self, paths, now=0.0):
        self.paths = {p.path_id: p for p in paths}
        self.loop = FakeLoop(now)
        self.send_queue = []
        self.closed = False
        self._unacked = []
        self._reinjected = []

    def any_overdue(self, now):
        # ``_unacked`` need not be oldest-first per path: any overdue
        # entry answers, which is what the real check implies
        return any(self.paths[pid].is_overdue(t, now)
                   for _chunk, pid, t in self._unacked)

    def unacked_ranges(self, stream_id=None, frame_priority=None,
                       wanted=None, wanted_oldest_first=False):
        out = []
        for chunk, pid, t in self._unacked:
            if wanted is not None and not wanted(self.paths[pid], t):
                continue
            if stream_id is not None and chunk.stream_id != stream_id:
                continue
            if frame_priority is not None \
                    and chunk.frame_priority != frame_priority:
                continue
            out.append((chunk, pid, t))
        return out

    def enqueue_reinjection(self, chunk, position=None):
        self._reinjected.append((chunk, position))
        if position is None:
            self.send_queue.append(chunk)
        else:
            self.send_queue.insert(position, chunk)

    def max_delivery_time(self):
        return 0.0

    def pump(self):
        pass


def gate_answers(sched):
    """Record every answer of ``sched``'s Alg. 1 gate, in order."""
    answers = []
    ask = sched.controller.should_reinject

    def recorded(*args, **kwargs):
        answers.append(ask(*args, **kwargs))
        return answers[-1]

    sched.controller.should_reinject = recorded
    return answers


def make_path(path_id, srtt, state=PathState.ACTIVE, received=True,
              last_recv=0.0):
    cid = ConnectionId(cid=bytes([path_id]) * 8, sequence_number=path_id)
    path = Path(path_id, cid, cid, NewRenoCc())
    path.state = state
    path.rtt.update(srtt)
    path.rtt.smoothed = srtt
    path.rtt.rttvar = srtt / 4
    if received:
        path.packets_received = 1
        path.last_recv_time = last_recv
    return path


def chunk(stream_id=0, offset=0, length=1000, kind="new", sp=0, fp=10,
          exclude=None):
    return SendChunk(stream_id=stream_id, offset=offset, length=length,
                     kind=kind, stream_priority=sp, frame_priority=fp,
                     exclude_path=exclude)


class TestMinRtt:
    def test_picks_lowest_rtt(self):
        conn = FakeConn([make_path(0, 0.1), make_path(1, 0.02)])
        assert MinRttScheduler().select_path(conn, chunk()).path_id == 1

    def test_skips_window_limited(self):
        fast = make_path(1, 0.02)
        fast.cc.bytes_in_flight = int(fast.cc.cwnd)
        conn = FakeConn([make_path(0, 0.1), fast])
        assert MinRttScheduler().select_path(conn, chunk()).path_id == 0

    def test_none_when_all_limited(self):
        p = make_path(0, 0.1)
        p.cc.bytes_in_flight = int(p.cc.cwnd)
        conn = FakeConn([p])
        assert MinRttScheduler().select_path(conn, chunk()) is None

    def test_ignores_abandoned(self):
        conn = FakeConn([make_path(0, 0.02, state=PathState.ABANDONED),
                         make_path(1, 0.1)])
        assert MinRttScheduler().select_path(conn, chunk()).path_id == 1


class TestSinglePath:
    def test_uses_active_path(self):
        conn = FakeConn([make_path(0, 0.05)])
        assert SinglePathScheduler().select_path(conn, chunk()).path_id == 0

    def test_standby_not_used(self):
        conn = FakeConn([make_path(0, 0.05, state=PathState.STANDBY)])
        assert SinglePathScheduler().select_path(conn, chunk()) is None


class TestRoundRobin:
    def test_alternates(self):
        conn = FakeConn([make_path(0, 0.02), make_path(1, 0.1)])
        sched = RoundRobinScheduler()
        picks = [sched.select_path(conn, chunk()).path_id for _ in range(4)]
        assert picks == [0, 1, 0, 1]


class TestXlinkSelectPath:
    def test_avoids_suspect_paths(self):
        """A path that went dark is skipped even though its frozen
        smoothed RTT still looks best."""
        from repro.quic.loss_detection import SentPacket
        dead = make_path(0, 0.02, last_recv=0.0)
        alive = make_path(1, 0.1, last_recv=9.9)
        dead.loss.on_packet_sent(SentPacket(   # has unacked data
            packet_number=0, sent_time=0.0, size=1000,
            ack_eliciting=True, in_flight=True))
        conn = FakeConn([dead, alive], now=10.0)
        sched = XlinkScheduler()
        assert sched.select_path(conn, chunk()).path_id == 1

    def test_reinjection_excludes_original_path(self):
        conn = FakeConn([make_path(0, 0.02), make_path(1, 0.1)])
        sched = XlinkScheduler()
        picked = sched.select_path(conn, chunk(kind="reinject", exclude=0))
        assert picked.path_id == 1

    def test_reinjection_skipped_if_only_original_available(self):
        other = make_path(1, 0.1)
        other.cc.bytes_in_flight = int(other.cc.cwnd)
        conn = FakeConn([make_path(0, 0.02), other])
        sched = XlinkScheduler()
        assert sched.select_path(conn, chunk(kind="reinject",
                                             exclude=0)) is None

    def test_reinjection_waits_rather_than_use_a_suspect_path(self):
        """The original's path is the only fresh one: the copy waits
        rather than go on a path that went dark."""
        from repro.quic.loss_detection import SentPacket
        dead = make_path(1, 0.02, last_recv=0.0)
        dead.loss.on_packet_sent(SentPacket(
            packet_number=0, sent_time=0.0, size=1000,
            ack_eliciting=True, in_flight=True))
        conn = FakeConn([dead, make_path(0, 0.1, last_recv=9.9)], now=10.0)
        sched = XlinkScheduler()
        assert sched.select_path(conn, chunk()).path_id == 0
        assert sched.select_path(conn, chunk(kind="reinject",
                                             exclude=0)) is None


class TestXlinkReinjectionTriggers:
    def _conn_with_stuck_range(self, now=10.0):
        slow = make_path(0, 0.5, last_recv=now)   # genuinely slow path
        fast = make_path(1, 0.02, last_recv=now)
        conn = FakeConn([slow, fast], now=now)
        stuck = chunk(stream_id=4, offset=0, length=1000, kind="reinject",
                      exclude=0)
        # Sent 2 s ago on the slow path: well past its delivery-time
        # estimate, so the bulk sweep's overdue-only filter accepts it.
        conn._unacked = [(stuck, 0, now - 2.0)]
        return conn, stuck

    def test_queue_empty_appends_duplicates(self):
        conn, stuck = self._conn_with_stuck_range()
        sched = XlinkScheduler(mode=ReinjectionMode.APPENDING,
                               thresholds=ThresholdConfig(always_on=True))
        sched.on_queue_empty(conn)
        assert conn._reinjected
        assert conn._reinjected[0][1] is None  # appended

    def test_gate_off_suppresses(self):
        conn, stuck = self._conn_with_stuck_range()
        sched = XlinkScheduler(mode=ReinjectionMode.APPENDING,
                               thresholds=ThresholdConfig(0.5, 2.0))
        answers = gate_answers(sched)
        # the client reports 10 s of play time left: above T_th2
        sched.controller.update(QoeSignals(cached_frames=250, fps=25),
                                now=conn.loop.now)
        sched.on_queue_empty(conn)
        assert conn._reinjected == []
        assert answers == [False]

    def test_none_mode_never_reinjects(self):
        conn, stuck = self._conn_with_stuck_range()
        sched = XlinkScheduler(mode=ReinjectionMode.NONE,
                               thresholds=ThresholdConfig(always_on=True))
        sched.on_queue_empty(conn)
        assert conn._reinjected == []

    def test_sweep_rate_limited(self):
        conn, stuck = self._conn_with_stuck_range()
        sched = XlinkScheduler(mode=ReinjectionMode.APPENDING,
                               thresholds=ThresholdConfig(always_on=True))
        sched.on_queue_empty(conn)
        first = len(conn._reinjected)
        conn._unacked.append(
            (chunk(stream_id=8, kind="reinject", exclude=0), 0,
             conn.loop.now - 2.0))
        sched.on_queue_empty(conn)  # within one RTT: suppressed
        assert len(conn._reinjected) == first

    def test_fresh_fast_path_ranges_not_duplicated(self):
        """Data in flight on the fastest path is left alone."""
        now = 10.0
        fast = make_path(0, 0.02, last_recv=now)
        slow = make_path(1, 0.5, last_recv=now)
        conn = FakeConn([fast, slow], now=now)
        fresh = chunk(stream_id=4, kind="reinject", exclude=0)
        conn._unacked = [(fresh, 0, now - 0.001)]  # on fast path, fresh
        sched = XlinkScheduler(mode=ReinjectionMode.APPENDING,
                               thresholds=ThresholdConfig(always_on=True))
        sched.on_queue_empty(conn)
        assert conn._reinjected == []

    def test_overdue_fast_path_ranges_duplicated(self):
        """Even fastest-path data is rescued once it is overdue."""
        now = 10.0
        fast = make_path(0, 0.02, last_recv=now)
        slow = make_path(1, 0.5, last_recv=now)
        conn = FakeConn([fast, slow], now=now)
        stuck = chunk(stream_id=4, kind="reinject", exclude=0)
        conn._unacked = [(stuck, 0, now - 1.0)]  # 1 s old on a 20 ms path
        sched = XlinkScheduler(mode=ReinjectionMode.APPENDING,
                               thresholds=ThresholdConfig(always_on=True))
        sched.on_queue_empty(conn)
        assert conn._reinjected


class TestStreamPriorityInsertion:
    def test_inserted_before_lower_priority(self):
        conn = FakeConn([make_path(0, 0.02)])
        conn.send_queue = [chunk(stream_id=0, sp=0),
                           chunk(stream_id=4, sp=1),
                           chunk(stream_id=8, sp=2)]
        pos = XlinkScheduler._position_before_lower_priority(conn, 0)
        assert pos == 1

    def test_appends_when_no_lower_priority(self):
        conn = FakeConn([make_path(0, 0.02)])
        conn.send_queue = [chunk(stream_id=0, sp=0)]
        pos = XlinkScheduler._position_before_lower_priority(conn, 5)
        assert pos == 1

    def test_frame_priority_position_before_stream_tail(self):
        conn = FakeConn([make_path(0, 0.02)])
        conn.send_queue = [chunk(stream_id=4, sp=1),
                           chunk(stream_id=0, sp=0)]
        pos = XlinkScheduler._position_before_stream_tail(conn, 0)
        assert pos == 1


class TestPrimaryPathSelection:
    def test_paper_ordering(self):
        """Sec. 5.3: 5G SA > 5G NSA > WiFi > LTE."""
        interfaces = [(0, RadioType.LTE), (1, RadioType.WIFI),
                      (2, RadioType.NR_NSA), (3, RadioType.NR_SA)]
        assert select_primary_path(interfaces) == 3

    def test_wifi_over_lte(self):
        assert select_primary_path([(0, RadioType.LTE),
                                    (1, RadioType.WIFI)]) == 1

    def test_custom_order(self):
        order = (RadioType.LTE, RadioType.WIFI)
        assert select_primary_path([(0, RadioType.LTE),
                                    (1, RadioType.WIFI)], order=order) == 0

    def test_single_interface(self):
        assert select_primary_path([(7, RadioType.LTE)]) == 7

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_primary_path([])

    def test_preference_order_constant_matches_paper(self):
        assert WIRELESS_PREFERENCE_ORDER == (
            RadioType.NR_SA, RadioType.NR_NSA, RadioType.WIFI,
            RadioType.LTE)
