"""Property-based tests on scheduler invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (MinRttScheduler, ReinjectionMode, RoundRobinScheduler,
                        ThresholdConfig, XlinkScheduler)
from repro.quic.cc import NewRenoCc
from repro.quic.cid import ConnectionId
from repro.quic.connection import SendChunk
from repro.quic.path import Path, PathState


class FakeLoop:
    def __init__(self, now=0.0):
        self.now = now

    def schedule_after(self, delay, cb):
        return type("E", (), {"cancel": lambda self: None})()


class FakeConn:
    def __init__(self, paths, now=0.0):
        self.paths = {p.path_id: p for p in paths}
        self.loop = FakeLoop(now)
        self.send_queue = []
        self.closed = False

    def usable_paths(self):
        return [p for p in self.paths.values() if p.is_active]

    def unacked_ranges(self, **kw):
        return []

    def max_delivery_time(self):
        return 0.0


def make_path(path_id, srtt, inflight_fraction=0.0,
              state=PathState.ACTIVE):
    cid = ConnectionId(cid=bytes([path_id % 256]) * 8,
                       sequence_number=path_id)
    path = Path(path_id, cid, cid, NewRenoCc())
    path.state = state
    path.rtt.update(max(srtt, 1e-4))
    path.rtt.smoothed = max(srtt, 1e-4)
    path.cc.bytes_in_flight = int(path.cc.cwnd * inflight_fraction)
    path.packets_received = 1
    path.last_recv_time = 0.0
    return path


paths_strategy = st.lists(
    st.tuples(st.floats(0.001, 2.0),       # srtt
              st.floats(0.0, 1.2),         # inflight fraction of cwnd
              st.booleans()),              # active?
    min_size=1, max_size=6)


class TestSelectPathProperties:
    @given(paths_strategy)
    @settings(max_examples=150)
    def test_minrtt_never_picks_window_limited(self, specs):
        paths = [make_path(i, srtt, frac,
                           PathState.ACTIVE if active
                           else PathState.ABANDONED)
                 for i, (srtt, frac, active) in enumerate(specs)]
        conn = FakeConn(paths)
        chunk = SendChunk(stream_id=0, offset=0, length=1000)
        picked = MinRttScheduler().select_path(conn, chunk)
        if picked is not None:
            assert picked.is_active
            assert picked.cc.can_send(1400)
            # No other eligible path has a strictly lower RTT.
            for p in conn.usable_paths():
                if p.cc.can_send(1400):
                    assert picked.rtt.smoothed <= p.rtt.smoothed + 1e-12
        else:
            # None means every active path is window-limited.
            for p in conn.usable_paths():
                assert not p.cc.can_send(1400)

    @given(paths_strategy)
    @settings(max_examples=150)
    def test_xlink_reinject_never_uses_excluded_path(self, specs):
        paths = [make_path(i, srtt, frac,
                           PathState.ACTIVE if active
                           else PathState.ABANDONED)
                 for i, (srtt, frac, active) in enumerate(specs)]
        conn = FakeConn(paths)
        chunk = SendChunk(stream_id=0, offset=0, length=1000,
                          kind="reinject", exclude_path=0)
        picked = XlinkScheduler().select_path(conn, chunk)
        if picked is not None:
            assert picked.path_id != 0

    @given(paths_strategy, st.integers(1, 12))
    @settings(max_examples=100)
    def test_round_robin_covers_all_eligible(self, specs, rounds):
        paths = [make_path(i, srtt, 0.0,
                           PathState.ACTIVE if active
                           else PathState.ABANDONED)
                 for i, (srtt, _f, active) in enumerate(specs)]
        conn = FakeConn(paths)
        sched = RoundRobinScheduler()
        chunk = SendChunk(stream_id=0, offset=0, length=100)
        eligible = {p.path_id for p in conn.usable_paths()
                    if p.cc.can_send(1400)}
        picks = set()
        for _ in range(rounds * max(len(eligible), 1)):
            p = sched.select_path(conn, chunk)
            if p is not None:
                picks.add(p.path_id)
        if eligible and rounds >= 1:
            assert picks == eligible


class TestGateProperties:
    @given(st.floats(0.05, 3.0), st.floats(0.05, 3.0),
           st.floats(0.0, 5.0), st.floats(0.0, 3.0))
    @settings(max_examples=200)
    def test_gate_never_crashes_and_is_deterministic(self, t1, t2,
                                                     buffer_s, dtmax):
        from repro.core import DoubleThresholdController
        from repro.quic.frames import QoeSignals
        lo, hi = min(t1, t2), max(t1, t2)
        ctrl = DoubleThresholdController(ThresholdConfig(lo, hi))
        qoe = QoeSignals(cached_bytes=int(buffer_s * 250_000),
                         cached_frames=int(buffer_s * 25),
                         bps=2_000_000, fps=25)
        ctrl.update(qoe, now=0.0)
        first = ctrl.should_reinject(dtmax, now=0.0)
        second = ctrl.should_reinject(dtmax, now=0.0)
        assert first == second


class _FullScan:
    """A connection whose ``unacked_ranges`` never stops a walk early."""

    def __init__(self, conn):
        self._conn = conn

    def __getattr__(self, name):
        return getattr(self._conn, name)

    def unacked_ranges(self, wanted_oldest_first=False, **filters):
        return self._conn.unacked_ranges(**filters)


class TestOverdueSweepProperties:
    @given(ages=st.lists(st.lists(st.floats(0.0, 1.5), min_size=16,
                                  max_size=16), min_size=2, max_size=2),
           silent=st.lists(st.booleans(), min_size=2, max_size=2))
    @settings(max_examples=40, deadline=None)
    def test_early_exit_equals_the_full_scan(self, ages, silent):
        """The overdue-only sweep stops a path's walk at the first
        packet that is not overdue; on any in-flight set -- suspect
        paths, where everything is overdue, included -- it returns the
        chunks of the walk that visits every packet, in the same
        order."""
        from repro.sim import EventLoop
        from tests.test_connection import build_pair, two_path_net
        loop = EventLoop()
        client, server = build_pair(loop, two_path_net(loop))
        client.connect()
        loop.run(until=0.5)
        client.open_path(1, 1)
        loop.run(until=3.0)
        server.stream_send(server.create_stream(), bytes(300_000))
        now = loop.now
        for path, path_ages, dark in zip(server.paths.values(), ages,
                                         silent):
            tracked = list(path.loss.sent.values())
            assert any(pkt.frames_info for pkt in tracked)
            assert len(tracked) <= len(path_ages)
            # oldest first, as ``on_packet_sent`` keeps them
            for pkt, age in zip(tracked, sorted(path_ages[:len(tracked)],
                                                reverse=True)):
                pkt.sent_time = now - age
            if dark:
                path.last_recv_time = now - 10.0
            assert path.is_suspect(now) == dark
        sched = XlinkScheduler()
        swept = sched._slow_path_ranges(server, overdue_only=True)
        assert swept == sched._slow_path_ranges(_FullScan(server),
                                                overdue_only=True)
        if any(silent):
            assert swept
