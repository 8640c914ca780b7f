"""Property-based tests on scheduler invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (MinRttScheduler, ReinjectionMode, RoundRobinScheduler,
                        SinglePathScheduler, ThresholdConfig, XlinkScheduler)
from repro.quic.cc import BbrCc, NewRenoCc
from repro.quic.cc.base import MAX_DATAGRAM_SIZE
from repro.quic.cid import ConnectionId
from repro.quic.connection import Connection, ConnectionConfig, SendChunk
from repro.quic.loss_detection import SentPacket
from repro.quic.path import Path, PathState
from repro.quic.send import SentFrameInfo


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
        return [p for p in self.paths.values()
                if p.state is PathState.ACTIVE]

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
            assert picked.state is PathState.ACTIVE
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
            # oldest first, as ``on_packet_sent`` keeps them; the walk
            # reads the send times of the ack-eliciting index
            eliciting = path.loss.eliciting_sent_time
            for pkt, age in zip(tracked, sorted(path_ages[:len(tracked)],
                                                reverse=True)):
                pkt.sent_time = now - age
                if pkt.packet_number in eliciting:
                    eliciting[pkt.packet_number] = now - age
            if dark:
                path.last_recv_time = now - 10.0
            assert path.is_suspect(now) == dark
        sched = XlinkScheduler()
        swept = sched._slow_path_ranges(server, overdue_only=True)
        assert swept == sched._slow_path_ranges(_FullScan(server),
                                                overdue_only=True)
        if any(silent):
            assert swept


# -- the one-pass select_path against the list-based definition ----------
#
# The reference model is the list-based definition of ``select_path``:
# filter the active paths, then those with window room and a
# released pacer, then take the first / the lowest smoothed RTT
# (``min`` keeps the first of equals).

def _ref_window(conn, now):
    out = []
    for p in conn.paths.values():
        if p.state is not PathState.ACTIVE:
            continue
        cc = p.cc
        if not cc.can_send(MAX_DATAGRAM_SIZE):
            continue
        if cc.paced and cc.next_send_time(now) > now + 1e-9:
            continue
        out.append(p)
    return out


def _ref_min_rtt(paths):
    return min(paths, key=lambda p: p.rtt.smoothed, default=None)


def ref_single_path(conn, chunk):
    usable = _ref_window(conn, conn.loop.now)
    return usable[0] if usable else None


def ref_min_rtt(conn, chunk):
    return _ref_min_rtt(_ref_window(conn, conn.loop.now))


def ref_xlink(conn, chunk):
    usable = _ref_window(conn, conn.loop.now)
    if not usable:
        return None
    now = conn.loop.now
    fresh = [p for p in usable if not p.is_suspect(now)]
    candidates = fresh if fresh else usable
    if chunk.kind == "reinject" and chunk.exclude_path is not None:
        others = [p for p in candidates if p.path_id != chunk.exclude_path]
        return _ref_min_rtt(others) if others else None
    return _ref_min_rtt(candidates)


NOW = 10.0


@st.composite
def path_sets(draw):
    """1-5 paths in a drawn ``conn.paths`` order, each with a drawn
    state, RTT (from a small set, so equal RTTs are common),
    window, controller (unpaced NewReno or paced BBR, released or
    not) and liveness (suspect or not)."""
    n = draw(st.integers(1, 5))
    order = draw(st.permutations(range(n)))
    paths = []
    for path_id in order:
        cid = ConnectionId(cid=bytes([path_id]) * 8, sequence_number=path_id)
        paced = draw(st.booleans())
        path = Path(path_id, cid, cid, BbrCc() if paced else NewRenoCc())
        # weighted towards paths that can carry data, so most draws
        # leave the schedulers more than one candidate to choose from
        path.state = draw(st.sampled_from(
            (PathState.ACTIVE,) * 4 + (PathState.STANDBY,
                                       PathState.ABANDONED)))
        srtt = draw(st.sampled_from((0.01, 0.02, 0.05, 0.2)))
        path.rtt.update(srtt)
        path.rtt.smoothed = srtt
        if draw(st.integers(0, 3)) == 0:             # window-limited
            path.cc.bytes_in_flight = int(path.cc.cwnd)
        if paced:                                    # pacer released?
            path.cc._next_send_at = NOW + draw(
                st.sampled_from((-0.01, 0.0, 1e-10, 0.005)))
        path.packets_received = 1
        path.last_recv_time = NOW - draw(          # > 0.25 s: suspect
            st.sampled_from((0.0, 0.1, 0.3, 5.0)))
        paths.append(path)
    return paths


chunks = st.builds(
    SendChunk, stream_id=st.just(0), offset=st.just(0),
    length=st.just(1000), kind=st.sampled_from(("new", "rtx", "reinject")),
    exclude_path=st.one_of(st.none(), st.integers(0, 4)))


class TestOnePassSelectPath:
    @given(path_sets(), chunks)
    @settings(max_examples=400, deadline=None)
    def test_matches_the_list_based_definition(self, paths, chunk):
        conn = FakeConn(paths, now=NOW)
        for scheduler, reference in (
                (SinglePathScheduler(), ref_single_path),
                (MinRttScheduler(), ref_min_rtt),
                (XlinkScheduler(), ref_xlink)):
            assert scheduler.select_path(conn, chunk) \
                is reference(conn, chunk), type(scheduler).__name__


# -- the overdue check in front of the appending sweep -------------------

path_histories = st.lists(
    st.fixed_dictionaries({
        "state": st.sampled_from((PathState.ACTIVE, PathState.STANDBY,
                                  PathState.ABANDONED)),
        "srtt": st.sampled_from((0.01, 0.05, 0.3)),
        "silent_s": st.sampled_from((0.0, 0.2, 5.0)),
        # per packet: age at NOW, ack-eliciting?, range acked since?
        "packets": st.lists(st.tuples(st.floats(0.0, 2.0), st.booleans(),
                                      st.booleans()), max_size=8),
    }), min_size=1, max_size=3)


class TestOverdueCheckProperties:
    @given(path_histories)
    @settings(max_examples=200, deadline=None)
    def test_a_sweep_with_work_is_never_skipped(self, histories):
        """Whenever the overdue-only walk that visits every packet finds
        a range to duplicate, ``Connection.any_overdue`` -- the one look
        per path that gates the appending sweep -- says so."""
        from repro.sim import EventLoop
        loop = EventLoop()
        conn = Connection(loop, ConnectionConfig(is_client=False),
                          transmit=lambda pid, d: None,
                          scheduler=XlinkScheduler())
        stream_id = conn.create_stream()
        stream = conn.send_streams[stream_id]
        stream.write(bytes(1000 * 8 * len(histories)))
        loop.now = NOW
        offset = 0
        for path_id, history in enumerate(histories):
            path = conn.add_local_path(path_id, path_id)
            path.state = history["state"]
            path.rtt.update(history["srtt"])
            path.packets_received = 1
            path.last_recv_time = NOW - history["silent_s"]
            ages = sorted((p[0] for p in history["packets"]), reverse=True)
            for pn, (age, (_a, eliciting, acked)) in enumerate(
                    zip(ages, history["packets"])):
                info = ()
                if eliciting:
                    info = (SentFrameInfo(stream_id, offset, 1000),)
                    if acked:
                        stream.acked_ranges.add(offset, offset + 1000)
                    offset += 1000
                path.loss.on_packet_sent(SentPacket(
                    pn, NOW - age, 1200, eliciting, True, info))
        sched = XlinkScheduler()
        if sched._slow_path_ranges(_FullScan(conn), overdue_only=True):
            assert conn.any_overdue(NOW)
