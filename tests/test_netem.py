"""Tests for the network emulation layer."""

import functools
import gc
import itertools
import random
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netem import (ConstantRateLink, Datagram, DelayBox, EmulatedPath,
                         LossBox, MultipathNetwork, OutageSchedule,
                         TraceDrivenLink)
from repro.netem.packet import MTU, UDP_IP_OVERHEAD
from repro.sim import EventLoop
from repro.traces import stable_lte_trace


def make_sink():
    got = []
    return got, lambda d: got.append(d)


class TestDatagram:
    def test_wire_size_includes_headers(self):
        d = Datagram(payload=b"x" * 100)
        assert d.size == 100
        assert d.wire_size == 100 + UDP_IP_OVERHEAD


class TestConstantRateLink:
    def test_serialization_delay(self):
        loop = EventLoop()
        got, sink = make_sink()
        link = ConstantRateLink(loop, rate_bps=8000, deliver=sink)
        link.send(Datagram(payload=b"x" * (1000 - UDP_IP_OVERHEAD)))
        loop.run()
        # 1000 bytes at 8000 bps = 1 second.
        assert loop.now == pytest.approx(1.0)
        assert len(got) == 1

    def test_fifo_order(self):
        loop = EventLoop()
        got, sink = make_sink()
        link = ConstantRateLink(loop, rate_bps=1e6, deliver=sink)
        for i in range(5):
            link.send(Datagram(payload=bytes([i]) * 10))
        loop.run()
        assert [d.payload[0] for d in got] == [0, 1, 2, 3, 4]

    def test_droptail_when_full(self):
        loop = EventLoop()
        got, sink = make_sink()
        link = ConstantRateLink(loop, rate_bps=1e4, deliver=sink,
                                queue_limit_bytes=2000)
        for _ in range(10):
            link.send(Datagram(payload=b"x" * 500))
        loop.run()
        assert link.stats.packets_dropped > 0
        assert len(got) + link.stats.packets_dropped == 10
        assert link.stats.bytes_out == sum(d.wire_size for d in got)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            ConstantRateLink(EventLoop(), rate_bps=0, deliver=lambda d: None)


class TestTraceDrivenLink:
    def test_one_packet_per_opportunity(self):
        loop = EventLoop()
        got, sink = make_sink()
        link = TraceDrivenLink(loop, trace_ms=[10, 20, 30], deliver=sink)
        for _ in range(3):
            link.send(Datagram(payload=b"x" * 100))
        loop.run(until=0.05)
        assert [round(d_t, 3) for d_t in
                [0.010, 0.020, 0.030]] == [0.010, 0.020, 0.030]
        assert len(got) == 3

    def test_delivery_times_match_trace(self):
        loop = EventLoop()
        times = []
        link = TraceDrivenLink(loop, trace_ms=[5, 15, 40],
                               deliver=lambda d: times.append(loop.now))
        for _ in range(3):
            link.send(Datagram(payload=b"x"))
        loop.run(until=0.1)
        assert times == pytest.approx([0.005, 0.015, 0.040])

    def test_trace_wraps_around(self):
        loop = EventLoop()
        times = []
        link = TraceDrivenLink(loop, trace_ms=[0, 50], deliver=lambda
                               d: times.append(loop.now))
        for _ in range(4):
            link.send(Datagram(payload=b"x"))
        loop.run(until=1.0)
        # period is 51 ms; wraps: 0, 50, 51, 101 ms
        assert times == pytest.approx([0.0, 0.050, 0.051, 0.101])

    def test_outage_region_stalls_queue(self):
        loop = EventLoop()
        got, sink = make_sink()
        # Opportunities only at 0ms and 500ms: a 0.5 s gap.
        link = TraceDrivenLink(loop, trace_ms=[0, 500], deliver=sink)
        link.send(Datagram(payload=b"a"))
        link.send(Datagram(payload=b"b"))
        loop.run(until=0.4)
        assert len(got) == 1
        loop.run(until=0.6)
        assert len(got) == 2

    def test_rejects_oversized_datagram(self):
        loop = EventLoop()
        link = TraceDrivenLink(loop, trace_ms=[0], deliver=lambda d: None)
        with pytest.raises(ValueError):
            link.send(Datagram(payload=b"x" * MTU))

    def test_rejects_empty_trace(self):
        with pytest.raises(ValueError):
            TraceDrivenLink(EventLoop(), trace_ms=[], deliver=lambda d: None)

    def test_rejects_unsorted_trace(self):
        with pytest.raises(ValueError):
            TraceDrivenLink(EventLoop(), trace_ms=[5, 3],
                            deliver=lambda d: None)
        # one inversion at the far end of a long trace
        with pytest.raises(ValueError, match="non-decreasing"):
            TraceDrivenLink(EventLoop(),
                            trace_ms=list(range(5000)) + [4998],
                            deliver=lambda d: None)

    def test_accepts_equal_timestamps(self):
        # N lines with one timestamp = N packets deliverable that ms
        link = TraceDrivenLink(EventLoop(), trace_ms=(3, 3, 3, 7, 7, 9),
                               deliver=lambda d: None)
        assert list(link.trace_ms) == [3, 3, 3, 7, 7, 9]

    def test_rejects_negative_timestamps(self):
        # [-5, 3] would wrap to an opportunity at -1 ms of the next
        # period, *after* the one at 3 ms: a slot in the past
        for trace in ([-5, 3], (-1,), array("i", [-2, -1, 0])):
            with pytest.raises(ValueError, match="non-negative"):
                TraceDrivenLink(EventLoop(), trace_ms=trace,
                                deliver=lambda d: None)

    def test_rejects_timestamps_beyond_32_bits(self):
        with pytest.raises(ValueError, match="32 bits"):
            TraceDrivenLink(EventLoop(), trace_ms=[0, 2 ** 31],
                            deliver=lambda d: None)

    def test_keeps_an_array_as_given(self):
        trace = array("i", [1, 2, 2, 5])
        link = TraceDrivenLink(EventLoop(), trace_ms=trace,
                               deliver=lambda d: None)
        assert link.trace_ms is trace
        # an unsorted array is checked like any other sequence
        with pytest.raises(ValueError, match="non-decreasing"):
            TraceDrivenLink(EventLoop(), trace_ms=array("i", [4, 1]),
                            deliver=lambda d: None)

    def test_late_send_uses_future_opportunity(self):
        loop = EventLoop()
        times = []
        link = TraceDrivenLink(loop, trace_ms=[10, 20, 30, 900],
                               deliver=lambda d: times.append(loop.now))
        loop.schedule_at(0.025, lambda: link.send(Datagram(payload=b"x")))
        loop.run(until=1.0)
        assert times == pytest.approx([0.030])


def mahimahi_delivery_times(trace, sends, queue_limit_bytes):
    """When each of ``sends`` (``(time, wire_size)``, in time order)
    leaves Mahimahi's link, or ``None`` if the droptail queue drops it.

    Straight from the link's docstring: opportunity ``j`` of repetition
    ``w`` is at ``(w * period + trace[j]) / 1000`` seconds, with
    ``period = trace[-1] + 1``; it carries the head of the queue, and is
    wasted if the queue is empty (an empty region is an outage).
    """
    period = trace[-1] + 1
    out = [None] * len(sends)
    queue, queued, arrived = [], 0, 0
    for wrap in itertools.count():
        for ts in trace:
            t = (wrap * period + ts) / 1000.0
            while arrived < len(sends) and sends[arrived][0] < t:
                size = sends[arrived][1]
                if queued + size <= queue_limit_bytes:
                    queue.append(arrived)
                    queued += size
                arrived += 1
            if queue:
                queued -= sends[queue[0]][1]
                out[queue.pop(0)] = t
            elif arrived == len(sends):
                return out


@settings(max_examples=300, deadline=None)
@given(trace=st.lists(st.integers(0, 150), min_size=1,
                      max_size=30).map(sorted),
       bursts=st.lists(st.tuples(st.integers(0, 1500), st.integers(1, 6),
                                 st.integers(1, MTU - UDP_IP_OVERHEAD)),
                       max_size=12),
       queue_limit=st.integers(MTU, 6 * MTU))
def test_trace_link_matches_mahimahi(trace, bursts, queue_limit):
    """Every datagram leaves at the reference's time, to the bit: bursts
    of several packets per opportunity, idle gaps of up to 1.5 s (ten
    periods and more), queue-limit drops.  Sends sit 0.05 ms off the
    1 ms grid opportunities fall on."""
    sends, at_ms = [], 0
    for gap_ms, count, payload in bursts:
        at_ms += gap_ms
        sends += count * [((at_ms + 0.05) / 1000.0,
                           payload + UDP_IP_OVERHEAD)]
    loop = EventLoop()
    left = {}  # datagram (by identity) -> time it left the link
    link = TraceDrivenLink(loop, trace,
                           lambda d: left.setdefault(d, loop.now),
                           queue_limit_bytes=queue_limit)
    sent = []
    for t, wire_size in sends:
        dgram = Datagram(payload=b"x" * (wire_size - UDP_IP_OVERHEAD))
        sent.append(dgram)
        loop.schedule_at(t, functools.partial(link.send, dgram))
    loop.run()
    assert [left.get(d) for d in sent] == mahimahi_delivery_times(
        trace, sends, queue_limit)


def test_a_trace_path_holds_four_bytes_per_opportunity():
    """A 60 s, 24 Mbps trace plus the path replaying it hold <= 5 B per
    delivery opportunity (a list of ints plus a copy per direction held
    ~55 B), both directions replay the one buffer, and nothing on the
    way from generator to link builds a list of the whole trace."""
    gc.collect()
    tracemalloc.start()
    try:
        trace = stable_lte_trace(60.0, seed=5, mean_mbps=24.0)
        net = MultipathNetwork(EventLoop())
        path = net.add_trace_path(0, trace, one_way_delay_s=0.035)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(trace) == 119_305
    assert held <= 5 * len(trace)
    assert peak - held < 1_000_000
    assert path.up_link.trace_ms is trace
    assert path.down_link.trace_ms is trace


class TestDelayBox:
    def test_adds_fixed_delay(self):
        loop = EventLoop()
        got, sink = make_sink()
        box = DelayBox(loop, 0.05, sink)
        box.send(Datagram(payload=b"x"))
        loop.run()
        assert loop.now == pytest.approx(0.05)

    def test_preserves_order(self):
        loop = EventLoop()
        got, sink = make_sink()
        box = DelayBox(loop, 0.05, sink)
        box.send(Datagram(payload=b"a"))
        loop.schedule_at(0.01, lambda: box.send(Datagram(payload=b"b")))
        loop.run()
        assert [d.payload for d in got] == [b"a", b"b"]

    def test_rejects_negative_delay(self):
        with pytest.raises(ValueError):
            DelayBox(EventLoop(), -1.0, lambda d: None)

    def test_same_instant_sends_arrive_in_order_around_timers(self):
        """Datagrams sent in one callback, and in a second callback at
        the same instant, arrive in send order.  A timer scheduled for
        the arrival instant before the sends runs before them, one
        scheduled after them runs after them -- the order the
        burst-batching box gave too."""
        loop = EventLoop()
        order = []
        box = DelayBox(loop, 0.05, lambda d: order.append(d.payload))
        arrival = 0.01 + 0.05

        def send_two():
            box.send(Datagram(payload=b"a1"))
            box.send(Datagram(payload=b"a2"))

        def send_one_then_time():
            box.send(Datagram(payload=b"b1"))
            loop.schedule_at(arrival, lambda: order.append("after"))

        loop.schedule_at(0.01, lambda: loop.schedule_at(
            arrival, lambda: order.append("before")))
        loop.schedule_at(0.01, send_two)
        loop.schedule_at(0.01, send_one_then_time)
        loop.run()
        assert order == ["before", b"a1", b"a2", b"b1", "after"]
        assert loop.now == arrival


class TestLossBox:
    def test_no_loss_forwards_everything(self):
        loop = EventLoop()
        got, sink = make_sink()
        box = LossBox(loop, sink, loss_rate=0.0)
        for _ in range(100):
            box.send(Datagram(payload=b"x"))
        assert len(got) == 100

    def test_loss_rate_statistics(self):
        loop = EventLoop()
        got, sink = make_sink()
        box = LossBox(loop, sink, loss_rate=0.3, rng=random.Random(1))
        for _ in range(2000):
            box.send(Datagram(payload=b"x"))
        assert 0.25 < box.packets_dropped / 2000 < 0.35

    def test_outage_drops_everything_inside_window(self):
        loop = EventLoop()
        got, sink = make_sink()
        box = LossBox(loop, sink,
                      outages=OutageSchedule(windows=[(1.0, 2.0)]))
        loop.schedule_at(0.5, lambda: box.send(Datagram(payload=b"a")))
        loop.schedule_at(1.5, lambda: box.send(Datagram(payload=b"b")))
        loop.schedule_at(2.5, lambda: box.send(Datagram(payload=b"c")))
        loop.run()
        assert [d.payload for d in got] == [b"a", b"c"]

    def test_periodic_outage(self):
        sched = OutageSchedule(windows=[(0.0, 1.0)], period=10.0)
        assert sched.in_outage(0.5)
        assert not sched.in_outage(5.0)
        assert sched.in_outage(10.5)

    def test_rejects_bad_loss_rate(self):
        with pytest.raises(ValueError):
            LossBox(EventLoop(), lambda d: None, loss_rate=1.5)


class TestMultipathNetwork:
    def test_bidirectional_delivery(self):
        loop = EventLoop()
        net = MultipathNetwork(loop)
        net.add_simple_path(0, 1e6, 0.01)
        at_server, at_client = [], []
        net.server.on_receive(lambda d: at_server.append(d))
        net.client.on_receive(lambda d: at_client.append(d))
        net.client.send(Datagram(payload=b"up", path_id=0))
        net.server.send(Datagram(payload=b"down", path_id=0))
        loop.run()
        assert len(at_server) == 1 and at_server[0].payload == b"up"
        assert len(at_client) == 1 and at_client[0].payload == b"down"

    def test_paths_are_independent(self):
        loop = EventLoop()
        net = MultipathNetwork(loop)
        net.add_simple_path(0, 1e6, 0.01)
        net.add_simple_path(1, 1e6, 0.10)
        arrivals = {}
        net.server.on_receive(
            lambda d: arrivals.setdefault(d.path_id, loop.now))
        net.client.send(Datagram(payload=b"a", path_id=0))
        net.client.send(Datagram(payload=b"b", path_id=1))
        loop.run()
        assert arrivals[0] < arrivals[1]

    def test_unknown_path_raises(self):
        loop = EventLoop()
        net = MultipathNetwork(loop)
        with pytest.raises(KeyError):
            net.client.send(Datagram(payload=b"x", path_id=9))

    def test_duplicate_path_id_rejected(self):
        loop = EventLoop()
        net = MultipathNetwork(loop)
        net.add_simple_path(0, 1e6, 0.01)
        with pytest.raises(ValueError):
            net.add_simple_path(0, 1e6, 0.01)

    def test_trace_path(self):
        loop = EventLoop()
        net = MultipathNetwork(loop)
        net.add_trace_path(0, trace_ms=[1, 2, 3], one_way_delay_s=0.01)
        got = []
        net.client.on_receive(lambda d: got.append(loop.now))
        net.server.send(Datagram(payload=b"x" * 100, path_id=0))
        loop.run(until=0.1)
        assert got and got[0] == pytest.approx(0.011)

    def test_total_down_bytes_accounting(self):
        loop = EventLoop()
        net = MultipathNetwork(loop)
        net.add_simple_path(0, 1e6, 0.01)
        net.server.on_receive(lambda d: None)
        net.client.on_receive(lambda d: None)
        net.server.send(Datagram(payload=b"x" * 100, path_id=0))
        loop.run()
        assert net.paths[0].down_bytes_out == 100 + UDP_IP_OVERHEAD

