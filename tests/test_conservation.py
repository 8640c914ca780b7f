"""Conservation and capacity properties of the emulated network.

These are the emulator's "physics": packets are never created from
nothing, never delivered above the trace's capacity, and a path's
accounting always balances (out + dropped == in).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netem import (ConstantRateLink, Datagram, MultipathNetwork,
                         TraceDrivenLink)
from repro.netem.packet import MTU, UDP_IP_OVERHEAD
from repro.sim import EventLoop
from repro.traces import trace_from_rate_series


class TestLinkConservation:
    @given(st.integers(1, 60), st.integers(100, 1400),
           st.integers(1, 10))
    @settings(max_examples=40, deadline=None)
    def test_constant_link_accounting_balances(self, n_packets, size,
                                               queue_kb):
        loop = EventLoop()
        got = []
        link = ConstantRateLink(loop, 2e6, got.append,
                                queue_limit_bytes=queue_kb * 1024)
        for _ in range(n_packets):
            link.send(Datagram(payload=b"x" * size))
        loop.run()
        stats = link.stats
        assert stats.packets_in == n_packets
        assert len(got) + stats.packets_dropped == n_packets
        assert stats.bytes_out == sum(d.wire_size for d in got)

    @given(st.integers(1, 80), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_trace_link_never_exceeds_opportunities(self, n_packets, seed):
        """No window can deliver more packets than trace opportunities."""
        rng = random.Random(seed)
        trace = sorted(rng.randrange(0, 500) for _ in range(30))
        loop = EventLoop()
        deliveries = []
        link = TraceDrivenLink(loop, trace,
                               lambda d: deliveries.append(loop.now),
                               queue_limit_bytes=10**9)
        for _ in range(n_packets):
            link.send(Datagram(payload=b"x" * 100))
        loop.run(until=3.0)
        # Count deliveries inside the first trace period.
        period_s = (trace[-1] + 1) / 1000.0
        in_first = [t for t in deliveries if t < period_s]
        assert len(in_first) <= len(trace)

    def test_trace_link_throughput_bound(self):
        """Sustained goodput cannot exceed the trace's mean capacity."""
        loop = EventLoop()
        delivered_bytes = []
        trace = trace_from_rate_series([4e6] * 20, interval_s=0.1)
        link = TraceDrivenLink(loop, trace,
                               lambda d: delivered_bytes.append(
                                   d.wire_size),
                               queue_limit_bytes=10**9)
        # Offer 3x the capacity.
        for _ in range(int(3 * 4e6 * 2.0 / 8 / 1000)):
            link.send(Datagram(payload=b"x" * (1000 - UDP_IP_OVERHEAD)))
        loop.run(until=2.0)
        achieved_bps = sum(delivered_bytes) * 8 / 2.0
        assert achieved_bps <= 4e6 * 1.05

    def test_no_packets_materialize(self):
        loop = EventLoop()
        net = MultipathNetwork(loop)
        net.add_simple_path(0, 1e6, 0.01, loss_rate=0.3,
                            rng=random.Random(1))
        received = []
        net.server.on_receive(received.append)
        sent = 50
        for _ in range(sent):
            net.client.send(Datagram(payload=b"x" * 200, path_id=0))
        loop.run()
        assert len(received) <= sent

    @given(st.floats(0.0, 0.5), st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_loss_rate_bounds_delivery(self, loss, seed):
        loop = EventLoop()
        net = MultipathNetwork(loop)
        net.add_simple_path(0, 10e6, 0.001, loss_rate=loss,
                            rng=random.Random(seed))
        received = []
        net.server.on_receive(received.append)
        n = 200
        for _ in range(n):
            net.client.send(Datagram(payload=b"x" * 100, path_id=0))
        loop.run()
        assert len(received) <= n
        if loss == 0.0:
            assert len(received) == n


class TestDelayOrdering:
    @given(st.lists(st.integers(1, 1000), min_size=2, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_fifo_link_preserves_order(self, sizes):
        """A single link never reorders packets."""
        loop = EventLoop()
        order = []
        link = ConstantRateLink(loop, 1e6, order.append,
                                queue_limit_bytes=10**9)
        sent = [Datagram(payload=b"x" * size) for size in sizes]
        for dgram in sent:
            link.send(dgram)
        loop.run()
        assert len(order) == len(sent)
        assert all(out is dgram for out, dgram in zip(order, sent))

    def test_cross_path_reordering_possible(self):
        """Different paths CAN reorder -- that's what multipath does."""
        loop = EventLoop()
        net = MultipathNetwork(loop)
        net.add_simple_path(0, 10e6, 0.10)
        net.add_simple_path(1, 10e6, 0.01)
        arrivals = []
        net.server.on_receive(lambda d: arrivals.append(d.path_id))
        net.client.send(Datagram(payload=b"a", path_id=0))
        net.client.send(Datagram(payload=b"b", path_id=1))
        loop.run()
        assert arrivals == [1, 0]
