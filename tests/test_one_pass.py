"""The per-datagram pass: its cost pinned by count, its ACKs by size.

Wall-clock on a shared box moves by 10% between runs of the same code;
the number of Python + C calls a scripted transfer makes does not move
at all, so it can hold a line that a +/-25% timing bound cannot.
"""

import sys

from repro.netem import MultipathNetwork
from repro.netem.packet import MTU, UDP_IP_OVERHEAD
from repro.quic.ack import fit_ack_ranges
from repro.quic.frames import AckMpFrame, AckRange, decode_frames
from repro.quic.packets import decode_header
from repro.sim import EventLoop
from tests.test_connection import build_pair

#: calls (Python + C) per packet sealed on the scripted transfer below.
#: This tree makes 182.3 (the same number under any PYTHONHASHSEED); the
#: budget is ~5% above.  The tree before the receive / ACK / send /
#: timer split (PR 16) made 279.0.
CALLS_PER_PACKET_BUDGET = 191.0


def established_pair(add_path):
    loop = EventLoop()
    net = MultipathNetwork(loop)
    add_path(net)
    client, server = build_pair(loop, net)      # MinRtt + Cubic
    client.connect()
    loop.run(until=0.5)
    assert client.established and server.established
    return loop, client, server


def test_call_budget_per_packet():
    """A 256 KB lossless one-path transfer, read as it lands: total
    calls / packets sealed stays within the budget."""
    loop, client, server = established_pair(
        lambda net: net.add_simple_path(0, 100e6, 0.005))
    received = bytearray()
    server.on_stream_data = \
        lambda sid: received.extend(server.stream_read(sid))
    payload = bytes(range(256)) * 1024
    sealed_before = client.stats.packets_sent + server.stats.packets_sent
    calls = 0

    def count(_frame, event, _arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        client.stream_send(client.create_stream(), payload, fin=True)
        loop.run(until=loop.now + 10.0)
    finally:
        sys.setprofile(previous)
    assert bytes(received) == payload
    packets = client.stats.packets_sent + server.stats.packets_sent \
        - sealed_before
    assert packets > 250
    assert client.paths[0].loss.packets_lost_total == 0
    assert calls / packets <= CALLS_PER_PACKET_BUDGET, calls / packets


def alternating(count: int, first: int = 0):
    """``count`` single-packet ranges with a one-packet gap between."""
    return tuple(AckRange(pn, pn) for pn in range(first, first + 2 * count, 2))


class TestAckFitsThePacket:
    def test_below_the_limit_ranges_are_untouched(self):
        # the benchmark's maximum is 258 ranges (on ``bulk``)
        ranges = alternating(258, first=7000)
        assert fit_ack_ranges(ranges, ranges[-1].end) is ranges
        assert fit_ack_ranges(ranges[:1], ranges[0].end) == ranges[:1]

    def test_over_the_limit_the_oldest_ranges_go(self):
        ranges = alternating(2000)
        kept = fit_ack_ranges(ranges, ranges[-1].end)
        assert 1 < len(kept) < len(ranges)
        assert kept == ranges[-len(kept):]

    def test_ack_for_2000_gaps_crosses_a_trace_link(self):
        """An ACK_MP for 2,000 loss gaps used to encode to ~4 KB, and
        ``TraceDrivenLink.send`` raised ``ValueError`` inside the loop."""
        loop, client, server = established_pair(
            lambda net: net.add_trace_path(0, [1] * 200, 0.01))
        emitted = []
        server.add_transmit_hook(lambda pid, wire: emitted.append(wire))
        path = server.paths[0]
        first = path.largest_received_pn + 2
        for pn in range(first, first + 4000, 2):
            assert path.record_received(pn, loop.now)
        largest = first + 3998
        server.acks.queue_ack(path, loop.now)
        server.sender.flush_control(loop.now)
        assert len(emitted) == 1
        assert len(emitted[0]) + UDP_IP_OVERHEAD <= MTU
        # what went out: the newest ranges, largest_acked intact
        header, offset = decode_header(emitted[0])
        plain = client.protection.open(
            emitted[0][offset:], emitted[0][:offset], 0,
            header.truncated_pn)
        (ack,) = decode_frames(plain)
        assert isinstance(ack, AckMpFrame)
        assert ack.largest_acked == largest
        assert ack.ranges[0] == AckRange(largest, largest)
        assert 100 < len(ack.ranges) < 2000
        assert all(r.start == r.end == largest - 2 * i
                   for i, r in enumerate(ack.ranges))
        # duplicate suppression still remembers every range
        assert len(path.ack_pending) >= 2000
        before = client.stats.packets_received
        loop.run(until=loop.now + 1.0)      # crosses the TraceDrivenLink
        assert client.stats.packets_received == before + 1
        assert not client.closed and not server.closed
