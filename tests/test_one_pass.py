"""The per-datagram pass: its cost pinned by count, its ACKs by size.

Wall-clock on a shared box moves by 10% between runs of the same code;
the number of Python + C calls a scripted transfer makes does not move
at all, so it can hold a line that a +/-25% timing bound cannot.
"""

import sys

import pytest

from repro.experiments.harness import PathSpec, run_video_session
from repro.netem import MultipathNetwork
from repro.netem.packet import MTU, UDP_IP_OVERHEAD
from repro.quic.ack import fit_ack_ranges
from repro.quic.cid import ConnectionId
from repro.quic.frames import (AckMpFrame, AckRange, QoeSignals, StreamFrame,
                               decode_frames, encode_frames)
from repro.quic.packets import decode_header
from repro.quic.path import Path
from repro.sim import EventLoop
from repro.traces.radio_profiles import RadioType
from repro.video import make_video
from tests.test_connection import build_pair, captured

#: calls (Python + C) per packet sealed on the scripted transfer below.
#: This tree makes 145.7 (the same number under any PYTHONHASHSEED); the
#: budget is ~5% above that.  While every ``select_path`` built its
#: path lists it made 153.2, and 164.2 before that; with the ``Buffer``
#: codec it made 175.3; the tree before the receive / ACK / send /
#: timer split 279.0.
CALLS_PER_PACKET_BUDGET = 153.0


def count_calls(run, within=""):
    """``run()`` under ``sys.setprofile``: its result, and the Python +
    C calls made (by code whose file path contains ``within``)."""
    calls = 0

    def count(frame, event, _arg):
        nonlocal calls
        # a C call is charged to the frame that makes it
        if event in ("call", "c_call") \
                and within in frame.f_code.co_filename:
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        result = run()
    finally:
        sys.setprofile(previous)
    return result, calls


def established_pair(add_path):
    loop = EventLoop()
    net = MultipathNetwork(loop)
    add_path(net)
    client, server = build_pair(loop, net)      # MinRtt + Cubic
    client.connect()
    loop.run(until=0.5)
    assert client.established and server.established
    return loop, client, server


def scripted_transfer(listener=None):
    """A 256 KB one-path transfer, read as it lands, with ``listener``
    on the client; returns (calls, packets sealed)."""
    loop, client, server = established_pair(
        lambda net: net.add_simple_path(0, 100e6, 0.005))
    if listener is not None:
        client.listeners.append(listener)
    received = bytearray()
    server.on_stream_data = \
        lambda sid: received.extend(server.stream_read(sid))
    payload = bytes(range(256)) * 1024
    sealed_before = client.stats.packets_sent + server.stats.packets_sent

    def transfer():
        client.stream_send(client.create_stream(), payload, fin=True)
        loop.run(until=loop.now + 10.0)

    _, calls = count_calls(transfer)
    assert bytes(received) == payload
    return calls, client.stats.packets_sent + server.stats.packets_sent \
        - sealed_before


def test_call_budget_per_packet():
    """The scripted transfer is lossless, and unobserved its total
    calls / packets sealed stays within the budget.  A listener costs
    calls, so the losses are counted on an observed run of the same
    transfer."""
    lost = []

    def on_event(kind, fields):
        if kind in ("ack_received", "loss_timer"):
            lost.append(fields["lost"])

    _, observed_packets = scripted_transfer(on_event)
    assert lost and sum(lost) == 0
    calls, packets = scripted_transfer()
    assert packets == observed_packets > 250
    assert calls / packets <= CALLS_PER_PACKET_BUDGET, calls / packets


def _stream_frame():
    return StreamFrame(4, 123_456, bytes(1200), False)


def _ack_mp_frame():
    """An ACK_MP as ``AckHandler.queue_ack`` builds it: three ranges off
    a receiving :class:`Path`, the older pairs already on the wire, the
    client's four QoE signals."""
    cid = ConnectionId(cid=bytes(8), sequence_number=1)
    path = Path(1, cid, cid, cc=None)
    for pn in (*range(10, 3991), *range(4000, 4981), *range(4990, 5001)):
        path.record_received(pn, 0.0)
    ranges, older_wire = path.ack_ranges()
    return AckMpFrame(1, 5000, 800, ranges,
                      QoeSignals(150_000, 40, 2_000_000, 25), older_wire)


#: Python + C calls to encode one frame into a payload and decode it
#: back.  This tree: STREAM 19, ACK_MP with QoE 44; through ``Buffer``
#: it was 32 and 62.
@pytest.mark.parametrize("make_frame,budget", [(_stream_frame, 20),
                                               (_ack_mp_frame, 46)])
def test_codec_call_budget_per_frame(make_frame, budget):
    frame = make_frame()

    def round_trip():
        return decode_frames(memoryview(encode_frames([frame])))

    round_trip()        # the ACK decode memo has seen these ranges
    (decoded,), calls = count_calls(round_trip)
    if type(frame) is AckMpFrame:   # sent ascending, decoded newest first
        decoded.ranges = decoded.ranges[::-1]
    assert decoded == frame
    assert calls <= budget, calls


def test_player_calls_per_datagram_do_not_grow_with_the_clip():
    """The player's work per delivered datagram is the same for a 20-s
    clip as for a 2-s one.  It used to re-scan ``Video.frame_sizes`` and
    every chunk on each datagram, tick and ACK_MP: 39.7 calls per
    datagram at 20 s against 20.1 at 2 s (now 16.4 and 18.8)."""
    paths = [PathSpec(0, RadioType.WIFI, 0.01, rate_bps=20e6),
             PathSpec(1, RadioType.LTE, 0.03, rate_bps=20e6)]

    def per_datagram(duration_s):
        video = make_video(duration_s=duration_s, seed=3)
        result, calls = count_calls(
            lambda: run_video_session("xlink", paths, video=video,
                                      timeout_s=60.0, seed=3),
            within="/repro/video/")
        assert result.completed
        return calls / result.client.stats.packets_received

    assert per_datagram(20.0) <= 1.1 * per_datagram(2.0)


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
        emitted = captured(server, "datagram_sent")
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
        plain = client.protection.open(emitted[0], offset, 0,
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
