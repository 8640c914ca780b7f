"""The ACK path against independent references, and its cost by count.

One representation of a path's acknowledged history runs from
``Path.record_received`` through ``AckHandler.queue_ack``, the frame
codec and ``PathLossDetector.on_ack_received``; every stage extends
what the previous ACK left instead of recomputing it.  The oracles
below recompute everything from scratch: the wire bytes from a
straight-from-RFC-9000 encoder over the set of packet numbers
received, the loss detector's verdicts from a walk over every packet
number of every range of every ACK.
"""

import ast
import importlib.util
import sys
from pathlib import Path as FilePath
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.netem import MultipathNetwork
from repro.netem.packet import MTU, UDP_IP_OVERHEAD
from repro.quic import frames as frames_module
from repro.quic.ack import AckHandler, fit_ack_ranges
from repro.quic.cid import ConnectionId
from repro.quic.errors import FrameEncodingError
from repro.quic.frames import (AckMpFrame, AckRange, QoeSignals,
                               decode_frames, encode_frames)
from repro.quic.loss_detection import (PACKET_THRESHOLD, TIME_THRESHOLD,
                                       PathLossDetector, SentPacket)
from repro.quic.path import Path, PathState
from repro.quic.rtt import GRANULARITY, RttEstimator
from repro.sim import EventLoop
from tests.test_connection import build_pair, captured

QOE = QoeSignals(cached_bytes=70_000, cached_frames=40, bps=900_000, fps=25)


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------


def ref_varint(value):
    for bits, size in ((6, 1), (14, 2), (30, 4), (62, 8)):
        if value < 1 << bits:
            prefix = (size.bit_length() - 1) << (8 * size - 2)
            return (value | prefix).to_bytes(size, "big")
    raise ValueError(value)


def ref_ack_mp(path_id, delay_us, ranges, qoe):
    """ACK_MP as the draft lays it out: RFC 9000 Sec. 19.3 with a path
    id and a QoE flag in front, the four QoE varints behind."""
    ordered = sorted(ranges, reverse=True)
    largest, smallest = ordered[0][1], ordered[0][0]
    out = [ref_varint(0xBABA00), ref_varint(path_id),
           ref_varint(1 if qoe else 0), ref_varint(largest),
           ref_varint(delay_us), ref_varint(len(ordered) - 1),
           ref_varint(largest - smallest)]
    for start, end in ordered[1:]:
        out += [ref_varint(smallest - end - 2), ref_varint(end - start)]
        smallest = start
    if qoe:
        out += [ref_varint(v) for v in (qoe.cached_bytes, qoe.cached_frames,
                                        qoe.bps, qoe.fps)]
    return b"".join(out)


def ranges_of(pns):
    """Ascending inclusive ranges over a set of packet numbers."""
    out = []
    for pn in sorted(pns):
        if out and out[-1][1] == pn - 1:
            out[-1] = (out[-1][0], pn)
        else:
            out.append((pn, pn))
    return out


class RefDetector:
    """Loss detection that walks every packet number of every range."""

    def __init__(self):
        self.rtt = RttEstimator()
        self.sent = {}
        self.largest_acked = -1

    def ack(self, ranges, ack_delay, now):
        acked = []
        for start, end in ranges:
            for pn in range(start, end + 1):
                if pn in self.sent:
                    acked.append(self.sent.pop(pn))
        largest = max(end for _start, end in ranges)
        sampled = False
        if largest > self.largest_acked:
            self.largest_acked = largest
            top = [p for p in acked if p.packet_number == largest]
            if top and top[0].ack_eliciting:
                sampled = True
                if now - top[0].sent_time > 0:
                    self.rtt.update(now - top[0].sent_time, ack_delay)
        return [p.packet_number for p in acked], self.lose(now), sampled

    def lose(self, now):
        if self.largest_acked < 0:
            return []
        delay = TIME_THRESHOLD * max(self.rtt.latest or self.rtt.smoothed,
                                     self.rtt.smoothed, GRANULARITY)
        lost = [pn for pn in sorted(self.sent) if pn <= self.largest_acked
                and (self.sent[pn].sent_time - 1e-9 <= now - delay
                     or self.largest_acked - pn >= PACKET_THRESHOLD)]
        for pn in lost:
            del self.sent[pn]
        return lost


# ---------------------------------------------------------------------------
# the scripted path: receiver, codec, ACK delivery, sender
# ---------------------------------------------------------------------------


class AckingPath:
    """One direction of one path: a receiving :class:`Path` behind the
    real :class:`AckHandler`, the codec, a pipe that loses, duplicates
    and reorders ACKs, and the sending :class:`PathLossDetector` beside
    its reference.  Every stage is checked as it runs."""

    def __init__(self, path_id=0, qoe=None):
        cid = ConnectionId(cid=bytes(8), sequence_number=path_id)
        self.path = Path(path_id, cid, cid, cc=None)
        self.qoe = qoe
        queued = self.queued = []
        self.acks = AckHandler(SimpleNamespace(
            stats=SimpleNamespace(acks_sent=0),
            sender=SimpleNamespace(
                queue_control=lambda _pid, frame: queued.append(frame)),
            paths={path_id: self.path}, send_streams={}, send_queue=[],
            qoe_provider=(lambda: qoe) if qoe else None,
            config=SimpleNamespace(ack_path_policy="original")))
        self.received = set()
        self.next_pn = 0
        self.now = 0.0
        self.detector = PathLossDetector(RttEstimator())
        self.reference = RefDetector()
        self.sent_up_to = -1
        #: (wire, decoded ranges) of every ACK emitted, and the wires
        #: still on their way to the sender
        self.emitted = []
        self.pipe = []

    def receive(self, pn):
        # whatever arrives was sent, and so was everything before it
        for sent_pn in range(self.sent_up_to + 1, pn + 1):
            pkt = SentPacket(sent_pn, self.now, 1200,
                             ack_eliciting=sent_pn % 5 != 0, in_flight=True)
            self.detector.on_packet_sent(pkt)
            self.reference.sent[sent_pn] = pkt
        self.sent_up_to = max(self.sent_up_to, pn)
        assert self.path.record_received(pn, self.now) \
            == (pn not in self.received)
        self.received.add(pn)
        assert self.path.ack_pending == ranges_of(self.received)

    def ack(self):
        self.acks.queue_ack(self.path, self.now)
        if not self.queued:
            return
        frame = self.queued.pop()
        largest = max(self.received)
        expected = fit_ack_ranges(
            tuple(AckRange(*r) for r in ranges_of(self.received)), largest)
        wire = encode_frames([frame])
        assert wire == ref_ack_mp(self.path.path_id, frame.ack_delay_us,
                                  expected, self.qoe)
        (decoded,) = decode_frames(wire)
        plain = AckMpFrame(self.path.path_id, largest, frame.ack_delay_us,
                           expected[::-1], self.qoe)
        assert decoded == plain
        # built from a plain tuple, in either order: the same bytes
        assert encode_frames([plain]) == wire
        assert encode_frames([AckMpFrame(
            self.path.path_id, largest, frame.ack_delay_us,
            tuple((s, e) for s, e in expected), self.qoe)]) == wire
        self.emitted.append((wire, decoded.ranges))
        self.pipe.append(wire)

    def deliver(self, index, keep):
        if not self.pipe:
            return
        index %= len(self.pipe)
        wire = self.pipe[index] if keep else self.pipe.pop(index)
        (frame,) = decode_frames(wire)
        delay = frame.ack_delay_us / 1e6
        acked, lost, sample = self.detector.on_ack_received(
            frame.ranges, delay, self.now)
        assert ([p.packet_number for p in acked],
                [p.packet_number for p in lost], sample is not None) \
            == self.reference.ack(frame.ranges, delay, self.now)
        self.check_detector()

    def timer(self):
        assert [p.packet_number for p in
                self.detector.on_loss_timer(self.now)] \
            == self.reference.lose(self.now)
        self.check_detector()

    def check_detector(self):
        det, ref = self.detector, self.reference
        assert (det.largest_acked, det.rtt.smoothed) \
            == (ref.largest_acked, ref.rtt.smoothed)
        assert list(det.sent) == sorted(ref.sent)

    def step(self, op):
        self.now += 0.004
        kind, arg = op[0], op[1]
        if kind == "next":
            for _ in range(arg):
                self.receive(self.next_pn)
                self.next_pn += 1
        elif kind == "skip":
            self.next_pn += arg
            self.receive(self.next_pn)
            self.next_pn += 1
        elif kind == "burst":       # ``arg`` single packets, a gap between
            for _ in range(arg):
                self.next_pn += 1
                self.receive(self.next_pn)
                self.next_pn += 1
        elif kind == "late":
            holes = sorted(set(range(self.next_pn)) - self.received)
            if holes:
                self.receive(holes[arg % len(holes)])
        elif kind == "dup" and self.received:
            self.receive(sorted(self.received)[arg % len(self.received)])
        elif kind == "ack":
            self.ack()
        elif kind == "deliver":
            self.deliver(arg, keep=op[2])
        elif kind == "drop" and self.pipe:
            self.pipe.pop(arg % len(self.pipe))
        elif kind == "timer":
            self.timer()


_index = st.integers(0, 1 << 20)
_arrivals = [
    st.tuples(st.just("next"), st.integers(1, 4)),
    st.tuples(st.just("skip"), st.integers(1, 3)),
    st.tuples(st.just("late"), _index),
    st.tuples(st.just("dup"), _index),
    st.tuples(st.just("ack"), st.just(0)),
]
_deliveries = [
    st.tuples(st.just("deliver"), _index, st.booleans()),
    st.tuples(st.just("drop"), _index),
    st.tuples(st.just("timer"), st.just(0)),
]
_receiver_ops = st.lists(st.one_of(*_arrivals), max_size=60)
_path_ops = st.lists(st.one_of(*_arrivals, *_deliveries), max_size=80)


class TestAckOracle:
    @settings(max_examples=150, deadline=None)
    @given(ops=_path_ops, qoe=st.sampled_from([None, QOE]))
    def test_every_stage_equals_its_reference(self, ops, qoe):
        """In-order arrivals, gaps, late hole-fills that merge ranges
        and duplicates; ACKs lost, duplicated and processed out of
        order: the bytes equal the reference encoder's and round-trip,
        and the detector's (acked, lost, largest, sampled)
        equal the brute-force walk's after every ACK and timer."""
        path = AckingPath(qoe=qoe)
        for op in ops:
            path.step(op)

    @settings(max_examples=15, deadline=None)
    @given(burst=st.integers(660, 760), ops=_path_ops)
    def test_more_ranges_than_fit_a_packet(self, burst, ops):
        """Past ~650 gaps the oldest ranges leave the frame; everything
        above still holds, window sliding under every new gap."""
        path = AckingPath(qoe=QOE)
        path.step(("next", 3))
        path.step(("burst", burst))
        path.step(("ack", 0))
        path.step(("deliver", 0, False))
        for op in ops:
            path.step(op)
        path.step(("ack", 0))
        assert len(path.emitted[-1][0]) <= MTU - UDP_IP_OVERHEAD - 13 - 16
        assert len(path.emitted[-1][1]) < len(path.path.ack_pending)

    def test_ack_past_the_last_packet_sent_is_not_remembered(self):
        """A range covering numbers not sent yet must not make the same
        range, repeated once they are sent, a no-op."""
        det = PathLossDetector(RttEstimator())
        for pn in range(4):
            det.on_packet_sent(SentPacket(pn, 0.0, 1200, True, True))
        optimistic = (AckRange(8, 9), AckRange(4, 6), AckRange(0, 1))
        acked, _lost, _rtt = det.on_ack_received(optimistic, 0.0, 0.01)
        assert [p.packet_number for p in acked] == [0, 1]
        for pn in range(4, 10):
            det.on_packet_sent(SentPacket(pn, 0.02, 1200, True, True))
        again = (AckRange(8, 10),) + optimistic[1:]
        acked, _lost, _rtt = det.on_ack_received(again, 0.0, 0.03)
        assert [p.packet_number for p in acked] == [8, 9, 4, 5, 6]

    @settings(max_examples=100, deadline=None)
    @given(ops_a=_receiver_ops, ops_b=_receiver_ops)
    @example(ops_a=[("next", 4), ("skip", 2), ("next", 1), ("skip", 2),
                    ("ack", 0), ("next", 1), ("ack", 0)],
             ops_b=[("next", 3), ("skip", 3), ("next", 1), ("skip", 2),
                    ("ack", 0), ("next", 1), ("ack", 0)])
    def test_two_connections_share_the_codec(self, ops_a, ops_b):
        """Two paths whose ACKs interleave through the (module-level)
        decode memo get the bytes and ranges each gets alone -- the
        example's two histories differ only below a memo key they
        share."""
        def emitted(*scripts):
            frames_module._ACK_DECODE_MEMO.clear()
            paths = [AckingPath(path_id=i) for i in range(len(scripts))]
            for step in range(max(map(len, scripts))):
                for path, ops in zip(paths, scripts):
                    if step < len(ops):
                        path.step(ops[step])
            return [path.emitted for path in paths]

        (alone_a,), (alone_b,) = emitted(ops_a), emitted(ops_b)
        # path ids 0 and 1 both take one byte: compare past the id
        together_a, together_b = emitted(ops_a, ops_b)
        assert together_a == alone_a
        assert [(wire[5:], ranges) for wire, ranges in together_b] \
            == [(wire[5:], ranges) for wire, ranges in alone_b]

    def test_the_decode_memo_is_bounded(self):
        frames_module._ACK_DECODE_MEMO.clear()
        path = AckingPath()
        path.step(("next", 2))
        for _ in range(2 * frames_module._ACK_DECODE_MEMO_MAX):
            path.step(("skip", 1))
            path.step(("ack", 0))
            assert len(frames_module._ACK_DECODE_MEMO) \
                <= frames_module._ACK_DECODE_MEMO_MAX


# ---------------------------------------------------------------------------
# two big ACK_MPs in one flush
# ---------------------------------------------------------------------------


def test_two_big_acks_do_not_share_a_datagram():
    """Under the fastest-path policy the ACK_MPs of both paths ride one
    carrier path in one flush; two 650-gap frames used to leave as one
    2,593-byte datagram and ``TraceDrivenLink.send`` raised
    ``ValueError`` inside the loop."""
    loop = EventLoop()
    net = MultipathNetwork(loop)
    net.add_trace_path(0, [1] * 200, 0.01)
    net.add_trace_path(1, [1] * 200, 0.02)
    client, server = build_pair(loop, net, ack_policy="fastest")
    client.connect()
    loop.run(until=0.5)
    client.open_path(1, 1)
    loop.run(until=1.0)
    assert all(p.state is PathState.ACTIVE for p in server.paths.values())
    assert len(server.paths) == 2
    emitted = captured(server, "datagram_sent")
    seen = []
    _handler, elicits = client.receiver._dispatch[AckMpFrame]
    client.receiver._dispatch[AckMpFrame] = (
        lambda frame, path, now: seen.append(frame), elicits)
    for path in server.paths.values():
        first = path.largest_received_pn + 2
        for pn in range(first, first + 1300, 2):
            assert path.record_received(pn, loop.now)
        server.acks.queue_ack(path, loop.now)
    assert [len(frames) for frames
            in server.sender.pending_control.values()] == [2]
    server.sender.flush_control(loop.now)
    assert len(emitted) == 2
    assert all(len(wire) + UDP_IP_OVERHEAD <= MTU for wire in emitted)
    loop.run(until=loop.now + 1.0)       # crosses the TraceDrivenLinks
    assert sorted(frame.path_id for frame in seen) == [0, 1]
    assert all(len(frame.ranges) > 600 for frame in seen)
    assert not client.closed and not server.closed


# ---------------------------------------------------------------------------
# cost by count, independent of history
# ---------------------------------------------------------------------------


def _ack_calls_per_ack(gaps_then, window=25):
    """Calls (Python + C) spent under the four ACK stages per ACK_MP,
    over the ``window`` gaps that follow each history size in
    ``gaps_then``, on one transfer whose receiver drops every 5th
    datagram."""
    loop = EventLoop()
    net = MultipathNetwork(loop)
    net.add_simple_path(0, 100e6, 0.005)
    client, server = build_pair(loop, net)
    client.connect()
    loop.run(until=0.5)
    arrivals = [0]

    def lossy(dgram):
        arrivals[0] += 1
        if arrivals[0] % 5:
            server.datagram_received(dgram.payload, dgram.path_id)

    net.server.on_receive(lossy)
    server.on_stream_data = lambda sid: server.stream_read(sid)
    client.stream_send(client.create_stream(), bytes(4_000_000), fin=True)
    stages = {AckHandler.queue_ack.__code__, encode_frames.__code__,
              decode_frames.__code__,
              PathLossDetector.on_ack_received.__code__}
    inside = calls = 0

    def count(frame, event, _arg):
        nonlocal inside, calls
        if event == "call":
            if frame.f_code in stages:
                inside += 1
            calls += inside > 0
        elif event == "c_call":
            calls += inside > 0
        elif event == "return" and frame.f_code in stages:
            inside -= 1

    path = server.paths[0]
    out = []
    for gaps in gaps_then:
        while len(path.ack_pending) <= gaps:
            loop.run(until=loop.now + 0.002)
        calls, acks = 0, server.stats.acks_sent
        previous = sys.getprofile()
        sys.setprofile(count)
        try:
            while len(path.ack_pending) <= gaps + window:
                loop.run(until=loop.now + 0.002)
        finally:
            sys.setprofile(previous)
        assert inside == 0
        assert server.stats.acks_sent - acks >= window
        out.append(calls / (server.stats.acks_sent - acks))
    return out


def test_ack_cost_does_not_grow_with_the_paths_history():
    """With 400 permanent gaps behind it an ACK_MP costs what it costs
    with 50: this tree measures 1.0x; with the four tail caches it
    replaced, every new gap missed all four and the ratio followed the
    history (537 -> 3,622 calls per ACK)."""
    at_50, at_400 = _ack_calls_per_ack((50, 400))
    assert at_400 <= 1.3 * at_50, (at_50, at_400)


# ---------------------------------------------------------------------------
# the lint gate keeps the caches from regrowing
# ---------------------------------------------------------------------------


def test_lint_rejects_a_module_level_cache_under_quic():
    spec = importlib.util.spec_from_file_location(
        "repo_lint", FilePath(__file__).parent.parent / "tools" / "lint.py")
    lint = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(lint)
    tree = ast.parse("_ACK_ENC_TAIL_CACHE: dict = {}\n"
                     "_range_memo = dict()\n"
                     "_ACK_DECODE_MEMO: dict = {}\n"
                     "_ACK_TAIL_CACHE_MAX = 256\n"
                     "def f():\n    local_cache = {}\n")
    assert [name for name, _line in lint._module_caches(tree)] \
        == ["_ACK_ENC_TAIL_CACHE", "_range_memo", "_ACK_DECODE_MEMO"]
    quic = FilePath(frames_module.__file__).parent
    assert lint.NO_MODULE_CACHES == {"src/repro/quic": {"_ACK_DECODE_MEMO"}}
    for source in sorted(quic.rglob("*.py")):
        assert [f for f in lint.check_file(source) if "CACHE" in f[2]] == []


def test_ranges_below_zero_are_malformed():
    """Bounds are checked where the decoder computes them: a first
    range or a pair that reaches below packet number 0 is a
    FRAME_ENCODING_ERROR, with one range or many, memo warm or cold."""
    head = ref_varint(0xBABA00) + ref_varint(0) + ref_varint(0)
    good = head + b"".join(map(ref_varint, (9, 0, 1, 2, 1, 3)))  # 7-9, 1-4
    frames_module._ACK_DECODE_MEMO.clear()
    for _warm in range(2):
        assert decode_frames(good)[0].ranges == ((7, 9), (1, 4))
        for largest, delay, count, first, *pairs in (
                (9, 0, 0, 10), (9, 0, 1, 2, 1, 5), (9, 0, 1, 12, 0, 0),
                (9, 0, 2, 2, 1, 3, 0, 0)):
            bad = head + b"".join(map(ref_varint, (largest, delay, count,
                                                   first, *pairs)))
            with pytest.raises(FrameEncodingError):
                decode_frames(bad)
