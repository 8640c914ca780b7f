"""The per-packet paths against independent references.

Three places do less work per packet than the code they replaced: the
frame codec walks one view by index instead of through a reader object,
``Video`` answers byte/frame questions from prefix sums instead of
scanning ``frame_sizes``, and ``Sender.unacked_ranges`` walks a path's
ack-eliciting packets instead of everything it ever sent.  The oracles
below are written from RFC 9000 / the multipath draft and from the
linear code that was replaced, never from the new code.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quic.cid import ConnectionId
from repro.quic.errors import FrameEncodingError
from repro.quic.frames import (AckFrame, AckMpFrame, AckRange,
                               ConnectionCloseFrame, CryptoFrame,
                               MaxDataFrame, MaxStreamDataFrame,
                               NewConnectionIdFrame, PaddingFrame,
                               PathChallengeFrame, PathResponseFrame,
                               PathStatus, PathStatusFrame, PingFrame,
                               QoeSignals, StreamFrame, decode_frames,
                               encode_frames)
from repro.quic.loss_detection import SentPacket
from repro.quic.path import Path, PathState
from repro.quic.send import SendChunk, Sender, SentFrameInfo
from repro.quic.stream import FIRST_FRAME_PRIORITY, SendStream
from repro.quic.varint import VARINT_MAX
from repro.traces.catalog import extreme_mobility_trace_pairs
from repro.video.media import Video
from tests.test_ack_path import ref_ack_mp, ref_varint

# ---------------------------------------------------------------------------
# the codec: every frame type against a from-the-RFC encoder
# ---------------------------------------------------------------------------


def ref_ack_ranges(ranges):
    """RFC 9000 Sec. 19.3.1: range count, first range, gap/length pairs."""
    ordered = sorted(ranges, reverse=True)
    smallest = ordered[0][0]
    out = [ref_varint(len(ordered) - 1), ref_varint(ordered[0][1] - smallest)]
    for start, end in ordered[1:]:
        out += [ref_varint(smallest - end - 2), ref_varint(end - start)]
        smallest = start
    return b"".join(out)


def ref_qoe(qoe):
    return b"".join(ref_varint(v) for v in (
        qoe.cached_bytes, qoe.cached_frames, qoe.bps, qoe.fps))


def ref_frame(frame):
    """One frame as RFC 9000 Sec. 19 (and the multipath draft, for the
    three 0xBABA.. types) lays it out."""
    kind = type(frame)
    if kind is PaddingFrame:
        return bytes(frame.length)
    if kind is PingFrame:
        return b"\x01"
    if kind is AckFrame:
        return b"\x02" + ref_varint(frame.largest_acked) \
            + ref_varint(frame.ack_delay_us) + ref_ack_ranges(frame.ranges)
    if kind is AckMpFrame:
        return ref_ack_mp(frame.path_id, frame.ack_delay_us, frame.ranges,
                          frame.qoe)
    if kind is CryptoFrame:
        return b"\x06" + ref_varint(frame.offset) \
            + ref_varint(len(frame.data)) + frame.data
    if kind is StreamFrame:     # OFF and LEN always set, FIN from the frame
        return bytes([0x08 | 0x04 | 0x02 | frame.fin]) \
            + ref_varint(frame.stream_id) + ref_varint(frame.offset) \
            + ref_varint(len(frame.data)) + frame.data
    if kind is MaxDataFrame:
        return b"\x10" + ref_varint(frame.maximum)
    if kind is MaxStreamDataFrame:
        return b"\x11" + ref_varint(frame.stream_id) \
            + ref_varint(frame.maximum)
    if kind is NewConnectionIdFrame:
        return b"\x18" + ref_varint(frame.sequence_number) \
            + ref_varint(frame.retire_prior_to) \
            + bytes([len(frame.cid)]) + frame.cid
    if kind is PathChallengeFrame:
        return b"\x1a" + frame.data
    if kind is PathResponseFrame:
        return b"\x1b" + frame.data
    if kind is ConnectionCloseFrame:
        reason = frame.reason.encode("utf-8")
        return b"\x1c" + ref_varint(frame.error_code) \
            + ref_varint(len(reason)) + reason
    if kind is PathStatusFrame:
        return ref_varint(0xBABA01) + ref_varint(frame.path_id) \
            + ref_varint(frame.status_seq) + ref_varint(int(frame.status))
    raise AssertionError(kind)


_varints = st.one_of(st.integers(0, 63), st.integers(0, 1 << 14),
                     st.integers(0, 1 << 30), st.integers(0, VARINT_MAX))
_small = st.integers(0, 1 << 20)
_qoe = st.builds(QoeSignals, _varints, _varints, _varints, _varints)


@st.composite
def _ack_ranges(draw):
    """Disjoint, non-adjacent ranges, in any order."""
    ranges, floor = [], draw(_small)
    for _ in range(draw(st.integers(1, 8))):
        start = floor + draw(st.integers(0, 300))
        end = start + draw(st.integers(0, 300))
        ranges.append(AckRange(start, end))
        floor = end + 2
    return tuple(draw(st.permutations(ranges)))


@st.composite
def _acks(draw, multipath):
    ranges = draw(_ack_ranges())
    largest = max(end for _start, end in ranges)
    if multipath:
        return AckMpFrame(draw(_varints), largest, draw(_varints), ranges,
                          draw(st.one_of(st.none(), _qoe)))
    return AckFrame(largest, draw(_varints), ranges)


_frames = st.one_of(
    st.just(PingFrame()),
    _acks(multipath=False),
    _acks(multipath=True),
    st.builds(CryptoFrame, _varints, st.binary(max_size=64)),
    st.builds(StreamFrame, _varints, _varints, st.binary(max_size=1300),
              st.booleans()),
    st.builds(MaxDataFrame, _varints),
    st.builds(MaxStreamDataFrame, _varints, _varints),
    st.builds(NewConnectionIdFrame, _varints, st.binary(min_size=8,
                                                        max_size=8),
              _varints),
    st.builds(PathChallengeFrame, st.binary(min_size=8, max_size=8)),
    st.builds(PathResponseFrame, st.binary(min_size=8, max_size=8)),
    st.builds(ConnectionCloseFrame, _varints, st.text(max_size=40)),
    st.builds(PathStatusFrame, _varints, st.sampled_from(PathStatus),
              _varints),
)


def _as_decoded(frame):
    """``frame`` as the decoder reports it: ACK ranges newest first."""
    if type(frame) is AckMpFrame:
        return AckMpFrame(frame.path_id, frame.largest_acked,
                          frame.ack_delay_us,
                          tuple(sorted(frame.ranges, reverse=True)),
                          frame.qoe)
    if type(frame) is AckFrame:
        return AckFrame(frame.largest_acked, frame.ack_delay_us,
                        tuple(sorted(frame.ranges, reverse=True)))
    return frame


class TestCodecOracle:
    @settings(max_examples=400, deadline=None)
    @given(frame=_frames)
    def test_every_frame_matches_the_rfc_bytes_and_round_trips(self, frame):
        wire = encode_frames([frame])
        assert wire == ref_frame(frame)
        assert decode_frames(wire) == [_as_decoded(frame)]
        assert decode_frames(memoryview(wire)) == [_as_decoded(frame)]

    @settings(max_examples=100, deadline=None)
    @given(frames=st.lists(st.one_of(_frames, st.builds(
        PaddingFrame, st.integers(1, 5))), max_size=6))
    def test_a_packet_of_frames_is_their_concatenation(self, frames):
        wire = encode_frames(frames)
        assert wire == b"".join(ref_frame(f) for f in frames)
        assert decode_frames(wire) == [
            _as_decoded(f) for f in frames if type(f) is not PaddingFrame]

    @settings(max_examples=200, deadline=None)
    @given(frame=_frames)
    def test_every_proper_prefix_is_a_frame_encoding_error(self, frame):
        """Cut anywhere inside a frame, the payload is malformed -- and
        says so with the one exception the receive path maps to a clean
        close, never ``IndexError`` or a bare ``ValueError``."""
        wire = ref_frame(frame)
        for cut in range(1, len(wire)):
            with pytest.raises(FrameEncodingError):
                decode_frames(memoryview(wire[:cut]))

    @pytest.mark.parametrize("wire", [
        # STREAM: 5 bytes announced, 3 present; then the 8-byte maximum
        b"\x0e\x04\x00\x05abc",
        b"\x0e\x04\x00" + ref_varint(VARINT_MAX) + b"abc",
        # CRYPTO and CONNECTION_CLOSE lengths past the end
        b"\x06\x00" + ref_varint(1 << 30) + b"abc",
        b"\x1c\x00\x0ftoo short",
        # ACK: 3 more ranges announced, bytes for one
        b"\x02\x20\x00\x03\x00\x00\x00",
        # ACK_MP: a range count no payload could hold
        ref_varint(0xBABA00) + b"\x00\x00\x20\x00" + ref_varint(VARINT_MAX)
        + b"\x00",
        # ACK whose first range, then whose second, starts below zero
        b"\x02\x05\x00\x00\x06",
        b"\x02\x20\x00\x01\x00\x00\x3f",
        # NEW_CONNECTION_ID: CID lengths 0, 4, 20 and 255 (this stack: 8)
        b"\x18\x01\x00\x00",
        b"\x18\x09\x00\x04\x01\x02\x03\x04",
        b"\x18\x01\x00\x14" + bytes(20),
        b"\x18\x01\x00\xff" + bytes(255),
        # PATH_STATUS with a status that does not exist
        ref_varint(0xBABA01) + b"\x00\x00\x07",
        # CONNECTION_CLOSE whose reason is not UTF-8
        b"\x1c\x00\x02\xff\xfe",
        # an unassigned type, one and four bytes long
        b"\x3f",
        ref_varint(0xBABA03),
    ])
    def test_out_of_range_counts_are_frame_encoding_errors(self, wire):
        with pytest.raises(FrameEncodingError):
            decode_frames(wire)

    @pytest.mark.parametrize("length", [0, 21, 256])
    def test_new_connection_id_encoder_rejects_a_bad_length(self, length):
        """It used to mask the length to one byte: 256 went out as 0."""
        with pytest.raises(FrameEncodingError):
            encode_frames([NewConnectionIdFrame(1, bytes(length), 0)])

    def test_new_connection_id_of_any_rfc_length_is_encoded(self):
        for length in (1, 4, 8, 20):
            wire = encode_frames([NewConnectionIdFrame(1, bytes(length), 0)])
            assert wire == b"\x18\x01\x00" + bytes([length]) + bytes(length)


# ---------------------------------------------------------------------------
# Video: prefix sums against the linear scans they replaced
# ---------------------------------------------------------------------------


def linear_frames_in_bytes(frame_sizes, byte_count):
    consumed = 0
    frames = 0
    for size in frame_sizes:
        if consumed + size > byte_count:
            break
        consumed += size
        frames += 1
    return frames


class TestVideoOracle:
    @settings(max_examples=300, deadline=None)
    @given(sizes=st.lists(st.integers(0, 5000), min_size=1, max_size=60),
           byte_counts=st.lists(st.integers(-10, 320_000), max_size=20),
           frame_counts=st.lists(st.integers(-70, 70), max_size=20))
    def test_answers_equal_the_linear_scans(self, sizes, byte_counts,
                                            frame_counts):
        video = Video(name="v", fps=25, frame_sizes=list(sizes))
        total = sum(sizes)
        assert video.total_bytes == total
        assert video.mean_bps == total * 8.0 / (len(sizes) / 25)
        offsets, offset = [], 0
        for size in sizes:
            offsets.append((offset, offset + size))
            offset += size
        # every frame boundary and its neighbours, then the random ones
        edges = [end + d for _start, end in offsets for d in (-1, 0, 1)]
        for byte_count in edges + byte_counts + [0, total, total + 1]:
            assert video.frames_in_bytes(byte_count) \
                == linear_frames_in_bytes(sizes, byte_count), byte_count
        for frame_count in frame_counts + [0, len(sizes), len(sizes) + 1]:
            assert video.bytes_for_frames(frame_count) \
                == sum(sizes[:frame_count]), frame_count
        if total:
            chunks = video.chunks()
            assert [c.index for c in chunks] == list(range(len(chunks)))
            assert chunks[0].start == 0 and chunks[-1].end == total
            assert all(a.end == b.start for a, b in zip(chunks, chunks[1:]))


# ---------------------------------------------------------------------------
# the XLINK sweep: the ack-eliciting index against the walk of ``sent``
# ---------------------------------------------------------------------------


def walk_of_sent(sender, stream_id=None, frame_priority=None, wanted=None,
                 wanted_oldest_first=False):
    """``Sender.unacked_ranges`` as it was: every packet a path tracks,
    ACK-only ones skipped by their empty ``frames_info``."""
    out = []
    now = sender.loop.now
    for path in sender.paths.values():
        if path.state is PathState.ABANDONED:
            continue
        for pkt in path.loss.sent.values():
            if not pkt.frames_info:
                continue
            if wanted is not None and not wanted(path, pkt.sent_time):
                if wanted_oldest_first:
                    break
                continue
            for info in pkt.frames_info:
                if info.stream_id < 0 or info.length == 0:
                    continue
                if stream_id is not None and info.stream_id != stream_id:
                    continue
                stream = sender.send_streams.get(info.stream_id)
                if stream is None:
                    continue
                if stream.acked_ranges.covers(info.offset,
                                              info.offset + info.length):
                    continue
                prio = stream.frame_priority_at(info.offset)
                if frame_priority is not None and prio != frame_priority:
                    continue
                last = stream.reinjected.get((info.offset, info.length))
                if last is not None and now - last < max(
                        sender.conn.max_delivery_time(), 0.3):
                    continue
                out.append((pkt.sent_time, SendChunk(
                    info.stream_id, info.offset, info.length, "reinject",
                    stream.priority, prio, path.path_id), path.path_id))
    out.sort(key=lambda item: item[0])
    return [(chunk, pid, t) for t, chunk, pid in out]


_sends = st.lists(st.tuples(
    st.integers(0, 2),                               # path
    st.sampled_from(["ack", "ack", "ping", "data", "data", "data", "fin"]),
    st.integers(0, 2),                               # stream 0, 4, 8
    st.integers(0, 3)), max_size=60)                 # time step, x 10 ms


class SweepScript:
    """Three paths and three streams behind a real :class:`Sender`, fed
    a send map that interleaves ACK-only packets, PING-only PTO probes,
    FIN-only and data packets; then ACKs, stream acks, one abandoned
    path and some ranges already re-injected."""

    def __init__(self, sends, acked_pns, acked_data, reinjected, abandon):
        self.loop = SimpleNamespace(now=0.0)
        cid = ConnectionId(cid=bytes(8), sequence_number=0)
        paths = {pid: Path(pid, cid, cid, cc=None) for pid in range(3)}
        streams = {}
        for sid in (0, 4):      # stream 8 is sent on but already closed
            streams[sid] = SendStream(sid, priority=sid)
            streams[sid].write(bytes(40_000), frame_priority=(
                FIRST_FRAME_PRIORITY if sid == 0 else None),
                position=0, size=5_000)
        conn = SimpleNamespace(
            loop=self.loop, stats=None, timers=None, paths=paths,
            send_queue=[], send_streams=streams,
            max_delivery_time=lambda: 0.2)
        self.sender = Sender(conn)
        offsets = {0: 0, 4: 0, 8: 0}
        self.data_sent = []
        for pid, kind, stream, step in sends:
            self.loop.now += step * 0.01
            path, sid = paths[pid], stream * 4
            infos = ()
            if kind == "data":
                infos = (SentFrameInfo(sid, offsets[sid], 1200),)
                offsets[sid] += 1200
                self.data_sent.append(infos[0])
            elif kind == "fin":
                infos = (SentFrameInfo(sid, offsets[sid], 0, True),)
            path.loss.on_packet_sent(SentPacket(
                path.next_packet_number(), self.loop.now, 1250,
                ack_eliciting=kind != "ack", in_flight=bool(infos),
                frames_info=infos))
        self.loop.now += 0.05
        for pid, pn in acked_pns:
            if pn in paths[pid].loss.sent:
                paths[pid].loss.on_ack_received(((pn, pn),), 0.0,
                                                self.loop.now)
        for index in acked_data:
            if self.data_sent:
                info = self.data_sent[index % len(self.data_sent)]
                if info.stream_id in streams:
                    streams[info.stream_id].on_acked(info.offset,
                                                     info.length, False)
        for index, age in reinjected:
            if self.data_sent:
                info = self.data_sent[index % len(self.data_sent)]
                if info.stream_id in streams:
                    streams[info.stream_id].reinjected[
                        (info.offset, info.length)] = self.loop.now - age
        if abandon is not None:
            paths[abandon].state = PathState.ABANDONED


class TestSweepOracle:
    @settings(max_examples=300, deadline=None)
    @given(sends=_sends,
           acked_pns=st.lists(st.tuples(st.integers(0, 2),
                                        st.integers(0, 30)), max_size=15),
           acked_data=st.lists(st.integers(0, 100), max_size=8),
           reinjected=st.lists(st.tuples(
               st.integers(0, 100), st.sampled_from([0.0, 0.1, 0.29, 0.31,
                                                     1.0])), max_size=6),
           abandon=st.sampled_from([None, None, 0, 2]),
           age=st.sampled_from([0.0, 0.05, 0.1, 0.3]),
           slow_path=st.integers(0, 2))
    def test_unacked_ranges_equals_the_walk_of_sent(
            self, sends, acked_pns, acked_data, reinjected, abandon, age,
            slow_path):
        script = SweepScript(sends, acked_pns, acked_data, reinjected,
                             abandon)
        sender, now = script.sender, script.loop.now
        asked = []

        def overdue(_path, sent_time):          # only falls as times grow
            asked.append(sent_time)
            return now - sent_time > age

        def slow_or_recent(path, sent_time):    # no order to exploit
            return path.path_id == slow_path or now - sent_time < age

        filters = [{}, {"stream_id": 0}, {"stream_id": 4},
                   {"frame_priority": FIRST_FRAME_PRIORITY},
                   {"stream_id": 0, "frame_priority": FIRST_FRAME_PRIORITY}]
        for kw in filters:
            assert sender.unacked_ranges(**kw) == walk_of_sent(sender, **kw)
            for wanted, oldest_first in ((overdue, True), (overdue, False),
                                         (slow_or_recent, False)):
                assert sender.unacked_ranges(
                    wanted=wanted, wanted_oldest_first=oldest_first, **kw) \
                    == walk_of_sent(sender, wanted=wanted,
                                    wanted_oldest_first=oldest_first, **kw)

    def test_a_receivers_sweep_never_walks_its_ack_only_history(self):
        """A client mostly sends ACK-only packets.  With one request and
        one PTO probe among 500 of them, the sweep asks about those two,
        looks up only what the predicate accepts, stops at the first
        rejection when told it may -- and never iterates ``sent``."""
        sends = [(0, "data", 0, 0)] + [(0, "ack", 0, 1)] * 250 \
            + [(0, "ping", 0, 0)] + [(0, "ack", 0, 1)] * 250
        script = SweepScript(sends, [], [], [], None)
        loss = script.sender.paths[0].loss
        looked_up = []

        class LookupOnly(dict):
            def __getitem__(self, pn):
                looked_up.append(pn)
                return dict.__getitem__(self, pn)

            def __iter__(self):
                raise AssertionError("the sweep walked the path's history")

            keys = values = items = __iter__

        loss.sent = LookupOnly(loss.sent)
        asked = []

        def wanted(_path, sent_time):
            asked.append(sent_time)
            return verdict

        verdict = False
        assert script.sender.unacked_ranges(wanted=wanted) == []
        assert (len(asked), looked_up) == (2, [])
        assert script.sender.unacked_ranges(
            wanted=wanted, wanted_oldest_first=True) == []
        assert (len(asked), looked_up) == (3, [])
        verdict = True
        (found,) = script.sender.unacked_ranges(wanted=wanted)
        assert (found[0].offset, found[0].length, found[1]) == (0, 1200, 0)
        assert (len(asked), looked_up) == (5, [0, 251])


def test_first_trace_pairs_are_the_catalogue_prefix():
    """Asking for ``n`` pairs generates ``n`` -- the same ones."""
    everything = extreme_mobility_trace_pairs(duration_s=4.0)
    assert len(everything) == 10
    for n in (0, 1, 3, 6, 10, 12):
        assert extreme_mobility_trace_pairs(4.0, n) == everything[:n]
