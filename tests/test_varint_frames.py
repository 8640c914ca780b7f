"""Tests for varints and frame codecs, including property-based tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quic.errors import FrameEncodingError
from repro.quic.frames import (ACK_ELICITING, AckFrame, AckMpFrame, AckRange,
                               ConnectionCloseFrame, CryptoFrame,
                               MaxDataFrame, MaxStreamDataFrame,
                               NewConnectionIdFrame, PaddingFrame,
                               PathChallengeFrame, PathResponseFrame,
                               PathStatus, PathStatusFrame, PingFrame,
                               QoeSignals, StreamFrame, decode_frames,
                               encode_frames)
from repro.quic.varint import (VARINT_MAX, decode_varint, encode_varint,
                               varint_size)


class TestVarint:
    @pytest.mark.parametrize("value,size", [
        (0, 1), (63, 1), (64, 2), (16383, 2), (16384, 4),
        ((1 << 30) - 1, 4), (1 << 30, 8), (VARINT_MAX, 8),
    ])
    def test_sizes_at_boundaries(self, value, size):
        assert varint_size(value) == size
        assert len(encode_varint(value)) == size

    @pytest.mark.parametrize("value", [0, 1, 63, 64, 300, 16383, 16384,
                                       (1 << 30) - 1, 1 << 30, VARINT_MAX])
    def test_roundtrip_boundaries(self, value):
        data = encode_varint(value)
        decoded, offset = decode_varint(data)
        assert decoded == value
        assert offset == len(data)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            encode_varint(-1)
        with pytest.raises(ValueError):
            encode_varint(VARINT_MAX + 1)

    def test_truncated_raises(self):
        data = encode_varint(100000)
        with pytest.raises(ValueError):
            decode_varint(data[:2])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            decode_varint(b"")

    @given(st.integers(min_value=0, max_value=VARINT_MAX))
    @settings(max_examples=300)
    def test_roundtrip_property(self, value):
        decoded, _ = decode_varint(encode_varint(value))
        assert decoded == value

    @given(st.lists(st.integers(min_value=0, max_value=VARINT_MAX),
                    max_size=20))
    @settings(max_examples=100)
    def test_sequential_buffer_roundtrip(self, values):
        wire = memoryview(b"".join(map(encode_varint, values)))
        decoded, pos = [], 0
        for _ in values:
            value, pos = decode_varint(wire, pos)
            decoded.append(value)
        assert decoded == values
        assert pos == len(wire)


def encode_frame(frame):
    return encode_frames([frame])


def roundtrip(frame):
    decoded = decode_frames(encode_frame(frame))
    assert len(decoded) == 1
    return decoded[0]


class TestFrameCodecs:
    def test_ping(self):
        assert roundtrip(PingFrame()) == PingFrame()

    def test_padding_is_skipped(self):
        assert decode_frames(encode_frame(PaddingFrame(length=5))) == []

    def test_stream_frame(self):
        frame = StreamFrame(stream_id=4, offset=1000, data=b"hello",
                            fin=True)
        assert roundtrip(frame) == frame

    def test_stream_frame_empty_fin(self):
        frame = StreamFrame(stream_id=8, offset=500, data=b"", fin=True)
        assert roundtrip(frame) == frame

    def test_crypto_frame(self):
        frame = CryptoFrame(offset=0, data=b"\x01\x02\x03")
        assert roundtrip(frame) == frame

    def test_ack_frame_single_range(self):
        frame = AckFrame(largest_acked=10, ack_delay_us=250,
                         ranges=(AckRange(0, 10),))
        assert roundtrip(frame) == frame

    def test_ack_frame_multi_range(self):
        frame = AckFrame(largest_acked=20, ack_delay_us=0,
                         ranges=(AckRange(18, 20), AckRange(10, 15),
                                 AckRange(0, 5)))
        decoded = roundtrip(frame)
        assert set(decoded.ranges) == set(frame.ranges)

    def test_ack_mp_without_qoe(self):
        frame = AckMpFrame(path_id=2, largest_acked=7, ack_delay_us=100,
                           ranges=(AckRange(0, 7),), qoe=None)
        assert roundtrip(frame) == frame

    def test_ack_mp_with_qoe(self):
        qoe = QoeSignals(cached_bytes=123456, cached_frames=78,
                         bps=2_000_000, fps=25)
        frame = AckMpFrame(path_id=1, largest_acked=3, ack_delay_us=0,
                           ranges=(AckRange(2, 3), AckRange(0, 0)), qoe=qoe)
        decoded = roundtrip(frame)
        assert decoded.qoe == qoe
        assert set(decoded.ranges) == set(frame.ranges)

    def test_path_status(self):
        for status in PathStatus:
            frame = PathStatusFrame(path_id=3, status=status, status_seq=9)
            assert roundtrip(frame) == frame

    def test_new_connection_id(self):
        frame = NewConnectionIdFrame(sequence_number=5, cid=b"\xab" * 8,
                                     retire_prior_to=1)
        assert roundtrip(frame) == frame

    def test_path_challenge_response(self):
        challenge = PathChallengeFrame(data=b"12345678")
        assert roundtrip(challenge) == challenge
        response = PathResponseFrame(data=b"87654321")
        assert roundtrip(response) == response

    def test_path_challenge_wrong_size(self):
        with pytest.raises(ValueError):
            PathChallengeFrame(data=b"short")

    def test_connection_close(self):
        frame = ConnectionCloseFrame(error_code=0x0A, reason="bye")
        assert roundtrip(frame) == frame

    def test_max_data_frames(self):
        assert roundtrip(MaxDataFrame(maximum=1 << 20)) == \
            MaxDataFrame(maximum=1 << 20)
        frame = MaxStreamDataFrame(stream_id=4, maximum=1 << 16)
        assert roundtrip(frame) == frame

    def test_multiple_frames_in_payload(self):
        frames = [PingFrame(),
                  StreamFrame(stream_id=0, offset=0, data=b"x"),
                  MaxDataFrame(maximum=100)]
        assert decode_frames(encode_frames(frames)) == frames

    def test_unknown_frame_type_raises(self):
        with pytest.raises(FrameEncodingError):
            decode_frames(b"\x3f")  # type 0x3f unassigned here

    def test_encode_unknown_object_raises(self):
        with pytest.raises(FrameEncodingError):
            encode_frame(object())

    def test_ack_eliciting_classification(self):
        assert ACK_ELICITING[PingFrame]
        assert ACK_ELICITING[StreamFrame]
        assert not ACK_ELICITING[AckMpFrame]
        assert not ACK_ELICITING[ConnectionCloseFrame]
        # every frame the codec can produce is classified
        frames = decode_frames(encode_frames([
            PingFrame(), StreamFrame(stream_id=0, offset=0, data=b"x"),
            AckMpFrame(path_id=0, largest_acked=0, ack_delay_us=0,
                       ranges=(AckRange(0, 0),)),
            ConnectionCloseFrame(error_code=0)]))
        assert [ACK_ELICITING[type(f)] for f in frames] == \
            [True, True, False, False]

    def test_bad_ack_range_rejected(self):
        with pytest.raises(ValueError):
            AckRange(5, 3)

    def test_encode_requires_largest_in_first_range(self):
        frame = AckFrame(largest_acked=99, ack_delay_us=0,
                         ranges=(AckRange(0, 10),))
        with pytest.raises(FrameEncodingError):
            encode_frame(frame)


class TestQoeSignals:
    def test_play_time_left_uses_conservative_min(self):
        # 50 frames at 25 fps = 2.0 s; 1 Mbit cached at 1 Mbps = 1.0 s.
        qoe = QoeSignals(cached_bytes=125_000, cached_frames=50,
                         bps=1_000_000, fps=25)
        assert qoe.play_time_left() == pytest.approx(1.0)

    def test_play_time_left_frames_only(self):
        qoe = QoeSignals(cached_bytes=0, cached_frames=50, bps=0, fps=25)
        assert qoe.play_time_left() == pytest.approx(2.0)

    def test_play_time_left_bytes_only(self):
        qoe = QoeSignals(cached_bytes=250_000, cached_frames=0,
                         bps=2_000_000, fps=0)
        assert qoe.play_time_left() == pytest.approx(1.0)

    def test_play_time_left_no_signal(self):
        assert QoeSignals().play_time_left() == 0.0

    @given(st.integers(0, 10**9), st.integers(0, 10**6),
           st.integers(0, 10**8), st.integers(0, 240))
    @settings(max_examples=200)
    def test_codec_roundtrip_property(self, cached_bytes, cached_frames,
                                      bps, fps):
        qoe = QoeSignals(cached_bytes=cached_bytes,
                         cached_frames=cached_frames, bps=bps, fps=fps)
        frame = AckMpFrame(path_id=0, largest_acked=7, ack_delay_us=0,
                           ranges=(AckRange(0, 7),), qoe=qoe)
        assert encode_frame(frame).endswith(
            b"".join(map(encode_varint, qoe)))
        assert roundtrip(frame).qoe == qoe


class TestStreamFramePropertyBased:
    @given(st.integers(0, 1000), st.integers(0, 1 << 20),
           st.binary(max_size=1500), st.booleans())
    @settings(max_examples=200)
    def test_stream_roundtrip_property(self, stream_id, offset, data, fin):
        frame = StreamFrame(stream_id=stream_id, offset=offset, data=data,
                            fin=fin)
        assert roundtrip(frame) == frame

    @given(st.lists(st.tuples(st.integers(0, 100), st.integers(0, 100)),
                    min_size=1, max_size=10))
    @settings(max_examples=200)
    def test_ack_ranges_roundtrip_property(self, raw):
        # Build disjoint ranges from raw pairs.
        points = sorted({p for pair in raw for p in pair})
        ranges = []
        i = 0
        while i + 1 < len(points):
            start, end = points[i], points[i + 1]
            if ranges and start <= ranges[-1].end + 1:
                i += 1
                continue
            ranges.append(AckRange(start, end))
            i += 2
        if not ranges:
            ranges = [AckRange(points[0], points[0])]
        largest = max(r.end for r in ranges)
        frame = AckMpFrame(path_id=0, largest_acked=largest, ack_delay_us=0,
                           ranges=tuple(ranges))
        decoded = roundtrip(frame)
        assert set(decoded.ranges) == set(frame.ranges)
