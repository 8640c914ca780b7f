"""Tests for the video substrate: media model, HTTP layer, player, server."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.video import (MediaServer, PlayerConfig, RangeRequest,
                         RangeResponse, RangeResponseMeta, Video, VideoPlayer,
                         make_video, parse_request)


class TestVideoModel:
    def test_make_video_dimensions(self):
        v = make_video(duration_s=10.0, bitrate_bps=2_000_000)
        assert len(v.frame_sizes) == 250
        assert v.duration_s == pytest.approx(10.0)
        assert v.total_bytes == pytest.approx(2_000_000 / 8 * 10, rel=0.15)

    def test_first_frame_is_large(self):
        v = make_video()
        mean_rest = sum(v.frame_sizes[1:]) / (len(v.frame_sizes) - 1)
        assert v.first_frame_size > 4 * mean_rest

    def test_chunks_cover_video(self):
        v = make_video(duration_s=5.0, chunk_size=100_000)
        chunks = v.chunks()
        assert chunks[0].start == 0
        assert chunks[-1].end == v.total_bytes
        for a, b in zip(chunks, chunks[1:]):
            assert a.end == b.start
        assert all(c.size <= 100_000 for c in chunks)

    def test_frames_in_bytes(self):
        v = Video(name="t", fps=10, frame_sizes=[100, 50, 50])
        assert v.frames_in_bytes(99) == 0
        assert v.frames_in_bytes(100) == 1
        assert v.frames_in_bytes(149) == 1
        assert v.frames_in_bytes(200) == 3

    def test_bytes_for_frames(self):
        v = Video(name="t", fps=10, frame_sizes=[100, 50, 50])
        assert v.bytes_for_frames(0) == 0
        assert v.bytes_for_frames(2) == 150

    def test_frame_offsets(self):
        v = Video(name="t", fps=10, frame_sizes=[100, 50])
        assert [(v.bytes_for_frames(i), v.bytes_for_frames(i + 1))
                for i in range(2)] == [(0, 100), (100, 150)]

    def test_deterministic_by_seed(self):
        assert make_video(seed=5).frame_sizes == make_video(seed=5).frame_sizes
        assert make_video(seed=5).frame_sizes != make_video(seed=6).frame_sizes

    def test_mean_bps(self):
        v = Video(name="t", fps=10, frame_sizes=[1000] * 10)
        assert v.mean_bps == pytest.approx(10_000 * 8 / 1.0)

    def test_rejects_tiny_video(self):
        with pytest.raises(ValueError):
            make_video(duration_s=0.01)


class TestHttpLayer:
    def test_request_roundtrip(self):
        req = RangeRequest(video_name="v1", start=100, end=500)
        assert parse_request(req.encode()) == req

    def test_parse_incomplete_returns_none(self):
        assert parse_request(b"GET v1 bytes=0-10") is None  # no CRLF

    def test_parse_garbage_returns_none(self):
        assert parse_request(b"POST x y\r\n") is None
        assert parse_request(b"GET v1 bites=0-10\r\n") is None
        assert parse_request(b"\xff\xfe\r\n") is None

    def test_response_meta_roundtrip(self):
        meta = RangeResponseMeta(total_size=10_000, start=100, end=500)
        decoded = RangeResponseMeta.decode(meta.encode())
        assert decoded == meta
        assert len(meta.encode()) == RangeResponseMeta.HEADER_LEN

    def test_response_meta_truncated(self):
        with pytest.raises(ValueError):
            RangeResponseMeta.decode(b"\x00" * 10)

    @given(st.integers(0, 1 << 40), st.integers(0, 1 << 40))
    @settings(max_examples=100)
    def test_request_roundtrip_property(self, start, size):
        req = RangeRequest(video_name="v", start=start, end=start + size)
        assert parse_request(req.encode()) == req


class FakeLoop:
    """Minimal loop stub for player unit tests (no transport)."""

    def __init__(self):
        self.now = 0.0
        self.scheduled = []

    def schedule_after(self, delay, cb):
        event = type("E", (), {"cancel": lambda self: None})()
        self.scheduled.append((self.now + delay, cb))
        return event


class FakeConn:
    """Connection stub recording stream sends."""

    def __init__(self):
        self.sent = []
        self.next_id = 0
        self.recv_streams = {}
        self.on_stream_data = None
        self.qoe_provider = None

    def create_stream(self, priority=0):
        sid = self.next_id
        self.next_id += 4
        return sid

    def stream_send(self, sid, data, fin=False, **kw):
        self.sent.append((sid, data, fin))

    def stream_read(self, sid):
        return b""


class TestPlayerUnit:
    def test_start_issues_concurrent_requests(self):
        loop, conn = FakeLoop(), FakeConn()
        video = make_video(duration_s=5.0, chunk_size=64 * 1024)
        player = VideoPlayer(loop, conn, video,
                             PlayerConfig(concurrent_requests=3))
        player.start()
        assert len(conn.sent) == 3
        req = parse_request(conn.sent[0][1])
        assert req.start == 0

    def test_respects_buffer_cap(self):
        loop, conn = FakeLoop(), FakeConn()
        video = make_video(duration_s=5.0, chunk_size=64 * 1024)
        player = VideoPlayer(loop, conn, video,
                             PlayerConfig(concurrent_requests=99,
                                          max_buffer_s=0.0))
        player.start()
        assert len(conn.sent) == 0

    def test_qoe_signals_shape(self):
        loop, conn = FakeLoop(), FakeConn()
        video = make_video(duration_s=5.0)
        player = VideoPlayer(loop, conn, video)
        qoe = player.qoe_signals()
        assert qoe.fps == video.fps
        assert qoe.bps == int(video.mean_bps)
        assert qoe.cached_bytes == 0
        assert qoe.cached_frames == 0

    def test_qoe_provider_registered(self):
        loop, conn = FakeLoop(), FakeConn()
        player = VideoPlayer(loop, conn, make_video())
        assert conn.qoe_provider is not None
        assert conn.qoe_provider() == player.qoe_signals()


class TestMediaServerUnit:
    def _server(self, video=None, ffa=True):
        conn = _RecordingConn()
        video = video or make_video(duration_s=5.0)
        server = MediaServer(videos={video.name: video})
        server.attach(conn, first_frame_acceleration=ffa)
        return conn, video, server

    def test_serves_requested_range(self):
        conn, video, server = self._server()
        conn.feed(0, RangeRequest(video.name, 0, 1000).encode())
        sid, data, fin, kw = conn.sent[0]
        assert fin
        meta = RangeResponseMeta.decode(data)
        assert meta.total_size == video.total_bytes
        assert meta.start == 0 and meta.end == 1000
        assert len(data) == RangeResponseMeta.HEADER_LEN + 1000

    def test_range_clamped_to_video(self):
        conn, video, server = self._server()
        conn.feed(0, RangeRequest(video.name, 0, 10**9).encode())
        _sid, data, _fin, _kw = conn.sent[0]
        meta = RangeResponseMeta.decode(data)
        assert meta.end == video.total_bytes

    def test_unknown_video_gets_empty_fin(self):
        conn, _video, server = self._server()
        conn.feed(0, RangeRequest("nope", 0, 100).encode())
        sid, data, fin, kw = conn.sent[0]
        assert data == b"" and fin

    def test_first_frame_priority_marked(self):
        """Ranges containing the video start carry the FF priority tag."""
        conn, video, server = self._server(ffa=True)
        conn.feed(0, RangeRequest(video.name, 0, video.total_bytes).encode())
        _sid, _data, _fin, kw = conn.sent[0]
        assert kw.get("frame_priority") == 0
        assert kw.get("size") == video.first_frame_size

    def test_no_priority_without_ffa(self):
        conn, video, server = self._server(ffa=False)
        conn.feed(0, RangeRequest(video.name, 0, video.total_bytes).encode())
        _sid, _data, _fin, kw = conn.sent[0]
        assert "frame_priority" not in kw

    def test_later_ranges_not_marked(self):
        conn, video, server = self._server(ffa=True)
        start = video.first_frame_size + 100
        conn.feed(0, RangeRequest(video.name, start,
                                  video.total_bytes).encode())
        _sid, _data, _fin, kw = conn.sent[0]
        assert "frame_priority" not in kw

    def test_stream_priority_orders_by_position(self):
        conn, video, server = self._server()
        conn.feed(0, RangeRequest(video.name, 0,
                                  video.chunk_size).encode())
        conn.feed(4, RangeRequest(video.name, 3 * video.chunk_size,
                                  4 * video.chunk_size).encode())
        assert conn.sent[0][3].get("priority") == 0
        assert conn.sent[1][3].get("priority") == 3

    def test_fragmented_request_buffered(self):
        conn, video, server = self._server()
        encoded = RangeRequest(video.name, 0, 100).encode()
        conn.feed(0, encoded[:5])
        assert conn.sent == []
        conn.feed(0, encoded[5:])
        assert len(conn.sent) == 1

    def test_body_bytes_deterministic_by_offset(self):
        video = make_video(duration_s=5.0)
        hlen = RangeResponseMeta.HEADER_LEN

        def body(start, end):
            return RangeResponse(RangeResponseMeta(video.total_bytes, start,
                                                   end), video.name)[hlen:]

        whole = body(0, 2000)
        part = body(500, 1500)
        assert whole[500:1500] == part

    def test_late_fin_leaves_no_request_state(self):
        """A FIN (or a duplicate) after the request was answered finds
        nothing to read: no entry is made and nothing is served twice."""
        conn, video, server = self._server()
        conn.feed(0, RangeRequest(video.name, 0, 100).encode())
        conn.feed(0, b"", fin=True)
        assert len(conn.sent) == 1 and server._request_buf == {}

    def test_ended_half_without_request_is_forgotten(self):
        conn, video, server = self._server()
        conn.feed(0, b"GET half")
        assert list(server._request_buf) == [(id(conn), 0)]
        conn.feed(0, b" a request", fin=True)
        assert conn.sent == [] and server._request_buf == {}


class TestRangeResponse:
    """The response value equals the header + pattern bytes it stands
    for, whatever slice a sender cuts from it."""

    @staticmethod
    def reference(name, total, start, length):
        unit = name.encode() + b"|"
        pattern = unit * ((start + length) // len(unit) + 1)
        return (RangeResponseMeta(total, start, start + length).encode()
                + pattern[start:start + length])

    @settings(max_examples=300, deadline=None)
    @given(name=st.text(st.characters(min_codepoint=33, max_codepoint=126),
                        min_size=1, max_size=40),
           start=st.integers(0, 10**7),
           length=st.integers(0, 6000),
           a=st.integers(-50, 6100), b=st.integers(-50, 6100))
    def test_slices_equal_the_reference(self, name, start, length, a, b):
        total = start + length + 7
        response = RangeResponse(
            RangeResponseMeta(total, start, start + length), name)
        reference = self.reference(name, total, start, length)
        assert len(response) == len(reference)
        assert response[a:b] == reference[a:b]
        assert response[:] == reference

    def test_straddles_the_header_and_the_period_block(self):
        response = RangeResponse(RangeResponseMeta(10**6, 777, 20_777),
                                 "clip")
        reference = self.reference("clip", 10**6, 777, 20_000)
        for a, b in [(0, 24), (10, 40), (20, 5_000), (24, 1_224),
                     (1_000, 19_000), (0, 20_024)]:
            assert response[a:b] == reference[a:b], (a, b)


class _RecordingConn:
    """Server-side connection stub that buffers incoming stream data."""

    def __init__(self):
        self.sent = []
        self.on_stream_data = None
        self._pending = {}
        self._finished = set()

    def feed(self, sid, data, fin=False):
        self._pending.setdefault(sid, bytearray()).extend(data)
        if fin:
            self._finished.add(sid)
        if self.on_stream_data:
            self.on_stream_data(sid)

    def stream_finished(self, sid):
        return sid in self._finished and not self._pending.get(sid)

    def stream_read(self, sid):
        data = bytes(self._pending.get(sid, b""))
        self._pending[sid] = bytearray()
        return data

    def stream_send(self, sid, data, fin=False, **kw):
        self.sent.append((sid, data, fin, kw))
