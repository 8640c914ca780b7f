"""CDN-edge media server application.

Parses HTTP range requests arriving on QUIC streams and answers each
with a response header plus the requested byte range, written as a
:class:`~repro.video.http.RangeResponse` value that the send stream
cuts packets from.  When first-video-frame acceleration is enabled and
the range contains the start of the video, the server marks the first
frame's bytes with ``FIRST_FRAME_PRIORITY`` via the ``stream_send``
priority API (Sec. 5.1, Fig. 4c).

One :class:`MediaServer` holds one video catalog and can serve any
number of concurrent connections (the paper's CDN node handles 100K+
users per machine): :meth:`attach` registers a server-side connection,
and per-connection request state is tracked separately.  The
one-connection constructor form ``MediaServer(conn, videos)`` attaches
``conn`` with first-frame acceleration on.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.quic.connection import Connection
from repro.quic.stream import FIRST_FRAME_PRIORITY
from repro.video.http import RangeResponse, RangeResponseMeta, parse_request
from repro.video.media import Video


class MediaServer:
    """Serves a video catalog over any number of server connections."""

    def __init__(self, conn: Optional[Connection] = None,
                 videos: Optional[Dict[str, Video]] = None) -> None:
        self.videos: Dict[str, Video] = dict(videos or {})
        #: (connection, stream_id) -> partial request bytes; an entry
        #: goes once its request is answered or its half has ended
        self._request_buf: Dict[Tuple[int, int], bytes] = {}
        #: attached connections by id() -> (conn, effective FFA flag)
        self._attached: Dict[int, Tuple[Connection, bool]] = {}
        if conn is not None:
            self.attach(conn)

    @property
    def connections(self) -> int:
        """Number of attached server connections."""
        return len(self._attached)

    def attach(self, conn: Connection,
               first_frame_acceleration: bool = True) -> None:
        """Serve the catalog on ``conn``.

        ``first_frame_acceleration`` is per connection: schemes like
        ``xlink_nofa`` turn it off while other sessions on the same host
        keep it.
        """
        if id(conn) in self._attached:
            raise ValueError("connection already attached")
        self._attached[id(conn)] = (conn, first_frame_acceleration)
        conn.on_stream_data = (
            lambda stream_id, _conn=conn: self._on_stream_data(_conn,
                                                               stream_id))

    def detach(self, conn: Connection) -> None:
        """Forget ``conn`` and its request state (a no-op if it is not
        attached), so an evicted connection can be collected."""
        me = id(conn)
        if self._attached.pop(me, None) is None:
            return
        conn.on_stream_data = None
        self._request_buf = {key: buf
                             for key, buf in self._request_buf.items()
                             if key[0] != me}

    def add_video(self, video: Video) -> None:
        self.videos[video.name] = video

    def _on_stream_data(self, conn: Connection, stream_id: int) -> None:
        key = (id(conn), stream_id)
        data = self._request_buf.pop(key, b"") + conn.stream_read(stream_id)
        if not data:
            return  # a duplicate, or a FIN after the request was answered
        request = parse_request(data)
        if request is not None:
            self._serve(conn, stream_id, request)
        elif not conn.stream_finished(stream_id):
            self._request_buf[key] = data  # the rest is still to come

    def _serve(self, conn: Connection, stream_id: int, request) -> None:
        video = self.videos.get(request.video_name)
        if video is None:
            conn.stream_send(stream_id, b"", fin=True)
            return
        _conn, ffa = self._attached[id(conn)]
        start = max(request.start, 0)
        end = min(request.end, video.total_bytes)
        payload = RangeResponse(
            RangeResponseMeta(total_size=video.total_bytes, start=start,
                              end=end), video.name)
        # The chunk's position in the video orders the stream priority:
        # earlier content is more urgent (Fig. 4b semantics).
        stream_priority = start // max(video.chunk_size, 1)
        first_frame_end = video.first_frame_size
        if ffa and start < first_frame_end:
            # Mark the first video frame's bytes at the highest priority.
            # Positions are relative to this stream's payload.
            ff_start = RangeResponseMeta.HEADER_LEN  # frame starts after meta
            ff_len = min(end, first_frame_end) - start
            conn.stream_send(
                stream_id, payload, fin=True, priority=stream_priority,
                frame_priority=FIRST_FRAME_PRIORITY,
                position=ff_start, size=ff_len)
        else:
            conn.stream_send(stream_id, payload, fin=True,
                             priority=stream_priority)
