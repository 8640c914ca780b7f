"""Client video player with buffer accounting and QoE signal capture.

The player model mirrors Fig. 5's pipeline in behavioural terms:

- the MediaCacheService issues HTTP range requests over QUIC streams,
  keeping up to ``concurrent_requests`` chunks in flight (prefetch);
- arriving bytes fill the source-pipe buffer; playback consumes whole
  frames at the video frame rate once ``startup_frames`` are buffered;
- rebuffering starts when a frame is due but not fully downloaded and
  ends when ``resume_frames`` are available again;
- TNET-style QoE capture: the player exposes the four signals of
  Sec. 5.2 (cached bytes / cached frames / bps / fps), which the
  connection's ACK_MP generation polls via ``qoe_provider``.

The player measures the paper's QoE metrics: per-chunk request
completion time (RCT), first-video-frame latency, and rebuffer rate
(sum of rebuffer time / sum of play time).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.quic.connection import Connection
from repro.quic.frames import QoeSignals
from repro.quic.stream import FIRST_FRAME_PRIORITY
from repro.sim.event_loop import EventLoop
from repro.video.http import RangeRequest
from repro.video.media import Video


@dataclass
class RebufferEvent:
    """One stall: playback stopped at ``start`` and resumed at ``end``."""

    start: float
    end: Optional[float] = None

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0


@dataclass
class PlayerConfig:
    """Playback policy knobs."""

    #: frames buffered before playback starts
    startup_frames: int = 5
    #: frames needed to resume after a stall
    resume_frames: int = 5
    #: maximum concurrent chunk requests (prefetch depth)
    concurrent_requests: int = 2
    #: stop prefetching when buffered play-time exceeds this (seconds)
    max_buffer_s: float = 8.0
    #: mark the first video frame with FIRST_FRAME_PRIORITY ranges
    first_frame_acceleration: bool = True
    #: playback tick interval (seconds)
    tick_s: float = 0.04


@dataclass
class PlayerStats:
    """Everything the evaluation reads from a finished session."""

    request_completion_times: List[float] = field(default_factory=list)
    first_frame_latency: Optional[float] = None
    rebuffer_events: List[RebufferEvent] = field(default_factory=list)
    play_time: float = 0.0
    started_at: Optional[float] = None
    buffer_level_samples: List[tuple] = field(default_factory=list)

    @property
    def rebuffer_time(self) -> float:
        return sum(e.duration for e in self.rebuffer_events)

    @property
    def rebuffer_rate(self) -> float:
        """sum(rebuffer time) / sum(play time) -- the paper's metric."""
        if self.play_time <= 0:
            return 0.0
        return self.rebuffer_time / self.play_time


class VideoPlayer:
    """Drives one video playback session over a QUIC connection."""

    def __init__(self, loop: EventLoop, conn: Connection, video: Video,
                 config: Optional[PlayerConfig] = None) -> None:
        self.loop = loop
        self.conn = conn
        self.video = video
        self.config = config if config is not None else PlayerConfig()
        self.stats = PlayerStats()

        self._chunks = video.chunks()
        #: the bit-rate signal of Sec. 5.2: a constant of the video
        self._mean_bps = int(video.mean_bps)
        self._next_chunk = 0
        self._stream_of_chunk: Dict[int, int] = {}
        self._chunk_of_stream: Dict[int, int] = {}
        self._request_sent_at: Dict[int, float] = {}
        self._chunk_done: Dict[int, bool] = {}
        self._chunk_received: Dict[int, int] = {}
        #: chunks requested and not yet complete
        self._in_flight = 0
        #: the contiguous downloaded prefix of the video, kept as data
        #: lands: the first chunk not yet complete, the prefix in bytes
        #: and the whole frames it holds
        self._front_chunk = 0
        self._contiguous_bytes = 0
        self._contiguous_frames = 0

        self._playing = False
        self._stalled: Optional[RebufferEvent] = None
        self._played_frames = 0
        self._play_start: Optional[float] = None
        self._finished = False
        self._tick_event = None
        self.on_finished: Optional[Callable[[], None]] = None

        conn.on_stream_data = self._on_stream_data
        conn.qoe_provider = self.qoe_signals

    # -- request pipeline ---------------------------------------------------

    def start(self) -> None:
        """Begin the session (call once the connection is established)."""
        self.stats.started_at = self.loop.now
        self._fill_request_window()
        self._schedule_tick()

    def _buffered_play_time(self) -> float:
        return max(self._contiguous_frames - self._played_frames, 0) \
            / self.video.fps

    def _fill_request_window(self) -> None:
        while (self._next_chunk < len(self._chunks)
               and self._in_flight < self.config.concurrent_requests
               and self._buffered_play_time() < self.config.max_buffer_s):
            self._request_chunk(self._next_chunk)
            self._next_chunk += 1

    def _request_chunk(self, index: int) -> None:
        chunk = self._chunks[index]
        # Earlier chunks get higher (numerically lower) stream priority:
        # the stream-priority re-injection of Fig. 4b keys off this.
        stream_id = self.conn.create_stream(priority=index)
        self._stream_of_chunk[index] = stream_id
        self._chunk_of_stream[stream_id] = index
        self._request_sent_at[index] = self.loop.now
        self._chunk_done[index] = False
        self._in_flight += 1
        self._chunk_received[index] = 0
        request = RangeRequest(video_name=self.video.name,
                               start=chunk.start, end=chunk.end)
        self.conn.stream_send(stream_id, request.encode(), fin=True)

    # -- data arrival ---------------------------------------------------------

    def _on_stream_data(self, stream_id: int) -> None:
        index = self._chunk_of_stream.get(stream_id)
        if index is None:
            return
        data = self.conn.stream_read(stream_id)
        if not data:
            return
        self._chunk_received[index] += len(data)
        if index == self._front_chunk:
            self._advance_contiguous()
        chunk = self._chunks[index]
        if (not self._chunk_done[index]
                and self._chunk_received[index] >= chunk.size
                and self.conn.stream_finished(stream_id)):
            self._chunk_done[index] = True
            self._in_flight -= 1
            rct = self.loop.now - self._request_sent_at[index]
            self.stats.request_completion_times.append(rct)
        self._maybe_first_frame()
        self._maybe_resume()
        self._fill_request_window()

    def _advance_contiguous(self) -> None:
        """Data landed in the front chunk: move the front past every
        chunk now complete and re-read the prefix from there."""
        chunks = self._chunks
        received = self._chunk_received
        front = self._front_chunk
        while front < len(chunks) \
                and received.get(front, 0) >= chunks[front].size:
            front += 1
        self._front_chunk = front
        if front < len(chunks):
            self._contiguous_bytes = \
                chunks[front].start + received.get(front, 0)
        else:
            self._contiguous_bytes = self.video.total_bytes
        self._contiguous_frames = \
            self.video.frames_in_bytes(self._contiguous_bytes)

    def _maybe_first_frame(self) -> None:
        if self.stats.first_frame_latency is not None:
            return
        if self._contiguous_bytes >= self.video.first_frame_size:
            assert self.stats.started_at is not None
            self.stats.first_frame_latency = \
                self.loop.now - self.stats.started_at

    # -- playback loop ----------------------------------------------------------

    def _schedule_tick(self) -> None:
        if self._finished:
            return
        self._tick_event = self.loop.schedule_after(
            self.config.tick_s, self._tick)

    def _tick(self) -> None:
        if self._finished:
            return
        self._sample_buffer()
        if not self._playing and self._stalled is None:
            # Initial start-up: wait for startup_frames.
            if self._contiguous_frames >= min(
                    self.config.startup_frames, len(self.video.frame_sizes)):
                self._playing = True
                self._play_start = self.loop.now
        if self._playing:
            self._advance_playback()
        self._fill_request_window()
        self._schedule_tick()

    def _advance_playback(self) -> None:
        """Consume frames due since the last tick; stall if starved."""
        assert self._play_start is not None
        target = min(
            int((self.loop.now - self._play_start) * self.video.fps),
            len(self.video.frame_sizes))
        available = self._contiguous_frames
        if target <= self._played_frames:
            return
        if available >= target:
            self.stats.play_time += \
                (target - self._played_frames) / self.video.fps
            self._played_frames = target
            if self._played_frames >= len(self.video.frame_sizes):
                self._finish()
        else:
            # Play what exists, then stall.
            if available > self._played_frames:
                self.stats.play_time += \
                    (available - self._played_frames) / self.video.fps
                self._played_frames = available
            self._playing = False
            self._stalled = RebufferEvent(start=self.loop.now)
            self.stats.rebuffer_events.append(self._stalled)

    def _maybe_resume(self) -> None:
        if self._stalled is None:
            return
        needed = min(self._played_frames + self.config.resume_frames,
                     len(self.video.frame_sizes))
        if self._contiguous_frames >= needed:
            self._stalled.end = self.loop.now
            self._stalled = None
            self._playing = True
            # Re-anchor the playback clock at the resume instant.
            self._play_start = self.loop.now \
                - self._played_frames / self.video.fps

    def _finish(self) -> None:
        self._finished = True
        if self._stalled is not None:
            self._stalled.end = self.loop.now
            self._stalled = None
        if self._tick_event is not None:
            self._tick_event.cancel()
            self._tick_event = None
        if self.on_finished is not None:
            self.on_finished()

    @property
    def finished(self) -> bool:
        return self._finished

    def _sample_buffer(self) -> None:
        self.stats.buffer_level_samples.append(
            (self.loop.now, self.buffered_bytes(), self._buffered_play_time()))

    # -- QoE capture (TNET) --------------------------------------------------------

    def buffered_bytes(self) -> int:
        played_bytes = self.video.bytes_for_frames(self._played_frames)
        return max(self._contiguous_bytes - played_bytes, 0)

    def qoe_signals(self) -> QoeSignals:
        """The four signals of Sec. 5.2, as the client would report them."""
        return QoeSignals(
            cached_bytes=self.buffered_bytes(),
            cached_frames=max(self._contiguous_frames - self._played_frames,
                              0),
            bps=self._mean_bps,
            fps=self.video.fps)
