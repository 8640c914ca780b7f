"""Adaptive-bitrate (ABR) streaming on top of the transport.

Sec. 8 contrasts XLINK with DASH-style bitrate adaptation: ABR is
"limited to a single path's capacity", while XLINK aggregates paths.
This module provides a buffer-based ABR player (BBA-style: pick the
highest rung whose threshold the buffer clears) so the comparison can
be made inside the emulator: ABR-on-SP degrades quality to survive,
while the same ABR logic on a multipath transport holds the top rung.

Content is organized as a :class:`BitrateLadder`: the same duration
encoded at several bitrates, fetched in fixed-duration segments, each
segment one HTTP range request against the chosen rung's variant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.quic.connection import Connection
from repro.quic.frames import QoeSignals
from repro.sim.event_loop import EventLoop
from repro.video.http import RangeRequest
from repro.video.media import Video, make_video


@dataclass
class BitrateLadder:
    """The same content encoded at multiple bitrates."""

    name: str
    duration_s: float
    bitrates_bps: List[float]
    variants: Dict[float, Video] = field(default_factory=dict)

    @classmethod
    def make(cls, name: str = "abr", duration_s: float = 20.0,
             bitrates_bps: Optional[List[float]] = None,
             seed: int = 0) -> "BitrateLadder":
        bitrates = sorted(bitrates_bps or
                          [500_000, 1_000_000, 2_000_000, 4_000_000])
        ladder = cls(name=name, duration_s=duration_s,
                     bitrates_bps=bitrates)
        for rate in bitrates:
            ladder.variants[rate] = make_video(
                name=f"{name}@{int(rate)}", duration_s=duration_s,
                bitrate_bps=rate, seed=seed,
                first_frame_factor=4.0)
        return ladder

    def variant(self, bitrate: float) -> Video:
        return self.variants[bitrate]


@dataclass
class AbrStats:
    """ABR session results."""

    selected_bitrates: List[float] = field(default_factory=list)
    rebuffer_time: float = 0.0
    play_time: float = 0.0
    switches: int = 0

    @property
    def mean_bitrate(self) -> float:
        if not self.selected_bitrates:
            return 0.0
        return sum(self.selected_bitrates) / len(self.selected_bitrates)

    @property
    def rebuffer_rate(self) -> float:
        if self.play_time <= 0:
            return 0.0
        return self.rebuffer_time / self.play_time


class AbrPlayer:
    """Buffer-based ABR (BBA-style) over fixed-duration segments.

    Rung selection: the highest bitrate whose reservoir threshold the
    current buffer exceeds; thresholds are spread linearly between
    ``reservoir_s`` and ``cushion_s`` (Huang et al., SIGCOMM'14).
    """

    def __init__(self, loop: EventLoop, conn: Connection,
                 ladder: BitrateLadder,
                 segment_duration_s: float = 1.0,
                 reservoir_s: float = 1.0,
                 cushion_s: float = 4.0,
                 max_buffer_s: float = 6.0) -> None:
        self.loop = loop
        self.conn = conn
        self.ladder = ladder
        self.segment_duration_s = segment_duration_s
        self.reservoir_s = reservoir_s
        self.cushion_s = cushion_s
        self.max_buffer_s = max_buffer_s
        self.stats = AbrStats()

        self._n_segments = int(ladder.duration_s / segment_duration_s)
        self._next_segment = 0
        self._segment_of_stream: Dict[int, int] = {}
        self._received_segments: set = set()
        self._inflight = 0
        self._buffered_s = 0.0
        self._playing = False
        self._stalled_at: Optional[float] = None
        self._finished = False
        self._last_tick = 0.0
        self._request_buf: Dict[int, bytearray] = {}
        self.on_finished: Optional[Callable[[], None]] = None
        conn.on_stream_data = self._on_stream_data
        conn.qoe_provider = self.qoe_signals

    # -- rate selection ----------------------------------------------------

    def select_bitrate(self) -> float:
        """BBA map from buffer occupancy to a ladder rung."""
        rates = self.ladder.bitrates_bps
        if self._buffered_s <= self.reservoir_s:
            return rates[0]
        if self._buffered_s >= self.cushion_s:
            return rates[-1]
        span = self.cushion_s - self.reservoir_s
        frac = (self._buffered_s - self.reservoir_s) / span
        index = min(int(frac * len(rates)), len(rates) - 1)
        return rates[index]

    # -- session ---------------------------------------------------------------

    def start(self) -> None:
        self._last_tick = self.loop.now
        self._fill()
        self._tick()

    @property
    def finished(self) -> bool:
        return self._finished

    def _fill(self) -> None:
        while (self._next_segment < self._n_segments
               and self._inflight < 2
               and self._buffered_s < self.max_buffer_s):
            self._request_segment(self._next_segment)
            self._next_segment += 1

    def _request_segment(self, index: int) -> None:
        bitrate = self.select_bitrate()
        if self.stats.selected_bitrates and \
                self.stats.selected_bitrates[-1] != bitrate:
            self.stats.switches += 1
        self.stats.selected_bitrates.append(bitrate)
        video = self.ladder.variant(bitrate)
        seg_bytes = video.total_bytes / self._n_segments
        start = int(index * seg_bytes)
        end = int((index + 1) * seg_bytes)
        stream_id = self.conn.create_stream(priority=index)
        self._segment_of_stream[stream_id] = index
        self._inflight += 1
        request = RangeRequest(video_name=video.name, start=start, end=end)
        self.conn.stream_send(stream_id, request.encode(), fin=True)

    def _on_stream_data(self, stream_id: int) -> None:
        index = self._segment_of_stream.get(stream_id)
        if index is None:
            return
        self.conn.stream_read(stream_id)
        if self.conn.stream_finished(stream_id) \
                and index not in self._received_segments:
            self._received_segments.add(index)
            self._inflight -= 1
            self._buffered_s += self.segment_duration_s
            if self._stalled_at is not None and self._buffered_s >= \
                    self.segment_duration_s:
                self.stats.rebuffer_time += \
                    self.loop.now - self._stalled_at
                self._stalled_at = None
            self._fill()

    def _tick(self) -> None:
        if self._finished:
            return
        now = self.loop.now
        elapsed = now - self._last_tick
        self._last_tick = now
        if self._stalled_at is None:
            if self._buffered_s > 0:
                consumed = min(elapsed, self._buffered_s)
                self._buffered_s -= consumed
                self.stats.play_time += consumed
                self._playing = True
            elif self._playing:
                self._stalled_at = now
        done = (len(self._received_segments) >= self._n_segments
                and self._buffered_s <= 0)
        if done:
            self._finished = True
            if self._stalled_at is not None:
                self.stats.rebuffer_time += now - self._stalled_at
            if self.on_finished is not None:
                self.on_finished()
            return
        self._fill()
        self.loop.schedule_after(0.05, self._tick, label="abr-tick")

    # -- QoE signal --------------------------------------------------------------

    def qoe_signals(self) -> QoeSignals:
        current = self.stats.selected_bitrates[-1] \
            if self.stats.selected_bitrates else self.ladder.bitrates_bps[0]
        fps = 25
        return QoeSignals(
            cached_bytes=int(self._buffered_s * current / 8),
            cached_frames=int(self._buffered_s * fps),
            bps=int(current), fps=fps)
