"""Video content model.

A :class:`Video` is a sequence of frames at a fixed fps with a
(possibly variable) per-frame size; the first frame (key frame) is
much larger than the rest, which is what makes first-video-frame
acceleration matter.  Videos are fetched in fixed-size *chunks* via
HTTP range requests, mirroring the short-video service's
MediaCacheService behaviour.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import List, Optional

from repro.sim.rng import make_rng


@dataclass(frozen=True)
class VideoChunk:
    """One HTTP range of a video: bytes [start, end)."""

    index: int
    start: int
    end: int

    @property
    def size(self) -> int:
        return self.end - self.start


@dataclass
class Video:
    """A short-form video: frame sizes (bytes) at a fixed frame rate.

    ``frame_sizes`` is read once, at construction: the byte offset of
    every frame boundary is summed up front, and every question about
    bytes and frames below is an index or a bisection of that list.
    """

    name: str
    fps: int
    frame_sizes: List[int]
    chunk_size: int = 256 * 1024

    def __post_init__(self) -> None:
        #: ``_frame_ends[k]``: bytes in the first ``k`` frames
        self._frame_ends = [0, *accumulate(self.frame_sizes)]

    @property
    def total_bytes(self) -> int:
        return self._frame_ends[-1]

    @property
    def duration_s(self) -> float:
        return len(self.frame_sizes) / self.fps

    @property
    def mean_bps(self) -> float:
        return self.total_bytes * 8.0 / self.duration_s

    @property
    def first_frame_size(self) -> int:
        return self.frame_sizes[0]

    def chunks(self) -> List[VideoChunk]:
        """Fixed-size ranges covering the video."""
        out: List[VideoChunk] = []
        offset = 0
        index = 0
        total = self.total_bytes
        while offset < total:
            end = min(offset + self.chunk_size, total)
            out.append(VideoChunk(index=index, start=offset, end=end))
            offset = end
            index += 1
        return out

    def frames_in_bytes(self, byte_count: int) -> int:
        """Number of whole frames contained in the first ``byte_count``."""
        return max(bisect_right(self._frame_ends, byte_count) - 1, 0)

    def bytes_for_frames(self, frame_count: int) -> int:
        """Total size of the first ``frame_count`` frames (a negative
        count leaves that many off the end, as a slice would)."""
        n_frames = len(self.frame_sizes)
        if frame_count < 0:
            frame_count = max(n_frames + frame_count, 0)
        return self._frame_ends[min(frame_count, n_frames)]


#: frame rate of a generated video
VIDEO_FPS = 25
#: a generated video's first (key) frame, in mean frame sizes
FIRST_FRAME_FACTOR = 8.0


def make_video(name: str = "video", duration_s: float = 15.0,
               bitrate_bps: float = 2_000_000, seed: int = 0,
               chunk_size: int = 256 * 1024) -> Video:
    """Generate a short video with a large key frame and jittered P-frames.

    Defaults approximate a Taobao product short video: ~15 s at 2 Mbps
    (3.75 MB), 25 fps, with a first (key) frame several times the mean
    frame size -- the paper's Fig. 7 sweeps first-frame sizes from
    128 KB to 2 MB.
    """
    rng = make_rng(seed, f"video-{name}")
    n_frames = int(duration_s * VIDEO_FPS)
    if n_frames < 2:
        raise ValueError("video must have at least 2 frames")
    mean_frame = bitrate_bps / 8.0 / VIDEO_FPS
    first = int(mean_frame * FIRST_FRAME_FACTOR)
    # Keep the total close to bitrate * duration by shrinking P-frames.
    remaining = bitrate_bps / 8.0 * duration_s - first
    p_mean = max(remaining / (n_frames - 1), 200.0)
    sizes = [first]
    for _ in range(n_frames - 1):
        sizes.append(max(int(p_mean * rng.uniform(0.6, 1.4)), 100))
    return Video(name=name, fps=VIDEO_FPS, frame_sizes=sizes,
                 chunk_size=chunk_size)
