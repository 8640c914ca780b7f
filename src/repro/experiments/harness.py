"""Single-session experiment harness, built on the host runtime.

``run_video_session`` plays one video under a scheme and collects
metrics.  It is the N=1 case of :class:`repro.host.SessionRuntime`:
one :class:`~repro.host.ServerHost` behind the QUIC-LB frontend, one
:class:`~repro.host.ClientEndpoint`, one shared event loop.

The scheme vocabulary (``SCHEMES``, :class:`SchemeConfig`,
:class:`PathSpec`) lives in :mod:`repro.host.specs` and is re-exported
here for the experiment drivers.  Both entry points take a scheme as a
value (``replace(SCHEMES["xlink"], thresholds=...)``) or by arm name.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.host.runtime import (SessionResult, SessionRuntime,
                                VideoSessionSpec)
from repro.host.specs import (SCHEMES, PathSpec, SchemeConfig, SchemeLike,
                              build_network, scheme_with_cc)
from repro.quic.trace import ConnectionTracer
from repro.sim import EventLoop
from repro.traces.radio_profiles import RadioType
from repro.video import PlayerConfig, make_video
from repro.video.media import Video

__all__ = [
    "SCHEMES",
    "PathSpec",
    "SchemeConfig",
    "SessionResult",
    "run_bulk_download",
    "run_video_session",
    "scheme_with_cc",
]


def run_video_session(scheme: SchemeLike, paths: Sequence[PathSpec],
                      video: Optional[Video] = None,
                      player_config: Optional[PlayerConfig] = None,
                      timeout_s: float = 120.0,
                      seed: int = 0,
                      primary_order: Optional[Sequence[RadioType]] = None,
                      tracer: Optional[ConnectionTracer] = None
                      ) -> SessionResult:
    """Play one video under ``scheme`` and collect metrics.

    ``tracer``, when given, is installed on the client connection and
    records a qlog-style event stream of the session.  The session's
    world is torn down before this returns: the result's raw objects
    stay readable, and dropping the result frees them by refcount.
    """
    if video is None:
        video = make_video(seed=seed)
    loop = EventLoop()
    net = build_network(loop, paths, seed)
    runtime = SessionRuntime(loop, net)
    try:
        handle = runtime.add_session(VideoSessionSpec(
            scheme=scheme,
            interfaces=[(spec.net_path_id, spec.radio) for spec in paths],
            video=video, player_config=player_config, seed=seed,
            primary_order=primary_order,
            tracer=tracer))
        runtime.run(timeout_s=timeout_s)
        return runtime.result(handle)
    finally:
        runtime.teardown()


def run_bulk_download(scheme: SchemeLike, paths: Sequence[PathSpec],
                      total_bytes: int, timeout_s: float = 120.0,
                      seed: int = 0,
                      tracer: Optional[ConnectionTracer] = None
                      ) -> SessionResult:
    """Download ``total_bytes`` as fast as possible; measures completion.

    Used by Fig. 8 (4 MB load), Fig. 13 (request download time) and
    Fig. 14 (10-50 MB loads).
    """
    # Many equal frames: the "first video frame" is then a negligible
    # slice of the load, so first-frame acceleration cannot distort a
    # raw-throughput measurement by duplicating half the file.
    n_frames = 50
    frame = max(total_bytes // n_frames, 1)
    sizes = [frame] * n_frames
    sizes[-1] += total_bytes - sum(sizes)
    video = Video(name="bulk", fps=25, frame_sizes=sizes,
                  chunk_size=total_bytes)
    player_config = PlayerConfig(startup_frames=2, resume_frames=1,
                                 concurrent_requests=1, max_buffer_s=1e9,
                                 tick_s=0.1)
    result = run_video_session(scheme, paths, video=video,
                               player_config=player_config,
                               timeout_s=timeout_s, seed=seed,
                               tracer=tracer)
    if result.metrics.request_completion_times:
        result.download_time_s = result.metrics.request_completion_times[0]
    elif result.completed:
        result.download_time_s = result.duration_s
    return result

