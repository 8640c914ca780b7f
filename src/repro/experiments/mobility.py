"""Extreme-mobility driver: Fig. 13.

Replays the 10 subway / high-speed-rail trace pairs from the catalog
and measures the per-request download time of fixed-size chunks under
SP, vanilla-MP, MPTCP, connection migration (CM) and XLINK -- the
five bars of Fig. 13.  Each scheme downloads a sequence of chunks
back-to-back over the emulated trace; the figure reports the median
and max request download time per trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

from repro.experiments.harness import (PathSpec, run_video_session,
                                       scheme_with_cc)
from repro.experiments.parallel import SessionTask, fan_out
from repro.host.specs import resolve_scheme, scheme_name, scheme_paths
from repro.metrics.stats import percentile
from repro.sim.rng import derive_seed
from repro.traces.catalog import extreme_mobility_trace_pairs
from repro.traces.radio_profiles import RadioType
from repro.video import PlayerConfig
from repro.video.media import Video

#: The five schemes of Fig. 13, in the paper's legend order.
FIG13_SCHEMES = ("sp", "vanilla_mp", "mptcp", "cm", "xlink")

#: Size of one video-chunk request in the mobility experiment.
CHUNK_BYTES = 512 * 1024

#: Number of chunk requests per trace replay.
CHUNKS_PER_TRACE = 6

#: Seconds of trace each Fig. 13 pair covers.
FIG13_DURATION_S = 30.0

#: The emulated player consumes at this bitrate (Appendix B: the test
#: video player "consumed received data at a constant bit-rate").  It
#: is set near the *aggregate* capacity of the trace pairs, so a
#: single path can never keep up -- the regime Fig. 13 probes, where
#: SP falls behind, vanilla-MP/MPTCP aggregate but stall on fades, and
#: XLINK aggregates and rescues the stragglers.
VIDEO_BITRATE_BPS = 6_000_000


@dataclass
class MobilityResult:
    """Per-trace, per-scheme request download times."""

    trace_id: int
    environment: str
    #: scheme -> list of per-chunk download times (s)
    times: Dict[str, List[float]] = field(default_factory=dict)

    def median(self, scheme: str) -> float:
        return percentile(self.times[scheme], 50)

    def maximum(self, scheme: str) -> float:
        return max(self.times[scheme])


#: Droptail queue on the emulated links: ~64 MTU packets, the usual
#: Mahimahi configuration.  Deeper queues would let Cubic build close
#: to a second of bufferbloat on the slow fading links, drowning the
#: scheduling effects Fig. 13 measures in self-queueing delay.
QUEUE_LIMIT_BYTES = 96 * 1024


def _paths_for_trace(pair: dict) -> List[PathSpec]:
    return [
        PathSpec(net_path_id=0, radio=RadioType.WIFI,
                 one_way_delay_s=0.020, trace_ms=pair["wifi_ms"],
                 queue_limit_bytes=QUEUE_LIMIT_BYTES),
        PathSpec(net_path_id=1, radio=RadioType.LTE,
                 one_way_delay_s=0.045, trace_ms=pair["cellular_ms"],
                 queue_limit_bytes=QUEUE_LIMIT_BYTES),
    ]


#: Realistic streaming player: finite buffer, constant-bitrate
#: consumption, *sequential* chunk requests (Appendix B: the test
#: player "sequentially requested data chunks").  The finite buffer
#: keeps XLINK's QoE gate in the loop -- an infinite buffer would
#: report "no urgency" forever and degenerate the experiment into a
#: raw download race.
PLAYER_CONFIG = PlayerConfig(concurrent_requests=1, max_buffer_s=3.0,
                             startup_frames=5, resume_frames=5)


def _chunked_video() -> Video:
    total = CHUNKS_PER_TRACE * CHUNK_BYTES
    # Constant 25 fps frames sized so consumption runs at the target
    # bitrate; the whole video is exactly CHUNKS_PER_TRACE chunks.
    frame = max(int(VIDEO_BITRATE_BPS / 8 / 25), 1000)
    n_frames = max(total // frame, 2)
    sizes = [frame] * n_frames
    sizes[-1] += total - sum(sizes)
    return Video(name="mob", fps=25, frame_sizes=sizes,
                 chunk_size=CHUNK_BYTES)


#: Session deadline of one Fig. 13 replay.
REPLAY_TIMEOUT_S = 120.0


def run_scheme_on_trace(pair: dict, scheme: str, seed: int = 0,
                        cc: Optional[str] = None) -> List[float]:
    """Per-chunk download times for one scheme over one trace pair.

    Module-level (and all-plain-data) so :func:`fan_out` can ship it to
    a worker process.  ``cc`` overrides the scheme's congestion
    controller.
    """
    config = resolve_scheme(scheme)
    if cc is not None:
        config = scheme_with_cc(config, cc)
    paths = scheme_paths(config, _paths_for_trace(pair))
    session = run_video_session(config, paths, video=_chunked_video(),
                                player_config=PLAYER_CONFIG,
                                timeout_s=REPLAY_TIMEOUT_S, seed=seed)
    times = list(session.metrics.request_completion_times)
    while len(times) < CHUNKS_PER_TRACE:
        times.append(REPLAY_TIMEOUT_S)  # unfinished chunks count as timeout
    return times


def run_mobility_trace(pair: dict, schemes: Sequence[str] = FIG13_SCHEMES,
                       seed: int = 0,
                       workers: Optional[int] = None,
                       cc: Optional[str] = None) -> MobilityResult:
    """Run every scheme over one (cellular, wifi) trace pair.

    ``cc`` runs every scheme under that congestion controller;
    results stay keyed by the base scheme names.
    """
    return _replay([pair], schemes, seed, workers, cc)[0]


def _replay(pairs: Sequence[dict], schemes: Sequence[str], seed: int,
            workers: Optional[int],
            cc: Optional[str] = None) -> List[MobilityResult]:
    """Fan the flat (trace, scheme) grid out; one result per trace."""
    times = iter(fan_out(
        run_scheme_on_trace,
        [{"pair": pair, "scheme": scheme, "seed": seed, "cc": cc}
         for pair in pairs for scheme in schemes], workers=workers))
    return [MobilityResult(pair["trace_id"], pair["environment"],
                           {scheme: next(times) for scheme in schemes})
            for pair in pairs]


#: Session deadline of a mobility population task.
FLEET_TIMEOUT_S = 60.0


def iter_mobility_fleet_tasks(n_traces: int, repeats: int,
                              schemes: Sequence[str], duration_s: float,
                              seed: int) -> Iterator[SessionTask]:
    """Lazily generate the mobility population's session tasks.

    The population shape of Fig. 13 at fleet scale: ``repeats``
    reseeded passes over the trace catalog, schemes paired per
    (repeat, trace) cell so per-scheme sketches compare the same
    replay conditions.  Request download times land in the fleet
    sink's ``rct`` sketch (the same metric the figure reports).
    """
    pairs = extreme_mobility_trace_pairs(duration_s, n_traces)
    video = _chunked_video()
    for rep in range(repeats):
        for pair in pairs:
            rep_seed = derive_seed(seed, f"mob-{rep}-{pair['trace_id']}")
            paths = _paths_for_trace(pair)
            for scheme in schemes:
                yield SessionTask(
                    key=(rep, pair["trace_id"], scheme_name(scheme)),
                    scheme=scheme, paths=scheme_paths(scheme, paths),
                    video=video, player_config=PLAYER_CONFIG,
                    timeout_s=FLEET_TIMEOUT_S, seed=rep_seed)


def run_fig13(n_traces: int = 10, seed: int = 0) -> List[MobilityResult]:
    """The full Fig. 13 sweep over the trace catalog.

    Fans the flat (trace, scheme) replay grid out over every core; each
    replay is independent, so the sweep parallelizes to ``n_traces *
    len(FIG13_SCHEMES)`` tasks.
    """
    return _replay(extreme_mobility_trace_pairs(FIG13_DURATION_S, n_traces),
                   FIG13_SCHEMES, seed, None)
