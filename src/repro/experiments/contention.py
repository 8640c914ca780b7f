"""Multi-user cell contention on one CDN host.

The paper's deployment numbers (Sec. 7) come from sessions that share
infrastructure twice over: many users camp on the same cellular cell,
and all of them are served by the same CDN machines.  This experiment
reproduces that shape in one emulation: N video sessions, each with a
*private* Wi-Fi path, all attached to one *shared* trace-driven LTE
cell, all served by a single :class:`~repro.host.ServerHost` behind
the QUIC-LB frontend.

Each user's Wi-Fi suffers a staggered outage window, which is exactly
when XLINK re-injects over the cell -- so as N grows, the recovery
paths contend for the same cell capacity and queue.  The run is fully
deterministic for a given config (the N=8 determinism test pins it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.host import SessionRuntime, VideoSessionSpec
from repro.host.specs import build_network, PathSpec
from repro.metrics.qoe import aggregate_rebuffer_rate
from repro.netem import OutageSchedule
from repro.quic.connection import aggregate_robustness
from repro.sim import EventLoop
from repro.traces.radio_profiles import RadioType
from repro.traces.synthetic import stable_lte_trace
from repro.video import PlayerConfig, make_video

#: the shared cell is always emulated path 0
CELL_PATH_ID = 0
#: one-way delay of the shared LTE cell
CELL_DELAY_S = 0.035
#: length of the shared cell's capacity trace (it wraps after that)
CELL_TRACE_DURATION_S = 60.0
#: each user's private Wi-Fi path
WIFI_RATE_BPS = 10e6
WIFI_DELAY_S = 0.015
#: user i loses Wi-Fi for [OUTAGE_START_S + i * OUTAGE_STAGGER_S,
#: + OUTAGE_LEN_S)
OUTAGE_START_S = 0.5
OUTAGE_LEN_S = 1.2
OUTAGE_STAGGER_S = 0.3
#: session i connects at i * START_SPACING_S
START_SPACING_S = 0.2


@dataclass
class ContentionConfig:
    """One multi-user cell-contention run."""

    sessions: int = 8
    scheme: str = "xlink"
    seed: int = 0
    #: length of each user's video
    video_duration_s: float = 8.0
    #: shared LTE cell: mean capacity for the whole cell
    cell_mean_mbps: float = 24.0
    timeout_s: float = 240.0


@dataclass
class ContentionResult:
    """Aggregate and per-session outcomes of a contention run."""

    config: ContentionConfig
    completed: int
    duration_s: float
    rebuffer_rate: float
    first_frame_latencies: List[float]
    reinjected_bytes: int
    new_stream_bytes: int
    #: ServerHost demux counters
    datagrams_routed: int
    datagrams_dropped: int
    #: total bytes the shared cell's downlink carried
    cell_down_bytes: int
    #: merged transport robustness counters, client + server sides
    #: (kept out of :meth:`fingerprint` -- reporting only)
    robustness: Dict[str, int] = field(default_factory=dict)
    evicted_closed: int = 0
    evicted_idle: int = 0

    @property
    def redundancy_percent(self) -> float:
        if self.new_stream_bytes == 0:
            return 0.0
        return self.reinjected_bytes / self.new_stream_bytes * 100.0

    def fingerprint(self) -> Tuple:
        """A hashable digest of the run, for determinism checks."""
        return (self.completed, self.duration_s, self.rebuffer_rate,
                tuple(self.first_frame_latencies),
                self.reinjected_bytes, self.new_stream_bytes,
                self.datagrams_routed, self.datagrams_dropped,
                self.cell_down_bytes)


def run_contention(config: ContentionConfig) -> ContentionResult:
    """Run N concurrent sessions against one host on a shared cell."""
    loop = EventLoop()
    paths = [PathSpec(CELL_PATH_ID, RadioType.LTE, CELL_DELAY_S,
                      trace_ms=stable_lte_trace(
                          CELL_TRACE_DURATION_S, seed=config.seed,
                          mean_mbps=config.cell_mean_mbps))]
    for i in range(config.sessions):
        start = OUTAGE_START_S + i * OUTAGE_STAGGER_S
        paths.append(PathSpec(
            1 + i, RadioType.WIFI, WIFI_DELAY_S, rate_bps=WIFI_RATE_BPS,
            outages=OutageSchedule([(start, start + OUTAGE_LEN_S)])))
    net = build_network(loop, paths, config.seed)
    runtime = SessionRuntime(loop, net)

    handles = []
    for i in range(config.sessions):
        video = make_video(name=f"video-{i}",
                           duration_s=config.video_duration_s,
                           seed=config.seed + i)
        handles.append(runtime.add_session(VideoSessionSpec(
            scheme=config.scheme,
            # Wi-Fi is the preferred primary; the shared cell is the
            # secondary every user re-injects (or migrates) onto.
            interfaces=[(1 + i, RadioType.WIFI),
                        (CELL_PATH_ID, RadioType.LTE)],
            video=video,
            player_config=PlayerConfig(),
            seed=config.seed + i,
            client_addr=f"client-{i}",
            connection_name=f"user-{i}",
            start_at=i * START_SPACING_S)))
    runtime.run(timeout_s=config.timeout_s)

    results = [runtime.result(h) for h in handles]
    runtime.teardown()
    metrics = [r.metrics for r in results]
    host = runtime.host
    cell = net.paths[CELL_PATH_ID]
    return ContentionResult(
        config=config,
        completed=sum(1 for r in results if r.completed),
        duration_s=loop.now,
        rebuffer_rate=aggregate_rebuffer_rate(metrics),
        first_frame_latencies=[m.first_frame_latency for m in metrics
                               if m.first_frame_latency is not None],
        reinjected_bytes=sum(r.reinjected_bytes for r in results),
        new_stream_bytes=sum(r.new_stream_bytes for r in results),
        datagrams_routed=host.datagrams_routed,
        datagrams_dropped=host.datagrams_dropped,
        cell_down_bytes=cell.down_bytes_out,
        robustness=aggregate_robustness(
            [r.client.stats for r in results]
            + [r.server.stats for r in results]),
        evicted_closed=host.evicted_closed,
        evicted_idle=host.evicted_idle)

