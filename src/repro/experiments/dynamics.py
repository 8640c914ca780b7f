"""Time-series experiment drivers: Fig. 1(a/b) and Fig. 6.

Fig. 1a/1b replays a fast-varying Wi-Fi trace and a stable LTE trace
under vanilla-MP and samples each path's in-flight bytes and CWND
against the trace capacity -- showing the CWND failing to track the
Wi-Fi collapse.

Fig. 6 replays a two-path network where path 1 deteriorates and logs
the client's buffer level and the server's cumulative re-injected
bytes for (b) vanilla-MP, (c) re-injection without QoE control and
(d) re-injection with QoE control.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.host import (SCHEMES, SchemeConfig, SessionHandle, SessionRuntime,
                        VideoSessionSpec)
from repro.netem import MultipathNetwork
from repro.sim import EventLoop
from repro.traces import (campus_walk_wifi_trace, stable_lte_trace,
                          trace_from_rate_series)
from repro.traces.radio_profiles import RadioType
from repro.video import PlayerConfig, make_video


@dataclass
class PathDynamics:
    """Sampled per-path time series (Fig. 1a/1b content)."""

    times: List[float] = field(default_factory=list)
    inflight_bytes: List[int] = field(default_factory=list)
    cwnd_bytes: List[float] = field(default_factory=list)

    def max_inflight_in(self, t0: float, t1: float) -> int:
        values = [v for t, v in zip(self.times, self.inflight_bytes)
                  if t0 <= t < t1]
        return max(values) if values else 0


@dataclass
class SessionDynamics:
    """Sampled session time series (Fig. 6 content)."""

    times: List[float] = field(default_factory=list)
    buffer_bytes: List[int] = field(default_factory=list)
    reinjected_bytes: List[int] = field(default_factory=list)
    rebuffer_time: float = 0.0
    redundancy_percent: float = 0.0

    def min_buffer_in(self, t0: float, t1: float) -> int:
        values = [v for t, v in zip(self.times, self.buffer_bytes)
                  if t0 <= t < t1]
        return min(values) if values else 0

    def total_reinjected(self) -> int:
        return self.reinjected_bytes[-1] if self.reinjected_bytes else 0


def _add_session(loop: EventLoop, net: MultipathNetwork,
                 scheme: SchemeConfig, video, player_config: PlayerConfig,
                 seed: int) -> SessionHandle:
    """One session on the host runtime, path 0 primary, connecting now."""
    return SessionRuntime(loop, net).add_session(VideoSessionSpec(
        scheme=scheme, video=video, player_config=player_config, seed=seed,
        interfaces=[(0, RadioType.WIFI), (1, RadioType.LTE)]))


#: Seed of the Fig. 1 replay and how often it samples each path.
FIG1_SEED = 1
FIG1_SAMPLE_INTERVAL_S = 0.02


def run_fig1_dynamics(duration_s: float = 3.0) -> Dict[int, PathDynamics]:
    """Fig. 1a/1b: vanilla-MP on campus Wi-Fi (path 0) + stable LTE
    (path 1); returns per-path (in-flight, cwnd) time series."""
    loop = EventLoop()
    net = MultipathNetwork(loop)
    net.add_trace_path(0, campus_walk_wifi_trace(duration_s,
                                              seed=FIG1_SEED),
                       one_way_delay_s=0.015)
    net.add_trace_path(1, stable_lte_trace(duration_s, seed=FIG1_SEED + 1),
                       one_way_delay_s=0.035)
    # A heavy workload keeps both pipes full, matching the replay.
    video = make_video(name="fig1", duration_s=duration_s + 5,
                       bitrate_bps=20_000_000, seed=FIG1_SEED,
                       chunk_size=512 * 1024)
    player_config = PlayerConfig(concurrent_requests=4, max_buffer_s=1e9)
    server = _add_session(loop, net, SCHEMES["vanilla_mp"], video,
                          player_config, FIG1_SEED).server

    dynamics = {0: PathDynamics(), 1: PathDynamics()}

    def sample() -> None:
        for pid, series in dynamics.items():
            path = server.paths.get(pid)
            if path is None:
                continue
            series.times.append(loop.now)
            series.inflight_bytes.append(path.loss.bytes_in_flight)
            series.cwnd_bytes.append(path.cc.cwnd)
        if loop.now < duration_s:
            loop.schedule_after(FIG1_SAMPLE_INTERVAL_S, sample)

    loop.schedule_after(FIG1_SAMPLE_INTERVAL_S, sample)
    loop.run(until=duration_s)
    return dynamics


#: The three Fig. 6 configurations and the arm each runs, on both
#: endpoints: the deployed app ships the full XLINK client; vanilla-MP
#: keeps a plain min-RTT client, whose requests can wedge on a dead
#: primary -- part of the failure Fig. 6b illustrates.
_FIG6_SCHEMES = {"vanilla_mp": SCHEMES["vanilla_mp"],
                 "reinject_no_qoe": SCHEMES["reinject"],
                 "reinject_with_qoe": SCHEMES["xlink"]}
FIG6_MODES = tuple(_FIG6_SCHEMES)


def _fig6_network(loop: EventLoop, duration_s: float) -> MultipathNetwork:
    """Two paths; path 1 deteriorates to near-zero at t in [2, 4.5)."""
    rates1 = []
    rates2 = []
    interval = 0.1
    for i in range(int((duration_s + 5) / interval)):
        t = i * interval
        # Path 1 deteriorates to a total blackout in [2.0, 5.0) --
        # the Fig. 6a shape.  Path 2 alone can sustain the bitrate,
        # so the stall vanilla-MP suffers is pure MP-HoL blocking.
        rates1.append(0.0 if 2.0 <= t < 5.0 else 10e6)
        rates2.append(6e6)
    net = MultipathNetwork(loop)
    net.add_trace_path(0, trace_from_rate_series(rates1, interval),
                       one_way_delay_s=0.015)
    net.add_trace_path(1, trace_from_rate_series(rates2, interval),
                       one_way_delay_s=0.040)
    return net


#: Seed, sample interval and length of every Fig. 6 panel.
FIG6_SEED = 4
FIG6_SAMPLE_INTERVAL_S = 0.05
FIG6_DURATION_S = 7.0


def run_fig6_dynamics(mode: str) -> SessionDynamics:
    """One Fig. 6 panel: buffer level + re-injected bytes vs time."""
    if mode not in FIG6_MODES:
        raise ValueError(f"unknown fig6 mode {mode!r}")
    loop = EventLoop()
    net = _fig6_network(loop, FIG6_DURATION_S)
    scheme = _FIG6_SCHEMES[mode]
    video = make_video(name="fig6", duration_s=FIG6_DURATION_S + 4,
                       bitrate_bps=4_000_000, seed=FIG6_SEED,
                       chunk_size=256 * 1024)
    player_config = PlayerConfig(max_buffer_s=2.5)
    session = _add_session(loop, net, scheme, video, player_config,
                           FIG6_SEED)
    player, server = session.player, session.server

    series = SessionDynamics()

    def sample() -> None:
        series.times.append(loop.now)
        series.buffer_bytes.append(player.buffered_bytes())
        series.reinjected_bytes.append(
            server.stats.stream_bytes_reinjected)
        if loop.now < FIG6_DURATION_S:
            loop.schedule_after(FIG6_SAMPLE_INTERVAL_S, sample)

    loop.schedule_after(FIG6_SAMPLE_INTERVAL_S, sample)
    loop.run(until=FIG6_DURATION_S)
    series.rebuffer_time = player.stats.rebuffer_time
    if server.stats.stream_bytes_new:
        series.redundancy_percent = (
            server.stats.stream_bytes_reinjected
            / server.stats.stream_bytes_new * 100.0)
    return series
