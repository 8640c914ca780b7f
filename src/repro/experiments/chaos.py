"""Chaos soak: randomized fault scenarios over the multi-session runtime.

Each scenario stands up the contention-shaped runtime (N sessions,
private Wi-Fi paths plus one shared cell, one :class:`ServerHost`
behind the QUIC-LB frontend), attaches seeded
:class:`~repro.netem.chaos.ChaosSchedule` fault plans to every path
direction, runs to completion, and checks the robustness invariants:

- **I1 no uncaught exception** anywhere in the stack;
- **I2 stall bound**: a completed session's rebuffer time never
  exceeds a fixed bound plus the injected blackhole time;
- **I3 completion**: without blackholes, every session finishes
  (corruption/reordering/duplication/jitter/rebind alone must never
  wedge the transport);
- **I4 counter self-consistency**: host drop classes never exceed
  total drops; packets received never exceed packets sent plus
  chaos-injected duplicates, in either direction;
- **I5 abandoned-path accounting**: an abandoned path retains no
  tracked packets and no in-flight bytes, and is abandoned at the peer
  too.  The soak's last scenario (:func:`run_abandon_scenario`) abandons
  a path the server has data in flight on.

A fixed seed reproduces bit-identical aggregate metrics: the soak
digests every drawn scenario's fingerprint into one SHA-256, and
rerunning with the same seed must reproduce the digest exactly.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Tuple

from repro.host import SessionRuntime, VideoSessionSpec
from repro.host.specs import PathSpec, build_network, scheme_with_cc
from repro.netem.chaos import ChaosSchedule
from repro.quic.connection import aggregate_robustness
from repro.quic.path import PathState
from repro.sim import EventLoop
from repro.sim.rng import make_rng
from repro.traces.radio_profiles import RadioType
from repro.video import PlayerConfig, make_video

#: the shared cell is always emulated path 0 (contention shape)
CELL_PATH_ID = 0

#: schemes a scenario may draw (XLINK weighted).  ``mptcp`` runs on the
#: host too but is left out, so existing seeds draw the same scenarios.
SCENARIO_SCHEMES = ("xlink", "xlink", "vanilla_mp", "reinject", "cm", "sp")

#: when the abandon scenario's Wi-Fi goes dark and its client abandons
#: the Wi-Fi path: mid-download, so the server has data in flight on it
ABANDON_AT_S = 0.3
#: how long the cell uplink is dark from that instant: the first
#: PATH_STATUS Abandon is lost, and only its retransmission arrives
ABANDON_LOST_FOR_S = 0.02


@dataclass
class ChaosSoakConfig:
    """One chaos soak run: N scenarios derived from one seed."""

    scenarios: int = 12
    seed: int = 7
    #: rebuffer allowance on top of injected blackhole seconds (I2)
    stall_bound_s: float = 5.0
    #: idle timeout used by both endpoints and host eviction
    idle_timeout_s: float = 4.0
    #: congestion controller the drawn schemes run ("cubic" is the
    #: bit-pinned default; any ``repro.quic.cc`` registry name works)
    cc_algorithm: str = "cubic"


@dataclass
class ScenarioOutcome:
    """Everything one scenario produced, plus its invariant verdicts."""

    index: int
    scheme: str
    sessions: int
    completed: int
    duration_s: float
    #: repr of an uncaught exception (I1 violation), or ``None``
    error: Optional[str]
    violations: List[str]
    #: merged transport robustness counters (client + server sides)
    robustness: Dict[str, int]
    #: merged fault-injection counts across all chaos boxes
    injected: Dict[str, int]
    evicted_closed: int
    evicted_idle: int
    fingerprint: Tuple
    #: (side, path id, bytes in flight, time) of each path abandoned
    abandoned: Tuple[Tuple[str, int, int, float], ...] = ()

    @property
    def ok(self) -> bool:
        return self.error is None and not self.violations


@dataclass
class ChaosSoakResult:
    """Aggregate outcome of a soak run."""

    config: ChaosSoakConfig
    #: the drawn scenarios, then the abandon scenario
    outcomes: List[ScenarioOutcome]
    #: SHA-256 over every drawn scenario's fingerprint (determinism check)
    digest: str = ""

    @property
    def errors(self) -> List[str]:
        return [f"scenario {o.index}: {o.error}"
                for o in self.outcomes if o.error is not None]

    @property
    def violations(self) -> List[str]:
        out: List[str] = []
        for o in self.outcomes:
            out.extend(f"scenario {o.index}: {v}" for v in o.violations)
        return out

    @property
    def ok(self) -> bool:
        return all(o.ok for o in self.outcomes)


@dataclass
class _Scenario:
    """The drawn shape of one scenario (kept for reporting/replay)."""

    scheme: str
    sessions: int
    video_duration_s: float
    horizon_s: float
    #: (path_id, direction, schedule) triples
    schedules: List[Tuple[int, str, ChaosSchedule]] = field(
        default_factory=list)
    long_blackhole_session: Optional[int] = None
    #: when session 0's client abandons its Wi-Fi path
    abandon_at: Optional[float] = None

    @property
    def blackhole_seconds(self) -> float:
        return sum(s.blackhole_seconds() for _, _, s in self.schedules)

    @property
    def has_blackholes(self) -> bool:
        return any(s.blackholes for _, _, s in self.schedules)


def _draw_scenario(rng, index: int) -> _Scenario:
    scenario = _Scenario(
        scheme=rng.choice(SCENARIO_SCHEMES),
        sessions=rng.randint(1, 3),
        video_duration_s=rng.uniform(2.5, 5.0),
        horizon_s=0.0)
    scenario.horizon_s = scenario.video_duration_s + 6.0
    horizon = scenario.horizon_s
    scenario.schedules.append(
        (CELL_PATH_ID, "up", ChaosSchedule.randomized(rng, horizon)))
    scenario.schedules.append(
        (CELL_PATH_ID, "down", ChaosSchedule.randomized(rng, horizon)))
    # Occasionally one session's Wi-Fi dies for the rest of the run --
    # possibly before its handshake finishes -- exercising CM rebind,
    # multipath failover, idle timeout, and host eviction.
    long_blackhole = rng.random() < 0.25
    if long_blackhole:
        scenario.long_blackhole_session = rng.randrange(scenario.sessions)
    for i in range(scenario.sessions):
        up = ChaosSchedule.randomized(rng, horizon, rebind=True)
        down = ChaosSchedule.randomized(rng, horizon)
        if i == scenario.long_blackhole_session:
            start = rng.uniform(0.05, 1.5)
            up.blackholes.append((start, start + 1000.0))
            down.blackholes.append((start, start + 1000.0))
        scenario.schedules.append((1 + i, "up", up))
        scenario.schedules.append((1 + i, "down", down))
    return scenario


def run_chaos_scenario(index: int, seed: int,
                       stall_bound_s: float = 5.0,
                       idle_timeout_s: float = 4.0,
                       cc_algorithm: str = "cubic") -> ScenarioOutcome:
    """Run one randomized scenario and check its invariants."""
    rng = make_rng(seed, f"chaos-scenario-{index}")
    return _run_scenario(index, _draw_scenario(rng, index), seed,
                         stall_bound_s, idle_timeout_s, cc_algorithm)


def run_abandon_scenario(config: ChaosSoakConfig) -> ScenarioOutcome:
    """Run the soak's last scenario: one XLINK session whose Wi-Fi goes
    dark at :data:`ABANDON_AT_S`, when its client abandons that path.
    The cell uplink drops the first PATH_STATUS Abandon."""
    dark = [(ABANDON_AT_S, ABANDON_AT_S + 1000.0)]
    lost = [(ABANDON_AT_S, ABANDON_AT_S + ABANDON_LOST_FOR_S)]
    scenario = _Scenario(
        scheme="xlink", sessions=1, video_duration_s=4.0, horizon_s=10.0,
        schedules=[(CELL_PATH_ID, "up", ChaosSchedule(blackholes=lost)),
                   (1, "up", ChaosSchedule(blackholes=list(dark))),
                   (1, "down", ChaosSchedule(blackholes=list(dark)))],
        abandon_at=ABANDON_AT_S)
    return _run_scenario(config.scenarios, scenario, config.seed,
                         config.stall_bound_s, config.idle_timeout_s,
                         config.cc_algorithm)


def _run_scenario(index: int, scenario: _Scenario, seed: int,
                  stall_bound_s: float, idle_timeout_s: float,
                  cc_algorithm: str) -> ScenarioOutcome:
    # Same drawn shape, different transport: the scheme draw in
    # ``_draw_scenario`` consumed identical rng state, so a cc override
    # changes only the controller (and, deliberately, the digest: the
    # name is in it).
    scheme = scheme_with_cc(scenario.scheme, cc_algorithm)
    scenario.scheme = scheme.name
    loop = EventLoop()
    paths = [PathSpec(CELL_PATH_ID, RadioType.LTE, 0.035, rate_bps=24e6)]
    for i in range(scenario.sessions):
        paths.append(PathSpec(1 + i, RadioType.WIFI, 0.015, rate_bps=10e6))
    net = build_network(loop, paths, seed=seed + index)
    by_path: Dict[int, Dict[str, ChaosSchedule]] = {}
    for path_id, direction, sched in scenario.schedules:
        by_path.setdefault(path_id, {})[direction] = sched
    for path_id, scheds in by_path.items():
        net.paths[path_id].attach_chaos(
            up=scheds.get("up"), down=scheds.get("down"),
            rng=make_rng(seed, f"chaos-box-{index}-{path_id}"))

    runtime = SessionRuntime(loop, net, idle_timeout_s=idle_timeout_s)
    handles = []
    abandoned: List[Tuple[str, int, int, float]] = []
    error: Optional[str] = None
    try:
        for i in range(scenario.sessions):
            session_seed = seed + index * 17 + i
            video = make_video(name=f"chaos-video-{index}-{i}",
                               duration_s=scenario.video_duration_s,
                               seed=session_seed)
            handles.append(runtime.add_session(VideoSessionSpec(
                scheme=scheme,
                interfaces=[(1 + i, RadioType.WIFI),
                            (CELL_PATH_ID, RadioType.LTE)],
                video=video,
                player_config=PlayerConfig(),
                seed=session_seed,
                client_addr=f"client-{i}",
                connection_name=f"chaos-user-{index}-{i}",
                start_at=i * 0.2)))
        if scenario.abandon_at is not None:
            client, server = handles[0].client.conn, handles[0].server
            for side, conn in (("client", client), ("server", server)):
                conn.listeners.append(partial(_record_abandon, abandoned,
                                              side, loop))
            loop.schedule_at(scenario.abandon_at,
                             partial(client.abandon_path, 0))
        runtime.run(timeout_s=scenario.horizon_s + 30.0)
    except Exception as exc:  # noqa: BLE001 -- I1 is "this never happens"
        error = f"{type(exc).__name__}: {exc}"

    host = runtime.host
    results = [runtime.result(h) for h in handles] if error is None else []
    conns = [(h.client.conn, h.server) for h in handles]
    robustness = aggregate_robustness(
        [c.stats for c, _ in conns] + [s.stats for _, s in conns])
    injected: Dict[str, int] = {}
    up_duplicated = down_duplicated = 0
    for path in net.paths.values():
        for box, direction in ((path.up_chaos, "up"),
                               (path.down_chaos, "down")):
            if box is None:
                continue
            for key, value in box.stats.as_dict().items():
                injected[key] = injected.get(key, 0) + value
            if direction == "up":
                up_duplicated += box.stats.duplicated
            else:
                down_duplicated += box.stats.duplicated

    violations: List[str] = []
    if error is None:
        violations.extend(_check_invariants(
            scenario, results, conns, host, up_duplicated, down_duplicated,
            stall_bound_s))

    client_sent = sum(c.stats.packets_sent for c, _ in conns)
    client_recv = sum(c.stats.packets_received for c, _ in conns)
    server_sent = sum(s.stats.packets_sent for _, s in conns)
    fingerprint = (
        index, scenario.scheme, scenario.sessions,
        sum(1 for r in results if r.completed), loop.now,
        client_sent, client_recv, server_sent,
        host.datagrams_routed, host.datagrams_dropped,
        host.evicted_closed, host.evicted_idle,
        tuple(sorted(robustness.items())),
        tuple(sorted(injected.items())),
        tuple(round(r.metrics.rebuffer_time, 9) for r in results),
        tuple(r.metrics.first_frame_latency for r in results),
    )
    runtime.teardown()
    return ScenarioOutcome(
        index=index, scheme=scenario.scheme, sessions=scenario.sessions,
        completed=sum(1 for r in results if r.completed),
        duration_s=loop.now, error=error, violations=violations,
        robustness=robustness, injected=injected,
        evicted_closed=host.evicted_closed,
        evicted_idle=host.evicted_idle,
        fingerprint=fingerprint, abandoned=tuple(abandoned))


def _record_abandon(abandoned: list, side: str, loop: EventLoop,
                    kind: str, fields: dict) -> None:
    """A connection listener: note every path it abandons, and when."""
    if kind == "path_updated" and fields["cause"] == "abandon":
        abandoned.append((side, fields["path_id"],
                          fields["bytes_in_flight"], loop.now))


def _check_invariants(scenario, results, conns, host,
                      up_duplicated, down_duplicated,
                      stall_bound_s) -> List[str]:
    violations: List[str] = []
    # I2: player stall bound (completed sessions only; a blackholed
    # session that still finished may have waited out the blackhole).
    allowance = stall_bound_s + scenario.blackhole_seconds
    for i, result in enumerate(results):
        if result.completed and result.metrics.rebuffer_time > allowance:
            violations.append(
                f"session {i} rebuffered {result.metrics.rebuffer_time:.2f}s"
                f" > bound {allowance:.2f}s")
    # I3: corruption/reorder/dup/jitter/rebind alone never wedge us.
    if not scenario.has_blackholes:
        for i, result in enumerate(results):
            if not result.completed:
                violations.append(
                    f"session {i} incomplete without any blackhole")
    # I4a: host drop classes are consistent with the drop total.
    classified = host.misrouted + host.unknown_cid + host.post_close_drops
    if host.datagrams_dropped < classified:
        violations.append(
            f"host drop classes {classified} exceed total drops "
            f"{host.datagrams_dropped}")
    # I4b: conservation -- nothing is received that was never sent
    # (chaos duplicates are the only legitimate inflation).
    client_sent = sum(c.stats.packets_sent for c, _ in conns)
    client_recv = sum(c.stats.packets_received for c, _ in conns)
    server_sent = sum(s.stats.packets_sent for _, s in conns)
    host_in = host.datagrams_routed + host.datagrams_dropped
    if host_in > client_sent + up_duplicated:
        violations.append(
            f"uplink conservation: host saw {host_in} datagrams, clients "
            f"sent {client_sent} (+{up_duplicated} duplicated)")
    if client_recv > server_sent + down_duplicated:
        violations.append(
            f"downlink conservation: clients authenticated {client_recv} "
            f"packets, servers sent {server_sent} "
            f"(+{down_duplicated} duplicated)")
    # I5: abandoned paths hold no in-flight state, at both ends.
    for client, server in conns:
        for conn, peer in ((client, server), (server, client)):
            for path in conn.paths.values():
                if path.state is not PathState.ABANDONED:
                    continue
                if path.loss.sent or path.loss.bytes_in_flight:
                    violations.append(
                        f"{conn.connection_name} abandoned path "
                        f"{path.path_id} retains "
                        f"{path.loss.bytes_in_flight}B in flight")
                mirror = peer.paths.get(path.path_id)
                if mirror is not None \
                        and mirror.state is not PathState.ABANDONED:
                    violations.append(
                        f"{conn.connection_name} abandoned path "
                        f"{path.path_id}, its peer keeps it "
                        f"{mirror.state.value}")
    return violations


def run_chaos_soak(config: ChaosSoakConfig) -> ChaosSoakResult:
    """Run the drawn scenarios, digest their fingerprints, then run the
    abandon scenario."""
    outcomes = [run_chaos_scenario(i, config.seed,
                                   stall_bound_s=config.stall_bound_s,
                                   idle_timeout_s=config.idle_timeout_s,
                                   cc_algorithm=config.cc_algorithm)
                for i in range(config.scenarios)]
    digest = hashlib.sha256(
        repr([o.fingerprint for o in outcomes]).encode()).hexdigest()
    outcomes.append(run_abandon_scenario(config))
    return ChaosSoakResult(config=config, outcomes=outcomes, digest=digest)
