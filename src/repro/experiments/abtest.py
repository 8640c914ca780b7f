"""A/B population simulator (Sec. 7.2 methodology, emulated).

The paper's online evaluation runs two contrast groups in parallel --
single-path QUIC vs. the treatment (vanilla-MP in Sec. 3.3, XLINK in
Sec. 7.2) -- and reports day-by-day request completion time
percentiles and aggregate rebuffer rates.

Here each "user session" samples realistic network conditions:

- a Wi-Fi path (the better path; the SP group uses only it) with a
  lognormal rate, profile-sampled delay, and with some probability a
  multi-second outage window (the walking/hand-off cases that create
  the paper's tails);
- an LTE path with the heavier-tailed delay profile of Sec. 3.2,
  cross-ISP inflation for a fraction of users (Table 4), and its own
  (rarer) degradation;

and plays one short video.  Day-to-day variation comes from re-seeding
and mildly shifting the condition mix per day.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence

from repro.experiments.harness import PathSpec
from repro.experiments.parallel import (SessionTask, resolve_workers,
                                        run_fleet)
from repro.host.specs import SchemeLike, scheme_name, scheme_paths
from repro.metrics.sink import MetricSink
from repro.netem import OutageSchedule
from repro.sim.rng import derive_seed, make_rng
from repro.traces.radio_profiles import (RADIO_PROFILES, RadioType,
                                         cross_isp_delay)
from repro.video import PlayerConfig, make_video


#: Shards a day is cut into per worker: enough that one slow session
#: (an outage user playing out a 60 s timeout) does not leave the other
#: workers idle behind it.
SHARDS_PER_WORKER = 4


#: The condition mix of the paper's A/B population (Sec. 7.2, Table 4),
#: calibrated once so its comparative shapes emerge: Wi-Fi is usually
#: the better path but occasionally blacks out (walking/hand-off); LTE
#: has the heavy-tailed delays of Sec. 3.2 (worse across ISP borders,
#: Table 4) and its own outages, which is what makes vanilla-MP's tail
#: *worse* than SP while XLINK's re-injection rescues the stragglers.
#: ``ABTestConfig`` carries the two parts a study sweeps.
#:
#: probability the LTE path crosses an ISP border (Table 4 inflation)
CROSS_ISP_PROB = 0.5
#: probability the LTE path degrades (outage) during play
LTE_DEGRADED_PROB = 0.35
#: lognormal spread of the Wi-Fi rate, and the LTE rate's parameters
#: (median ~ e^mu: ~2.4 Mbps)
WIFI_RATE_SIGMA = 0.45
LTE_RATE_MU = 14.7
LTE_RATE_SIGMA = 0.7

#: The player every A/B session runs: a small buffer cap keeps
#: streaming "live", so stalls bite.
PLAYER_CONFIG = PlayerConfig(max_buffer_s=2.0)


@dataclass
class ABTestConfig:
    """Knobs for the population simulation (the fixed condition mix is
    the module constants above)."""

    users_per_day: int = 40
    days: int = 7
    video_duration_s: float = 10.0
    video_bitrate_bps: float = 2_000_000
    chunk_size: int = 160 * 1024
    #: probability a user's Wi-Fi suffers an outage during the play
    wifi_outage_prob: float = 0.15
    #: log of the median Wi-Fi rate (~9.8 Mbps)
    wifi_rate_mu: float = 16.1
    seed: int = 0
    timeout_s: float = 60.0


@dataclass
class UserConditions:
    """Sampled network conditions for one user session."""

    wifi: PathSpec
    lte: PathSpec

    def paths_for(self, scheme: SchemeLike) -> List[PathSpec]:
        """Wi-Fi alone for a single-path scheme, else Wi-Fi + LTE."""
        return scheme_paths(scheme, [self.wifi, self.lte])


def sample_user_conditions(cfg: ABTestConfig, rng: random.Random
                           ) -> UserConditions:
    """Draw one user's Wi-Fi + LTE path pair."""
    wifi_profile = RADIO_PROFILES[RadioType.WIFI]
    lte_profile = RADIO_PROFILES[RadioType.LTE]

    wifi_rate = min(max(rng.lognormvariate(cfg.wifi_rate_mu,
                                           WIFI_RATE_SIGMA), 1.2e6), 60e6)
    lte_rate = min(max(rng.lognormvariate(LTE_RATE_MU, LTE_RATE_SIGMA),
                       0.8e6), 40e6)
    wifi_delay = wifi_profile.sample_rtt(rng) / 2.0
    lte_rtt = lte_profile.sample_rtt(rng)
    if rng.random() < CROSS_ISP_PROB:
        isps = ("A", "B", "C")
        lte_rtt = cross_isp_delay(lte_rtt, rng.choice(isps),
                                  rng.choice(isps))
    # Rate-delay correlation: a starved cell (weak signal, congestion)
    # also shows elevated latency; an ultra-low-RTT 1 Mbps LTE cell is
    # not a condition that occurs in practice.
    if lte_rate < 3e6:
        lte_rtt = max(lte_rtt, 0.030 * 3e6 / lte_rate)
    lte_delay = lte_rtt / 2.0

    wifi_outages = None
    if rng.random() < cfg.wifi_outage_prob:
        start = rng.uniform(0.5, cfg.video_duration_s * 0.8)
        length = rng.uniform(1.5, 4.5)
        wifi_outages = OutageSchedule(windows=[(start, start + length)])
    lte_outages = None
    if rng.random() < LTE_DEGRADED_PROB:
        start = rng.uniform(0.3, cfg.video_duration_s * 0.8)
        length = rng.uniform(1.0, 3.0)
        lte_outages = OutageSchedule(windows=[(start, start + length)])

    wifi = PathSpec(net_path_id=0, radio=RadioType.WIFI,
                    one_way_delay_s=wifi_delay, rate_bps=wifi_rate,
                    loss_rate=rng.uniform(0.0, 0.01),
                    outages=wifi_outages)
    lte = PathSpec(net_path_id=1, radio=RadioType.LTE,
                   one_way_delay_s=lte_delay, rate_bps=lte_rate,
                   loss_rate=rng.uniform(0.0, 0.02),
                   outages=lte_outages)
    return UserConditions(wifi=wifi, lte=lte)


def iter_ab_day_tasks(cfg: ABTestConfig, day: int,
                      schemes: Sequence[SchemeLike],
                      assign: Optional[Callable[[int], Sequence[SchemeLike]]]
                      = None) -> Iterator[SessionTask]:
    """Lazily generate the per-session tasks for one A/B day.

    Condition sampling stays *serial* (it consumes a shared per-day RNG
    stream exactly as the original nested loop did) -- only the
    expensive discrete-event sessions fan out.  Each task carries its
    fully-derived session seed, so the results are bit-identical
    however the tasks are executed.

    ``assign`` maps a user index to the subset of ``schemes`` that user
    actually plays (default: all of them, the paired small-N design).
    The fleet drivers pass a split-population assignment -- the paper's
    real A/B shape, one scheme per user -- and crucially the per-day
    condition RNG stream is consumed *before* assignment, so paired and
    split runs sample identical user populations.
    """
    day_seed = derive_seed(cfg.seed, f"day-{day}")
    rng = make_rng(day_seed, "conditions")
    for user in range(cfg.users_per_day):
        conditions = sample_user_conditions(cfg, rng)
        video = make_video(
            name=f"v{day}-{user}", duration_s=cfg.video_duration_s,
            bitrate_bps=cfg.video_bitrate_bps, chunk_size=cfg.chunk_size,
            seed=derive_seed(day_seed, f"video-{user}"))
        session_seed = derive_seed(day_seed, f"user-{user}")
        for scheme in (schemes if assign is None else assign(user)):
            yield SessionTask(
                key=(user, scheme_name(scheme)), scheme=scheme,
                paths=conditions.paths_for(scheme), video=video,
                player_config=PLAYER_CONFIG, timeout_s=cfg.timeout_s,
                seed=session_seed)


def run_ab_day(cfg: ABTestConfig, day: int, schemes: Sequence[SchemeLike],
               workers: Optional[int] = None) -> MetricSink:
    """Run one day's user population through each scheme.

    ``schemes`` are values (``replace(SCHEMES["xlink"], name=..., ...)``)
    or names of the paper's arms; the sink is keyed by each one's name.

    The same sampled user conditions are replayed for every scheme
    (paired comparison), which is *stronger* than the paper's split
    population but reproduces the comparative result with far fewer
    simulated users.

    This is the fleet tier at small N: the day's tasks go through
    :func:`~repro.experiments.parallel.run_fleet` and come back as one
    :class:`~repro.metrics.sink.MetricSink`, whose sketches are exact
    (bit-identical to :func:`repro.metrics.stats.percentile`) up to 512
    samples each.  ``workers=None``/``0`` fans the sessions out over
    ``os.cpu_count()`` processes, ``workers=1`` runs in-process; the
    sink's digest is the same either way.  A session that raises fails
    the day instead of being tallied: a figure must not be drawn from a
    population with holes in it.
    """
    # A small day still has to spread over the workers, so the shard
    # size follows the population instead of DEFAULT_SHARD_SIZE.
    tasks = cfg.users_per_day * len(schemes)
    slots = resolve_workers(workers) * SHARDS_PER_WORKER
    result = run_fleet(iter_ab_day_tasks(cfg, day, schemes), workers=workers,
                       shard_size=max(1, -(-tasks // slots)))
    if result.interrupted:
        raise KeyboardInterrupt
    if not result.ok:
        raise RuntimeError(
            f"A/B day {day}: {result.failed} of {result.tasks} sessions "
            f"failed {result.failures}, {result.abandoned_shards} shards "
            f"abandoned {result.shard_faults}")
    return result.sink


def run_ab_test(cfg: ABTestConfig, schemes: Sequence[SchemeLike]
                ) -> List[MetricSink]:
    """Run the full multi-day A/B test: one sink per day, day 1 first."""
    return [run_ab_day(cfg, day, schemes) for day in range(1, cfg.days + 1)]
