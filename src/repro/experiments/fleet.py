"""Fleet layer: sharded population runs on streaming metric sketches.

XLINK's headline evaluation is a 100K-participant production A/B test
(Sec. 7.2, Tables 1/3).  Every population statistic in this repository
comes out of the pipeline below; the figure-sized A/B day
(:func:`repro.experiments.abtest.run_ab_day`) is the same pipeline at
small N, not a second one.  A fleet run is the composition of three
pieces, the ``FleetDriver`` protocol:

- a **task generator** -- a lazy stream of independent
  :class:`~repro.experiments.parallel.SessionTask`, each carrying its
  fully-derived seed;
- the **shard executor** -- :func:`repro.experiments.parallel.run_fleet`
  slices the stream into shards, streams them to warm workers (or runs
  them in-process at ``workers=1``), and each reduces its slice into one
  :class:`~repro.metrics.sink.MetricSink` locally;
- the **sink reducer** -- shard sinks merge (associatively,
  commutatively, with exactly order-independent arithmetic) into the
  final population sink.

Memory is bounded by in-flight shards plus O(schemes x buckets) sink
state, so ``users=10_000`` runs in the same footprint as ``users=40``,
and a fixed seed gives an identical merged digest whether the run was
serial or sharded.

Two population drivers ship here: :class:`ABPopulationDriver` (the
paper's A/B day shape: Wi-Fi + LTE condition sampling per user, SP
control group vs multipath treatments, optionally split-population
like the production test) and :class:`MobilityPopulationDriver` (the
Fig. 13 trace catalog replayed as a population with per-repeat
reseeding).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator, Optional, Protocol, Sequence, Tuple

from repro.experiments.abtest import ABTestConfig, iter_ab_day_tasks
from repro.experiments.parallel import (DEFAULT_MAX_RETRIES,
                                        DEFAULT_SHARD_SIZE, FleetResult,
                                        SessionTask, ShardBody, run_fleet)
from repro.metrics.sink import MetricSink

__all__ = [
    "FleetConfig",
    "FleetDriver",
    "FleetRun",
    "ABPopulationDriver",
    "MobilityPopulationDriver",
    "run_fleet_driver",
]


class FleetDriver(Protocol):
    """What the fleet runner needs from a population experiment."""

    def task_iter(self) -> Iterator[SessionTask]:
        """Lazily yield every session task of the population."""
        ...


#: The per-session workload of a fleet day: deliberately lighter than
#: the small-N :class:`ABTestConfig` defaults (a 2s clip instead of
#: 10s).  The fleet reproduces *population distribution* shapes --
#: percentile tails over thousands of users -- where the small drivers
#: study per-session dynamics, and a 10K-user day has to finish in
#: minutes on one container.
VIDEO_DURATION_S = 2.0
VIDEO_BITRATE_BPS = 1_000_000
CHUNK_SIZE = 64 * 1024


@dataclass
class FleetConfig:
    """Population knobs for a fleet-scale A/B run.

    The workload is the module constants above; condition sampling
    (outage/cross-ISP mix) and the player are :mod:`abtest`'s.
    """

    users: int = 1000
    days: int = 1
    schemes: Tuple[str, ...] = ("sp", "xlink")
    #: False = split population (each user plays one scheme,
    #: round-robin -- the paper's production A/B shape); True = every
    #: user plays every scheme (the paired small-N design).
    paired: bool = False
    timeout_s: float = 30.0
    seed: int = 0

    def ab_config(self) -> ABTestConfig:
        return ABTestConfig(
            users_per_day=self.users, days=self.days,
            video_duration_s=VIDEO_DURATION_S,
            video_bitrate_bps=VIDEO_BITRATE_BPS, chunk_size=CHUNK_SIZE,
            timeout_s=self.timeout_s, seed=self.seed)


@dataclass
class ABPopulationDriver:
    """Task generator for the paper-shaped A/B population."""

    cfg: FleetConfig

    def assign(self, user: int) -> Sequence[str]:
        """Scheme(s) a user plays; round-robin keeps groups balanced."""
        if self.cfg.paired:
            return self.cfg.schemes
        return (self.cfg.schemes[user % len(self.cfg.schemes)],)

    def day_iter(self, day: int) -> Iterator[SessionTask]:
        """One day's slice of the population stream.

        Day seeds are derived independently (``derive_seed(seed,
        "day-<d>")``), so the concatenation of ``day_iter(1..D)`` is
        *exactly* ``task_iter()`` -- the property that lets a
        checkpointed campaign resume day-by-day and still merge to the
        digest of an uninterrupted run.
        """
        return iter_ab_day_tasks(self.cfg.ab_config(), day,
                                 self.cfg.schemes, assign=self.assign)

    def task_iter(self) -> Iterator[SessionTask]:
        for day in range(1, self.cfg.days + 1):
            yield from self.day_iter(day)


@dataclass
class MobilityPopulationDriver:
    """Fig. 13's trace catalog as a fleet population.

    Replays ``repeats`` reseeded passes of every (trace, scheme) cell;
    schemes are paired per (repeat, trace) so the per-scheme sketches
    stay directly comparable.  Any arm can be listed, ``mptcp``
    included; the default pins the four the population was first
    recorded with (``run_fig13`` draws the full five-bar figure).
    """

    traces: int = 10
    repeats: int = 2
    schemes: Tuple[str, ...] = ("sp", "vanilla_mp", "cm", "xlink")
    duration_s: float = 30.0
    seed: int = 0

    def task_iter(self) -> Iterator[SessionTask]:
        from repro.experiments.mobility import iter_mobility_fleet_tasks
        return iter_mobility_fleet_tasks(self.traces, self.repeats,
                                         self.schemes, self.duration_s,
                                         self.seed)


@dataclass
class FleetRun:
    """A finished fleet run plus its wall-clock accounting."""

    result: FleetResult
    seconds: float

    @property
    def sink(self) -> MetricSink:
        return self.result.sink

    @property
    def sessions_per_sec(self) -> float:
        if self.seconds <= 0:
            return 0.0
        return self.result.tasks / self.seconds


def run_fleet_driver(driver: FleetDriver,
                     workers: Optional[int] = None,
                     shard_size: int = DEFAULT_SHARD_SIZE,
                     max_retries: int = DEFAULT_MAX_RETRIES,
                     shard_timeout_s: Optional[float] = None,
                     execute: Optional[ShardBody] = None) -> FleetRun:
    """Execute one driver's population through the supervised runner.

    The supervision parameters -- ``max_retries``, ``shard_timeout_s``
    and ``execute``, the shard body (a
    :class:`~repro.experiments.fleetchaos.FaultPlan` in the fault
    soaks) -- are :func:`repro.experiments.parallel.run_fleet`'s.
    """
    t0 = time.perf_counter()
    result = run_fleet(driver.task_iter(), workers=workers,
                       shard_size=shard_size, max_retries=max_retries,
                       shard_timeout_s=shard_timeout_s, execute=execute)
    return FleetRun(result=result, seconds=time.perf_counter() - t0)
