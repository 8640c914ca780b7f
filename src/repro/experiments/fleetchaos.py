"""Fleet-supervision chaos soak (``python -m repro fleet-chaos``).

The transport tier has ``repro.experiments.chaos``: seeded adversarial
*network* scenarios soaked against runtime invariants.  This module is
the same idea one layer up -- scripted **worker** faults (crash, hang,
raise, corrupt) injected into a supervised fleet run by
:class:`FaultPlan`, the shard body handed to
``run_fleet(execute=...)``, with the supervisor's contract asserted
after the dust settles:

1. a faulted run **completes** -- no fault class can void the run;
2. retry/abandon accounting is **honest** -- every injected fault shows
   up in ``shard_faults``, retries are counted, and quarantined shards
   surface as ``ShardAbandoned`` tallies in the merged sink;
3. when every fault is retryable, the merged digest is **bit-identical**
   to the fault-free digest (retries re-run from the task list, so
   nothing double-counts and nothing is lost);
4. when faults are sticky, shards are quarantined rather than retried
   forever, and the loss is visible in the counters;
5. a checkpointed campaign killed at a day boundary and resumed merges
   to the digest of an uninterrupted run.

``make fleet-chaos`` runs this as a CI gate; the same invariants are
unit-tested (faster, narrower) in ``tests/test_supervision.py``.
"""

from __future__ import annotations

import multiprocessing
import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.experiments.campaign import FleetCampaign
from repro.experiments.fleet import (ABPopulationDriver, FleetConfig,
                                     run_fleet_driver)
from repro.experiments.parallel import (ABANDONED_KIND, SessionTask,
                                        ShardResult, _fork_available,
                                        execute_shard)

__all__ = ["FaultInjected", "FaultPlan", "FleetChaosConfig",
           "FleetChaosResult", "run_fleet_chaos"]


class FaultInjected(RuntimeError):
    """Raised out of a shard body by a :class:`FaultPlan` fault."""


@dataclass(frozen=True)
class FaultPlan:
    """Scripted worker faults: a shard body for ``run_fleet(execute=)``.

    ``faults`` maps a shard index to the fault its attempt suffers:

    - **crash** -- the worker process dies with ``os._exit`` (the
      OOM-kill shape: no exception, no result, pipe EOF);
    - **hang** -- the worker sleeps ``hang_s`` before executing, so a
      ``shard_timeout_s`` deadline must kill it;
    - **raise** -- the body raises :class:`FaultInjected` (a bug in
      harness code, as opposed to the per-task failures
      ``execute_shard`` already tallies);
    - **corrupt** -- the body returns a :class:`ShardResult` whose
      accounting is inconsistent, which result validation must catch.

    A fault fires on a shard's first attempt only, so a retried shard
    succeeds and the merged digest must equal the fault-free one;
    ``sticky=True`` fires it on every attempt, driving the shard to
    abandonment.  Asked for in the parent process (an in-process run),
    a crash or a hang raises :class:`FaultInjected` instead: exiting or
    sleeping there would take the supervisor down with it.
    """

    faults: Dict[int, str] = field(default_factory=dict)
    #: how long a hung worker sleeps (should exceed ``shard_timeout_s``)
    hang_s: float = 3600.0
    sticky: bool = False

    def fires(self, shard_index: int, attempt: int) -> Optional[str]:
        """The fault to inject on this attempt (``None`` = run clean)."""
        if attempt > 0 and not self.sticky:
            return None
        return self.faults.get(shard_index)

    def __call__(self, shard_index: int, attempt: int,
                 tasks: List[SessionTask]) -> ShardResult:
        kind = self.fires(shard_index, attempt)
        where = f"shard {shard_index}, attempt {attempt}"
        if kind in ("crash", "hang") \
                and multiprocessing.parent_process() is None:
            raise FaultInjected(f"{kind} fault in the parent ({where})")
        if kind == "crash":
            os._exit(86)
        if kind == "hang":
            time.sleep(self.hang_s)
        if kind == "raise":
            raise FaultInjected(f"injected shard failure ({where})")
        result = execute_shard(tasks)
        if kind == "corrupt":
            # inconsistent task accounting, so validation must reject it
            return ShardResult(sink=result.sink, tasks=result.tasks + 1,
                               failures=result.failures)
        return result


@dataclass
class FleetChaosConfig:
    """Knobs for the supervision soak.

    Defaults are sized for a CI gate: a 24-user split population in
    4-task shards gives 6 shards -- enough to afflict one shard with
    each fault class and still have healthy shards to fold around
    them -- and finishes in seconds.
    """

    users: int = 24
    shard_size: int = 4
    workers: int = 2
    seed: int = 11
    #: deadline that converts a hung worker into a ``timeout`` fault
    shard_timeout_s: float = 5.0


#: The campaign the soak kills at a day boundary and resumes.
CAMPAIGN_USERS = 6
CAMPAIGN_DAYS = 2


@dataclass
class FleetChaosResult:
    """Soak outcome: named checks plus the digests they compared."""

    checks: List[Tuple[str, bool, str]] = field(default_factory=list)
    reference_digest: str = ""
    faulted_digest: str = ""

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, ok, detail))

    @property
    def ok(self) -> bool:
        return all(ok for _name, ok, _detail in self.checks)

    @property
    def failures(self) -> List[str]:
        return [f"{name}: {detail}" for name, ok, detail in self.checks
                if not ok]


def _fleet_cfg(config: FleetChaosConfig) -> FleetConfig:
    return FleetConfig(users=config.users, seed=config.seed)


def run_fleet_chaos(config: Optional[FleetChaosConfig] = None
                    ) -> FleetChaosResult:
    """Execute the soak; every invariant lands in ``result.checks``."""
    config = config or FleetChaosConfig()
    result = FleetChaosResult()
    if not _fork_available():  # pragma: no cover - non-fork platforms
        result.record("fork", False,
                      "platform cannot fork; pool supervision untestable")
        return result
    cfg = _fleet_cfg(config)

    # Fault-free reference (pool mode, so the comparison also guards
    # serial-vs-supervised digest identity via the existing tests).
    clean = run_fleet_driver(ABPopulationDriver(cfg),
                             workers=config.workers,
                             shard_size=config.shard_size)
    result.reference_digest = clean.sink.digest()
    result.record("clean_run", clean.result.ok,
                  f"fault-free run not ok: {clean.result}")

    # One shard per fault class, first-attempt-only (retryable).
    plan = FaultPlan({0: "crash", 1: "hang", 2: "raise", 3: "corrupt"},
                     hang_s=60.0)
    faulted = run_fleet_driver(ABPopulationDriver(cfg),
                               workers=config.workers,
                               shard_size=config.shard_size,
                               shard_timeout_s=config.shard_timeout_s,
                               execute=plan)
    fr = faulted.result
    result.faulted_digest = faulted.sink.digest()
    result.record("faulted_completes",
                  not fr.interrupted and fr.tasks == clean.result.tasks,
                  f"tasks={fr.tasks} expected={clean.result.tasks} "
                  f"interrupted={fr.interrupted}")
    expected_faults = {"crash": 1, "timeout": 1,
                       FaultInjected.__name__: 1, "corrupt": 1}
    result.record("fault_tally_honest", fr.shard_faults == expected_faults,
                  f"shard_faults={fr.shard_faults} "
                  f"expected={expected_faults}")
    result.record("retries_counted", fr.retries == 4,
                  f"retries={fr.retries} expected=4")
    result.record("nothing_abandoned",
                  fr.abandoned_shards == 0 and fr.abandoned_tasks == 0,
                  f"abandoned_shards={fr.abandoned_shards} "
                  f"abandoned_tasks={fr.abandoned_tasks}")
    result.record("retryable_digest_identical",
                  result.faulted_digest == result.reference_digest,
                  f"faulted={result.faulted_digest[:12]} "
                  f"reference={result.reference_digest[:12]}")

    # Sticky crash: the shard must be quarantined, not retried forever,
    # and the loss must be visible everywhere it is reported.
    sticky = FaultPlan({0: "crash"}, sticky=True)
    quarantined = run_fleet_driver(ABPopulationDriver(cfg),
                                   workers=config.workers,
                                   shard_size=config.shard_size,
                                   max_retries=1, execute=sticky)
    qr = quarantined.result
    result.record("sticky_abandons",
                  qr.abandoned_shards == 1
                  and qr.abandoned_tasks == config.shard_size,
                  f"abandoned_shards={qr.abandoned_shards} "
                  f"abandoned_tasks={qr.abandoned_tasks}")
    abandoned_tallied = sum(
        s.failures.get(ABANDONED_KIND, 0)
        for s in quarantined.sink.schemes.values())
    result.record("abandonment_in_sink",
                  abandoned_tallied == qr.abandoned_tasks,
                  f"sink tallies {abandoned_tallied} {ABANDONED_KIND} "
                  f"!= abandoned_tasks {qr.abandoned_tasks}")
    result.record("sticky_run_completes",
                  not qr.interrupted
                  and qr.tasks == clean.result.tasks - config.shard_size,
                  f"tasks={qr.tasks} interrupted={qr.interrupted}")

    # Campaign kill + resume at a day boundary: bit-identical merge.
    camp_cfg = FleetConfig(users=CAMPAIGN_USERS, days=CAMPAIGN_DAYS,
                           seed=config.seed)
    uninterrupted = FleetCampaign(camp_cfg).run()
    with tempfile.TemporaryDirectory() as ckpt_dir:
        FleetCampaign(camp_cfg, checkpoint_dir=ckpt_dir).run(max_days=1)
        resumed = FleetCampaign(camp_cfg,
                                checkpoint_dir=ckpt_dir).run(resume=True)
    result.record("campaign_resume_identical",
                  resumed.completed
                  and resumed.digest == uninterrupted.digest,
                  f"resumed={resumed.digest[:12]} "
                  f"uninterrupted={uninterrupted.digest[:12]} "
                  f"completed={resumed.completed}")
    return result
