"""Checkpointed multi-day fleet campaigns (the Fig. 11 series shape).

XLINK's headline result is a ~100K-user, 30-day production A/B series.
At ~90 minutes per 100K-user emulated day, a 30-day campaign is a
multi-day compute job -- and a parent crash (or a deliberate stop) on
day 17 must not void days 1-16.  :class:`FleetCampaign` runs a D-day
population **day by day** through the supervised fleet runner and
serializes its whole state -- the merged :class:`MetricSink`, the
completed-day ledger, and a config/seed fingerprint -- to a JSON
checkpoint after every day, atomically.  A restart with ``resume=True``
verifies the fingerprint, rehydrates the sink (digest-verified against
the digest stored at write time), skips the completed days and picks up
where the run died.

Bit-identity contract: day streams are independently seeded (the
concatenation of per-day task iterators *is* the uninterrupted task
stream) and sink merge is exactly order-independent, so a campaign
killed at any day boundary and resumed produces a merged digest
**identical** to an uninterrupted run -- verified by
``tests/test_campaign.py`` and the ``make fleet-chaos`` gate.

The per-day ledger carries each day's per-scheme QoE summary, which is
what the report's day-over-day campaign section renders.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.experiments.abtest import PLAYER_CONFIG
from repro.experiments.fleet import (CHUNK_SIZE, VIDEO_BITRATE_BPS,
                                     VIDEO_DURATION_S, ABPopulationDriver,
                                     FleetConfig)
from repro.experiments.parallel import (DEFAULT_MAX_RETRIES,
                                        DEFAULT_SHARD_SIZE, run_fleet)
from repro.metrics.sink import MetricSink

__all__ = [
    "CampaignError",
    "DayRecord",
    "CampaignResult",
    "FleetCampaign",
    "CHECKPOINT_VERSION",
    "CHECKPOINT_BASENAME",
]

#: Bumped whenever the checkpoint layout changes incompatibly.
CHECKPOINT_VERSION = 1

#: File name of the campaign checkpoint inside ``checkpoint_dir``.
CHECKPOINT_BASENAME = "campaign.json"


class CampaignError(RuntimeError):
    """A checkpoint that cannot be trusted (or must not be clobbered)."""


@dataclass
class DayRecord:
    """Ledger entry for one completed campaign day."""

    day: int
    sessions: int
    failed: int
    retries: int
    abandoned_shards: int
    abandoned_tasks: int
    shards: int
    seconds: float
    #: merged-sink digest *after* folding this day (resume integrity)
    digest: str
    #: this day's per-scheme QoE summaries (day-local sink ``as_dict``)
    schemes: Dict[str, Dict] = field(default_factory=dict)

    def to_dict(self) -> Dict:
        return {
            "day": self.day, "sessions": self.sessions,
            "failed": self.failed, "retries": self.retries,
            "abandoned_shards": self.abandoned_shards,
            "abandoned_tasks": self.abandoned_tasks,
            "shards": self.shards, "seconds": self.seconds,
            "digest": self.digest, "schemes": self.schemes,
        }

    @classmethod
    def from_dict(cls, state: Dict) -> "DayRecord":
        return cls(**state)


@dataclass
class CampaignResult:
    """A campaign invocation's outcome (possibly partial)."""

    sink: MetricSink
    days: List[DayRecord]
    days_planned: int
    #: days restored from the checkpoint instead of executed
    resumed_days: int = 0
    #: days actually executed by this invocation
    executed_days: int = 0
    interrupted: bool = False
    checkpoint_path: Optional[str] = None
    seconds: float = 0.0
    #: wall-clock spent writing checkpoints (bench overhead proxy)
    checkpoint_seconds: float = 0.0

    @property
    def completed(self) -> bool:
        return not self.interrupted and len(self.days) >= self.days_planned

    @property
    def digest(self) -> str:
        return self.sink.digest()

    # Aggregates over the ledger (mirror FleetResult's surface so the
    # CLI can share one exit-code/reporting path for both tiers).

    @property
    def tasks(self) -> int:
        return sum(r.sessions for r in self.days)

    @property
    def failed(self) -> int:
        return sum(r.failed for r in self.days)

    @property
    def retries(self) -> int:
        return sum(r.retries for r in self.days)

    @property
    def abandoned_shards(self) -> int:
        return sum(r.abandoned_shards for r in self.days)

    @property
    def abandoned_tasks(self) -> int:
        return sum(r.abandoned_tasks for r in self.days)

    @property
    def failures(self) -> Dict[str, int]:
        """Session-failure tally across the merged sink (per kind)."""
        out: Dict[str, int] = {}
        for scheme_sink in self.sink.schemes.values():
            for kind, n in scheme_sink.failures.items():
                out[kind] = out.get(kind, 0) + n
        return out


@dataclass
class FleetCampaign:
    """Day-by-day campaign executor with optional checkpointing.

    ``checkpoint_dir=None`` runs the same day-partitioned schedule
    without persistence (useful for reports and tests); with a
    directory, every completed day lands in an atomically-replaced
    ``campaign.json`` and ``run(resume=True)`` continues a dead run.
    """

    cfg: FleetConfig
    checkpoint_dir: Optional[str] = None
    workers: Optional[int] = None
    shard_size: int = DEFAULT_SHARD_SIZE
    max_retries: int = DEFAULT_MAX_RETRIES
    shard_timeout_s: Optional[float] = None

    # -- identity -------------------------------------------------------

    def fingerprint(self) -> str:
        """Hash of everything that shapes the campaign's *data*.

        Execution knobs (workers, shard size, retries) are excluded on
        purpose: the determinism contract makes them result-neutral,
        so resuming on a different machine profile is legal.  Changing
        the population, workload, or seed is not.
        """
        cfg = self.cfg
        # The fleet clip and the A/B player are module constants; they
        # are hashed in the places (and with the empty overrides tuple
        # last) that checkpoint layout 1 gave them, so a checkpoint
        # written when they were fields still resumes.
        canonical = (
            CHECKPOINT_VERSION, cfg.users, cfg.days,
            tuple(cfg.schemes), cfg.paired,
            repr(VIDEO_DURATION_S), repr(VIDEO_BITRATE_BPS), CHUNK_SIZE,
            repr(PLAYER_CONFIG.max_buffer_s), repr(cfg.timeout_s),
            cfg.seed, (),
        )
        return hashlib.sha256(repr(canonical).encode()).hexdigest()

    @property
    def checkpoint_path(self) -> Optional[str]:
        if self.checkpoint_dir is None:
            return None
        return os.path.join(self.checkpoint_dir, CHECKPOINT_BASENAME)

    # -- checkpoint IO --------------------------------------------------

    def _save(self, result: CampaignResult) -> None:
        path = self.checkpoint_path
        if path is None:
            return
        t0 = time.perf_counter()
        os.makedirs(self.checkpoint_dir, exist_ok=True)
        state = {
            "version": CHECKPOINT_VERSION,
            "fingerprint": self.fingerprint(),
            "config": {
                "users": self.cfg.users, "days": self.cfg.days,
                "schemes": list(self.cfg.schemes),
                "paired": self.cfg.paired, "seed": self.cfg.seed,
            },
            "completed_days": [r.day for r in result.days],
            "days": [r.to_dict() for r in result.days],
            "sink": result.sink.to_dict(),
            "sink_digest": result.sink.digest(),
        }
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(state, f)
        os.replace(tmp, path)
        result.checkpoint_seconds += time.perf_counter() - t0

    def _load(self) -> Optional[Dict]:
        path = self.checkpoint_path
        if path is None or not os.path.exists(path):
            return None
        with open(path) as f:
            try:
                state = json.load(f)
            except ValueError as exc:
                raise CampaignError(
                    f"unreadable checkpoint {path}: {exc}") from exc
        if state.get("version") != CHECKPOINT_VERSION:
            raise CampaignError(
                f"checkpoint {path} has version {state.get('version')}, "
                f"expected {CHECKPOINT_VERSION}")
        if state.get("fingerprint") != self.fingerprint():
            raise CampaignError(
                f"checkpoint {path} belongs to a different campaign "
                f"(config/seed fingerprint mismatch); refusing to "
                f"resume into it")
        sink = MetricSink.from_dict(state["sink"])
        if sink.digest() != state.get("sink_digest"):
            raise CampaignError(
                f"checkpoint {path} failed digest verification "
                f"(corrupted or hand-edited sink state)")
        state["_sink"] = sink
        return state

    # -- execution ------------------------------------------------------

    def run(self, resume: bool = False,
            max_days: Optional[int] = None) -> CampaignResult:
        """Execute (or continue) the campaign.

        ``resume=False`` with an existing checkpoint raises
        :class:`CampaignError` rather than silently clobbering a
        multi-day investment.  ``max_days`` bounds how many *new* days
        this invocation executes (spread a 30-day campaign over
        cron-style invocations); the checkpoint keeps the ledger.

        An in-day ``KeyboardInterrupt`` stops cleanly: the partial day
        is discarded (days are the atomicity unit), the previously
        checkpointed days stay intact, and the returned result has
        ``interrupted=True``.
        """
        t0 = time.perf_counter()
        state = None
        if resume:
            state = self._load()
        elif self.checkpoint_path and os.path.exists(self.checkpoint_path):
            raise CampaignError(
                f"checkpoint {self.checkpoint_path} already exists; "
                f"pass resume=True (--resume) to continue it")

        merged = MetricSink()
        result = CampaignResult(sink=merged, days=[],
                                days_planned=self.cfg.days,
                                checkpoint_path=self.checkpoint_path)
        if state is not None:
            merged.merge(state["_sink"])
            result.days = [DayRecord.from_dict(d) for d in state["days"]]
            result.resumed_days = len(result.days)

        completed = {r.day for r in result.days}
        driver = ABPopulationDriver(self.cfg)
        for day in range(1, self.cfg.days + 1):
            if day in completed:
                continue
            if max_days is not None and result.executed_days >= max_days:
                break
            day_sink = MetricSink()
            day_t0 = time.perf_counter()
            fleet = run_fleet(
                driver.day_iter(day), sink=day_sink,
                workers=self.workers, shard_size=self.shard_size,
                max_retries=self.max_retries,
                shard_timeout_s=self.shard_timeout_s)
            if fleet.interrupted:
                # Days are atomic: drop the partial fold, keep the
                # ledger as of the last completed day.
                result.interrupted = True
                break
            schemes_summary = day_sink.as_dict()
            merged.merge(day_sink)
            result.days.append(DayRecord(
                day=day, sessions=fleet.tasks, failed=fleet.failed,
                retries=fleet.retries,
                abandoned_shards=fleet.abandoned_shards,
                abandoned_tasks=fleet.abandoned_tasks,
                shards=fleet.shards,
                seconds=time.perf_counter() - day_t0,
                digest=merged.digest(), schemes=schemes_summary))
            result.executed_days += 1
            self._save(result)
        result.days.sort(key=lambda r: r.day)
        result.seconds = time.perf_counter() - t0
        return result
