"""Checkpointed campaigns: serialization exactness, resume identity.

Two contracts stack here.  First, the sink serialization layer
(``DistSketch``/``SchemeSink``/``MetricSink`` ``to_dict``/``from_dict``)
must round-trip through JSON **digest-exactly** -- Python floats
survive ``json`` via shortest-repr, so bit-identity is achievable and
therefore required.  Second, :class:`FleetCampaign` built on it: a
campaign killed at any day boundary and resumed must merge to a digest
identical to an uninterrupted run, refuse foreign or tampered
checkpoints, and report resumed/executed days honestly.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import main
from repro.experiments.campaign import (CHECKPOINT_VERSION, CampaignError,
                                        DayRecord, FleetCampaign)
from repro.experiments.fleet import (ABPopulationDriver, FleetConfig,
                                     run_fleet_driver)
from repro.experiments.report import campaign_day_section
from repro.metrics import MetricSink
from repro.metrics.sketch import DistSketch


def _cfg(users: int = 4, days: int = 3, seed: int = 7) -> FleetConfig:
    return FleetConfig(users=users, days=days, seed=seed)


def _populated_sink(users: int = 4, seed: int = 7) -> MetricSink:
    cfg = FleetConfig(users=users, seed=seed)
    return run_fleet_driver(ABPopulationDriver(cfg), workers=1).sink


class TestSerializationRoundTrips:
    def test_dist_sketch_empty_exact_and_bucketed(self):
        for values in ([], [0.5, 1.5, 0.0, -2.0],
                       [float(i) * 1.7 for i in range(200)]):
            sketch = DistSketch()
            for v in values:
                sketch.add(v)
            state = json.loads(json.dumps(sketch.to_dict()))
            clone = DistSketch.from_dict(state)
            assert clone.digest() == sketch.digest()
            assert clone.count == sketch.count

    def test_metric_sink_round_trip_is_digest_exact(self):
        sink = _populated_sink()
        sink.scheme("sp").observe_failure("TimeoutError")
        state = json.loads(json.dumps(sink.to_dict()))
        clone = MetricSink.from_dict(state)
        assert clone.digest() == sink.digest()
        assert clone.sessions == sink.sessions
        assert clone.scheme("sp").failures == sink.scheme("sp").failures

    def test_round_tripped_sink_still_merges(self):
        # A rehydrated sink must be a first-class participant in the
        # order-independent merge, not a read-only snapshot.
        a, b = _populated_sink(seed=1), _populated_sink(seed=2)
        # snapshot first: merge() adopts scheme sinks by reference, so
        # the direct merge below mutates a's schemes in place
        thawed = MetricSink.from_dict(
            json.loads(json.dumps(a.to_dict())))
        direct = MetricSink().merge(a).merge(b).digest()
        assert thawed.merge(b).digest() == direct

    def test_day_record_round_trip(self):
        rec = DayRecord(day=3, sessions=8, failed=1, retries=2,
                        abandoned_shards=0, abandoned_tasks=0, shards=4,
                        seconds=1.5, digest="abc",
                        schemes={"sp": {"sessions": 4}})
        assert DayRecord.from_dict(
            json.loads(json.dumps(rec.to_dict()))) == rec


class TestCampaignIdentity:
    def test_campaign_digest_matches_uninterrupted_fleet(self):
        cfg = _cfg()
        ref = run_fleet_driver(ABPopulationDriver(cfg), workers=1)
        result = FleetCampaign(cfg).run()
        assert result.completed
        assert result.digest == ref.sink.digest()
        assert result.tasks == ref.result.tasks
        assert [r.day for r in result.days] == [1, 2, 3]

    def test_kill_and_resume_digest_identical(self, tmp_path):
        cfg = _cfg()
        ref = run_fleet_driver(ABPopulationDriver(cfg), workers=1)
        partial = FleetCampaign(cfg, checkpoint_dir=str(tmp_path)).run(
            max_days=1)
        assert not partial.completed
        assert partial.executed_days == 1
        # a fresh FleetCampaign instance: nothing carried in memory
        resumed = FleetCampaign(cfg, checkpoint_dir=str(tmp_path)).run(
            resume=True)
        assert resumed.completed
        assert resumed.resumed_days == 1
        assert resumed.executed_days == 2
        assert resumed.digest == ref.sink.digest()

    def test_resume_of_complete_campaign_executes_nothing(self, tmp_path):
        cfg = _cfg(days=2)
        done = FleetCampaign(cfg, checkpoint_dir=str(tmp_path)).run()
        again = FleetCampaign(cfg, checkpoint_dir=str(tmp_path)).run(
            resume=True)
        assert again.executed_days == 0
        assert again.resumed_days == 2
        assert again.digest == done.digest

    def test_day_ledger_carries_per_scheme_series(self):
        result = FleetCampaign(_cfg(days=2)).run()
        for rec in result.days:
            assert set(rec.schemes) == {"sp", "xlink"}
            assert rec.digest  # cumulative digest recorded per day
        section = campaign_day_section(result)
        assert "day-over-day" in section.title
        assert "| 1 |" in section.body and "| 2 |" in section.body


class TestCheckpointSafety:
    def test_refuses_to_clobber_without_resume(self, tmp_path):
        campaign = FleetCampaign(_cfg(days=2),
                                 checkpoint_dir=str(tmp_path))
        campaign.run(max_days=1)
        with pytest.raises(CampaignError, match="resume"):
            campaign.run()

    def test_refuses_foreign_fingerprint(self, tmp_path):
        FleetCampaign(_cfg(seed=7), checkpoint_dir=str(tmp_path)).run(
            max_days=1)
        with pytest.raises(CampaignError, match="fingerprint"):
            FleetCampaign(_cfg(seed=8),
                          checkpoint_dir=str(tmp_path)).run(resume=True)

    def test_execution_knobs_do_not_change_fingerprint(self):
        cfg = _cfg()
        a = FleetCampaign(cfg, workers=1, shard_size=2)
        b = FleetCampaign(cfg, workers=4, shard_size=64, max_retries=9)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != FleetCampaign(
            _cfg(users=5)).fingerprint()

    def test_fingerprint_is_stable_across_releases(self):
        # a checkpoint written by an earlier release must still resume:
        # the workload values that became constants hash as they did
        # when they were fields
        assert FleetCampaign(FleetConfig(users=4, days=2, seed=5)) \
            .fingerprint() == ("a3e30e86e7806f33294769e636b3482812d77070"
                               "c7cb68e5e02df6abb3ecd8f9")

    def test_detects_tampered_sink(self, tmp_path):
        campaign = FleetCampaign(_cfg(days=2),
                                 checkpoint_dir=str(tmp_path))
        campaign.run(max_days=1)
        with open(campaign.checkpoint_path) as f:
            state = json.load(f)
        state["sink"]["schemes"]["sp"]["sessions"] += 1
        with open(campaign.checkpoint_path, "w") as f:
            json.dump(state, f)
        with pytest.raises(CampaignError, match="digest"):
            campaign.run(resume=True)

    def test_rejects_version_skew_and_garbage(self, tmp_path):
        campaign = FleetCampaign(_cfg(days=2),
                                 checkpoint_dir=str(tmp_path))
        campaign.run(max_days=1)
        with open(campaign.checkpoint_path) as f:
            state = json.load(f)
        state["version"] = CHECKPOINT_VERSION + 1
        with open(campaign.checkpoint_path, "w") as f:
            json.dump(state, f)
        with pytest.raises(CampaignError, match="version"):
            campaign.run(resume=True)
        with open(campaign.checkpoint_path, "w") as f:
            f.write("{not json")
        with pytest.raises(CampaignError, match="unreadable"):
            campaign.run(resume=True)

    def test_checkpoint_replaced_atomically(self, tmp_path):
        campaign = FleetCampaign(_cfg(days=2),
                                 checkpoint_dir=str(tmp_path))
        campaign.run()
        assert os.path.exists(campaign.checkpoint_path)
        assert not os.path.exists(campaign.checkpoint_path + ".tmp")


class TestCli:
    def test_fleet_campaign_and_resume(self, tmp_path, capsys):
        base = ["fleet", "--users", "2", "--days", "2", "--workers", "1",
                "--permutation-rounds", "0",
                "--checkpoint-dir", str(tmp_path)]
        assert main(base + ["--max-days", "1"]) == 0
        out = capsys.readouterr().out
        assert "campaign: partial days=1/2" in out
        assert main(base + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "campaign: complete days=2/2" in out
        assert "digest=" in out

    def test_fleet_refuses_clobber_with_exit_2(self, tmp_path, capsys):
        base = ["fleet", "--users", "2", "--days", "1", "--workers", "1",
                "--permutation-rounds", "0",
                "--checkpoint-dir", str(tmp_path)]
        assert main(base) == 0
        capsys.readouterr()
        assert main(base) == 2
        assert "resume" in capsys.readouterr().err

    def test_resume_requires_checkpoint_dir(self, capsys):
        rc = main(["fleet", "--users", "2", "--resume"])
        assert rc == 2
        assert "checkpoint-dir" in capsys.readouterr().err


class TestCheckpointBench:
    def test_checkpoint_overhead_under_a_fifth_of_the_campaign(
            self, tmp_path):
        """Persisting each day costs O(schemes x sketch buckets),
        whatever the population: a small share of even a 2-user day."""
        campaign = FleetCampaign(_cfg(users=2, days=2, seed=5),
                                 checkpoint_dir=str(tmp_path), workers=1)
        result = campaign.run()
        assert result.completed
        assert result.tasks == 4
        assert os.path.getsize(campaign.checkpoint_path) > 0
        assert result.checkpoint_seconds < 0.2 * result.seconds
