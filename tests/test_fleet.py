"""Fleet tier: sharded population runs on streaming metric sinks.

The acceptance contract under test: a fixed-seed fleet run produces an
*identical* merged digest whether it executed serially or sharded over
pool workers; worker failures are tallied instead of voiding the run;
and the sink's aggregates agree with the exact per-outcome path on the
same population.
"""

from __future__ import annotations

import pickle

import pytest

from repro.cli import main
from repro.experiments.abtest import iter_ab_day_tasks, run_ab_day
from repro.experiments.fleet import (ABPopulationDriver, FleetConfig,
                                     MobilityPopulationDriver,
                                     run_fleet_driver)
from repro.experiments.parallel import (SessionTask, execute_shard,
                                        iter_shards, run_fleet,
                                        run_session_tasks)
from repro.experiments.report import fleet_sections
from repro.metrics import MetricSink, aggregate_rebuffer_rate
from repro.metrics.stats import percentile


def _small_cfg(users: int = 6, seed: int = 5, **kw) -> FleetConfig:
    return FleetConfig(users=users, seed=seed, **kw)


class TestDeterminism:
    def test_serial_vs_sharded_digests_identical(self):
        cfg = _small_cfg(users=8)
        serial = run_fleet_driver(ABPopulationDriver(cfg), workers=1,
                                  shard_size=3)
        sharded = run_fleet_driver(ABPopulationDriver(cfg), workers=2,
                                   shard_size=3)
        assert serial.sink.digest() == sharded.sink.digest()
        assert serial.result.tasks == sharded.result.tasks == 8
        assert serial.result.workers_effective == 1
        assert sharded.result.workers_effective >= 2
        assert sharded.result.shards == 3

    def test_shard_size_does_not_change_digest(self):
        cfg = _small_cfg(users=6)
        a = run_fleet_driver(ABPopulationDriver(cfg), workers=1,
                             shard_size=1)
        b = run_fleet_driver(ABPopulationDriver(cfg), workers=1,
                             shard_size=64)
        assert a.sink.digest() == b.sink.digest()

    def test_split_and_paired_sample_same_population(self):
        # The condition RNG is consumed before assignment, so the
        # split-population run's SP group plays the exact conditions
        # the paired run's SP leg saw for the same users.
        split_cfg = _small_cfg(users=4, paired=False)
        paired_cfg = _small_cfg(users=4, paired=True)
        split = {t.key: t for t in
                 ABPopulationDriver(split_cfg).task_iter()}
        paired = {t.key: t for t in
                  ABPopulationDriver(paired_cfg).task_iter()}
        assert set(split) < set(paired)
        for key, task in split.items():
            assert task.seed == paired[key].seed
            assert task.paths == paired[key].paths


class TestShardExecution:
    def test_failures_tallied_not_raised(self):
        good = next(iter(ABPopulationDriver(_small_cfg(users=1))
                         .task_iter()))
        # an unknown scheme name raises KeyError inside the session
        bad = SessionTask(key=(99, "nope"), scheme="nope", paths=good.paths)
        result = execute_shard([good, bad])
        assert result.tasks == 2
        assert result.failures == {"KeyError": 1}
        assert result.sink.scheme("nope").failures == {"KeyError": 1}
        assert result.sink.sessions == 1  # the good task still counted

    def test_run_fleet_aggregates_failures(self):
        tasks = list(ABPopulationDriver(_small_cfg(users=2)).task_iter())
        tasks.append(SessionTask(key=(99, "nope"), scheme="nope",
                                 paths=tasks[0].paths))
        result = run_fleet(iter(tasks), workers=1, shard_size=2)
        assert result.failed == 1
        assert result.failures == {"KeyError": 1}
        assert result.tasks == 3

    def test_iter_shards_lazy_and_validated(self):
        with pytest.raises(ValueError):
            list(iter_shards([], shard_size=0))
        shards = list(iter_shards(range(7), shard_size=3))
        assert [len(s) for s in shards] == [3, 3, 1]

    def test_external_sink_accumulates_across_runs(self):
        sink = MetricSink()
        cfg = _small_cfg(users=2)
        run_fleet(ABPopulationDriver(cfg).task_iter(), sink=sink,
                  workers=1)
        first = sink.sessions
        run_fleet(ABPopulationDriver(cfg).task_iter(), sink=sink,
                  workers=1)
        assert sink.sessions == 2 * first


class TestSinkConsistency:
    def test_sink_matches_exact_day_result(self):
        # The A/B day's sink against the list reference on the same
        # population: raw per-session outcomes, stats.percentile and
        # aggregate_rebuffer_rate.  Exact-mode percentiles must agree
        # bit for bit.
        cfg = _small_cfg(users=4, paired=True)
        ab = cfg.ab_config()
        day = run_ab_day(ab, 1, list(cfg.schemes), workers=1)
        outcomes = run_session_tasks(
            list(iter_ab_day_tasks(ab, 1, list(cfg.schemes))))
        for scheme in cfg.schemes:
            sink = day.schemes[scheme]
            exact = [o.metrics for o in outcomes if o.scheme == scheme]
            rcts = [t for m in exact for t in m.request_completion_times]
            startups = [m.first_frame_latency for m in exact
                        if m.first_frame_latency is not None]
            assert sink.sessions == len(exact)
            assert sink.rct._exact is not None \
                and sink.startup._exact is not None
            assert sink.rct.percentile(50) == percentile(rcts, 50)
            assert sink.rct.percentile(99) == percentile(rcts, 99)
            assert sink.startup.percentile(95) == percentile(startups, 95)
            assert sink.rebuffer_rate == pytest.approx(
                aggregate_rebuffer_rate(exact), abs=1e-9)
            redundant = sum(m.redundant_bytes for m in exact)
            useful = sum(m.useful_bytes for m in exact)
            assert sink.traffic_overhead_percent == pytest.approx(
                redundant / useful * 100.0, rel=1e-6)

    def test_merge_does_not_alias_the_merged_sink(self):
        # Pooling per-day sinks must leave the days readable.
        day = run_fleet(ABPopulationDriver(_small_cfg(users=2)).task_iter(),
                        workers=1).sink
        before = day.digest()
        pooled = MetricSink().merge(day)
        pooled.merge(day)
        assert pooled.sessions == 2 * day.sessions
        assert day.digest() == before


class TestDrivers:
    def test_mobility_population_task_shape(self):
        driver = MobilityPopulationDriver(traces=2, repeats=2,
                                          duration_s=10.0)
        tasks = list(driver.task_iter())
        assert len(tasks) == 2 * 2 * len(driver.schemes)
        by_scheme = {t.scheme for t in tasks}
        assert by_scheme == set(driver.schemes)
        for t in tasks:
            assert len(t.paths) == (1 if t.scheme == "sp" else 2)
        # per-(repeat, trace) reseeding: both repeats of a trace exist
        # with different seeds
        seeds = {t.key: t.seed for t in tasks}
        assert seeds[(0, 1, "xlink")] != seeds[(1, 1, "xlink")]
        # the sessions of a (repeat, trace) cell replay one buffer
        cell = [t for t in tasks if t.key[:2] == (0, 1)]
        assert len({id(t.paths[0].trace_ms) for t in cell}) == 1

    def test_mobility_traces_cross_the_fork(self):
        """Traces are arrays: they pickle intact, and a two-worker
        mobility population folds to the digest of the serial one."""
        def driver():
            return MobilityPopulationDriver(traces=1, repeats=1,
                                            schemes=("sp", "xlink"))

        task = next(driver().task_iter())
        copy = pickle.loads(pickle.dumps(task))
        assert [(p.trace_ms.typecode, p.trace_ms) for p in copy.paths] \
            == [("i", p.trace_ms) for p in task.paths]
        serial = run_fleet_driver(driver(), workers=1)
        sharded = run_fleet_driver(driver(), workers=2, shard_size=1)
        assert sharded.result.workers_effective == 2
        assert sum(s.completed for s in serial.sink.schemes.values()) == 2
        assert serial.sink.digest() == sharded.sink.digest()


class TestReportRendering:
    def test_empty_scheme_renders_dashes(self):
        sink = MetricSink()
        sink.scheme("sp")
        sink.scheme("xlink")
        sections = fleet_sections(sink)
        text = "\n".join(s.body for s in sections)
        assert "—" in text
        assert "0" in sections[0].body  # count=0 rows, not a crash

    def test_populated_sink_renders_deltas(self):
        cfg = _small_cfg(users=4)
        run = run_fleet_driver(ABPopulationDriver(cfg), workers=1)
        sections = fleet_sections(run.sink, seed=cfg.seed, rounds=20)
        titles = [s.title for s in sections]
        assert any("treatment deltas" in t for t in titles)
        assert any("CDF" in t for t in titles)


class TestCli:
    def test_fleet_command_smoke(self, capsys):
        rc = main(["fleet", "--users", "4", "--workers", "1",
                   "--shard-size", "2", "--permutation-rounds", "10"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "digest=" in out
        assert "workers=1/1" in out
        assert "sp" in out and "xlink" in out

    def test_fleet_rejects_unknown_scheme(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fleet", "--users", "2", "--schemes", "sp", "warp"])
        assert exc.value.code == 2
