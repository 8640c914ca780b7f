"""Tests for the parallel experiment runner.

The load-bearing guarantee is the determinism contract: fanning
sessions out over a process pool must produce *bit-identical* results
to the serial loop, because every task carries a fully-derived seed and
outcomes are reassembled in submission order.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.experiments.abtest import (ABTestConfig, iter_ab_day_tasks,
                                      run_ab_day)
from repro.experiments.parallel import (SessionTask, available_workers,
                                        execute_session_task, fan_out,
                                        resolve_workers, run_fleet,
                                        run_session_tasks)
from repro.core import ThresholdConfig
from repro.experiments.harness import SCHEMES, PathSpec
from repro.traces.radio_profiles import RadioType


def _small_cfg(**overrides) -> ABTestConfig:
    defaults = dict(users_per_day=4, days=1, video_duration_s=4.0,
                    seed=11)
    defaults.update(overrides)
    return ABTestConfig(**defaults)


def _square(x):
    return x * x


def _pid(x):
    return os.getpid()


def _slow_when_early(x):
    time.sleep(0.3 if x < 2 else 0.0)
    return x


def _sleep(x):
    time.sleep(x)


def _sigint_self(x):
    os.kill(os.getpid(), signal.SIGINT)
    return x


def _raise_on_three(x):
    if x == 3:
        raise KeyError(f"job {x}")
    return x


class TestFanOut:
    def test_preserves_order_serial(self):
        jobs = [{"x": i} for i in range(10)]
        assert fan_out(_square, jobs, workers=1) == [i * i for i in range(10)]

    def test_preserves_order_parallel(self):
        jobs = [{"x": i} for i in range(10)]
        assert fan_out(_square, jobs, workers=3) == [i * i for i in range(10)]

    def test_empty_job_list(self):
        assert fan_out(_square, [], workers=4) == []

    def test_workers_are_forked_once_and_reused(self):
        pids = fan_out(_pid, [{"x": i} for i in range(8)], workers=2)
        assert len(set(pids)) == 2
        assert os.getpid() not in pids
        assert multiprocessing.active_children() == []

    def test_submission_order_when_early_jobs_are_slow(self):
        jobs = [{"x": i} for i in range(6)]
        assert fan_out(_slow_when_early, jobs, workers=2) == list(range(6))

    def test_job_exception_reraised_in_parent_and_workers_reaped(self):
        with pytest.raises(KeyError, match="job 3"):
            fan_out(_raise_on_three, [{"x": i} for i in range(8)],
                    workers=2)
        assert multiprocessing.active_children() == []

    def test_workers_ignore_sigint(self):
        jobs = [{"x": i} for i in range(4)]
        assert fan_out(_sigint_self, jobs, workers=2) == list(range(4))

    def test_keyboard_interrupt_in_parent_reaps_workers(self):
        def raise_ki(_signum, _frame):
            raise KeyboardInterrupt

        previous = signal.signal(signal.SIGALRM, raise_ki)
        signal.alarm(1)
        try:
            with pytest.raises(KeyboardInterrupt):
                fan_out(_sleep, [{"x": 30.0}] * 2, workers=2)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert multiprocessing.active_children() == []

    def test_resolve_workers(self):
        assert resolve_workers(1) == 1
        assert resolve_workers(3) == 3
        assert resolve_workers(None) == available_workers()
        assert resolve_workers(0) == available_workers()


class TestSeedStability:
    """The same ABTestConfig seed => the identical day sink, however the
    day was executed (the determinism contract of the runner)."""

    def test_ab_day_serial_vs_parallel_identical(self):
        cfg = _small_cfg()
        schemes = ["sp", "xlink"]
        serial = run_ab_day(cfg, 1, schemes, workers=1)
        assert serial.sessions == 8 and serial.failed == 0
        assert run_ab_day(cfg, 1, schemes, workers=2).digest() \
            == serial.digest()
        # run_ab_day derives its shard size; pin the digest across
        # explicit ones too, down to one session per shard.
        for workers in (1, 2):
            for shard_size in (1, 3):
                fleet = run_fleet(iter_ab_day_tasks(cfg, 1, schemes),
                                  workers=workers, shard_size=shard_size)
                assert fleet.ok and fleet.shards == -(-8 // shard_size)
                assert fleet.sink.digest() == serial.digest(), \
                    (workers, shard_size)
        assert multiprocessing.active_children() == []

    def test_ad_hoc_scheme_value_crosses_the_fork(self):
        # a variant exists nowhere but in the tasks that carry it, so a
        # forked worker must get it from there -- and agree with serial
        cfg = _small_cfg(users_per_day=3)
        variant = dataclasses.replace(
            SCHEMES["xlink"], name="_adhoc",
            thresholds=ThresholdConfig(t_th1=0.2, t_th2=0.9))
        serial = run_ab_day(cfg, 1, ["sp", variant], workers=1)
        assert sorted(serial.schemes) == ["_adhoc", "sp"]
        assert serial.schemes["_adhoc"].sessions == 3
        assert run_ab_day(cfg, 1, ["sp", variant], workers=2).digest() \
            == serial.digest()
        # the thresholds are in the value: the default pair differs
        named = dataclasses.replace(SCHEMES["xlink"], name="_adhoc")
        assert run_ab_day(cfg, 1, ["sp", named], workers=1).digest() \
            != serial.digest()
        assert "_adhoc" not in SCHEMES

    def test_ab_day_serial_is_repeatable(self):
        cfg = _small_cfg()
        a = run_ab_day(cfg, 1, ["sp"], workers=1)
        b = run_ab_day(cfg, 1, ["sp"], workers=1)
        assert a.digest() == b.digest()

    def test_task_seeds_do_not_depend_on_scheme_order(self):
        cfg = _small_cfg()
        ab = iter_ab_day_tasks(cfg, 1, ["sp", "xlink"])
        ba = iter_ab_day_tasks(cfg, 1, ["xlink", "sp"])
        seeds_ab = {t.key: t.seed for t in ab}
        seeds_ba = {t.key: t.seed for t in ba}
        assert seeds_ab == seeds_ba

    def test_failing_session_fails_the_day(self):
        # run_fleet tallies a raising session; a figure must not be
        # drawn from the survivors, so the A/B driver raises -- serial
        # and forked alike -- as fan_out's re-raise used to.
        cfg = _small_cfg(users_per_day=2)
        for workers in (1, 2):
            with pytest.raises(RuntimeError, match="KeyError"):
                run_ab_day(cfg, 1, ["sp", "no_such_scheme"],
                           workers=workers)
        assert multiprocessing.active_children() == []


class TestSessionTasks:
    def _task(self, key=0, seed=5) -> SessionTask:
        paths = [PathSpec(net_path_id=0, radio=RadioType.WIFI,
                          one_way_delay_s=0.010, rate_bps=8e6)]
        return SessionTask(key=key, scheme="sp", paths=paths,
                           timeout_s=30.0, seed=seed)

    def test_outcome_matches_across_workers(self):
        serial = run_session_tasks([self._task()])[0]
        parallel = fan_out(execute_session_task,
                           [{"task": self._task()},
                            {"task": self._task(key=1)}], workers=2)
        assert serial.completed
        assert parallel[0].metrics == serial.metrics
        assert parallel[0].key == 0 and parallel[1].key == 1

    def test_unknown_scheme_rejected(self):
        task = self._task()
        task.scheme = "nope"
        with pytest.raises(KeyError):
            run_session_tasks([task])

    def test_outcomes_are_plain_data(self):
        import pickle
        outcome = run_session_tasks([self._task()])[0]
        assert pickle.loads(pickle.dumps(outcome)) == outcome


def test_an_in_process_fold_never_imports_multiprocessing():
    """``workers=1`` never forks, so it must not pay for loading
    multiprocessing (~1.4 MB of RSS); a fresh interpreter shows it."""
    code = textwrap.dedent("""
        import sys
        from repro.experiments import contention
        from repro.experiments.fleet import (ABPopulationDriver,
                                             FleetConfig, run_fleet_driver)
        run = run_fleet_driver(ABPopulationDriver(FleetConfig(users=2,
                                                              seed=5)),
                               workers=1)
        assert run.result.tasks == 2 and run.result.ok, run.result
        assert "multiprocessing" not in sys.modules
    """)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
