"""Fleet shard supervision: retries, deadlines, quarantine, interrupts.

The contract under test (the robustness analog of the determinism
suite in ``test_fleet.py``): a supervised run survives worker death,
hangs, shard-body exceptions and corrupted results; every retryable
fault folds back in **bit-identically** (retries re-run from the task
list, never a partial sink); faults that exhaust the retry budget
quarantine the shard into honest ``abandoned`` tallies instead of
voiding the run; and Ctrl-C terminates all workers and returns the
partial fold.
"""

from __future__ import annotations

import multiprocessing
import os
import signal

import pytest

from repro.cli import _fleet_exit_code
from repro.experiments.fleet import (ABPopulationDriver, FleetConfig,
                                     run_fleet_driver)
from repro.experiments import parallel
from repro.experiments.fleetchaos import FaultInjected, FaultPlan
from repro.experiments.parallel import (ABANDONED_KIND, RETRY_BACKOFF_S,
                                        SessionTask, ShardResult,
                                        execute_shard, run_fleet,
                                        validate_shard_result)
from repro.metrics import MetricSink


def _cfg(users: int = 6, seed: int = 5) -> FleetConfig:
    return FleetConfig(users=users, seed=seed)


def _tasks(users: int = 6, seed: int = 5):
    return ABPopulationDriver(_cfg(users, seed)).task_iter()


def _clean_digest(users: int = 6, seed: int = 5, shard_size: int = 2) -> str:
    return run_fleet(_tasks(users, seed), workers=1,
                     shard_size=shard_size).sink.digest()


class TestFaultPlan:
    def test_explicit_shards_win(self):
        plan = FaultPlan({0: "crash", 1: "hang", 2: "raise", 3: "corrupt"})
        assert [plan.fires(i, 0) for i in range(5)] \
            == ["crash", "hang", "raise", "corrupt", None]

    def test_fires_only_on_first_attempt_unless_sticky(self):
        plan = FaultPlan({0: "crash"})
        assert plan.fires(0, 0) == "crash"
        assert plan.fires(0, 1) is None
        sticky = FaultPlan({0: "crash"}, sticky=True)
        assert sticky.fires(0, 1) == "crash"


class TestValidateShardResult:
    def test_sound_result_passes(self):
        tasks = list(_tasks(users=2))
        result = execute_shard(tasks)
        assert validate_shard_result(result, len(tasks)) is None

    def test_rejects_wrong_types_and_counts(self):
        assert validate_shard_result("garbage", 1) is not None
        assert validate_shard_result(
            ShardResult(sink="nope", tasks=1), 1) is not None
        sound = execute_shard(list(_tasks(users=2)))
        assert validate_shard_result(sound, sound.tasks + 1) is not None

    def test_rejects_inconsistent_accounting(self):
        sound = execute_shard(list(_tasks(users=2)))
        # a failure tally that doesn't add up with sink sessions
        bad = ShardResult(sink=sound.sink, tasks=sound.tasks,
                          failures={"Boom": 5})
        assert validate_shard_result(bad, sound.tasks) is not None
        malformed = ShardResult(sink=sound.sink, tasks=sound.tasks,
                                failures={"Boom": -1})
        assert validate_shard_result(malformed, sound.tasks) is not None


class TestSerialSupervision:
    def test_fail_once_retry_digest_identical(self):
        clean = _clean_digest()
        plan = FaultPlan({0: "raise", 2: "raise"})
        result = run_fleet(_tasks(), workers=1, shard_size=2,
                           execute=plan)
        assert result.retries == 2
        assert result.shard_faults == {FaultInjected.__name__: 2}
        assert result.abandoned_shards == 0
        assert result.sink.digest() == clean

    def test_sticky_fault_quarantines_shard(self):
        plan = FaultPlan({1: "raise"}, sticky=True)
        result = run_fleet(_tasks(), workers=1, shard_size=2,
                           max_retries=1, execute=plan)
        assert result.abandoned_shards == 1
        assert result.abandoned_tasks == 2
        assert result.retries == 1
        assert result.tasks == 4  # the healthy shards still folded
        tallied = sum(s.failures.get(ABANDONED_KIND, 0)
                      for s in result.sink.schemes.values())
        assert tallied == 2
        assert not result.ok

    def test_serial_retry_waits_the_backoff(self):
        result = run_fleet(_tasks(users=2), workers=1, shard_size=2,
                           execute=FaultPlan({0: "raise"}))
        assert result.retries == 1
        assert result.wall_s >= RETRY_BACKOFF_S

    def test_abandoned_only_shard_counts_no_worker(self):
        # as in a worker run: no accepted shard, no effective worker
        result = run_fleet(_tasks(users=2), workers=1, shard_size=2,
                           max_retries=0,
                           execute=FaultPlan({0: "raise"}, sticky=True))
        assert result.abandoned_shards == 1
        assert result.workers_effective == 0


class TestPoolSupervision:
    def test_worker_crash_retried_digest_identical(self):
        clean = _clean_digest()
        plan = FaultPlan({1: "crash"})
        result = run_fleet(_tasks(), workers=2, shard_size=2,
                           execute=plan)
        assert result.shard_faults == {"crash": 1}
        assert result.retries == 1
        assert result.sink.digest() == clean
        assert result.workers_effective >= 2

    def test_hung_worker_killed_by_deadline_and_retried(self):
        clean = _clean_digest()
        plan = FaultPlan({0: "hang"}, hang_s=60.0)
        result = run_fleet(_tasks(), workers=2, shard_size=2,
                           shard_timeout_s=2.0, execute=plan)
        assert result.shard_faults == {"timeout": 1}
        assert result.sink.digest() == clean

    def test_corrupt_result_rejected_and_retried(self):
        clean = _clean_digest()
        plan = FaultPlan({2: "corrupt"})
        result = run_fleet(_tasks(), workers=2, shard_size=2,
                           execute=plan)
        assert result.shard_faults == {"corrupt": 1}
        assert result.sink.digest() == clean

    def test_sticky_crash_abandons_without_voiding_run(self):
        plan = FaultPlan({0: "crash"}, sticky=True)
        result = run_fleet(_tasks(), workers=2, shard_size=2,
                           max_retries=1, execute=plan)
        assert result.abandoned_shards == 1
        assert result.abandoned_tasks == 2
        assert result.tasks == 4
        assert not result.interrupted

    def test_keyboard_interrupt_reaps_workers_and_returns_partial(self):
        # A hung shard (no deadline) pins the supervisor in wait();
        # SIGALRM delivers the KeyboardInterrupt a real Ctrl-C would.
        plan = FaultPlan({2: "hang"}, hang_s=60.0, sticky=True)

        def raise_ki(_signum, _frame):
            raise KeyboardInterrupt

        previous = signal.signal(signal.SIGALRM, raise_ki)
        signal.alarm(3)
        try:
            result = run_fleet(_tasks(), workers=2, shard_size=2,
                               execute=plan)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert result.interrupted
        assert result.tasks < 6  # partial fold, honestly reported
        assert not result.ok
        assert multiprocessing.active_children() == []


class TestWarmWorkers:
    """Workers are forked once per slot and reused; only a crash or a
    deadline kill refills a slot (``tests/test_parallel.py`` checks the
    pids themselves through ``fan_out``)."""

    def test_shards_share_two_workers(self):
        result = run_fleet(_tasks(users=8), workers=2, shard_size=1)
        assert result.shards == 8
        assert result.workers_effective == 2
        assert result.respawns == 0
        assert 0.0 < result.busy_s <= 2 * result.wall_s
        assert multiprocessing.active_children() == []

    def test_crash_refills_the_slot_with_a_third_process(self):
        clean = _clean_digest(users=8, shard_size=1)
        # Both workers have folded a shard by the time shard 3 kills
        # one; shards 4..7 and the retry keep its replacement busy.
        plan = FaultPlan({3: "crash"})
        result = run_fleet(_tasks(users=8), workers=2, shard_size=1,
                           execute=plan)
        assert result.shard_faults == {"crash": 1}
        assert result.respawns == 1
        assert result.workers_effective == 3
        assert result.sink.digest() == clean
        assert multiprocessing.active_children() == []

    def test_hang_killed_at_deadline_leaves_no_child(self):
        plan = FaultPlan({1: "hang"}, hang_s=60.0)
        result = run_fleet(_tasks(), workers=2, shard_size=2,
                           shard_timeout_s=1.0, execute=plan)
        assert result.shard_faults == {"timeout": 1}
        assert result.wall_s < 30.0  # killed, not waited out
        assert result.sink.digest() == _clean_digest()
        assert multiprocessing.active_children() == []

    def test_one_worker_doing_all_the_work_counts_as_one(self):
        result = run_fleet(_tasks(), workers=2, shard_size=64)
        assert result.shards == 1
        assert result.workers_requested == 2
        assert result.workers_effective == 1

    def test_serial_run_reports_its_own_time(self):
        result = run_fleet(_tasks(users=2), workers=1)
        assert result.workers_effective == 1 and result.respawns == 0
        assert 0.0 < result.busy_s <= result.wall_s


class TestEdgeCases:
    def test_empty_task_stream(self):
        result = run_fleet(iter(()), workers=2)
        assert result.tasks == 0
        assert result.shards == 0
        assert result.ok
        assert result.sink.digest() == MetricSink().digest()

    def test_shard_size_one_digest_identical(self):
        assert _clean_digest(shard_size=1) == _clean_digest(shard_size=64)

    def test_all_failing_shard_still_folds(self):
        paths = next(iter(_tasks(users=1))).paths
        tasks = [SessionTask(key=(i, "nope"), scheme="nope", paths=paths)
                 for i in range(4)]
        result = run_fleet(iter(tasks), workers=1, shard_size=2)
        assert result.tasks == 4
        assert result.failed == 4
        assert result.failures == {"KeyError": 4}
        assert result.abandoned_shards == 0  # task fails are not faults

    @pytest.mark.parametrize("workers", [1, 2])
    def test_default_body_calls_the_module_execute_shard(
            self, monkeypatch, tmp_path, workers):
        # a wrapper patched over parallel.execute_shard (as the
        # benchmark's tracer does) is what both executors run; the log
        # is a file because forked workers share no memory with us
        log = tmp_path / "calls"

        def wrapped(tasks):
            with open(log, "a") as f:
                f.write(f"{len(tasks)}\n")
            return execute_shard(tasks)

        monkeypatch.setattr(parallel, "execute_shard", wrapped)
        result = run_fleet(_tasks(users=4), workers=workers, shard_size=2)
        assert result.shards == 2 and result.ok
        assert log.read_text().split() == ["2", "2"]

    def test_supervision_kwargs_pass_through_driver(self):
        plan = FaultPlan({0: "raise"})
        run = run_fleet_driver(ABPopulationDriver(_cfg(users=4)),
                               workers=1, shard_size=2, execute=plan)
        assert run.result.retries == 1


class TestExitCodes:
    def test_most_severe_wins(self):
        assert _fleet_exit_code(0, 0, False) == 0
        assert _fleet_exit_code(3, 0, False) == 3
        assert _fleet_exit_code(0, 1, False) == 4
        assert _fleet_exit_code(3, 1, False) == 4
        assert _fleet_exit_code(3, 1, True) == 130


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
class TestFaultWorkerIsolation:
    def test_injected_crash_does_not_kill_parent(self):
        # Regression guard for the fault injector itself: os._exit in
        # a worker must never run in the parent (asked for there, a
        # crash fault raises instead of exiting).
        plan = FaultPlan({0: "crash"}, sticky=True)
        result = run_fleet(_tasks(users=2), workers=1, shard_size=2,
                           max_retries=0, execute=plan)
        assert result.abandoned_shards == 1  # and we are still alive
        assert result.shard_faults == {FaultInjected.__name__: 1}
