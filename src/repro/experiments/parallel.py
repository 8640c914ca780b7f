"""Parallel experiment fan-out.

Every experiment in this repository decomposes into *independent*
discrete-event sessions: each one builds its own :class:`EventLoop`,
network and endpoints from a ``(spec, seed)`` pair and never touches
another session's state.  That makes the population drivers (the
Fig. 11 A/B day, threshold sweeps, mobility replays, path experiments)
embarrassingly parallel -- the same reason Mahimahi-style emulation
farms run one shell per experiment.

Two executors, one fleet fold
-----------------------------

:class:`_WarmWorkers` is the only parallel machinery.  It forks one
worker per slot and keeps it for the whole run, streams work items
down a long-lived duplex pipe, and reports what became of each item --
a value, an exception, a dead worker (pipe EOF), a missed deadline (the
worker is killed) -- as events.  A slot emptied by a crash or a kill is
refilled by a fresh fork when work next needs it; a healthy worker is
reused for every later item.  :class:`_InlineWorker` has the same
surface over one slot in this process.

- :func:`fan_out` collects the events in submission order and re-raises
  the first job exception, so a parallel run is **bit-identical** to
  the serial loop it replaces (and runs, when ``workers`` resolves to
  1, when there is at most one job, or when the platform cannot
  ``fork``).  :class:`SessionTask` is the picklable description of one
  session, and :func:`run_session_tasks` returns, in process, the
  plain-data :class:`SessionOutcome` of each (per-session values: the list
  reference the population sinks are tested against).
- :func:`run_fleet`, the path of every population statistic (an A/B
  day is its small-N case), reduces *inside* the worker instead: its
  shard body (``execute``, by default :func:`execute_shard`) folds a
  slice of tasks into one :class:`~repro.metrics.sink.MetricSink`, so
  only a :class:`ShardResult` (O(buckets)) crosses the process
  boundary, and the parent's fold over the events is "validate, merge
  into the sink, retry with backoff, quarantine".  That fold is the
  same over both executors: :class:`_InlineWorker` when ``workers``
  resolves to 1 or the platform cannot ``fork``, :class:`_WarmWorkers`
  otherwise.  Sink merge is associative, commutative and exactly
  order-independent, so the merged digest is **identical** to the
  serial run's, whatever the completion order.

Workers inherit the parent's imports and the job callable through
fork; spawn would cost an interpreter boot per worker, so a platform
without fork stays in-process instead.

Determinism contract
--------------------

Each task carries its own fully-derived seed (the caller derives it
from the experiment seed exactly as the serial code did), so a worker
reconstructs the identical RNG streams no matter which process it runs
in.  No global state crosses sessions: a session builds its own event
loop, network and RNGs and reads nothing another session wrote.
``tests/test_parallel.py`` guards the contract: serial and parallel A/B
days must produce identical metrics.

Shard supervision
-----------------

At ~90 minutes per 100K-user day, a single OOM-killed worker or hung
shard must not void the run.  :func:`run_fleet` re-executes crashed,
timed-out (``shard_timeout_s``), raising and corrupted shards with
bounded retries, the n-th retry ``RETRY_BACKOFF_S * 2^(n-1)`` after
the failure, in-process as in workers.  A retry re-runs the shard
**from its task list** -- never from a partial sink -- so it folds in
bit-identically and cannot double-count.  After ``max_retries`` failed
attempts a shard is *quarantined*: its tasks are tallied as
``ShardAbandoned`` per scheme in the merged sink instead of voiding
the run.  A process cannot kill itself at a deadline, so
``shard_timeout_s`` holds only over workers.  Workers ignore
``SIGINT``, so a Ctrl-C reaches the parent alone: it terminates and
joins every slot (no orphaned children) and returns the
partially-folded result with ``interrupted=True``.  Nothing here
injects faults: ``repro.experiments.fleetchaos`` scripts them as a
shard body passed to ``run_fleet(execute=...)`` (``make
fleet-chaos``).
"""

from __future__ import annotations

import math
import os
import signal
import time
from dataclasses import dataclass, field
from itertools import islice
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

from repro.experiments.harness import PathSpec, run_video_session
from repro.host.specs import SchemeLike, scheme_name
from repro.metrics.qoe import SessionMetrics
from repro.metrics.sink import MetricSink
from repro.video import PlayerConfig
from repro.video.media import Video

__all__ = [
    "SessionTask",
    "SessionOutcome",
    "ShardResult",
    "FleetResult",
    "available_workers",
    "resolve_workers",
    "fan_out",
    "execute_session_task",
    "run_session_tasks",
    "execute_shard",
    "iter_shards",
    "validate_shard_result",
    "run_fleet",
    "DEFAULT_SHARD_SIZE",
    "DEFAULT_MAX_RETRIES",
    "RETRY_BACKOFF_S",
    "ABANDONED_KIND",
]


def available_workers() -> int:
    """Number of workers ``workers=None`` resolves to (``os.cpu_count``)."""
    return max(os.cpu_count() or 1, 1)


def resolve_workers(workers: Optional[int]) -> int:
    """Map the public ``workers`` argument to a concrete worker count."""
    if workers is None or workers <= 0:
        return available_workers()
    return int(workers)


def _fork_available() -> bool:
    # ``os.fork`` exists exactly where multiprocessing offers "fork";
    # asking multiprocessing would import it into in-process runs.
    return hasattr(os, "fork")


@dataclass
class _Slot:
    """One worker seat: a live process, or ``None`` until work needs it."""

    proc: Any = None
    conn: Any = None
    #: index of the work item the worker holds, ``None`` when idle
    index: Optional[int] = None
    deadline: float = math.inf
    #: a crash or deadline kill emptied the seat: its next fork is a refill
    vacated: bool = False


def _worker_main(conn, call: Callable[[Any], Any]) -> None:
    """Warm-worker loop: answer every work item until EOF.

    Only the work itself is guarded, and only against ``Exception``: a
    ``SystemExit`` or a broken pipe ends the worker, which the parent
    sees as EOF.  ``SIGINT`` is ignored: Ctrl-C is the parent's to handle.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            work = conn.recv()
        except EOFError:
            return
        t0 = time.perf_counter()
        try:
            kind, value = "ok", call(work)
        except Exception as exc:  # noqa: BLE001 - reported, not hidden
            kind, value = "error", exc
        conn.send((kind, value, time.perf_counter() - t0))


class _WarmWorkers:
    """Supervised executor: ``n_workers`` slots, one forked worker each.

    :meth:`submit` hands a work item to an idle slot, forking its worker
    on first use and again after a crash or deadline kill; :meth:`wait`
    blocks until something happened to an item and returns ``(index,
    kind, value, pid, seconds)`` events: kind "ok" with the result,
    "error" with the exception the work raised, "crash" (the worker died
    without answering) or "timeout" (it was killed at its deadline);
    ``seconds`` is the worker-side time spent in the item.  ``call`` is
    inherited through fork, so it need not be picklable; work items,
    results and raised exceptions must be.
    """

    def __init__(self, call: Callable[[Any], Any], n_workers: int,
                 timeout_s: Optional[float] = None) -> None:
        self.call = call
        self.timeout_s = math.inf if timeout_s is None else timeout_s
        self.slots = [_Slot() for _ in range(n_workers)]
        self.respawns = 0
        # Imported here, where a worker is forked: an in-process run
        # never loads multiprocessing (~1.4 MB of RSS).
        import multiprocessing.connection
        self._ctx = multiprocessing.get_context("fork")
        self._wait = multiprocessing.connection.wait

    def idle(self) -> int:
        return sum(slot.index is None for slot in self.slots)

    def submit(self, index: int, work: Any) -> None:
        """Send one item to an idle slot, a live worker if there is one."""
        slot = min((s for s in self.slots if s.index is None),
                   key=lambda s: s.proc is None)
        if slot.proc is None:
            slot.conn, child_conn = self._ctx.Pipe()
            slot.proc = self._ctx.Process(
                target=_worker_main, args=(child_conn, self.call),
                daemon=True)
            slot.proc.start()
            child_conn.close()
            self.respawns += slot.vacated
        slot.index = index
        slot.deadline = time.monotonic() + self.timeout_s
        try:
            slot.conn.send(work)
        except OSError:
            pass  # the worker died idle: wait() reports the EOF as a crash

    def wait(self, until: float = math.inf) -> List[tuple]:
        """Events of the busy slots; returns empty-handed at ``until``."""
        busy = {s.conn: s for s in self.slots if s.index is not None}
        wakeup = min([until] + [s.deadline for s in busy.values()])
        timeout = (None if wakeup == math.inf
                   else max(0.0, wakeup - time.monotonic()))
        events = []
        for conn in self._wait(list(busy), timeout):
            slot = busy.pop(conn)
            try:
                kind, value, seconds = conn.recv()
            except (EOFError, OSError):
                # EOF without an answer: the worker died (OOM kill,
                # a hard exit, segfault) holding this item.
                events.append((slot.index, "crash", None, 0, 0.0))
                self._vacate(slot)
            else:
                events.append((slot.index, kind, value, slot.proc.pid,
                               seconds))
                slot.index = None
        now = time.monotonic()
        for slot in busy.values():
            if now >= slot.deadline:
                events.append((slot.index, "timeout", None, 0, 0.0))
                self._vacate(slot)
        return events

    def _vacate(self, slot: _Slot) -> None:
        """Kill a slot's worker without leaving a zombie behind."""
        slot.proc.kill()
        slot.proc.join()
        slot.conn.close()
        slot.proc = slot.conn = slot.index = None
        slot.vacated = True

    def close(self) -> None:
        """Kill and join every worker; no child outlives this."""
        for slot in self.slots:
            if slot.proc is not None:
                self._vacate(slot)


class _InlineWorker:
    """:class:`_WarmWorkers`' surface over one slot in this process.

    :meth:`submit` runs the item there and then; :meth:`wait` returns
    its event, or, holding none, sleeps until ``until``.  A process
    cannot kill itself at a deadline, so none is enforced, and no slot
    is ever refilled.
    """

    respawns = 0

    def __init__(self, call: Callable[[Any], Any]) -> None:
        self.call = call
        self.events: List[tuple] = []

    def idle(self) -> int:
        return 0 if self.events else 1

    def submit(self, index: int, work: Any) -> None:
        t0 = time.perf_counter()
        try:
            kind, value = "ok", self.call(work)
        except Exception as exc:  # noqa: BLE001 - reported, not hidden
            kind, value = "error", exc
        self.events.append((index, kind, value, os.getpid(),
                            time.perf_counter() - t0))

    def wait(self, until: float = math.inf) -> List[tuple]:
        if not self.events:
            time.sleep(max(0.0, until - time.monotonic()))
        events, self.events = self.events, []
        return events

    def close(self) -> None:
        self.events = []


def fan_out(fn: Callable[..., Any], kwargs_list: Sequence[Dict[str, Any]],
            workers: Optional[int] = None) -> List[Any]:
    """Run ``fn(**kwargs)`` for every dict, preserving submission order.

    Kwargs, return values and raised exceptions must be picklable; the
    first job exception to come back is re-raised here.  ``workers``
    follows the repo-wide convention: ``None``/``0`` means
    ``os.cpu_count()``, ``1`` forces the in-process serial path.
    """
    jobs = list(kwargs_list)
    # An explicit count is honored even above os.cpu_count() (a small
    # container may still want real processes), up to one per job.
    n_workers = min(resolve_workers(workers), len(jobs))
    if n_workers <= 1 or not _fork_available():
        return [fn(**kwargs) for kwargs in jobs]
    results: List[Any] = [None] * len(jobs)
    todo = iter(enumerate(jobs))
    done = 0
    pool = _WarmWorkers(lambda kwargs: fn(**kwargs), n_workers)
    try:
        while done < len(jobs):
            for index, kwargs in islice(todo, pool.idle()):
                pool.submit(index, kwargs)
            for index, kind, value, _pid, _seconds in pool.wait():
                if kind == "error":
                    raise value
                if kind != "ok":
                    raise RuntimeError(f"job {index}: worker died")
                results[index] = value
                done += 1
    finally:
        pool.close()
    return results


@dataclass
class SessionTask:
    """Picklable spec for one independent simulated session.

    ``key`` is an opaque caller-side handle (e.g. ``(user, scheme)``)
    echoed back on the outcome so results can be re-grouped without
    relying on list positions.  ``scheme`` is the scheme itself, a
    :class:`~repro.host.specs.SchemeConfig` value pickled with the task
    (a sweep point, an ablation, a scheme x CC arm), or the name of one
    of the paper's arms; outcome, sink and tallies are keyed by its name.
    """

    key: Any
    scheme: SchemeLike
    paths: List[PathSpec]
    video: Optional[Video] = None
    player_config: Optional[PlayerConfig] = None
    timeout_s: float = 120.0
    seed: int = 0


@dataclass
class SessionOutcome:
    """The picklable subset of ``SessionResult`` population drivers use."""

    key: Any
    scheme: str
    completed: bool
    duration_s: float
    metrics: SessionMetrics
    reinjected_bytes: int = 0
    new_stream_bytes: int = 0


def execute_session_task(task: SessionTask) -> SessionOutcome:
    """Worker entry point: play one session, return plain data only."""
    result = run_video_session(
        task.scheme, task.paths, video=task.video,
        player_config=task.player_config, timeout_s=task.timeout_s,
        seed=task.seed)
    return SessionOutcome(
        key=task.key, scheme=result.scheme, completed=result.completed,
        duration_s=result.duration_s, metrics=result.metrics,
        reinjected_bytes=result.reinjected_bytes,
        new_stream_bytes=result.new_stream_bytes)


def run_session_tasks(tasks: Sequence[SessionTask]) -> List[SessionOutcome]:
    """Execute tasks in this process, in task order: the per-session
    reference a fleet's merged sinks are held to."""
    return [execute_session_task(task) for task in tasks]


# ---------------------------------------------------------------------------
# fleet tier: shard-level reduction
# ---------------------------------------------------------------------------

#: Tasks per shard.  Big enough that shard dispatch overhead (one
#: pickle round trip over a warm worker's pipe, ~0.3 ms) is noise
#: against ~30 ms/session DES work and that a retry has something to
#: re-run, small enough that 10K tasks still spread over >100 shards.
DEFAULT_SHARD_SIZE = 64

#: Re-execution attempts granted to a failed/timed-out/lost shard
#: before it is quarantined into the abandoned tallies.
DEFAULT_MAX_RETRIES = 2

#: Base of the exponential retry backoff: the n-th retry of a shard
#: waits ``RETRY_BACKOFF_S * 2^(n-1)`` after its failure.
RETRY_BACKOFF_S = 0.25

#: Failure kind recorded (per scheme, per task) in the merged sink when
#: a shard exhausts its retries and is quarantined.
ABANDONED_KIND = "ShardAbandoned"


@dataclass
class ShardResult:
    """What one worker returns for a whole slice of tasks.

    This -- not a list of per-session outcomes -- is the only thing
    crossing the process boundary in a fleet run; its size is
    O(schemes x sketch buckets) regardless of how many sessions the
    shard executed.
    """

    sink: MetricSink
    tasks: int = 0
    #: execution failures, keyed by exception type name
    failures: Dict[str, int] = field(default_factory=dict)


def execute_shard(tasks: Sequence[SessionTask]) -> ShardResult:
    """Worker entry point: run a task slice, reduce locally.

    A task that raises is tallied (per exception type, and per scheme
    inside the sink) instead of poisoning the whole shard -- at 10K
    users a single pathological parameter draw must not void the run.
    """
    result = ShardResult(sink=MetricSink())
    for task in tasks:
        result.tasks += 1
        try:
            outcome = execute_session_task(task)
        except Exception as exc:  # noqa: BLE001 - tallied, not hidden
            kind = type(exc).__name__
            result.failures[kind] = result.failures.get(kind, 0) + 1
            result.sink.observe_failure(scheme_name(task.scheme), kind)
            continue
        result.sink.observe(outcome)
    return result


def iter_shards(tasks: Iterable[SessionTask],
                shard_size: int = DEFAULT_SHARD_SIZE
                ) -> Iterator[List[SessionTask]]:
    """Lazily slice a task iterable into shard-sized lists."""
    if shard_size <= 0:
        raise ValueError(f"shard_size must be positive, got {shard_size}")
    it = iter(tasks)
    while True:
        shard = list(islice(it, shard_size))
        if not shard:
            return
        yield shard


@dataclass
class FleetResult:
    """Merged outcome of a (possibly sharded, supervised) fleet run.

    ``failures`` are *per-task* execution failures tallied inside
    healthy shards; ``shard_faults`` are *supervision-level* events --
    worker crashes, deadline kills (``timeout``), shard-body exception
    type names, and ``corrupt`` result rejections -- each of which
    triggered a retry or, past the budget, abandonment.
    """

    sink: MetricSink
    tasks: int = 0
    shards: int = 0
    workers_requested: int = 1
    #: distinct processes that returned at least one accepted shard
    workers_effective: int = 1
    failures: Dict[str, int] = field(default_factory=dict)
    #: shard re-executions granted (one per retryable fault)
    retries: int = 0
    #: worker slots refilled by a fresh fork after a crash or deadline kill
    respawns: int = 0
    #: seconds the run took, and seconds workers spent inside shard
    #: attempts; ``busy_s / (workers_effective * wall_s)`` is utilisation
    wall_s: float = 0.0
    busy_s: float = 0.0
    #: shards quarantined after exhausting their retry budget
    abandoned_shards: int = 0
    #: tasks inside those shards (tallied as ABANDONED_KIND in the sink)
    abandoned_tasks: int = 0
    #: supervision fault tallies, keyed by kind
    shard_faults: Dict[str, int] = field(default_factory=dict)
    #: True when a KeyboardInterrupt cut the run short (partial fold)
    interrupted: bool = False

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def ok(self) -> bool:
        """Every session ran, nothing abandoned, nothing cut short."""
        return (not self.failed and not self.abandoned_shards
                and not self.interrupted)


def validate_shard_result(result: Any, expected_tasks: int
                          ) -> Optional[str]:
    """Check a worker's returned payload; ``None`` if sound.

    A shard result that crosses a process boundary is untrusted input
    to the merge: a worker dying mid-pickle, a fault injector, or a
    harness bug can hand back garbage that would silently skew a
    population merge.  Returns a human-readable defect description so
    the supervisor can treat the shard as failed (and retry it).
    """
    if not isinstance(result, ShardResult):
        return f"not a ShardResult: {type(result).__name__}"
    if not isinstance(result.sink, MetricSink):
        return f"sink is not a MetricSink: {type(result.sink).__name__}"
    if result.tasks != expected_tasks:
        return (f"task count {result.tasks} != shard size "
                f"{expected_tasks}")
    if not isinstance(result.failures, dict) or not all(
            isinstance(k, str) and isinstance(v, int) and v >= 0
            for k, v in result.failures.items()):
        return "malformed failure tally"
    accounted = result.sink.sessions + sum(result.failures.values())
    if accounted != expected_tasks:
        return (f"sessions+failures {accounted} != shard size "
                f"{expected_tasks}")
    return None


@dataclass
class _ShardAttempt:
    """Fold bookkeeping for one shard across its attempts."""

    index: int
    tasks: List[SessionTask]
    attempt: int = 0
    #: wall-clock gate for the next launch (exponential backoff)
    ready_at: float = 0.0


#: ``execute(shard_index, attempt, tasks)``: what runs one shard
ShardBody = Callable[[int, int, List[SessionTask]], ShardResult]


def _shard_body(shard_index: int, attempt: int,
                tasks: List[SessionTask]) -> ShardResult:
    """The default ``run_fleet`` shard body.  It looks ``execute_shard``
    up in this module's globals at call time, so a wrapper patched in
    there is what runs."""
    return execute_shard(tasks)


def _merge_shard(result: FleetResult, shard_result: ShardResult) -> None:
    result.sink.merge(shard_result.sink)
    result.tasks += shard_result.tasks
    result.shards += 1
    for kind, n in shard_result.failures.items():
        result.failures[kind] = result.failures.get(kind, 0) + n


def _fold(pool: Any, shards: Iterator[List[SessionTask]],
          result: FleetResult, max_retries: int) -> None:
    """The fleet fold over either executor.

    Every idle slot gets the most-cooled retry whose backoff has run
    out, else the next fresh shard.  Each attempt ends in one of three
    states:

    - **folded** -- the validated result merged into the sink;
    - **retrying** -- a retryable fault (crash, timeout, raise,
      corrupt) consumed one unit of the retry budget; the shard
      re-enters the queue after exponential backoff, re-run from its
      original task list so the fold stays bit-identical;
    - **abandoned** -- the budget is exhausted; every task in the
      shard is tallied as :data:`ABANDONED_KIND` under its scheme so
      the loss is visible in the merged sink, the CLI and the report.
    """
    fresh = (_ShardAttempt(index, tasks) for index, tasks in enumerate(shards))
    inflight: Dict[int, _ShardAttempt] = {}
    cooling: List[_ShardAttempt] = []
    accepted_pids = set()
    try:
        while True:
            now = time.monotonic()
            for _ in range(pool.idle()):
                spec = min(cooling, key=lambda s: s.ready_at, default=None)
                if spec is not None and spec.ready_at <= now:
                    cooling.remove(spec)
                else:
                    spec = next(fresh, None)
                    if spec is None:
                        break
                inflight[spec.index] = spec
                pool.submit(spec.index,
                            (spec.index, spec.attempt, spec.tasks))
            if not inflight and not cooling:
                break
            until = min((s.ready_at for s in cooling), default=math.inf)
            for index, kind, value, pid, seconds in pool.wait(until=until):
                spec = inflight.pop(index)
                result.busy_s += seconds
                if kind == "ok":
                    if validate_shard_result(value, len(spec.tasks)) is None:
                        _merge_shard(result, value)
                        accepted_pids.add(pid)
                        continue
                    kind = "corrupt"
                elif kind == "error":
                    kind = type(value).__name__
                result.shard_faults[kind] = \
                    result.shard_faults.get(kind, 0) + 1
                if spec.attempt >= max_retries:
                    result.abandoned_shards += 1
                    result.abandoned_tasks += len(spec.tasks)
                    for task in spec.tasks:
                        result.sink.observe_failure(scheme_name(task.scheme),
                                                    ABANDONED_KIND)
                    continue
                result.retries += 1
                spec.attempt += 1
                spec.ready_at = time.monotonic() + \
                    RETRY_BACKOFF_S * 2 ** (spec.attempt - 1)
                cooling.append(spec)
    except KeyboardInterrupt:
        result.interrupted = True
    finally:
        pool.close()
    result.workers_effective = len(accepted_pids)
    result.respawns = pool.respawns


def run_fleet(tasks: Iterable[SessionTask],
              sink: Optional[MetricSink] = None,
              workers: Optional[int] = None,
              shard_size: int = DEFAULT_SHARD_SIZE,
              max_retries: int = DEFAULT_MAX_RETRIES,
              shard_timeout_s: Optional[float] = None,
              execute: Optional[ShardBody] = None) -> FleetResult:
    """Supervised reduce-style fleet execution: tasks -> shards -> sink.

    ``tasks`` may be (and for large populations should be) a lazy
    generator; the parent materializes only in-flight and
    awaiting-retry shards, and workers never return per-session
    outcomes, so memory stays bounded by ``workers * shard_size``
    tasks plus the O(buckets) sinks.  ``workers`` follows the
    repo-wide convention (``None``/``0`` = ``os.cpu_count()``, ``1`` =
    in-process).

    ``execute(shard_index, attempt, tasks)`` is the shard body; ``None``
    runs :func:`execute_shard`.  Supervision (module
    docstring): each shard gets ``max_retries`` re-executions, with
    :data:`RETRY_BACKOFF_S`-based exponential backoff, after a worker
    crash, a ``shard_timeout_s`` deadline kill (workers only), an
    exception out of ``execute``, or a corrupted result, and is then
    quarantined.  Serial, sharded and fault-retried runs of one task
    stream produce identical merged digests whenever every fault was
    retryable.
    """
    n_workers = resolve_workers(workers)
    result = FleetResult(sink=sink if sink is not None else MetricSink(),
                         workers_requested=n_workers)

    body = execute if execute is not None else _shard_body

    def call(work: Tuple[int, int, List[SessionTask]]) -> ShardResult:
        return body(*work)

    if n_workers <= 1 or not _fork_available():
        pool: Any = _InlineWorker(call)
    else:
        pool = _WarmWorkers(call, n_workers, shard_timeout_s)
    t0 = time.perf_counter()
    _fold(pool, iter_shards(tasks, shard_size), result, max_retries)
    result.wall_s = time.perf_counter() - t0
    return result
