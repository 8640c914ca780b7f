"""Parallel experiment fan-out.

Every experiment in this repository decomposes into *independent*
discrete-event sessions: each one builds its own :class:`EventLoop`,
network and endpoints from a ``(spec, seed)`` pair and never touches
another session's state.  That makes the population drivers (the
Fig. 11 A/B day, threshold sweeps, mobility replays, path experiments)
embarrassingly parallel -- the same reason Mahimahi-style emulation
farms run one shell per experiment.

Two layers:

- :func:`fan_out` -- ordered process-pool map of any *module-level*
  callable over a list of kwargs dicts.  Results come back in
  submission order regardless of which worker finished first, so a
  parallel run is **bit-identical** to the serial loop it replaces.
- :class:`SessionTask` / :func:`run_session_tasks` -- a picklable
  description of one video-session or bulk-download simulation plus a
  worker entry point that strips the (unpicklable) live objects out of
  :class:`~repro.experiments.harness.SessionResult`, returning only the
  plain-data :class:`SessionOutcome`.

Determinism contract
--------------------

Each task carries its own fully-derived seed (the caller derives it
from the experiment seed exactly as the serial code did), so a worker
reconstructs the identical RNG streams no matter which process it runs
in.  The only cross-session global is the debug-only ``dgram_id``
counter, which no metric reads.  ``tests/test_parallel.py`` guards the
contract: serial and parallel A/B days must produce identical metrics.

Dispatch is chunked (several tasks per worker round-trip) to amortize
pickling, and falls back to a plain in-process loop when
``workers`` resolves to 1, when there is at most one task, or when the
platform cannot ``fork`` (the pool relies on fork inheriting the
parent's imports and dynamically-registered schemes cheaply; spawn
would work for the built-in schemes but costs an interpreter boot per
worker, so we keep the fallback simple and serial instead).

Fleet tier
----------

The per-outcome path above returns one pickled ``SessionOutcome`` per
session, which is exactly right for the small-N drivers (they need
raw per-session lists) and exactly wrong at 10K users.  The fleet
tier reduces *inside* the worker instead: :func:`execute_shard` runs
a slice of tasks and folds every outcome into one
:class:`~repro.metrics.sink.MetricSink`, so only a
:class:`ShardResult` (sink + counters + failure tallies, O(buckets))
crosses the process boundary.  :func:`run_fleet` shards a task
*iterator* lazily and merges shard results as they complete; because
sink merge is associative, commutative and exactly order-independent
(fixed-point sums, pure bucket mapping), a sharded run's merged digest
is **identical** to the serial run's, whatever the completion order.

Shard supervision
-----------------

At ~90 minutes per 100K-user day, a single OOM-killed worker or hung
shard must not void the run.  :func:`run_fleet` therefore *supervises*
its shards instead of consuming a bare pool iterator: every shard
attempt runs in its own forked process with a one-shot result pipe,
the supervisor tracks in-flight deadlines (``shard_timeout_s``),
detects worker death (pipe EOF without a result), validates returned
:class:`ShardResult` payloads, and re-executes failed / timed-out /
lost / corrupted shards with bounded retries and exponential backoff.
A retry re-runs the shard **from its task list** -- never from a
partial sink -- and every task carries its fully-derived seed, so a
retried shard folds in bit-identically and cannot double-count.
After ``max_retries`` failed attempts a shard is *quarantined*: its
tasks are tallied as ``ShardAbandoned`` per scheme in the merged sink
and counted in ``FleetResult.abandoned_shards`` / ``abandoned_tasks``
instead of voiding the run.  ``KeyboardInterrupt`` terminates every
in-flight worker (no orphaned children) and returns the
partially-folded result with ``interrupted=True``.

:class:`FaultPlan` is the worker-fault analog of the transport tier's
``ChaosSchedule``: a seeded, scripted plan that makes selected shards
crash the worker process, hang past the deadline, raise, or return a
corrupted result -- the harness the supervisor invariants are soaked
against (``repro.experiments.fleetchaos``, ``make fleet-chaos``).
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import time
from dataclasses import dataclass, field
from itertools import islice
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

from repro.experiments.harness import (SCHEMES, PathSpec, SchemeConfig,
                                       run_bulk_download, run_video_session)
from repro.metrics.qoe import SessionMetrics
from repro.metrics.sink import MetricSink
from repro.traces.radio_profiles import RadioType
from repro.video import PlayerConfig
from repro.video.media import Video

__all__ = [
    "SessionTask",
    "SessionOutcome",
    "ShardResult",
    "FleetResult",
    "FaultPlan",
    "FaultInjected",
    "available_workers",
    "resolve_workers",
    "effective_workers",
    "fan_out",
    "execute_session_task",
    "run_session_tasks",
    "execute_shard",
    "iter_shards",
    "validate_shard_result",
    "run_fleet",
    "DEFAULT_SHARD_SIZE",
    "DEFAULT_MAX_RETRIES",
    "DEFAULT_RETRY_BACKOFF_S",
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


def effective_workers(workers: Optional[int], n_tasks: int) -> int:
    """Worker count :func:`fan_out` will *actually* use for a task list.

    This is the single source of truth for the pool-vs-serial decision,
    so callers that record worker counts (the perf benches) cannot
    drift from the dispatch behavior.  An explicitly requested count is
    honored even when ``os.cpu_count()`` is smaller -- workers are
    processes, and an experiment fan-out on a small container may still
    want real sharding -- but it is clamped to the task count, and the
    serial fallback applies when the resolved count is 1, there is at
    most one task, or the platform cannot fork.
    """
    n_workers = resolve_workers(workers)
    if n_workers <= 1 or n_tasks <= 1 or not _fork_available():
        return 1
    return min(n_workers, n_tasks)


def _fork_available() -> bool:
    try:
        return "fork" in multiprocessing.get_all_start_methods()
    except Exception:  # pragma: no cover - exotic platforms
        return False


def _invoke(job: Tuple[Callable[..., Any], Dict[str, Any]]) -> Any:
    fn, kwargs = job
    return fn(**kwargs)


def fan_out(fn: Callable[..., Any], kwargs_list: Sequence[Dict[str, Any]],
            workers: Optional[int] = None) -> List[Any]:
    """Run ``fn(**kwargs)`` for every dict, preserving submission order.

    ``fn`` must be a module-level callable (pickled by reference) and
    both its kwargs and return value must be picklable.  ``workers``
    follows the repo-wide convention: ``None``/``0`` means
    ``os.cpu_count()``, ``1`` forces the in-process serial path.
    """
    jobs = list(kwargs_list)
    n_workers = effective_workers(workers, len(jobs))
    if n_workers <= 1:
        return [fn(**kwargs) for kwargs in jobs]
    # ~4 dispatch rounds per worker balances pickling overhead
    # against tail latency from uneven session costs.
    tasks_per_round = max(1, len(jobs) // (n_workers * 4))
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(processes=n_workers) as pool:
        return pool.map(_invoke, [(fn, kwargs) for kwargs in jobs],
                        tasks_per_round)


@dataclass
class SessionTask:
    """Picklable spec for one independent simulated session.

    ``key`` is an opaque caller-side handle (e.g. ``(user, scheme)``)
    echoed back on the outcome so results can be re-grouped without
    relying on list positions.  ``scheme_config`` carries dynamically
    registered scheme variants (threshold sweeps, ACK-policy ablations)
    into the worker process, where they may not exist in the inherited
    ``SCHEMES`` registry.
    """

    key: Any
    scheme: str
    paths: List[PathSpec]
    video: Optional[Video] = None
    player_config: Optional[PlayerConfig] = None
    timeout_s: float = 120.0
    seed: int = 0
    primary_order: Optional[Sequence[RadioType]] = None
    kwargs: Dict[str, Any] = field(default_factory=dict)
    scheme_config: Optional[SchemeConfig] = None
    #: "video" plays ``video``; "bulk" downloads ``total_bytes``
    mode: str = "video"
    total_bytes: int = 0


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
    download_time_s: Optional[float] = None


def execute_session_task(task: SessionTask) -> SessionOutcome:
    """Worker entry point: run one session, return plain data only."""
    if task.scheme_config is not None and task.scheme not in SCHEMES:
        SCHEMES[task.scheme] = task.scheme_config
    if task.mode == "bulk":
        result = run_bulk_download(task.scheme, task.paths, task.total_bytes,
                                   timeout_s=task.timeout_s, seed=task.seed)
    elif task.mode == "video":
        result = run_video_session(
            task.scheme, task.paths, video=task.video,
            player_config=task.player_config, timeout_s=task.timeout_s,
            seed=task.seed, primary_order=task.primary_order, **task.kwargs)
    else:
        raise ValueError(f"unknown session task mode {task.mode!r}")
    return SessionOutcome(
        key=task.key, scheme=task.scheme, completed=result.completed,
        duration_s=result.duration_s, metrics=result.metrics,
        reinjected_bytes=result.reinjected_bytes,
        new_stream_bytes=result.new_stream_bytes,
        download_time_s=result.download_time_s)


def run_session_tasks(tasks: Sequence[SessionTask],
                      workers: Optional[int] = None
                      ) -> List[SessionOutcome]:
    """Execute tasks (parallel when ``workers`` allows), in task order."""
    return fan_out(execute_session_task, [{"task": t} for t in tasks],
                   workers=workers)


# ---------------------------------------------------------------------------
# fleet tier: shard-level reduction
# ---------------------------------------------------------------------------

#: Tasks per shard.  Big enough that shard dispatch overhead (one
#: fork + pickle round trip per shard) is noise against ~50ms/session
#: DES work, small enough that 10K tasks still spread over >100 shards.
DEFAULT_SHARD_SIZE = 64

#: Re-execution attempts granted to a failed/timed-out/lost shard
#: before it is quarantined into the abandoned tallies.
DEFAULT_MAX_RETRIES = 2

#: Base of the exponential retry backoff (pool mode only; the serial
#: path re-runs immediately -- there is no crashed worker to cool off).
DEFAULT_RETRY_BACKOFF_S = 0.25

#: Failure kind recorded (per scheme, per task) in the merged sink when
#: a shard exhausts its retries and is quarantined.
ABANDONED_KIND = "ShardAbandoned"

#: Exit code an injected worker crash dies with (``os._exit``).
_FAULT_EXIT_CODE = 86


class FaultInjected(RuntimeError):
    """Raised inside a worker by a :class:`FaultPlan` 'raise' fault."""


@dataclass(frozen=True)
class FaultPlan:
    """Scripted worker-fault plan for fleet shards.

    The experiment-infrastructure analog of the transport tier's
    ``ChaosSchedule`` (PR 3): a seeded, deterministic plan that makes
    selected shards misbehave *at the worker level* so the supervisor
    in :func:`run_fleet` can be tested against real process death:

    - **crash** -- the worker process dies with ``os._exit`` (the
      OOM-kill shape: no exception, no result, pipe EOF);
    - **hang** -- the worker sleeps ``hang_s`` before executing, so a
      ``shard_timeout_s`` deadline must kill it;
    - **raise** -- the worker raises :class:`FaultInjected` out of the
      shard body (a bug in harness code, as opposed to the per-task
      failures ``execute_shard`` already tallies);
    - **corrupt** -- the worker returns a :class:`ShardResult` whose
      accounting is inconsistent, which result validation must catch.

    Shards are selected either explicitly (``*_shards`` index tuples)
    or probabilistically: a per-shard RNG derived from
    ``(seed, shard index)`` draws once against the cumulative rates,
    so membership is a pure function of the shard index -- independent
    of execution order and of how many shards exist.

    By default a fault fires only on a shard's **first** attempt, so a
    retried shard succeeds and the run's merged digest must equal the
    fault-free digest.  ``sticky=True`` fires the fault on every
    attempt, driving the shard to abandonment (the non-retryable
    case).
    """

    seed: int = 0
    crash_rate: float = 0.0
    hang_rate: float = 0.0
    raise_rate: float = 0.0
    corrupt_rate: float = 0.0
    crash_shards: Tuple[int, ...] = ()
    hang_shards: Tuple[int, ...] = ()
    raise_shards: Tuple[int, ...] = ()
    corrupt_shards: Tuple[int, ...] = ()
    #: how long a hung worker sleeps (should exceed ``shard_timeout_s``)
    hang_s: float = 3600.0
    #: False: fault fires on attempt 0 only (retry succeeds);
    #: True: fault fires on every attempt (shard ends up abandoned).
    sticky: bool = False

    def fault_kind(self, shard_index: int) -> Optional[str]:
        """The fault class afflicting a shard, or ``None``."""
        if shard_index in self.crash_shards:
            return "crash"
        if shard_index in self.hang_shards:
            return "hang"
        if shard_index in self.raise_shards:
            return "raise"
        if shard_index in self.corrupt_shards:
            return "corrupt"
        rates = (("crash", self.crash_rate), ("hang", self.hang_rate),
                 ("raise", self.raise_rate), ("corrupt", self.corrupt_rate))
        if any(rate > 0.0 for _, rate in rates):
            from repro.sim.rng import make_rng
            draw = make_rng(self.seed, f"fleet-fault-{shard_index}").random()
            for kind, rate in rates:
                if draw < rate:
                    return kind
                draw -= rate
        return None

    def fires(self, shard_index: int, attempt: int) -> Optional[str]:
        """The fault to inject on this attempt (``None`` = run clean)."""
        kind = self.fault_kind(shard_index)
        if kind is None or (attempt > 0 and not self.sticky):
            return None
        return kind

    def is_noop(self) -> bool:
        return (not any((self.crash_rate, self.hang_rate, self.raise_rate,
                         self.corrupt_rate))
                and not any((self.crash_shards, self.hang_shards,
                             self.raise_shards, self.corrupt_shards)))


@dataclass
class ShardResult:
    """What one worker returns for a whole slice of tasks.

    This -- not a list of per-session outcomes -- is the only thing
    crossing the pool boundary in a fleet run; its size is
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
            result.sink.observe_failure(task.scheme, kind)
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
    workers_effective: int = 1
    failures: Dict[str, int] = field(default_factory=dict)
    #: shard re-executions granted (one per retryable fault)
    retries: int = 0
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


def _corrupt_shard_result(result: ShardResult) -> ShardResult:
    """The payload an injected 'corrupt' fault returns (inconsistent
    task accounting, so validation must reject it)."""
    return ShardResult(sink=result.sink, tasks=result.tasks + 1,
                       failures=result.failures)


def _shard_worker(conn, shard_index: int, tasks: List[SessionTask],
                  attempt: int, fault_plan: Optional[FaultPlan]) -> None:
    """Child-process entry: run one shard attempt, send one payload.

    The payload is either ``("ok", ShardResult)`` or
    ``("error", exception type name, message)``.  A worker that dies
    without sending (crash fault, OOM kill, segfault) is detected by
    the parent as EOF on the pipe.
    """
    payload: Tuple
    try:
        if fault_plan is not None:
            kind = fault_plan.fires(shard_index, attempt)
            if kind == "crash":
                os._exit(_FAULT_EXIT_CODE)
            elif kind == "hang":
                time.sleep(fault_plan.hang_s)
            elif kind == "raise":
                raise FaultInjected(
                    f"injected shard failure (shard {shard_index}, "
                    f"attempt {attempt})")
        shard_result = execute_shard(tasks)
        if (fault_plan is not None
                and fault_plan.fires(shard_index, attempt) == "corrupt"):
            shard_result = _corrupt_shard_result(shard_result)
        payload = ("ok", shard_result)
    except BaseException as exc:  # noqa: BLE001 - reported, not hidden
        payload = ("error", type(exc).__name__, str(exc))
    try:
        conn.send(payload)
        conn.close()
    except Exception:  # pragma: no cover - parent vanished
        os._exit(1)


@dataclass
class _ShardAttempt:
    """Supervisor bookkeeping for one shard across its attempts."""

    index: int
    tasks: List[SessionTask]
    attempt: int = 0
    #: wall-clock gate for the next launch (exponential backoff)
    ready_at: float = 0.0


class _Supervisor:
    """Shared retry/abandon state machine for both execution modes.

    A shard attempt ends in one of three supervision states:

    - **folded** -- the validated result merged into the sink;
    - **retrying** -- a retryable fault (crash, timeout, raise,
      corrupt) consumed one unit of the retry budget; the shard
      re-enters the queue after exponential backoff, re-run from its
      original task list so the fold stays bit-identical;
    - **abandoned** -- the budget is exhausted; every task in the
      shard is tallied as :data:`ABANDONED_KIND` under its scheme so
      the loss is visible in the merged sink, the CLI and the report.
    """

    def __init__(self, merged: MetricSink, result: FleetResult,
                 max_retries: int, retry_backoff_s: float) -> None:
        self.merged = merged
        self.result = result
        self.max_retries = max_retries
        self.retry_backoff_s = retry_backoff_s
        self.retry_queue: List[_ShardAttempt] = []

    def fold(self, shard_result: ShardResult) -> None:
        self.merged.merge(shard_result.sink)
        self.result.tasks += shard_result.tasks
        self.result.shards += 1
        for kind, n in shard_result.failures.items():
            self.result.failures[kind] = \
                self.result.failures.get(kind, 0) + n

    def complete(self, spec: _ShardAttempt, payload: Any) -> None:
        """Handle an attempt's validated outcome or failure kind."""
        error = validate_shard_result(payload, len(spec.tasks))
        if error is None:
            self.fold(payload)
        else:
            self.fail(spec, "corrupt")

    def fail(self, spec: _ShardAttempt, kind: str) -> None:
        self.result.shard_faults[kind] = \
            self.result.shard_faults.get(kind, 0) + 1
        if spec.attempt >= self.max_retries:
            self.abandon(spec)
            return
        self.result.retries += 1
        spec.attempt += 1
        spec.ready_at = time.monotonic() + \
            self.retry_backoff_s * (2 ** (spec.attempt - 1))
        self.retry_queue.append(spec)

    def abandon(self, spec: _ShardAttempt) -> None:
        self.result.abandoned_shards += 1
        self.result.abandoned_tasks += len(spec.tasks)
        for task in spec.tasks:
            self.merged.observe_failure(task.scheme, ABANDONED_KIND)

    def pop_ready(self, now: float) -> Optional[_ShardAttempt]:
        """The most-cooled retry whose backoff has elapsed, if any."""
        best = None
        for spec in self.retry_queue:
            if spec.ready_at <= now and (best is None
                                         or spec.ready_at < best.ready_at):
                best = spec
        if best is not None:
            self.retry_queue.remove(best)
        return best

    def next_ready_at(self) -> Optional[float]:
        if not self.retry_queue:
            return None
        return min(spec.ready_at for spec in self.retry_queue)


def _kill_process(proc) -> None:
    """Terminate a worker without leaving a zombie behind."""
    try:
        proc.terminate()
        proc.join(timeout=2.0)
        if proc.is_alive():  # pragma: no cover - SIGTERM ignored
            proc.kill()
            proc.join()
    except Exception:  # pragma: no cover - already-reaped races
        pass


def _run_fleet_serial(shard_iter: Iterator[List[SessionTask]],
                      sup: _Supervisor, result: FleetResult,
                      fault_plan: Optional[FaultPlan]) -> FleetResult:
    """In-process supervised execution (``workers=1`` / no fork).

    The serial tier cannot kill or preempt its own process, so
    'crash' and 'hang' faults surface as injected raises (tallied
    under their own kind for honest reporting) and ``shard_timeout_s``
    is not enforced -- deadline supervision needs the pool tier.
    Retries skip the backoff sleep: there is no crashed worker or
    poisoned host to cool off in-process.
    """
    next_index = 0
    try:
        for shard in shard_iter:
            spec = _ShardAttempt(index=next_index, tasks=shard)
            next_index += 1
            while True:
                kind = (fault_plan.fires(spec.index, spec.attempt)
                        if fault_plan is not None else None)
                if kind in ("crash", "hang", "raise"):
                    sup.fail(spec, kind if kind != "raise"
                             else FaultInjected.__name__)
                elif kind == "corrupt":
                    sup.complete(spec, _corrupt_shard_result(
                        execute_shard(spec.tasks)))
                else:
                    try:
                        shard_result = execute_shard(spec.tasks)
                    except Exception as exc:  # noqa: BLE001
                        sup.fail(spec, type(exc).__name__)
                    else:
                        sup.complete(spec, shard_result)
                if spec not in sup.retry_queue:
                    break
                sup.retry_queue.remove(spec)
    except KeyboardInterrupt:
        result.interrupted = True
    result.workers_effective = 1
    return result


def _run_fleet_supervised(shard_iter: Iterator[List[SessionTask]],
                          sup: _Supervisor, result: FleetResult,
                          n_workers: int, shard_timeout_s: Optional[float],
                          fault_plan: Optional[FaultPlan]) -> FleetResult:
    """Pool-mode supervision: forked shard workers, deadlines, retries.

    Each shard attempt is its own forked process with a one-shot
    result pipe; ``multiprocessing.connection.wait`` multiplexes the
    in-flight pipes, so worker death (EOF without a payload), results,
    and deadline expiry are all observed from one loop.  Fork cost is
    amortized by shard size (~ms against seconds of DES work per
    shard), and buys crash isolation the shared-pool design cannot
    offer: a dying worker takes exactly one shard attempt with it.
    """
    ctx = multiprocessing.get_context("fork")
    inflight: Dict[Any, Tuple[_ShardAttempt, Any, Optional[float]]] = {}
    next_index = 0
    exhausted = False

    def launch(spec: _ShardAttempt) -> None:
        recv_conn, send_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_shard_worker,
            args=(send_conn, spec.index, spec.tasks, spec.attempt,
                  fault_plan),
            daemon=True)
        proc.start()
        send_conn.close()
        deadline = (time.monotonic() + shard_timeout_s
                    if shard_timeout_s is not None else None)
        inflight[recv_conn] = (spec, proc, deadline)

    def reap(conn) -> None:
        spec, proc, _deadline = inflight.pop(conn)
        try:
            payload = conn.recv()
        except (EOFError, OSError):
            payload = None
        finally:
            conn.close()
        proc.join()
        if payload is None:
            # Pipe EOF without a payload: the worker died (OOM kill,
            # os._exit, segfault) before reporting.
            sup.fail(spec, "crash")
        elif payload[0] == "ok":
            sup.complete(spec, payload[1])
        else:
            sup.fail(spec, payload[1])

    try:
        while True:
            now = time.monotonic()
            while len(inflight) < n_workers:
                spec = sup.pop_ready(now)
                if spec is None and not exhausted:
                    shard = next(shard_iter, None)
                    if shard is None:
                        exhausted = True
                        continue
                    spec = _ShardAttempt(index=next_index, tasks=shard)
                    next_index += 1
                if spec is None:
                    break
                launch(spec)
            if not inflight:
                if exhausted and not sup.retry_queue:
                    break
                # Only backoff-gated retries remain: sleep them ready.
                ready_at = sup.next_ready_at()
                if ready_at is not None:
                    time.sleep(max(0.0, ready_at - time.monotonic()))
                continue
            timeouts = [deadline for (_s, _p, deadline) in inflight.values()
                        if deadline is not None]
            ready_at = sup.next_ready_at()
            if ready_at is not None:
                timeouts.append(ready_at)
            wait_s = (max(0.0, min(timeouts) - now) if timeouts else None)
            for conn in multiprocessing.connection.wait(
                    list(inflight), timeout=wait_s):
                reap(conn)
            now = time.monotonic()
            for conn, (spec, proc, deadline) in list(inflight.items()):
                if deadline is not None and now >= deadline:
                    del inflight[conn]
                    _kill_process(proc)
                    conn.close()
                    sup.fail(spec, "timeout")
    except KeyboardInterrupt:
        result.interrupted = True
    finally:
        # Leave no forked child behind -- on clean exit this is a
        # no-op; on interrupt it terminates every in-flight worker.
        for conn, (_spec, proc, _deadline) in list(inflight.items()):
            _kill_process(proc)
            conn.close()
        inflight.clear()
    result.workers_effective = min(n_workers, result.shards) \
        if result.shards else 1
    return result


def run_fleet(tasks: Iterable[SessionTask],
              sink: Optional[MetricSink] = None,
              workers: Optional[int] = None,
              shard_size: int = DEFAULT_SHARD_SIZE,
              max_retries: int = DEFAULT_MAX_RETRIES,
              shard_timeout_s: Optional[float] = None,
              retry_backoff_s: float = DEFAULT_RETRY_BACKOFF_S,
              fault_plan: Optional[FaultPlan] = None) -> FleetResult:
    """Supervised reduce-style fleet execution: tasks -> shards -> sink.

    ``tasks`` may be (and for large populations should be) a lazy
    generator; the parent materializes only in-flight and
    awaiting-retry shards, and workers never return per-session
    outcomes, so memory stays bounded by ``workers * shard_size``
    tasks plus the O(buckets) sinks.  ``workers`` follows the
    repo-wide convention (``None``/``0`` = ``os.cpu_count()``, ``1`` =
    in-process serial).

    Supervision: each shard gets ``max_retries`` re-executions (with
    ``retry_backoff_s``-based exponential backoff in pool mode) after
    a worker crash, a ``shard_timeout_s`` deadline kill, a shard-body
    exception, or a corrupted result; a shard that exhausts the budget
    is quarantined into the abandoned tallies.  ``fault_plan`` injects
    exactly those fault classes for testing.  ``KeyboardInterrupt``
    terminates all workers and returns the partial fold with
    ``interrupted=True``.

    Determinism: every task carries its fully-derived seed, retries
    re-run from the original task list (never from a partial sink),
    and the sink merge is exactly order-independent -- so serial,
    sharded, and fault-retried runs produce identical merged digests
    for the same task stream whenever every fault was retryable.
    """
    merged = sink if sink is not None else MetricSink()
    result = FleetResult(sink=merged)
    n_workers = resolve_workers(workers)
    result.workers_requested = n_workers
    shard_iter = iter_shards(tasks, shard_size)
    sup = _Supervisor(merged, result, max_retries=max_retries,
                      retry_backoff_s=retry_backoff_s)
    if n_workers <= 1 or not _fork_available():
        return _run_fleet_serial(shard_iter, sup, result, fault_plan)
    return _run_fleet_supervised(shard_iter, sup, result, n_workers,
                                 shard_timeout_s, fault_plan)
