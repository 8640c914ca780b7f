"""One workload in one fresh process: set up, warm up, measure, report.

Run by :mod:`bench.__main__` as ``python -m bench.child`` with
``PYTHONHASHSEED=0``; prints one JSON object as its last line.  This is
the only module of the package (with :mod:`bench.workloads`) that
imports ``repro``, so the parent stays a thin process that only starts
children and adds up what they print.

``--mode e2e`` times untraced reps for ``--budget`` seconds.
``--mode trace`` runs one rep under cProfile, then alternates untraced
and traced reps for two thirds of the budget, and reports the per-layer
metrics; its timings are never used for end-to-end numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from typing import Any, Callable, Dict, List, Optional

from bench import counts, ledger, workloads
from bench.trace import Tracer

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def _cpu_s() -> float:
    """User+system CPU of this process and every child it has reaped."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child (Linux
    reports ``ru_maxrss`` in KiB)."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF,
                           resource.RUSAGE_CHILDREN)) / 1024.0


def timed(rep: Callable[[], workloads.RepResult]) -> Dict[str, Any]:
    """Run one rep; its result with wall and CPU seconds."""
    cpu0, t0 = _cpu_s(), time.perf_counter()
    result = rep()
    wall_s = time.perf_counter() - t0
    return {"wall_s": wall_s, "cpu_s": _cpu_s() - cpu0,
            "units": result.units, "failed": result.failed,
            "digest": result.digest, "detail": result.detail}


def timed_reps(rep: Callable[[], workloads.RepResult],
               budget_s: float) -> List[Dict[str, Any]]:
    """Closed loop: start another rep while the budget is not used up."""
    out: List[Dict[str, Any]] = []
    start = time.perf_counter()
    while not out or time.perf_counter() - start < budget_s:
        out.append(timed(rep))
    return out


def _best(reps: List[Dict[str, Any]], key: str) -> float:
    return min(rep[key] for rep in reps)


def run_trace(workload, name: str, budget_s: float,
              serial_rep: Optional[Callable[[], workloads.RepResult]]
              ) -> Dict[str, Any]:
    """The traced run; ``serial_rep`` is given for a sharded workload."""
    reference: Optional[Dict[str, Any]] = None
    reference_packets = 0
    pickle_bytes: Optional[int] = None
    if serial_rep is not None:
        # The packets are sealed in forked workers, out of this
        # process's sight: count them (and price the work in CPU) on
        # one serial run of the same population, probes only.
        with Tracer(spans=False) as probe:
            reference = timed(serial_rep)
        reference_packets = probe.packets
        pickle_bytes = probe.pickle_bytes

    # The profiled rep comes first, at a fixed position after the
    # warm-up: the program's FIFO caches carry state from rep to rep, so
    # a rep's exact call counts depend (by a handful of calls) on how
    # many reps ran before it -- and below that number depends on time.
    profiled, calls = counts.profile(workload.rep)

    # Untraced and traced reps alternate, so that a burst of
    # interference from the box's other tenants hits both alike and
    # trace.overhead compares like with like.
    tracer = Tracer()
    tracer.open_sample_window()
    first_counts: Dict[str, int] = {}
    untraced: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    start = time.perf_counter()
    while len(traced) < 2 \
            or time.perf_counter() - start < budget_s * 2.0 / 3.0:
        untraced.append(timed(workload.rep))
        with tracer:
            traced.append(timed(workload.rep))
        if not first_counts:
            first_counts = tracer_counts(tracer)

    reps = len(traced)
    packets = tracer.packets or reference_packets * reps
    if pickle_bytes is None:
        pickle_bytes = tracer.pickle_bytes
    first_counts.update(calls)
    if reference is not None:
        first_counts["packets"] = reference_packets
    metrics = ledger.layer_metrics(
        tracer, packets=packets, units=sum(r["units"] for r in traced),
        traced_wall_ns=sum(r["wall_s"] for r in traced) * 1e9,
        # each traced rep against the untraced rep just before it, so
        # that a slow phase of the box cancels out of the ratio; the
        # first pair also paid for recording the span sample
        overhead=statistics.median(
            t["wall_s"] / u["wall_s"]
            for u, t in zip(untraced[1:], traced[1:])) - 1,
        untraced_best_s=_best(untraced, "wall_s"), reps=reps,
        calls=calls, detail=traced[0]["detail"],
        reference_cpu_s=(reference or {}).get(
            "cpu_s", _best(untraced, "cpu_s")),
        cpu_best_s=_best(untraced, "cpu_s"), pickle_bytes=pickle_bytes,
        taskgen_us_per_unit=getattr(workload, "taskgen_us_per_unit", 0.0))
    # mean against mean: the ledger sums all traced reps, so it is held
    # against all the untraced reps that ran between them
    units_per_s = sum(r["units"] for r in untraced) \
        / sum(r["wall_s"] for r in untraced)
    out = {
        "reps": untraced, "traced_reps": traced,
        "other_digests": [r["digest"] for r in traced]
        + [profiled.digest] + ([reference["digest"]] if reference else []),
        "metrics": metrics, "counts": first_counts,
        "reconcile": ledger.reconcile(metrics, units_per_s),
        "warnings": tracer.warnings,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"layers-{name}.json"), "w") as f:
        json.dump({"workload": name, "metrics": metrics,
                   "counts": first_counts, "reconcile": out["reconcile"],
                   "warnings": tracer.warnings, "slots": tracer.slots()},
                  f, indent=1)
    with open(os.path.join(OUT_DIR, f"trace-{name}.json"), "w") as f:
        json.dump(tracer.chrome_trace(), f)
    return out


def tracer_counts(tracer: Tracer) -> Dict[str, int]:
    """The traced run's exact counts (identical for a fixed seed)."""
    by_name = dict(zip(tracer.slot_name, tracer.calls))
    return {
        "packets": tracer.packets,
        "sealed_bytes": tracer.sealed_bytes,
        "events": sum(tracer.calls[s] for s in tracer.event_slots),
        "scheduled": by_name.get("EventLoop.schedule_at", 0),
        "cancelled": by_name.get("Event.cancel", 0),
        "datagrams": sum(s.packets_in for s in tracer.link_stats),
        "frames": tracer.frames_decoded,
        "acks": sum(s.acks_sent for s in tracer.conn_stats),
        "selects": sum(calls for name, calls in by_name.items()
                       if name.endswith(".select_path")),
        "blocked": tracer.select_none,
        "heap_peak": tracer.heap_peak or 0,
        "queue_peak": tracer.queue_peak,
        "spans": sum(tracer.calls),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--mode", choices=("e2e", "trace"), default="e2e")
    parser.add_argument("--started", type=float, required=True,
                        help="time.monotonic() of the parent at spawn")
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)

    workload = workloads.make(args.workload, quick=args.quick)
    workload.prepare(args.seed)
    # For fleet_sharded the warm-up is the serial run of the same
    # population -- the digest every sharded rep must reproduce -- and
    # then one sharded rep, because the first fork round is slow too.
    serial_rep = None
    warm_digests = set()
    if getattr(workload, "workers", 1) > 1:
        def serial_rep():
            return workload.rep(serial=True)
        warm_digests.add(serial_rep().digest)
    warm_digests.add(workload.rep().digest)
    setup_s = time.monotonic() - args.started

    if args.mode == "e2e":
        out = {"reps": timed_reps(workload.rep, args.budget)}
    else:
        out = run_trace(workload, args.workload, args.budget, serial_rep)
    digests = {*warm_digests, *(r["digest"] for r in out["reps"]),
               *out.pop("other_digests", ())}
    out.update({"workload": args.workload, "seed": args.seed,
                "mode": args.mode, "setup_s": setup_s,
                "peak_rss_mb": _peak_rss_mb(),
                "digest": out["reps"][0]["digest"],
                "digests_agree": len(digests) == 1})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
