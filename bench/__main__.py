"""``python -m bench``: the repo's benchmark, one command.

    python -m bench                      six workloads, end-to-end metrics
    python -m bench --trace              + the per-layer ledger and counts
    python -m bench --counts             exact counts, run twice, compared
    python -m bench --check-repeat       everything twice; gaps vs bounds
    python -m bench compare A.json B.json
    python -m bench --workload W --seed S --seconds T --trace 0|1
                                         one driver run; last stdout line
                                         is the result object

Each run of a workload happens in fresh child processes
(``PYTHONHASHSEED=0``); this process only starts them, waits for them
and adds up what they print, so it never imports ``repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

from bench import spec
from bench.compare import check_repeat, compare_files

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PINS_PATH = os.path.join(ROOT, "bench", "pins.json")

#: a child that has not finished by then is killed (the driver allows
#: a whole run 180 s)
CHILD_TIMEOUT_S = 150.0


class ChildFailed(RuntimeError):
    """A child process crashed, hung, or printed no result."""


def spawn_child(workload: str, seed: int, budget_s: float, mode: str,
                quick: bool) -> Dict[str, Any]:
    """Run one fresh child to completion; its result object."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    command = [sys.executable, "-m", "bench.child", "--workload", workload,
               "--seed", str(seed), "--budget", repr(budget_s),
               "--mode", mode, "--started", repr(time.monotonic())]
    if quick:
        command.append("--quick")
    # Its own session, so that a hung child can be killed together with
    # any shard workers it forked.
    child = subprocess.Popen(command, cwd=ROOT, env=env,
                             stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException as exc:        # timeout, Ctrl-C: leave nothing behind
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise ChildFailed(f"{workload}: child exceeded "
                              f"{CHILD_TIMEOUT_S:.0f} s") from exc
        raise
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise ChildFailed(f"{workload}: child exited with "
                          f"{child.returncode} and no result")
    return json.loads(lines[-1])


def _summary(values: List[float], value: float, unit: str) -> Dict[str, Any]:
    ordered = sorted(values)
    if len(ordered) >= 4:
        q1, _q2, q3 = statistics.quantiles(ordered, n=4)
        spread = (q3 - q1) / statistics.median(ordered)
    else:
        spread = (ordered[-1] - ordered[0]) / statistics.median(ordered)
    return {"value": value, "unit": unit, "n": len(ordered),
            "median": statistics.median(ordered), "min": ordered[0],
            "max": ordered[-1], "spread": spread}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 quick: bool = False) -> Dict[str, Any]:
    """One run of one workload: end-to-end (``spec.CHILDREN`` fresh
    processes sharing ``seconds``) or traced (one process)."""
    pins = load_pins()
    pinned = pins["workloads"].get(name, {}) if pins["seed"] == seed \
        and not quick else {}
    if trace:
        children = [spawn_child(name, seed, seconds, "trace", quick)]
    else:
        children = [spawn_child(name, seed, seconds / spec.CHILDREN, "e2e",
                                quick) for _ in range(spec.CHILDREN)]
    reps = [rep for child in children for rep in child["reps"]]
    digests = {child["digest"] for child in children}
    result: Dict[str, Any] = {
        "workload": name, "seed": seed, "traced": trace,
        "unit": spec.WORKLOAD_BY_NAME[name].unit,
        "attempted": sum(rep["units"] for rep in reps),
        "failed": sum(rep["failed"] for rep in reps),
        "digest": children[0]["digest"],
        "digest_pinned": (children[0]["digest"] == pinned["digest"]
                          if "digest" in pinned else None),
        "correct": len(digests) == 1
        and all(child["digests_agree"] for child in children),
    }
    # Every timing is the run's fastest observation, not its median:
    # each rep (and each set-up) does identical work, interference from
    # the box's other tenants only ever slows one down and comes in
    # bursts of seconds, so the fastest of N is what the program costs
    # and the median is what the neighbours cost.
    rates = [rep["units"] / rep["wall_s"] for rep in reps]
    cpus = [rep["cpu_s"] / rep["units"] for rep in reps]
    setups = [child["setup_s"] for child in children]
    peaks = [child["peak_rss_mb"] for child in children]
    units = {m.name: m.unit for m in spec.END_TO_END}
    result["end_to_end"] = {
        "setup_s": _summary(setups, min(setups), units["setup_s"]),
        "units_per_s": _summary(rates, max(rates), units["units_per_s"]),
        "cpu_s_per_unit": _summary(cpus, min(cpus), units["cpu_s_per_unit"]),
        "peak_rss_mb": _summary(peaks, statistics.median(peaks),
                                units["peak_rss_mb"]),
    }
    if trace:
        child = children[0]
        units = {m.name: m.unit for m in spec.PER_LAYER}
        result["per_layer"] = {
            name_: {"value": child["metrics"].get(name_), "unit": unit}
            for name_, unit in units.items()}
        result["counts"] = child["counts"]
        result["counts_pinned"] = (
            not spec.differing_counts(name, child["counts"],
                                      pinned["counts"])
            if "counts" in pinned else None)
        result["reconcile"] = child["reconcile"]
        result["warnings"] = child["warnings"]
    return result


def load_pins() -> Dict[str, Any]:
    try:
        with open(PINS_PATH) as f:
            return json.load(f)
    except (OSError, ValueError):
        return {"seed": None, "workloads": {}}


def contract_line(result: Dict[str, Any]) -> str:
    """The result object the driver reads from the last stdout line."""
    block = result["per_layer"] if result["traced"] else result["end_to_end"]
    metrics = {}
    for name, entry in block.items():
        # An unresolved boundary is null in the ledger files and in the
        # table above; the driver's format wants a number everywhere.
        value = entry["value"] if entry["value"] is not None else 0.0
        metrics[name] = {"value": value, "unit": entry["unit"]}
    return json.dumps({"correct": result["correct"],
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def print_result(result: Dict[str, Any]) -> None:
    """Every metric by name with its unit, and the output checks."""
    name = result["workload"]
    print(f"== {name}  (seed {result['seed']}, unit: {result['unit']}, "
          f"{'traced run' if result['traced'] else 'tracing off'})")
    for metric, entry in result["end_to_end"].items():
        note = "" if not result["traced"] else "  [not for end-to-end use]"
        print(f"  {metric:<26} {entry['value']:>14.6g} {entry['unit']:<11}"
              f" n={entry['n']} median={entry['median']:.6g} "
              f"min={entry['min']:.6g} max={entry['max']:.6g}{note}")
    fail_share = result["failed"] / max(result["attempted"], 1)
    print(f"  {'fail_share':<26} {fail_share:>14.6g} {'ratio':<11} "
          f"{result['failed']} of {result['attempted']} units")
    pinned = {True: "equals the pinned value", False: "DIFFERS from the pin",
              None: "no pin for this seed/size"}[result["digest_pinned"]]
    print(f"  sim_digest {result['digest'][:16]}  {pinned}; "
          f"output checks {'pass' if result['correct'] else 'FAIL'}")
    if not result["traced"]:
        return
    for metric, entry in result["per_layer"].items():
        value = "null" if entry["value"] is None \
            else f"{entry['value']:.6g}"
        print(f"  {metric:<26} {value:>14} {entry['unit']}")
    rec = result["reconcile"]
    print(f"  reconcile: 1e6/units_per_s = {rec['measured_us_per_unit']:.6g}"
          f" us/unit (mean untraced rep of this run), ledger = "
          f"{rec['ledger_us_per_unit']:.6g} us/unit (gap {rec['gap']:+.2%})")
    counts = " ".join(f"{k}={v}" for k, v in sorted(result["counts"].items()))
    pinned = {True: "equal the pins", False: "DIFFER from the pins",
              None: "no pins for this seed/size"}[result["counts_pinned"]]
    print(f"  counts ({pinned}): {counts}")
    for warning in result["warnings"]:
        print(f"  warning: {warning}")


def run_suite(names: List[str], seed: int, seconds: float, trace: bool,
              quick: bool) -> Dict[str, Any]:
    """Every named workload once (and once more traced with ``trace``)."""
    suite: Dict[str, Any] = {"seed": seed, "seconds": seconds,
                             "quick": quick, "workloads": {}}
    for name in names:
        entry = {"e2e": run_workload(name, seed, seconds, False, quick)}
        print_result(entry["e2e"])
        if trace:
            entry["trace"] = run_workload(name, seed, seconds, True, quick)
            print_result(entry["trace"])
        suite["workloads"][name] = entry
        sys.stdout.flush()
    return suite


def suite_ok(suite: Dict[str, Any]) -> bool:
    """All output checks pass and, at the pinned seed, nothing failed."""
    ok = True
    for name, entry in suite["workloads"].items():
        for result in entry.values():
            if not result["correct"]:
                print(f"FAIL {name}: output checks failed")
                ok = False
            if result["failed"] and suite["seed"] == spec.DEFAULT_SEED:
                print(f"FAIL {name}: {result['failed']} of "
                      f"{result['attempted']} units failed")
                ok = False
    return ok


def write_pins(suite: Dict[str, Any]) -> None:
    pins = {"seed": suite["seed"], "python": sys.version.split()[0],
            "workloads": {}}
    for name, entry in suite["workloads"].items():
        traced = entry["trace"]
        pins["workloads"][name] = {
            "digest": traced["digest"],
            "counts": traced["counts"],
            "measured": {
                **{k: v["value"] for k, v in entry["e2e"]["end_to_end"].items()},
                **{k: v["value"] for k, v in traced["per_layer"].items()}},
        }
    with open(PINS_PATH, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")


def counts_pass(names: List[str], seed: int, quick: bool) -> bool:
    """Two counting runs per workload; any differing count fails."""
    ok = True
    for name in names:
        runs = [run_workload(name, seed, 1.0, True, quick) for _ in range(2)]
        print_result(runs[1])
        first, second = runs[0]["counts"], runs[1]["counts"]
        differing = spec.differing_counts(name, first, second)
        for key in differing:
            print(f"FAIL {name}: {key} {first.get(key)} != "
                  f"{second.get(key)} between two runs")
        if runs[0]["digest"] != runs[1]["digest"]:
            print(f"FAIL {name}: sim_digest differs between two runs")
        elif not differing:
            print(f"  {len(spec.comparable_counts(name, first))} exact "
                  f"counts identical in two runs")
            continue
        ok = False
    return ok


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: python -m bench compare A.json B.json")
            return 2
        return compare_files(argv[1], argv[2])

    parser = argparse.ArgumentParser(prog="python -m bench",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=[w.name for w in spec.WORKLOADS],
                        help="run only this workload (repeatable); exactly "
                             "one makes a driver run")
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS,
                        help="seconds one run measures")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1), help="also (driver run: instead) "
                        "make the traced run")
    parser.add_argument("--counts", action="store_true",
                        help="exact counts only, two runs, compared")
    parser.add_argument("--check-repeat", action="store_true",
                        help="run everything twice and compare")
    parser.add_argument("--quick", action="store_true",
                        help="tiny workload sizes (tests)")
    parser.add_argument("--json", metavar="OUT",
                        help="write the suite's results for 'compare'")
    parser.add_argument("--write-pins", action="store_true",
                        help="record digests, counts and numbers in "
                             "bench/pins.json (implies --trace)")
    args = parser.parse_args(argv)
    names = args.workload or [w.name for w in spec.WORKLOADS]

    try:
        if args.counts:
            return 0 if counts_pass(names, args.seed, args.quick) else 1
        if args.check_repeat:
            suites = [run_suite(names, args.seed, args.seconds, True,
                                args.quick) for _ in range(2)]
            ok = all([suite_ok(suite) for suite in suites])
            return 0 if check_repeat(*suites) and ok else 1
        if args.workload and len(args.workload) == 1 \
                and not (args.json or args.write_pins):
            # a driver run: the result object is the last line
            result = run_workload(names[0], args.seed, args.seconds,
                                  bool(args.trace), args.quick)
            print_result(result)
            print(contract_line(result))
            return 0
        suite = run_suite(names, args.seed, args.seconds,
                          bool(args.trace) or args.write_pins, args.quick)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        with open(args.json, "w") as f:
            json.dump(suite, f, indent=1)
    if args.write_pins:
        write_pins(suite)
    return 0 if suite_ok(suite) else 1


if __name__ == "__main__":
    sys.exit(main())
