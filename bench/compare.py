"""Two sets of results side by side: ``compare`` and ``--check-repeat``.

Both read the suite objects ``python -m bench --json OUT`` writes.
``compare`` answers "did B change against A" with one verdict per
workload x end-to-end metric; ``--check-repeat`` answers "does the same
code agree with itself" -- the precondition for believing ``compare``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterator, List, Tuple

from bench import spec
from bench.layers import LAYERS


def _worse_by(metric: spec.Metric, base: float, other: float) -> float:
    """How much worse ``other`` is than ``base``, as a share of ``base``
    (negative: better)."""
    if not base:
        return 0.0
    change = (other - base) / base
    return -change if metric.better == "higher" else change


def _rows(a: Dict[str, Any], b: Dict[str, Any]
          ) -> Iterator[Tuple[str, spec.Metric, Dict, Dict]]:
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        for metric in spec.END_TO_END:
            yield (name, metric,
                   a["workloads"][name]["e2e"]["end_to_end"][metric.name],
                   b["workloads"][name]["e2e"]["end_to_end"][metric.name])


def verdict(metric: spec.Metric, a: Dict[str, Any], b: Dict[str, Any]) -> str:
    """improved / unchanged / regressed, or unresolved when either
    side's own rep-to-rep spread is wider than the bound."""
    if metric.name != "setup_s" \
            and max(a["spread"], b["spread"]) > metric.bound:
        return "unresolved"
    worse = _worse_by(metric, a["value"], b["value"])
    if worse > metric.bound:
        return "regressed"
    if worse < -metric.bound:
        return "improved"
    return "unchanged"


def compare_files(path_a: str, path_b: str) -> int:
    """Print the comparison of two ``--json`` files; 1 if any regressed."""
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    print(f"A = {path_a} (seed {a['seed']})   B = {path_b} "
          f"(seed {b['seed']})")
    print(f"{'workload':<14} {'metric':<15} {'A (base)':>12} {'B':>12} "
          f"{'B/A':>7} {'bound':>6} {'spread A/B':>13}  verdict")
    regressed = False
    for name, metric, ea, eb in _rows(a, b):
        result = verdict(metric, ea, eb)
        regressed |= result == "regressed"
        ratio = eb["value"] / ea["value"] if ea["value"] else float("nan")
        print(f"{name:<14} {metric.name:<15} {ea['value']:>12.6g} "
              f"{eb['value']:>12.6g} {ratio:>7.3f} {metric.bound:>6.0%} "
              f"{ea['spread']:>6.1%}/{eb['spread']:<6.1%} {result}"
              f"  [{metric.unit}, {metric.better} is better]")
    moved = _layer_moves(a, b)
    if moved:
        print("\nlayer self time that moved most (us/pkt; base is A):")
        for delta, name, layer, va, vb in moved:
            print(f"  {name:<14} {layer + '.self_us_per_pkt':<26} "
                  f"{va:>9.3f} -> {vb:>9.3f}  ({delta:+.3f}, "
                  f"B/A {vb / va if va else float('nan'):.3f})")
    return 1 if regressed else 0


def _layer_moves(a: Dict[str, Any], b: Dict[str, Any],
                 top: int = 12) -> List[Tuple[float, str, str, float, float]]:
    moves = []
    for name, entry in a["workloads"].items():
        other = b["workloads"].get(name, {})
        if "trace" not in entry or "trace" not in other:
            continue
        for layer in LAYERS:
            key = f"{layer}.self_us_per_pkt"
            va = entry["trace"]["per_layer"][key]["value"]
            vb = other["trace"]["per_layer"][key]["value"]
            if va is not None and vb is not None:
                moves.append((vb - va, name, layer, va, vb))
    moves.sort(key=lambda row: -abs(row[0]))
    return moves[:top]


def check_repeat(a: Dict[str, Any], b: Dict[str, Any]) -> bool:
    """Two runs of the same code: every end-to-end metric within its
    bound, every digest and exact count identical."""
    ok = True
    print(f"\n{'workload':<14} {'metric':<15} {'run 1':>12} {'run 2':>12} "
          f"{'gap':>7} {'bound':>6}")
    for name, metric, ea, eb in _rows(a, b):
        gap = abs(_worse_by(metric, ea["value"], eb["value"]))
        flag = "" if gap <= metric.bound else "  EXCEEDS BOUND"
        ok &= not flag
        print(f"{name:<14} {metric.name:<15} {ea['value']:>12.6g} "
              f"{eb['value']:>12.6g} {gap:>7.2%} {metric.bound:>6.0%}{flag}")
    for name, entry in a["workloads"].items():
        other = b["workloads"][name]
        digests = {r["digest"] for e in (entry, other) for r in e.values()}
        if len(digests) != 1:
            print(f"FAIL {name}: sim_digest differs between runs")
            ok = False
        if "trace" in entry and "trace" in other:
            first = entry["trace"]["counts"]
            second = other["trace"]["counts"]
            differing = spec.differing_counts(name, first, second)
            for key in differing:
                print(f"FAIL {name}: count {key} {first.get(key)} != "
                      f"{second.get(key)}")
            ok &= not differing
            if not differing:
                print(f"{name:<14} sim_digest and "
                      f"{len(spec.comparable_counts(name, first))} exact "
                      f"counts identical")
    print("check-repeat:", "pass" if ok else "FAIL")
    return ok
