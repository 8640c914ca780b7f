"""First-video-frame latency driver: Fig. 12.

Compares first-video-frame latency percentiles against SP for XLINK
with and without first-video-frame acceleration, over a population
with heterogeneous path delays (the setting where the slow path can
poison the first frame).  The paper's shape: without acceleration the
tail is *worse* than SP (about -14% at p99); with acceleration it is
much better (about +32% at p99), improvement growing toward the tail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.experiments.abtest import ABTestConfig, run_ab_day

#: Percentiles reported along Fig. 12's x-axis.
FIG12_PERCENTILES = (5, 25, 50, 75, 90, 95, 99)


@dataclass
class Fig12Result:
    """Improvement (%) of first-frame latency over SP per percentile."""

    with_acceleration: Dict[int, float]
    without_acceleration: Dict[int, float]


def run_fig12(cfg: ABTestConfig) -> Fig12Result:
    """Run SP, XLINK, and XLINK-without-FFA over one population."""
    schemes = ["sp", "xlink", "xlink_nofa"]
    day = run_ab_day(cfg, 1, schemes)
    ffl = {s: day.schemes[s].startup for s in schemes}
    for s, sketch in ffl.items():
        if sketch.count == 0:
            raise RuntimeError(f"no first-frame samples for {s}")

    def improvements(treatment: str) -> Dict[int, float]:
        out = {}
        for pct in FIG12_PERCENTILES:
            sp_val = ffl["sp"].percentile(pct)
            val = ffl[treatment].percentile(pct)
            out[pct] = (sp_val - val) / sp_val * 100.0 if sp_val > 0 else 0.0
        return out

    return Fig12Result(with_acceleration=improvements("xlink"),
                       without_acceleration=improvements("xlink_nofa"))
