"""Fig. 10 + Table 2: buffer level and cost vs the double thresholds.

Sweeps the paper's threshold settings -- re-injection off, (95,80),
(90,80), (90,60), (60,50), (60,1), (1,1) -- where (X,Y) are
percentiles of the measured play-time-left distribution.  The paper's
shapes to reproduce:

- re-injection off -> buffer tail levels drop significantly;
- (1,1) == no QoE control -> the highest traffic overhead;
- moderate settings like (95,80) achieve most of the buffer benefit
  at a small fraction of the cost;
- the Table-2 danger-level (<50 ms) fraction shrinks vs SP for the
  re-injecting settings.
"""

from figures.conftest import print_table
from repro.experiments.abtest import ABTestConfig
from repro.experiments.thresholds import (PAPER_THRESHOLD_SETTINGS,
                                          run_threshold_sweep)

USERS = 12


def _run():
    cfg = ABTestConfig(users_per_day=USERS, seed=5)
    return run_threshold_sweep(cfg, settings=PAPER_THRESHOLD_SETTINGS)


def test_fig10_table2_thresholds():
    results = _run()

    rows = []
    for r in results:
        rows.append([
            r.label,
            f"{r.buffer_improvement_p90:+.1f}",
            f"{r.buffer_improvement_p95:+.1f}",
            f"{r.buffer_improvement_p99:+.1f}",
            f"{r.cost_percent:.1f}%",
            f"{r.danger_reduction_percent:+.1f}",
        ])
    print_table("Fig. 10 + Table 2: buffer improvement over SP & cost",
                ["threshold", "buf p90 (%)", "buf p95 (%)", "buf p99 (%)",
                 "cost", "<50ms reduction (%)"], rows)

    by_label = {r.label: r for r in results}
    off = by_label["re-inj. off"]
    no_qoe = by_label["1-1"]
    moderate = by_label["95-80"]

    # Re-injection off pays nothing.
    assert off.cost_percent == 0.0

    # (1,1) = QoE control off: the costliest setting in the sweep.
    assert no_qoe.cost_percent == max(r.cost_percent for r in results)

    # A moderate setting achieves cost far below the uncontrolled one.
    assert moderate.cost_percent < 0.6 * no_qoe.cost_percent

    # Table-2 shape: re-injecting settings cut the danger fraction
    # relative to re-injection off.
    assert moderate.danger_reduction_percent > \
        off.danger_reduction_percent
    assert no_qoe.danger_reduction_percent > off.danger_reduction_percent
