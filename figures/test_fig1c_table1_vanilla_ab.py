"""Fig. 1c + Table 1: A/B test of vanilla-MP vs single-path QUIC.

Runs the day-by-day population A/B and reports per-day request
completion time percentiles (Fig. 1c) and the rebuffer-rate change
(Table 1).  The paper's findings to reproduce in shape:

- vanilla-MP often *degrades* the 99th-percentile RCT vs SP (up to
  +28% in the paper);
- vanilla-MP's aggregate rebuffer rate is *worse* than SP's (all
  seven Table-1 entries are negative).
"""

import pytest

from figures.conftest import print_table
from repro.experiments.abtest import (ABTestConfig, daily_improvement,
                                      run_ab_test)
from repro.metrics import MetricSink, improvement_percent

DAYS = 4
USERS = 14


def _run():
    cfg = ABTestConfig(users_per_day=USERS, days=DAYS, seed=3)
    return run_ab_test(cfg, ["sp", "vanilla_mp"])


def test_fig1c_table1_vanilla_ab():
    days = _run()
    sp_days = [day.schemes["sp"] for day in days]
    mp_days = [day.schemes["vanilla_mp"] for day in days]

    rows = []
    for number, (sp, mp) in enumerate(zip(sp_days, mp_days), 1):
        rows.append([
            number,
            f"{sp.rct.percentile(50):.3f}", f"{mp.rct.percentile(50):.3f}",
            f"{sp.rct.percentile(95):.3f}", f"{mp.rct.percentile(95):.3f}",
            f"{sp.rct.percentile(99):.3f}", f"{mp.rct.percentile(99):.3f}",
        ])
    print_table("Fig. 1c: request completion time, SP vs vanilla-MP (s)",
                ["day", "SP p50", "MP p50", "SP p95", "MP p95",
                 "SP p99", "MP p99"], rows)

    rebuffer_rows = [["Improv. (%)"] + [
        f"{imp:.1f}"
        for imp in daily_improvement(days, "sp", "vanilla_mp")]]
    print_table("Table 1: reduction of rebuffer rate (vanilla-MP vs SP)",
                ["day"] + [str(d) for d in range(1, DAYS + 1)],
                rebuffer_rows)

    # Shape: aggregated over the test, vanilla-MP's p99 RCT is worse
    # than SP's, and its rebuffer rate is worse (negative improvement).
    pooled = MetricSink()
    for day in days:
        pooled.merge(day)
    assert pooled.schemes["vanilla_mp"].rct.percentile(99) > \
        pooled.schemes["sp"].rct.percentile(99)

    sp_rebuffer = sum(d.rebuffer_rate for d in sp_days)
    mp_rebuffer = sum(d.rebuffer_rate for d in mp_days)
    assert mp_rebuffer > sp_rebuffer, \
        "Table 1 shape: vanilla-MP rebuffer rate must be worse than SP"
    print(f"\naggregate rebuffer-rate change (vanilla-MP vs SP): "
          f"{improvement_percent(sp_rebuffer, mp_rebuffer):.1f}% "
          f"(negative = worse, as in Table 1)")
