"""Fig. 12: first-video-frame latency with/without acceleration.

Compares first-frame latency improvements over SP at percentiles for
XLINK with first-video-frame acceleration and without it.  The
paper's shapes: without acceleration the tail is *worse* than SP
(about -14% at p99 in the paper) because of the slow path's excessive
delay; with acceleration the latency improves, and the improvement
grows toward the tail (paper: >32% at p99).
"""

from figures.conftest import print_table
from repro.experiments.abtest import ABTestConfig
from repro.experiments.firstframe import FIG12_PERCENTILES, run_fig12

USERS = 14


def _run():
    cfg = ABTestConfig(users_per_day=USERS, seed=7)
    return run_fig12(cfg)


def test_fig12_first_frame():
    result = _run()

    rows = []
    for pct in FIG12_PERCENTILES:
        rows.append([
            f"p{pct}",
            f"{result.with_acceleration[pct]:+.1f}",
            f"{result.without_acceleration[pct]:+.1f}",
        ])
    print_table("Fig. 12: first-frame latency improvement over SP (%)",
                ["percentile", "w/ acceleration", "w/o acceleration"],
                rows)

    with_ffa = result.with_acceleration
    without_ffa = result.without_acceleration

    # Without acceleration the tail degrades vs SP.
    assert without_ffa[99] < 0
    assert without_ffa[95] < 0

    # Acceleration turns the tail around: strictly better than the
    # non-accelerated variant, and not worse than SP.
    assert with_ffa[99] > without_ffa[99]
    assert with_ffa[95] > without_ffa[95]
    assert with_ffa[99] > -5.0

    # The FFA-vs-no-FFA gap grows toward the tail (paper's Fig. 12).
    gap_median = with_ffa[50] - without_ffa[50]
    gap_tail = with_ffa[99] - without_ffa[99]
    assert gap_tail > gap_median
