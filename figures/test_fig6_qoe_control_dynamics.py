"""Fig. 6: how Alg. 1 overcomes MP-HoL blocking with reduced cost.

Replays the same two-path network (path 1 blacks out in [2, 5) s) for
the three configurations of Fig. 6b-6d and compares buffer dynamics
and re-injected bytes.  The paper's shapes:

- vanilla-MP's buffer collapses during the degradation (rebuffering);
- both re-injection variants keep the buffer up;
- without QoE control, re-injection is used recklessly (large
  redundant traffic); with QoE control the cost drops substantially.
"""

from figures.conftest import print_table
from repro.experiments.dynamics import FIG6_MODES, run_fig6_dynamics


def _run_all():
    return {mode: run_fig6_dynamics(mode) for mode in FIG6_MODES}


def test_fig6_qoe_control_dynamics():
    results = _run_all()

    rows = []
    for mode, series in results.items():
        rows.append([
            mode,
            f"{series.min_buffer_in(2.0, 5.2) / 1e3:.0f}",
            f"{series.rebuffer_time:.2f}",
            f"{series.total_reinjected() / 1e3:.0f}",
            f"{series.redundancy_percent:.1f}%",
        ])
    print_table("Fig. 6: buffer + re-injection during path-1 blackout",
                ["mode", "min buffer (KB)", "rebuffer (s)",
                 "re-injected (KB)", "redundancy"], rows)

    vanilla = results["vanilla_mp"]
    no_qoe = results["reinject_no_qoe"]
    with_qoe = results["reinject_with_qoe"]

    # Fig. 6b: vanilla's buffer (almost) empties; 6c/6d stay higher.
    assert vanilla.min_buffer_in(2.0, 5.2) < \
        0.5 * no_qoe.min_buffer_in(2.0, 5.2)
    assert vanilla.min_buffer_in(2.0, 5.2) < \
        0.05 * with_qoe.min_buffer_in(2.0, 5.2)

    # Vanilla stalls; QoE-controlled re-injection sails through.
    assert vanilla.rebuffer_time > 0
    assert with_qoe.rebuffer_time == 0
    # Reckless re-injection is no worse than vanilla but its redundant
    # load eats into the surviving path -- the throughput impact
    # Sec. 5.2 warns about -- so it ends up *below* the QoE-controlled
    # variant on buffer health despite re-injecting more.
    assert no_qoe.rebuffer_time <= vanilla.rebuffer_time
    assert with_qoe.min_buffer_in(2.0, 5.2) > \
        no_qoe.min_buffer_in(2.0, 5.2)

    # Fig. 6c vs 6d: QoE control cuts the redundancy substantially.
    assert vanilla.total_reinjected() == 0
    assert with_qoe.total_reinjected() < 0.7 * no_qoe.total_reinjected()
