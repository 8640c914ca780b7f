"""Fig. 1a/1b: vanilla-MP in fast-varying wireless environments.

Replays the campus-walk Wi-Fi trace (with its throughput collapse at
t = 1.7-2.2 s) and the stable LTE trace under the min-RTT scheduler,
sampling each path's in-flight bytes and CWND.  The paper's finding:
the CWND cannot follow the Wi-Fi collapse, so the scheduler keeps the
in-flight bytes high (they even *grow* around t = 1.8 s), setting up
multi-path HoL blocking.
"""

from figures.conftest import print_table
from repro.experiments.dynamics import run_fig1_dynamics
from repro.traces import campus_walk_wifi_trace, trace_mean_throughput_bps


def test_fig1_vanilla_dynamics():
    dynamics = run_fig1_dynamics(duration_s=3.0)
    wifi, lte = dynamics[0], dynamics[1]

    rows = []
    for t0 in (0.0, 0.6, 1.2, 1.7, 2.2, 2.8):
        t1 = t0 + 0.5
        rows.append([
            f"{t0:.1f}-{t1:.1f}",
            wifi.max_inflight_in(t0, t1),
            lte.max_inflight_in(t0, t1),
        ])
    print_table("Fig. 1a/1b: max in-flight bytes per window (vanilla-MP)",
                ["window (s)", "wifi path", "lte path"], rows)

    # The Wi-Fi trace really collapses during the outage window.
    trace = campus_walk_wifi_trace(duration_s=3.0, seed=1)
    in_outage = [t for t in trace if 1700 <= t < 2200]
    before = [t for t in trace if 1200 <= t < 1700]
    assert len(in_outage) < len(before) / 5

    # Fig. 1a's finding: in-flight on the Wi-Fi path stays high (does
    # not drain) through the outage -- the scheduler keeps the path
    # loaded because its CWND has not adapted.
    pre_outage = wifi.max_inflight_in(1.2, 1.7)
    during_outage = wifi.max_inflight_in(1.8, 2.2)
    assert during_outage > 0.5 * pre_outage

    # The stable LTE path keeps flowing throughout.
    assert lte.max_inflight_in(1.8, 2.2) > 0
