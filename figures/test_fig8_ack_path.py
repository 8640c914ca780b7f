"""Fig. 8: ACK_MP return-path strategies with Cubic.

Downloads a 4 MB load over two equal-bandwidth paths while sweeping
the RTT ratio from 1:1 to 8:1, comparing ACK_MP on the min-RTT path
(XLINK's choice) against ACK_MP on the original path (MPTCP-style).
The paper's shape: the strategies are comparable at small ratios, and
the fastest-path return gains an advantage as the ratio grows because
faster ack return lets Cubic's window grow faster.
"""

from figures.conftest import print_table
from repro.experiments.pathexp import run_fig8

RATIOS = (1, 2, 4, 6, 8)


def test_fig8_ack_path():
    sweep = run_fig8(ratios=RATIOS)

    rows = []
    for (ratio, fast_t), (_r, orig_t) in zip(sweep["fastest"],
                                             sweep["original"]):
        rows.append([f"{ratio}:1", f"{fast_t:.2f}", f"{orig_t:.2f}"])
    print_table("Fig. 8: 4MB completion time vs RTT ratio (s)",
                ["RTT ratio", "minRTT path", "original path"], rows)

    fast = dict(sweep["fastest"])
    orig = dict(sweep["original"])

    # At 1:1 the strategies are equivalent (same return delay).
    assert fast[1] <= orig[1] * 1.10

    # At the largest ratio, the fastest-path return clearly wins.
    assert fast[RATIOS[-1]] < orig[RATIOS[-1]]
