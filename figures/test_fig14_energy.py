"""Fig. 14: normalized energy per bit vs throughput.

Downloads fixed loads over Wi-Fi, LTE, NR alone and Wi-Fi-LTE /
Wi-Fi-NR with XLINK (each link capped at 30 Mbps) and reports the
normalized (energy-per-bit, throughput) points.  The paper's shapes:

- both multipath configurations show large throughput gains over
  their single-path counterparts;
- Wi-Fi-LTE / Wi-Fi-NR improve energy-per-bit over LTE / NR alone
  (the baseline power amortizes over a faster transfer);
- Wi-Fi alone remains the most energy-efficient, so multipath is a
  throughput/energy trade-off.
"""

from figures.conftest import print_table
from repro.experiments.energyexp import normalize, run_fig14


def test_fig14_energy():
    points = run_fig14()
    normalized = {p.config: p for p in normalize(points)}
    raw = {p.config: p for p in points}

    rows = []
    for name, p in normalized.items():
        rows.append([
            name,
            f"{p.energy_per_bit_j:.2f}",
            f"{p.throughput_mbps:.2f}",
            f"{raw[name].throughput_mbps:.1f}",
            f"{raw[name].energy_per_bit_j * 1e9:.1f}",
        ])
    print_table("Fig. 14: normalized energy/bit vs throughput",
                ["config", "norm J/bit", "norm throughput",
                 "raw Mbps", "raw nJ/bit"], rows)

    # Throughput: multipath beats its single-path counterparts.
    assert raw["WiFi-LTE"].throughput_mbps > raw["WiFi"].throughput_mbps
    assert raw["WiFi-LTE"].throughput_mbps > raw["LTE"].throughput_mbps
    assert raw["WiFi-NR"].throughput_mbps > raw["WiFi"].throughput_mbps
    assert raw["WiFi-NR"].throughput_mbps > raw["NR"].throughput_mbps

    # Energy per bit: multipath improves over the cellular-only runs.
    assert raw["WiFi-LTE"].energy_per_bit_j < raw["LTE"].energy_per_bit_j
    assert raw["WiFi-NR"].energy_per_bit_j < raw["NR"].energy_per_bit_j

    # Wi-Fi stays the most efficient (the paper's trade-off note).
    assert raw["WiFi"].energy_per_bit_j == \
        min(p.energy_per_bit_j for p in points)
