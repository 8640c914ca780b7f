"""Sec. 3.2 + Table 4: path delays in heterogeneous networks.

Samples the per-radio delay models and reproduces the measured
statistics: median LTE path delay = 2.7x Wi-Fi and 5.5x 5G SA, 90th
percentile LTE = 3.3x Wi-Fi, and the cross-ISP delay inflation matrix
of Table 4 (up to ~50% when the secondary path crosses ISP borders).
"""

import random

import pytest

from figures.conftest import print_table
from repro.metrics import percentile
from repro.traces import (CROSS_ISP_DELAY_INCREASE, RADIO_PROFILES,
                          RadioType, cross_isp_delay)

SAMPLES = 20_000


def _sample_all():
    rng = random.Random(0)
    out = {}
    for radio, profile in RADIO_PROFILES.items():
        out[radio] = sorted(profile.sample_rtt(rng)
                            for _ in range(SAMPLES))
    return out


def test_sec32_path_delays():
    samples = _sample_all()

    rows = []
    for radio, values in samples.items():
        rows.append([str(radio),
                     f"{percentile(values, 50) * 1000:.1f}",
                     f"{percentile(values, 90) * 1000:.1f}"])
    print_table("Sec. 3.2: sampled path RTTs per radio (ms)",
                ["radio", "median", "p90"], rows)

    lte = samples[RadioType.LTE]
    wifi = samples[RadioType.WIFI]
    nr_sa = samples[RadioType.NR_SA]

    median_ratio_wifi = percentile(lte, 50) / percentile(wifi, 50)
    median_ratio_sa = percentile(lte, 50) / percentile(nr_sa, 50)
    p90_ratio_wifi = percentile(lte, 90) / percentile(wifi, 90)
    print(f"\nLTE/WiFi median ratio: {median_ratio_wifi:.2f} (paper: 2.7)")
    print(f"LTE/5G-SA median ratio: {median_ratio_sa:.2f} (paper: 5.5)")
    print(f"LTE/WiFi p90 ratio: {p90_ratio_wifi:.2f} (paper: 3.3)")
    assert median_ratio_wifi == pytest.approx(2.7, rel=0.15)
    assert median_ratio_sa == pytest.approx(5.5, rel=0.15)
    assert p90_ratio_wifi == pytest.approx(3.3, rel=0.2)

    # Table 4: cross-ISP inflation matrix.
    isps = ("A", "B", "C")
    rows = [[a] + [f"{CROSS_ISP_DELAY_INCREASE[a][b] * 100:.0f}%"
                   for b in isps] for a in isps]
    print_table("Table 4: relative increase of cross-ISP LTE delay",
                ["ISP"] + list(isps), rows)
    worst = max(v for row in CROSS_ISP_DELAY_INCREASE.values()
                for v in row.values())
    assert worst == pytest.approx(0.54)
    # "the delay could go up by 50% as the result of crossing ISP
    # borders" -- applying the worst pair inflates accordingly.
    assert cross_isp_delay(0.1, "B", "C") == pytest.approx(0.154)
