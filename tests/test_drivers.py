"""Smoke tests for the per-figure experiment drivers.

These run scaled-down versions of the experiments the benchmarks run
at full size, verifying structure and basic invariants rather than the
paper's shapes (the benchmarks assert shapes).
"""

import pytest

from repro.core import ThresholdConfig
from repro.experiments.abtest import ABTestConfig, run_ab_day
from repro.experiments.dynamics import (FIG6_MODES, run_fig1_dynamics,
                                        run_fig6_dynamics)
from repro.experiments.energyexp import (FIG14_CONFIGS, normalize,
                                         run_fig14_point)
from repro.experiments.mobility import (FIG13_SCHEMES, run_mobility_trace)
from repro.experiments.pathexp import run_fig7_point, run_fig8_point
from repro.experiments.thresholds import percentile_pair_to_seconds
from repro.metrics import DistSketch
from repro.traces.catalog import extreme_mobility_trace_pairs


class TestFig1Driver:
    def test_returns_both_paths(self):
        dyn = run_fig1_dynamics(duration_s=1.0)
        assert set(dyn) == {0, 1}
        for series in dyn.values():
            assert len(series.times) > 10
            assert len(series.times) == len(series.inflight_bytes) \
                == len(series.cwnd_bytes)

    def test_samples_are_time_ordered(self):
        dyn = run_fig1_dynamics(duration_s=1.0)
        times = dyn[0].times
        assert times == sorted(times)


class TestFig6Driver:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            run_fig6_dynamics("bogus")

    def test_vanilla_has_no_reinjection(self):
        series = run_fig6_dynamics("vanilla_mp")
        assert series.total_reinjected() == 0

    def test_reinjection_counters_monotone(self):
        series = run_fig6_dynamics("reinject_no_qoe")
        values = series.reinjected_bytes
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestFig7Driver:
    def test_latency_positive_and_size_monotone(self):
        small = run_fig7_point("wifi", 64 * 1024)
        large = run_fig7_point("wifi", 512 * 1024)
        assert 0 < small < large

    def test_unknown_primary_rejected(self):
        with pytest.raises(ValueError):
            run_fig7_point("satellite", 64 * 1024)


class TestFig8Driver:
    def test_both_policies_complete(self):
        fast = run_fig8_point(2, "fastest")
        orig = run_fig8_point(2, "original")
        assert fast > 0 and orig > 0

    def test_scheme_table_not_polluted(self):
        from repro.experiments.harness import SCHEMES
        before = set(SCHEMES)
        run_fig8_point(1, "fastest")
        assert set(SCHEMES) == before


class TestFig13Driver:
    def test_single_trace_all_schemes(self):
        pair = extreme_mobility_trace_pairs(duration_s=12.0)[0]
        result = run_mobility_trace(pair, schemes=("sp", "xlink"), seed=1)
        assert set(result.times) == {"sp", "xlink"}
        for times in result.times.values():
            assert len(times) >= 6
            assert all(t > 0 for t in times)
        assert result.median("xlink") <= result.maximum("xlink")


class TestFig14Driver:
    def test_single_radio_point(self):
        point = run_fig14_point("WiFi", 2_000_000)
        assert point.throughput_mbps > 0
        assert point.energy_per_bit_j > 0

    def test_multipath_point_charges_both_radios(self):
        point = run_fig14_point("WiFi-LTE", 2_000_000)
        assert point.throughput_mbps > 0

    def test_normalize_caps_at_one(self):
        points = [run_fig14_point(c, 2_000_000)
                  for c in ("WiFi", "LTE")]
        normed = normalize(points)
        assert max(p.throughput_mbps for p in normed) == pytest.approx(1.0)
        assert max(p.energy_per_bit_j for p in normed) == pytest.approx(1.0)

    def test_all_configs_defined(self):
        assert set(FIG14_CONFIGS) == {"WiFi", "LTE", "NR", "WiFi-LTE",
                                      "WiFi-NR"}


class TestThresholdDriver:
    def test_distribution_measured(self):
        cfg = ABTestConfig(users_per_day=2, video_duration_s=3.0,
                           timeout_s=30.0, seed=13)
        samples = run_ab_day(
            cfg, 1, ["vanilla_mp"]).schemes["vanilla_mp"].buffer_level
        assert samples.count > 50
        assert samples.percentile(0) >= 0

    def test_percentile_pair_ordering(self):
        samples = DistSketch()
        samples.extend(i * 0.1 for i in range(100))
        th = percentile_pair_to_seconds(samples, 95, 80)
        assert isinstance(th, ThresholdConfig)
        assert th.t_th1 <= th.t_th2
        # th(95) is the low 5th percentile; th(80) the 20th.
        assert th.t_th1 == pytest.approx(0.1 * 99 * 0.05, rel=0.1)

    def test_degenerate_distribution_valid(self):
        samples = DistSketch()
        samples.extend([1.0] * 10)
        th = percentile_pair_to_seconds(samples, 95, 80)
        assert th.t_th1 <= th.t_th2


class TestFig6ModeList:
    def test_modes_match_paper_panels(self):
        assert FIG6_MODES == ("vanilla_mp", "reinject_no_qoe",
                              "reinject_with_qoe")


class TestFig13SchemeList:
    def test_schemes_match_figure(self):
        assert set(FIG13_SCHEMES) == {"sp", "vanilla_mp", "mptcp", "cm",
                                      "xlink"}
