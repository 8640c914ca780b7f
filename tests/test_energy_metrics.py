"""Tests for the energy model and the metrics package."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.energy import EnergyAccount, POWER_MODELS
from repro.metrics import (aggregate_rebuffer_rate, improvement_percent,
                           percentile)
from repro.experiments.parallel import SessionOutcome
from repro.metrics.qoe import SessionMetrics
from repro.metrics.sink import SchemeSink
from repro.traces.radio_profiles import RadioType


class TestPowerModels:
    def test_power_increases_with_throughput(self):
        model = POWER_MODELS[RadioType.LTE]
        assert model.power_at(30.0) > model.power_at(1.0)

    def test_nr_draws_more_than_lte_than_wifi(self):
        """Fig. 14 substrate: per-radio power ordering."""
        at = 20.0
        assert POWER_MODELS[RadioType.NR_NSA].power_at(at) > \
            POWER_MODELS[RadioType.LTE].power_at(at) > \
            POWER_MODELS[RadioType.WIFI].power_at(at)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            POWER_MODELS[RadioType.WIFI].power_at(-1)

    @staticmethod
    def _joules_per_bit(radio: RadioType, mbps: float) -> float:
        """What an account charges per bit for 1 MB at ``mbps``."""
        acct = EnergyAccount()
        acct.add(radio, 1_000_000, 8.0 / mbps)
        return acct.energy_per_bit_j()

    def test_energy_per_bit_falls_with_throughput(self):
        """The active baseline amortizes: J/bit drops as rate rises."""
        low = self._joules_per_bit(RadioType.LTE, 2.0)
        high = self._joules_per_bit(RadioType.LTE, 30.0)
        assert high < low

    def test_wifi_most_efficient_per_bit(self):
        at = 20.0
        assert self._joules_per_bit(RadioType.WIFI, at) < \
            self._joules_per_bit(RadioType.LTE, at) < \
            self._joules_per_bit(RadioType.NR_NSA, at)


class TestEnergyAccount:
    def test_integrates_power_over_time(self):
        acct = EnergyAccount()
        # 10 MB in 8 s over Wi-Fi = 10 Mbps.
        acct.add(RadioType.WIFI, 10_000_000, 8.0)
        expected_power = POWER_MODELS[RadioType.WIFI].power_at(10.0)
        assert acct.total_energy_j() == pytest.approx(expected_power * 8.0)

    def test_energy_per_bit(self):
        acct = EnergyAccount()
        acct.add(RadioType.WIFI, 10_000_000, 8.0)
        assert acct.energy_per_bit_j() == pytest.approx(
            acct.total_energy_j() / (10_000_000 * 8))

    def test_multi_radio_sum(self):
        acct = EnergyAccount()
        acct.add(RadioType.WIFI, 5_000_000, 4.0)
        acct.add(RadioType.LTE, 5_000_000, 4.0)
        solo = EnergyAccount()
        solo.add(RadioType.WIFI, 5_000_000, 4.0)
        assert acct.total_energy_j() > solo.total_energy_j()
        assert acct.total_bytes == 10_000_000

    def test_empty_account(self):
        acct = EnergyAccount()
        assert acct.total_energy_j() == 0.0
        assert acct.energy_per_bit_j() == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            EnergyAccount().add(RadioType.WIFI, -1, 1.0)

    def test_multipath_tradeoff_shape(self):
        """Fig. 14's key shape: Wi-Fi+LTE has higher throughput than
        either alone, and lower J/bit than LTE alone."""
        # Each radio runs at the same 20 Mbps per-link rate (the paper
        # caps links at 30 Mbps); multipath doubles throughput but
        # pays LTE's higher power -- so it lands between Wi-Fi-only
        # and LTE-only in J/bit (Fig. 14's trade-off).
        wifi_only = EnergyAccount()
        wifi_only.add(RadioType.WIFI, 10_000_000, 4.0)
        lte_only = EnergyAccount()
        lte_only.add(RadioType.LTE, 10_000_000, 4.0)
        both = EnergyAccount()
        both.add(RadioType.WIFI, 10_000_000, 4.0)
        both.add(RadioType.LTE, 10_000_000, 4.0)
        assert both.energy_per_bit_j() < lte_only.energy_per_bit_j()
        assert both.energy_per_bit_j() > wifi_only.energy_per_bit_j()


class TestPercentile:
    def test_median_odd(self):
        assert percentile([3, 1, 2], 50) == 2

    def test_median_even_interpolates(self):
        assert percentile([1, 2, 3, 4], 50) == pytest.approx(2.5)

    def test_extremes(self):
        data = [5, 1, 9]
        assert percentile(data, 0) == 1
        assert percentile(data, 100) == 9

    def test_single_element(self):
        assert percentile([7], 99) == 7

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            percentile([1], 101)

    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=200),
           st.floats(0, 100))
    @settings(max_examples=200)
    def test_percentile_within_bounds_property(self, data, pct):
        value = percentile(data, pct)
        assert min(data) <= value <= max(data)

    @given(st.lists(st.floats(0, 1e6), min_size=2, max_size=100))
    @settings(max_examples=100)
    def test_percentile_monotone_property(self, data):
        assert percentile(data, 25) <= percentile(data, 75)

    def test_matches_numpy(self):
        import numpy as np
        data = [0.3, 1.7, 2.2, 9.1, 4.4, 0.01]
        for pct in (10, 50, 90, 99):
            assert percentile(data, pct) == pytest.approx(
                float(np.percentile(data, pct)))


class TestQoeMetrics:
    def test_aggregate_rebuffer_rate(self):
        sessions = [
            SessionMetrics(rebuffer_time=1.0, play_time=10.0),
            SessionMetrics(rebuffer_time=0.0, play_time=10.0),
        ]
        assert aggregate_rebuffer_rate(sessions) == pytest.approx(0.05)

    def test_aggregate_rebuffer_rate_empty(self):
        assert aggregate_rebuffer_rate([]) == 0.0

    def test_improvement_percent_sign(self):
        # Positive = treatment better (smaller).
        assert improvement_percent(2.0, 1.0) == pytest.approx(50.0)
        assert improvement_percent(1.0, 2.0) == pytest.approx(-100.0)
        # against a zero baseline: worse is a regression, equal is parity
        assert improvement_percent(0.0, 1.0) == -math.inf
        assert improvement_percent(0.0, 0.0) == 0.0

    @staticmethod
    def _overhead(sessions) -> float:
        sink = SchemeSink("xlink")
        for metrics in sessions:
            sink.observe(SessionOutcome(key=0, scheme="xlink",
                                        completed=True, duration_s=1.0,
                                        metrics=metrics))
        return sink.traffic_overhead_percent

    def test_traffic_overhead(self):
        sessions = [SessionMetrics(redundant_bytes=21, useful_bytes=1000)]
        assert self._overhead(sessions) == pytest.approx(2.1)

    def test_traffic_overhead_no_traffic(self):
        assert self._overhead([SessionMetrics()]) == 0.0
