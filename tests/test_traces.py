"""Tests for trace generation, file format, and radio profiles."""

import math
import random

import pytest

from repro.netem.packet import MTU
from repro.traces import (CROSS_ISP_DELAY_INCREASE, RADIO_PROFILES, RadioType,
                          campus_walk_wifi_trace, cross_isp_delay,
                          extreme_mobility_trace_pairs,
                          high_speed_rail_cellular_trace,
                          load_mahimahi_trace, save_mahimahi_trace,
                          stable_lte_trace,
                          subway_cellular_trace, trace_from_rate_series,
                          trace_mean_throughput_bps)


class TestFormat:
    def test_roundtrip(self, tmp_path):
        trace = [0, 5, 5, 17, 200]
        path = tmp_path / "t.trace"
        save_mahimahi_trace(trace, path)
        assert list(load_mahimahi_trace(path)) == trace

    def test_load_skips_comments_and_blanks(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("# comment\n1\n\n2\n")
        assert list(load_mahimahi_trace(path)) == [1, 2]

    def test_load_sorts_and_keeps_equal_timestamps(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("9\n2\n2\n5\n2\n")
        assert list(load_mahimahi_trace(path)) == [2, 2, 2, 5, 9]

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("abc\n")
        with pytest.raises(ValueError):
            load_mahimahi_trace(path)

    @pytest.mark.parametrize("bad", ["-5", "-1", "2147483648", "99999999999"])
    def test_load_rejects_negative_and_beyond_32_bits(self, tmp_path, bad):
        # a negative timestamp wraps to an opportunity in the past
        path = tmp_path / "t.trace"
        path.write_text(f"0\n3\n{bad}\n")
        with pytest.raises(ValueError, match="t.trace:3: bad trace line"):
            load_mahimahi_trace(path)

    def test_load_keeps_the_largest_32_bit_timestamp(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("0\n2147483647\n")
        assert list(load_mahimahi_trace(path)) == [0, 2 ** 31 - 1]

    def test_rate_series_conversion_mean(self):
        # 12 Mbps for 10 s => 12e6/8/1500 = 1000 packets/s.
        trace = trace_from_rate_series([12e6] * 100, interval_s=0.1)
        assert len(trace) == pytest.approx(1000 * 10, rel=0.01)

    def test_rate_series_zero_rate_gap(self):
        trace = trace_from_rate_series([12e6, 0.0, 12e6], interval_s=0.1)
        in_gap = [t for t in trace if 100 <= t < 200]
        assert len(in_gap) <= 1  # at most leftover credit

    def test_rate_series_rejects_negative(self):
        with pytest.raises(ValueError):
            trace_from_rate_series([-1.0])

    def test_mean_throughput(self):
        trace = trace_from_rate_series([12e6] * 100, interval_s=0.1)
        measured = trace_mean_throughput_bps(trace)
        assert measured == pytest.approx(12e6, rel=0.02)

    def test_mean_throughput_empty(self):
        assert trace_mean_throughput_bps([]) == 0.0


class TestSyntheticTraces:
    def test_campus_wifi_has_outage(self):
        trace = campus_walk_wifi_trace(duration_s=3.0, seed=1)
        in_outage = [t for t in trace if 1700 <= t < 2200]
        before = [t for t in trace if 1200 <= t < 1700]
        # Near-zero throughput in the outage window (Fig. 1a).
        assert len(in_outage) < len(before) / 5

    def test_stable_lte_is_stable(self):
        trace = stable_lte_trace(duration_s=3.0, seed=2, mean_mbps=24.0)
        # Per-500ms window counts should vary little.
        counts = []
        for w in range(6):
            counts.append(len([t for t in trace
                               if w * 500 <= t < (w + 1) * 500]))
        assert max(counts) <= 1.5 * min(counts)

    def test_subway_trace_has_deep_fades(self):
        trace = subway_cellular_trace(duration_s=30.0, seed=10)
        counts = [len([t for t in trace if w * 1000 <= t < (w + 1) * 1000])
                  for w in range(30)]
        assert min(counts) < max(counts) / 4

    def test_traces_are_deterministic(self):
        assert campus_walk_wifi_trace(seed=7) == campus_walk_wifi_trace(seed=7)
        assert high_speed_rail_cellular_trace(seed=3) == \
            high_speed_rail_cellular_trace(seed=3)

    def test_different_seeds_differ(self):
        assert campus_walk_wifi_trace(seed=1) != campus_walk_wifi_trace(seed=2)

    def test_mobility_catalog_has_ten_pairs(self):
        pairs = extreme_mobility_trace_pairs(duration_s=5.0)
        assert len(pairs) == 10
        assert {p["environment"] for p in pairs} == \
            {"subway", "high_speed_rail"}
        for p in pairs:
            assert len(p["cellular_ms"]) > 0
            assert len(p["wifi_ms"]) > 0


class TestRadioProfiles:
    def test_lte_median_ratio_to_wifi(self):
        """Sec. 3.2: median LTE path delay is 2.7x Wi-Fi."""
        lte = RADIO_PROFILES[RadioType.LTE].median_rtt_s
        wifi = RADIO_PROFILES[RadioType.WIFI].median_rtt_s
        assert lte / wifi == pytest.approx(2.7, rel=0.05)

    def test_lte_median_ratio_to_5g_sa(self):
        """Sec. 3.2: median LTE path delay is 5.5x 5G SA."""
        lte = RADIO_PROFILES[RadioType.LTE].median_rtt_s
        sa = RADIO_PROFILES[RadioType.NR_SA].median_rtt_s
        assert lte / sa == pytest.approx(5.5, rel=0.05)

    def test_lte_p90_ratio_to_wifi(self):
        """Sec. 3.2: 90th percentile LTE delay is 3.3x Wi-Fi."""
        lte = RADIO_PROFILES[RadioType.LTE].p90_rtt_s
        wifi = RADIO_PROFILES[RadioType.WIFI].p90_rtt_s
        assert lte / wifi == pytest.approx(3.3, rel=0.05)

    def test_sampled_medians_track_profile(self):
        rng = random.Random(0)
        profile = RADIO_PROFILES[RadioType.LTE]
        samples = sorted(profile.sample_rtt(rng) for _ in range(4000))
        median = samples[len(samples) // 2]
        assert median == pytest.approx(profile.median_rtt_s, rel=0.1)

    def test_sampled_p90_tracks_profile(self):
        rng = random.Random(0)
        profile = RADIO_PROFILES[RadioType.LTE]
        samples = sorted(profile.sample_rtt(rng) for _ in range(4000))
        p90 = samples[int(len(samples) * 0.9)]
        assert p90 == pytest.approx(profile.p90_rtt_s, rel=0.15)

    def test_cross_isp_matrix_matches_table4(self):
        assert CROSS_ISP_DELAY_INCREASE["B"]["C"] == 0.54
        assert CROSS_ISP_DELAY_INCREASE["A"]["A"] == 0.0
        # The worst case in Table 4 is 54%, noted in the paper as ~50%.
        worst = max(v for row in CROSS_ISP_DELAY_INCREASE.values()
                    for v in row.values())
        assert worst == 0.54

    def test_cross_isp_delay_applies_factor(self):
        assert cross_isp_delay(0.1, "B", "C") == pytest.approx(0.154)
        assert cross_isp_delay(0.1, "A", "A") == pytest.approx(0.1)

    def test_cross_isp_unknown_pair(self):
        with pytest.raises(KeyError):
            cross_isp_delay(0.1, "A", "Z")

    def test_preference_order(self):
        """Sec. 5.3: 5G SA > 5G NSA > WiFi > LTE."""
        prefs = {r: p.preference for r, p in RADIO_PROFILES.items()}
        assert prefs[RadioType.NR_SA] > prefs[RadioType.NR_NSA] > \
            prefs[RadioType.WIFI] > prefs[RadioType.LTE]
