"""Integration tests for the experiment harness and A/B simulator."""

import dataclasses

import pytest

from repro.experiments import (ABTestConfig, PathSpec, SCHEMES,
                               run_ab_day, run_bulk_download,
                               run_video_session)
from repro.experiments.abtest import sample_user_conditions
from repro.experiments.harness import scheme_with_cc
from repro.netem import OutageSchedule
from repro.sim.rng import make_rng
from repro.traces.radio_profiles import RadioType
from repro.video import PlayerConfig, make_video


def wifi_lte_paths(wifi_rate=10e6, lte_rate=5e6, wifi_outage=None,
                   lte_outage=None):
    return [
        PathSpec(net_path_id=0, radio=RadioType.WIFI,
                 one_way_delay_s=0.010, rate_bps=wifi_rate,
                 outages=wifi_outage),
        PathSpec(net_path_id=1, radio=RadioType.LTE,
                 one_way_delay_s=0.035, rate_bps=lte_rate,
                 outages=lte_outage),
    ]


SMALL_VIDEO = make_video(duration_s=4.0, bitrate_bps=1_500_000, seed=9)


class TestSchemeTable:
    def test_all_schemes_defined(self):
        assert set(SCHEMES) == {"sp", "cm", "vanilla_mp", "reinject",
                                "xlink", "xlink_nofa", "mptcp"}

    def test_scheme_table_is_read_only(self):
        # a variant is a value handed to the session, never a new key
        with pytest.raises(TypeError):
            SCHEMES["x"] = SCHEMES["xlink"]
        with pytest.raises(TypeError):
            del SCHEMES["sp"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            SCHEMES["xlink"].cc_algorithm = "bbr"

    def test_cc_variant_is_a_value(self):
        variant = scheme_with_cc("xlink", "bbr")
        assert variant == dataclasses.replace(
            SCHEMES["xlink"], name="xlink+bbr", cc_algorithm="bbr")
        assert "xlink+bbr" not in SCHEMES
        with pytest.raises(ValueError):
            scheme_with_cc("xlink", "warp")

    def test_cubic_variant_is_the_base_scheme(self):
        for scheme in SCHEMES:
            assert scheme_with_cc(scheme, "cubic") is SCHEMES[scheme]
        # the MPTCP baseline joins the scheme x CC matrix like any arm
        assert scheme_with_cc("mptcp", "lia").cc_algorithm == "lia"

    def test_sp_single_path(self):
        assert not SCHEMES["sp"].multipath

    def test_xlink_has_thresholds(self):
        assert SCHEMES["xlink"].thresholds is not None
        assert not SCHEMES["xlink"].thresholds.always_on

    def test_reinject_always_on(self):
        assert SCHEMES["reinject"].thresholds.always_on


class TestVideoSession:
    def test_path_spec_validation(self):
        with pytest.raises(ValueError):
            PathSpec(net_path_id=0, radio=RadioType.WIFI,
                     one_way_delay_s=0.01)
        with pytest.raises(ValueError):
            PathSpec(net_path_id=0, radio=RadioType.WIFI,
                     one_way_delay_s=0.01, rate_bps=1e6, trace_ms=[1])

    def test_sp_session_completes(self):
        result = run_video_session("sp", wifi_lte_paths()[:1],
                                   video=SMALL_VIDEO, seed=1)
        assert result.completed
        assert result.metrics.first_frame_latency is not None
        assert result.metrics.request_completion_times
        assert result.redundancy_percent == 0.0

    def test_xlink_session_completes(self):
        result = run_video_session("xlink", wifi_lte_paths(),
                                   video=SMALL_VIDEO, seed=1)
        assert result.completed
        assert len(result.client.paths) == 2

    def test_mptcp_video_session_completes(self):
        result = run_video_session("mptcp", wifi_lte_paths(),
                                   video=SMALL_VIDEO, seed=1)
        assert result.completed
        assert len(result.client.paths) == 2

    def test_primary_path_is_wifi(self):
        """Wireless-aware selection: Wi-Fi preferred over LTE."""
        result = run_video_session("xlink", wifi_lte_paths(),
                                   video=SMALL_VIDEO, seed=1)
        assert result.client.net_path_of[0] == 0  # wifi net id

    def test_primary_order_override(self):
        result = run_video_session(
            "xlink", wifi_lte_paths(), video=SMALL_VIDEO, seed=1,
            primary_order=(RadioType.LTE, RadioType.WIFI))
        assert result.client.net_path_of[0] == 1

    def test_deterministic_given_seed(self):
        a = run_video_session("xlink", wifi_lte_paths(),
                              video=SMALL_VIDEO, seed=5)
        b = run_video_session("xlink", wifi_lte_paths(),
                              video=SMALL_VIDEO, seed=5)
        assert a.metrics.request_completion_times == \
            b.metrics.request_completion_times
        assert a.duration_s == b.duration_s

    def test_cm_session_migrates_on_outage(self):
        paths = wifi_lte_paths(
            wifi_outage=OutageSchedule(windows=[(0.5, 30.0)]))
        result = run_video_session("cm", paths, video=SMALL_VIDEO,
                                   timeout_s=25.0, seed=2)
        # The monitor must have moved the connection off the dead wifi.
        assert result.completed
        assert result.duration_s < 25.0

    def test_sp_stalls_through_outage(self):
        paths = [wifi_lte_paths(
            wifi_outage=OutageSchedule(windows=[(0.5, 3.0)]))[0]]
        result = run_video_session("sp", paths, video=SMALL_VIDEO,
                                   timeout_s=30.0, seed=2)
        assert result.completed
        assert result.duration_s > 3.0

    def test_cm_long_outage_migrates_and_rebuffers_less_than_sp(self):
        """An outage longer than CM's stall threshold: migrating to LTE
        saves the session from the stall single-path sits through."""
        def paths():
            return wifi_lte_paths(
                wifi_outage=OutageSchedule(windows=[(0.5, 4.0)]))
        cm = run_video_session("cm", paths(), seed=7)
        sp = run_video_session("sp", paths(), seed=7)
        assert cm.client.net_path_of[0] == 1     # path 0 now on LTE
        assert sp.metrics.rebuffer_time > cm.metrics.rebuffer_time


class TestBulkDownload:
    def test_quic_bulk(self):
        result = run_bulk_download("xlink", wifi_lte_paths(), 500_000,
                                   seed=3)
        assert result.completed
        assert result.download_time_s is not None
        assert result.download_time_s > 0

    def test_mptcp_bulk(self):
        result = run_bulk_download("mptcp", wifi_lte_paths(), 500_000,
                                   seed=3)
        assert result.completed
        assert result.download_time_s is not None

    def test_opportunistic_rtx_rescues_blocking(self):
        """MPTCP's opportunistic retransmission re-sends what the dead
        LTE subflow holds, so the transfer ends long before the
        blackout does; without re-injection it waits the blackout out."""
        paths = [
            PathSpec(net_path_id=0, radio=RadioType.WIFI,
                     one_way_delay_s=0.010, rate_bps=8e6),
            PathSpec(net_path_id=1, radio=RadioType.LTE,
                     one_way_delay_s=0.050, rate_bps=8e6,
                     outages=OutageSchedule(windows=[(0.05, 20.0)])),
        ]
        mptcp = run_bulk_download("mptcp", paths, 400_000, timeout_s=15.0)
        assert mptcp.completed and mptcp.download_time_s < 15.0
        vanilla = run_bulk_download("vanilla_mp", paths, 400_000,
                                    timeout_s=15.0)
        assert not vanilla.completed

    def test_mptcp_aggregates_bandwidth(self):
        paths = [PathSpec(net_path_id=0, radio=RadioType.WIFI,
                          one_way_delay_s=0.020, rate_bps=4e6),
                 PathSpec(net_path_id=1, radio=RadioType.LTE,
                          one_way_delay_s=0.030, rate_bps=4e6)]
        single = run_bulk_download("mptcp", paths[:1], 1_500_000)
        double = run_bulk_download("mptcp", paths, 1_500_000)
        assert double.download_time_s < single.download_time_s * 0.85

    def test_sp_bulk_uses_one_path(self):
        result = run_bulk_download("sp", wifi_lte_paths()[:1], 300_000,
                                   seed=3)
        assert result.completed


class TestAbPopulation:
    def test_conditions_sampling_shape(self):
        cfg = ABTestConfig()
        rng = make_rng(1, "c")
        conditions = [sample_user_conditions(cfg, rng) for _ in range(60)]
        lte_delays = [c.lte.one_way_delay_s for c in conditions]
        wifi_delays = [c.wifi.one_way_delay_s for c in conditions]
        assert sorted(lte_delays)[30] > sorted(wifi_delays)[30]
        assert any(c.wifi.outages for c in conditions)
        assert any(c.lte.outages for c in conditions)

    def test_sp_gets_only_wifi(self):
        cfg = ABTestConfig()
        rng = make_rng(1, "c")
        cond = sample_user_conditions(cfg, rng)
        assert len(cond.paths_for("sp")) == 1
        assert cond.paths_for("sp")[0].radio is RadioType.WIFI
        assert len(cond.paths_for("xlink")) == 2

    def test_single_path_is_decided_from_the_value(self):
        cond = sample_user_conditions(ABTestConfig(), make_rng(1, "c"))
        # not from the literal name "sp": a CC variant of SP is as
        # single-path as SP, and CM needs the interface it migrates to
        assert cond.paths_for(scheme_with_cc("sp", "bbr")) == [cond.wifi]
        assert cond.paths_for(SCHEMES["sp"]) == [cond.wifi]
        assert cond.paths_for("cm") == [cond.wifi, cond.lte]
        assert cond.paths_for(scheme_with_cc("cm", "bbr")) \
            == [cond.wifi, cond.lte]

    def test_ab_day_runs_all_schemes(self):
        cfg = ABTestConfig(users_per_day=2, video_duration_s=3.0,
                           timeout_s=30.0, seed=11)
        results = run_ab_day(cfg, 1, ["sp", "xlink"])
        assert set(results.schemes) == {"sp", "xlink"}
        for day in results.schemes.values():
            assert day.sessions == 2
            assert day.rct.count

    def test_ab_day_deterministic(self):
        cfg = ABTestConfig(users_per_day=2, video_duration_s=3.0,
                           timeout_s=30.0, seed=11)
        a = run_ab_day(cfg, 1, ["sp"]).schemes["sp"]
        b = run_ab_day(cfg, 1, ["sp"]).schemes["sp"]
        assert a.rct._exact is not None and a.rct.count
        assert a.canonical() == b.canonical()

    def test_different_days_differ(self):
        cfg = ABTestConfig(users_per_day=2, video_duration_s=3.0,
                           timeout_s=30.0, seed=11)
        a = run_ab_day(cfg, 1, ["sp"]).schemes["sp"]
        b = run_ab_day(cfg, 2, ["sp"]).schemes["sp"]
        assert a.rct.canonical() != b.rct.canonical()
