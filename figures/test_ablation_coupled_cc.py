"""Ablation: decoupled vs coupled (LIA) congestion control (Sec. 9).

The paper runs decoupled Cubic because Wi-Fi and cellular rarely
share a bottleneck, but notes the coupled variant is preferred for
fairness when they do.  This bench verifies the mechanism trade-off:

- on *disjoint* bottlenecks, decoupled CC matches or beats coupled
  (LIA deliberately grows slower to bound aggregate aggressiveness);
- the coupled connection still completes and aggregates both paths.
"""

from figures.conftest import print_table
from repro.experiments.harness import (PathSpec, run_bulk_download,
                                       scheme_with_cc)
from repro.traces.radio_profiles import RadioType

LOAD = 3_000_000


def _paths():
    return [
        PathSpec(net_path_id=0, radio=RadioType.WIFI,
                 one_way_delay_s=0.015, rate_bps=6e6),
        PathSpec(net_path_id=1, radio=RadioType.LTE,
                 one_way_delay_s=0.040, rate_bps=6e6),
    ]


def _run_cc(cc_name: str) -> float:
    result = run_bulk_download(scheme_with_cc("vanilla_mp", cc_name),
                               _paths(), LOAD, timeout_s=120.0, seed=5)
    assert result.download_time_s is not None
    return result.download_time_s


def _run_all():
    return {cc: _run_cc(cc) for cc in ("cubic", "newreno", "lia")}


def test_ablation_coupled_cc():
    times = _run_all()
    single_path_time = LOAD * 8 / 6e6  # line-rate bound of one path

    rows = [[cc, f"{t:.2f}"] for cc, t in times.items()]
    print_table("Ablation: multipath CC on disjoint bottlenecks "
                f"(3 MB load; one-path line-rate bound "
                f"{single_path_time:.2f}s)",
                ["congestion control", "completion (s)"], rows)

    # Everyone aggregates: faster than one path's line rate alone.
    for cc, t in times.items():
        assert t < single_path_time, f"{cc} failed to aggregate"

    # LIA's coupled increase is no more aggressive than decoupled CC.
    assert times["lia"] >= min(times["cubic"], times["newreno"]) * 0.9
