"""Ablation: re-injection insertion modes (Fig. 4a vs 4b vs 4c).

Runs the same stressed two-path session (Wi-Fi blackout mid-play,
multiple concurrent chunk streams) under the three insertion policies
of Fig. 4 -- traditional appending, stream-priority, and
frame-priority -- plus no re-injection at all.  Design claims to
verify:

- any re-injection beats none on rebuffer time (MP-HoL rescue);
- the priority modes deliver the *urgent* stream no later than the
  appending mode, which parks duplicates behind later streams.
"""

import dataclasses

from figures.conftest import print_table
from repro.core import ReinjectionMode
from repro.experiments.harness import SCHEMES, PathSpec, run_video_session
from repro.netem import OutageSchedule
from repro.traces.radio_profiles import RadioType
from repro.video import PlayerConfig, make_video

MODES = {
    "none": ReinjectionMode.NONE,
    "appending": ReinjectionMode.APPENDING,
    "stream-priority": ReinjectionMode.STREAM_PRIORITY,
    "frame-priority": ReinjectionMode.FRAME_PRIORITY,
}


def _run_mode(mode_name: str):
    mode = MODES[mode_name]
    if mode is ReinjectionMode.NONE:
        scheme = SCHEMES["vanilla_mp"]
    else:
        scheme = dataclasses.replace(
            SCHEMES["xlink"], name=f"_abl_{mode_name}", reinjection_mode=mode)
    paths = [
        PathSpec(net_path_id=0, radio=RadioType.WIFI,
                 one_way_delay_s=0.012, rate_bps=9e6,
                 outages=OutageSchedule(windows=[(2.0, 5.0)])),
        PathSpec(net_path_id=1, radio=RadioType.LTE,
                 one_way_delay_s=0.045, rate_bps=5e6),
    ]
    video = make_video(name="abl", duration_s=12.0,
                       bitrate_bps=2_500_000, seed=7)
    return run_video_session(
        scheme, paths, video=video,
        player_config=PlayerConfig(max_buffer_s=2.0),
        timeout_s=60.0, seed=3)


def _run_all():
    return {name: _run_mode(name) for name in MODES}


def test_ablation_reinjection_modes():
    results = _run_all()

    rows = []
    for name, r in results.items():
        m = r.metrics
        worst = max(m.request_completion_times) \
            if m.request_completion_times else float("inf")
        rows.append([name, f"{m.rebuffer_time:.2f}", f"{worst:.2f}",
                     f"{r.redundancy_percent:.1f}%"])
    print_table("Ablation: re-injection insertion modes",
                ["mode", "rebuffer (s)", "worst chunk (s)", "redundancy"],
                rows)

    none = results["none"].metrics
    appending = results["appending"].metrics
    stream = results["stream-priority"].metrics
    frame = results["frame-priority"].metrics

    # Re-injection (any mode) rescues the MP-HoL stall.
    for m in (appending, stream, frame):
        assert m.rebuffer_time < none.rebuffer_time

    # Priority modes don't regress the stall relative to appending.
    assert stream.rebuffer_time <= appending.rebuffer_time + 0.25
    assert frame.rebuffer_time <= appending.rebuffer_time + 0.25

    # All re-injecting modes actually re-injected something.
    for name in ("appending", "stream-priority", "frame-priority"):
        assert results[name].reinjected_bytes > 0
