"""The batched pump still reproduces the pre-batching trajectories.

The six seed-7 outage video sessions and the MPTCP bulk download were
captured before the run-until-blocked pump, lazy-deadline timers and
flat ACK bookkeeping landed.  Those captures are the ``video/<scheme>``
and ``bulk/mptcp`` entries of ``tests/data/golden.json``; this module
reruns the same producers as ``tests/test_golden.py`` and holds them to
those entries, bit-for-bit.  Regenerate only through ``test_golden.py``.
"""

import pytest

from tests.test_golden import VIDEO_SCHEMES, as_json, bulk, load, video


@pytest.fixture(scope="module")
def values() -> dict:
    return load()["values"]


class TestPumpEquivalence:
    @pytest.mark.parametrize("scheme", VIDEO_SCHEMES)
    def test_video_scheme_matches_frozen_snapshot(self, values, scheme):
        assert as_json(video(scheme)) == values[f"video/{scheme}"]

    def test_bulk_mptcp_matches_frozen_snapshot(self, values):
        assert as_json(bulk("mptcp")) == values["bulk/mptcp"]
