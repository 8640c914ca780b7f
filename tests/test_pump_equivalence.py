"""The batched pump still reproduces the pre-batching trajectories.

The seed-7 outage video sessions and the MPTCP bulk download were
captured before the run-until-blocked pump, lazy-deadline timers and
flat ACK bookkeeping landed.  Those captures are the ``video/<scheme>``
and ``bulk/mptcp`` entries of ``tests/data/golden.json``; this module
holds the same producers' values (one run per session, shared with
``tests/test_golden.py`` through the ``produced`` fixture) to those
entries, bit-for-bit.  Regenerate only through ``test_golden.py``.
"""

import pytest

from tests.test_golden import VIDEO_SCHEMES, load


@pytest.fixture(scope="module")
def values() -> dict:
    return load()["values"]


class TestPumpEquivalence:
    @pytest.mark.parametrize("scheme", VIDEO_SCHEMES)
    def test_video_scheme_matches_frozen_snapshot(self, values, produced,
                                                  scheme):
        assert produced(f"video/{scheme}") == values[f"video/{scheme}"]

    def test_bulk_mptcp_matches_frozen_snapshot(self, values, produced):
        assert produced("bulk/mptcp") == values["bulk/mptcp"]
