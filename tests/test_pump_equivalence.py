"""The batched pump is observationally identical to the pre-batching pump.

``tests/data/pump_equivalence_snapshot.json`` is a frozen capture of
every observable trajectory taken *before* the run-until-blocked pump,
lazy-deadline timers and flat ACK bookkeeping landed: all 7 schemes
(six video schemes plus the MPTCP bulk baseline) on the equivalence
topology, the N=16 contention fingerprint, and the fixed-seed chaos
soak digests.  The batched scheduler must reproduce every value
bit-for-bit -- same floats, same counters, same digest -- proving the
rework changed how fast events are processed, not which events happen.

Regenerate (only when a PR *intends* a behaviour change, with the
justification in its description)::

    PYTHONPATH=src python tests/test_pump_equivalence.py --regen
"""

import json
import os
from dataclasses import asdict

import pytest

from repro.experiments.harness import (PathSpec, run_bulk_download,
                                       run_video_session)
from repro.netem import OutageSchedule
from repro.traces.radio_profiles import RadioType

SNAPSHOT_PATH = os.path.join(os.path.dirname(__file__), "data",
                             "pump_equivalence_snapshot.json")

VIDEO_SCHEMES = ["sp", "cm", "vanilla_mp", "reinject", "xlink", "xlink_nofa"]
#: the 7th scheme: the MPTCP bulk-download baseline (no QUIC host runtime)
BULK_SCHEME = "mptcp"


def _paths(outage_window=(0.5, 1.2)):
    """The equivalence topology: Wi-Fi (with an outage) + LTE."""
    outages = (OutageSchedule([outage_window])
               if outage_window is not None else None)
    return [PathSpec(0, RadioType.WIFI, 0.015, rate_bps=12e6,
                     outages=outages),
            PathSpec(1, RadioType.LTE, 0.035, rate_bps=8e6)]


def _video_fingerprint(scheme: str) -> dict:
    result = run_video_session(scheme, _paths(), seed=7)
    return {
        "completed": result.completed,
        "duration_s": result.duration_s,
        "metrics": asdict(result.metrics),
        "reinjected_bytes": result.reinjected_bytes,
        "new_stream_bytes": result.new_stream_bytes,
        "client_stats": dict(vars(result.client.stats)),
        "server_stats": dict(vars(result.server.stats)),
    }


def _bulk_fingerprint() -> dict:
    result = run_bulk_download(BULK_SCHEME, _paths(), 2_000_000, seed=5)
    return {
        "completed": result.completed,
        "duration_s": result.duration_s,
        "download_time_s": result.download_time_s,
    }


def _contention_fingerprint() -> list:
    from repro.experiments.contention import ContentionConfig, run_contention
    result = run_contention(ContentionConfig(sessions=16, seed=11,
                                             video_duration_s=4.0))
    fp = result.fingerprint()
    return [list(fp[3]) if i == 3 else fp[i] for i in range(len(fp))]


def _chaos_digest(scenarios: int, seed: int) -> str:
    from repro.experiments.chaos import ChaosSoakConfig, run_chaos_soak
    return run_chaos_soak(ChaosSoakConfig(scenarios=scenarios,
                                          seed=seed)).digest


def capture_snapshot() -> dict:
    return {
        "video": {scheme: _video_fingerprint(scheme)
                  for scheme in VIDEO_SCHEMES},
        "bulk_mptcp": _bulk_fingerprint(),
        "contention_n16": _contention_fingerprint(),
        "chaos_digest_6_seed7": _chaos_digest(6, 7),
        "chaos_digest_12_seed7": _chaos_digest(12, 7),
    }


@pytest.fixture(scope="module")
def snapshot() -> dict:
    with open(SNAPSHOT_PATH) as f:
        return json.load(f)


class TestPumpEquivalence:
    @pytest.mark.parametrize("scheme", VIDEO_SCHEMES)
    def test_video_scheme_matches_frozen_snapshot(self, snapshot, scheme):
        assert _video_fingerprint(scheme) == snapshot["video"][scheme]

    def test_bulk_mptcp_matches_frozen_snapshot(self, snapshot):
        assert _bulk_fingerprint() == snapshot["bulk_mptcp"]

    def test_contention_fingerprint_matches_frozen_snapshot(self, snapshot):
        assert _contention_fingerprint() == snapshot["contention_n16"]

    def test_chaos_soak_digest_is_byte_identical(self, snapshot):
        """The strictest pin: the digest hashes per-scenario exit times,
        packet counts and robustness counters across six fault
        scenarios -- one stray timer fire anywhere changes it."""
        assert _chaos_digest(6, 7) == snapshot["chaos_digest_6_seed7"]


class TestCcRefactorEquivalence:
    """The pluggable-CC refactor leaves default Cubic untouched.

    The frozen-snapshot pins above already prove the *outputs* are
    bit-identical; these pin the *mechanism*: a "+cubic" variant is
    the base scheme itself (the same value, not a copy), and a default
    session never engages any of the pacing machinery.
    """

    def test_cubic_variant_is_the_base_scheme(self):
        from repro.experiments.harness import SCHEMES, scheme_with_cc
        for scheme in VIDEO_SCHEMES:
            assert scheme_with_cc(scheme, "cubic") is SCHEMES[scheme]
        # the MPTCP baseline keeps its own fixed controller
        assert scheme_with_cc(BULK_SCHEME, "bbr") is SCHEMES[BULK_SCHEME]

    def test_default_cubic_session_stays_unpaced(self):
        result = run_video_session("xlink", _paths(None), seed=3)
        conn = result.client
        assert conn._any_paced is False
        assert conn.timers.pacing_event is None
        for path in conn.paths.values():
            assert path.cc.paced is False
            assert path.loss.rate_sampling is False
            # no delivery-rate bookkeeping ever ran
            assert path.loss.delivered == 0


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--regen", action="store_true",
                        help="re-capture the frozen snapshot")
    args = parser.parse_args()
    if not args.regen:
        parser.error("nothing to do; pass --regen to re-capture")
    os.makedirs(os.path.dirname(SNAPSHOT_PATH), exist_ok=True)
    snap = capture_snapshot()
    with open(SNAPSHOT_PATH, "w") as f:
        json.dump(snap, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {SNAPSHOT_PATH}")
    print(f"chaos digest (6, seed 7):  {snap['chaos_digest_6_seed7']}")
    print(f"chaos digest (12, seed 7): {snap['chaos_digest_12_seed7']}")
