"""Multi-user cell contention: determinism and sanity of the N>1 path.

The N=8 run drives eight concurrent sessions -- staggered starts,
staggered Wi-Fi outages, one shared LTE cell, one ServerHost -- and
must produce the exact same simulated history every time.
"""

import pytest

from repro.experiments.contention import (ContentionConfig,
                                          ContentionResult, run_contention)

N8_CONFIG = ContentionConfig(sessions=8, scheme="xlink", seed=4,
                             video_duration_s=4.0)


@pytest.fixture(scope="module")
def n8_result() -> ContentionResult:
    return run_contention(N8_CONFIG)


class TestContentionDeterminism:
    def test_n8_run_is_deterministic(self, n8_result):
        again = run_contention(ContentionConfig(sessions=8, scheme="xlink",
                                                seed=4,
                                                video_duration_s=4.0))
        assert again.fingerprint() == n8_result.fingerprint()
        assert again == n8_result

    def test_seed_changes_history(self, n8_result):
        other = run_contention(ContentionConfig(sessions=8, scheme="xlink",
                                                seed=5,
                                                video_duration_s=4.0))
        assert other.fingerprint() != n8_result.fingerprint()


class TestContentionBehavior:
    def test_all_sessions_complete(self, n8_result):
        assert n8_result.completed == 8
        assert len(n8_result.first_frame_latencies) == 8

    def test_host_demux_is_clean(self, n8_result):
        """Every datagram reaches its session; none are dropped."""
        assert n8_result.datagrams_routed > 0
        assert n8_result.datagrams_dropped == 0

    def test_outages_drive_reinjection_onto_cell(self, n8_result):
        """Each user's Wi-Fi outage forces recovery over the shared
        cell, so the run must show both re-injection and cell usage."""
        assert n8_result.reinjected_bytes > 0
        assert n8_result.cell_down_bytes > 0

    def test_contention_grows_with_users(self):
        """More users on the same cell -> more traffic through it."""
        small = run_contention(ContentionConfig(sessions=2, seed=4,
                                                video_duration_s=4.0))
        assert N8_CONFIG.sessions > 2
        big_cell = run_contention(ContentionConfig(sessions=4, seed=4,
                                                   video_duration_s=4.0))
        assert big_cell.cell_down_bytes > small.cell_down_bytes

    def test_finished_world_is_freed(self):
        """The loop/connection/callback cycle of a finished run pins
        megabytes and is too few objects for the collector to notice;
        ``run_contention`` must not leave it behind."""
        import gc
        run_contention(ContentionConfig(sessions=2, seed=4,
                                        video_duration_s=1.0))
        assert gc.collect() < 50
