"""Tests for the MPTCP baseline, run as a scheme on the QUIC stack."""

from repro.experiments import PathSpec, run_bulk_download
from repro.traces.radio_profiles import RadioType


def two_subflows():
    return [
        PathSpec(net_path_id=0, radio=RadioType.WIFI,
                 one_way_delay_s=0.02, rate_bps=8e6),
        PathSpec(net_path_id=1, radio=RadioType.LTE,
                 one_way_delay_s=0.04, rate_bps=8e6),
    ]


class TestMptcpTransfer:
    def test_basic_transfer_completes(self):
        result = run_bulk_download("mptcp", two_subflows(), 500_000,
                                   timeout_s=30.0)
        assert result.completed
        assert result.download_time_s < 30.0
        # the whole object arrived in order on the client
        assert result.player.finished
        assert result.player._contiguous_bytes == 500_000

    def test_harness_bulk_download(self):
        result = run_bulk_download("mptcp", two_subflows(), 500_000, seed=1)
        assert result.completed
        assert result.download_time_s is not None
