"""Tests for the command-line interface."""

import subprocess
import sys

import pytest

import repro.cli
from repro.cli import build_parser, main


def _rejected(argv) -> int:
    """The exit status argparse gives an argument it refuses."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_play_defaults(self):
        args = build_parser().parse_args(["play"])
        assert args.scheme == "xlink"
        assert args.wifi_mbps == 10.0

    def test_race_schemes_list(self):
        args = build_parser().parse_args(
            ["race", "--schemes", "sp", "xlink"])
        assert args.schemes == ["sp", "xlink"]


class TestCommands:
    def test_schemes_lists_all(self, capsys):
        assert main(["schemes"]) == 0
        out = capsys.readouterr().out
        for name in ("sp", "cm", "vanilla_mp", "xlink", "mptcp"):
            assert name in out

    def test_play_runs_session(self, capsys):
        code = main(["play", "--scheme", "sp", "--duration", "3",
                     "--timeout", "30", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "completed=True" in out
        assert "first_frame_latency_ms=" in out
        assert "rebuffer_s=" in out

    def test_play_unknown_scheme(self, capsys):
        assert _rejected(["play", "--scheme", "warpdrive"]) == 2

    def test_report_unknown_section(self, capsys, tmp_path, monkeypatch):
        ran = []
        monkeypatch.setitem(repro.cli.SECTIONS, "fig6",
                            lambda *scale: ran.append(scale) or [])
        out = tmp_path / "r.md"
        assert _rejected(["report", "--sections", "fig6", "bogus",
                          "--out", str(out)]) == 2
        assert ran == [] and not out.exists()
        assert "bogus" in capsys.readouterr().err

    def test_play_mptcp_runs(self, capsys):
        assert main(["play", "--scheme", "mptcp", "--duration", "2"]) == 0
        assert "completed=True" in capsys.readouterr().out

    def test_play_with_outage(self, capsys):
        code = main(["play", "--scheme", "xlink", "--duration", "4",
                     "--wifi-outage", "1.0", "2.0", "--timeout", "40"])
        assert code == 0
        assert "completed=True" in capsys.readouterr().out

    def test_race(self, capsys):
        code = main(["race", "--schemes", "sp", "mptcp",
                     "--bytes", "300000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "sp" in out and "mptcp" in out

    def test_race_unknown_scheme(self, capsys):
        assert _rejected(["race", "--schemes", "bogus"]) == 2

    def test_cm_gets_both_paths(self, capsys, monkeypatch):
        # CM migrates between two paths, so it must be handed both
        handed = []
        for name in ("run_video_session", "run_bulk_download"):
            real = getattr(repro.cli, name)

            def capture(scheme, paths, *args, _real=real, **kwargs):
                handed.append((scheme, len(paths)))
                return _real(scheme, paths, *args, **kwargs)

            monkeypatch.setattr(repro.cli, name, capture)
        assert main(["play", "--scheme", "cm", "--duration", "2"]) == 0
        assert main(["race", "--schemes", "cm", "sp",
                     "--bytes", "100000"]) == 0
        assert handed == [("cm", 2), ("cm", 2), ("sp", 1)]

    def test_ab_day(self, capsys):
        code = main(["ab", "--treatment", "xlink", "--users", "2",
                     "--seed", "9"])
        assert code == 0
        out = capsys.readouterr().out
        assert "| sp |" in out and "| xlink |" in out
        # the sink renderer's sections: QoE, RCT CDF, deltas
        assert "request completion time CDF" in out and "| p50 |" in out
        assert "| sp → xlink |" in out

    def test_ab_failing_session_exits_nonzero(self):
        # a session that raises (here: an unknown treatment scheme)
        # must fail the command, not print stats over the survivors
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "ab", "--treatment",
             "warpdrive", "--users", "1", "--workers", "1"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode != 0
        assert "KeyError" in proc.stderr
        assert "rebuffer" not in proc.stdout

    def test_mobility(self, capsys):
        code = main(["mobility", "--trace", "1", "--duration", "12",
                     "--schemes", "sp", "xlink"])
        assert code == 0
        out = capsys.readouterr().out
        assert "median=" in out and "max=" in out

    def test_mobility_bad_trace_id(self):
        assert main(["mobility", "--trace", "99"]) == 2

    def test_mobility_unknown_scheme(self, capsys):
        assert _rejected(["mobility", "--schemes", "warp"]) == 2

    def test_serve_multi_session(self, capsys):
        code = main(["serve", "--sessions", "2", "--duration", "3",
                     "--seed", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "sessions=2" in out
        assert "completed=2" in out
        assert "dropped=0" in out

    def test_serve_mptcp_runs(self, capsys):
        assert main(["serve", "--scheme", "mptcp", "--sessions", "2",
                     "--duration", "2", "--seed", "2"]) == 0
        assert "completed=2" in capsys.readouterr().out

    def test_play_writes_qlog(self, capsys, tmp_path):
        qlog = tmp_path / "session.jsonl"
        code = main(["play", "--scheme", "xlink", "--duration", "2",
                     "--qlog", str(qlog)])
        assert code == 0
        lines = qlog.read_text().strip().splitlines()
        assert lines
        assert '"datagram_sent"' in lines[0] or \
            '"datagram_received"' in lines[0]

    def test_race_writes_per_scheme_qlogs(self, capsys, tmp_path):
        qlog = tmp_path / "race.jsonl"
        code = main(["race", "--schemes", "sp", "xlink", "mptcp",
                     "--bytes", "200000", "--qlog", str(qlog)])
        assert code == 0
        assert (tmp_path / "race.sp.jsonl").exists()
        assert (tmp_path / "race.xlink.jsonl").exists()
        assert (tmp_path / "race.mptcp.jsonl").exists()
