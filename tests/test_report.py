"""Tests for the evaluation report generator."""

import argparse
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.experiments import report
from repro.experiments.claims import CLAIMS
from repro.experiments.report import SCALES, generate_report


class TestReport:
    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError):
            generate_report(scale="galactic")

    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError):
            generate_report(scale="quick", sections=["fig99"])

    def test_unknown_section_rejected_before_any_section_runs(
            self, monkeypatch):
        ran = []
        monkeypatch.setitem(report.SECTIONS, "fig6",
                            lambda *scale: ran.append(scale) or [])
        with pytest.raises(ValueError, match="bogus"):
            generate_report(scale="quick", sections=["fig6", "bogus"])
        assert ran == []
        generate_report(scale="quick", sections=["fig6"])
        assert ran == [SCALES["quick"]]

    def test_scales_defined(self):
        assert set(SCALES) == {"quick", "standard", "full"}
        # quick really is the smallest configuration
        assert SCALES["quick"][0] <= SCALES["standard"][0] \
            <= SCALES["full"][0]

    def test_single_section_renders_table(self):
        text = generate_report(scale="quick", sections=["fig8"])
        assert "Fig. 8" in text
        assert "min-RTT path" in text
        assert text.count("|") > 10  # markdown table present

    def test_fig14_section(self):
        text = generate_report(scale="quick", sections=["fig14"])
        for config in ("WiFi", "LTE", "WiFi-LTE"):
            assert config in text

    def test_cli_report_writes_file(self, tmp_path, capsys):
        out = tmp_path / "report.md"
        code = main(["report", "--scale", "quick", "--out", str(out),
                     "--sections", "fig6"])
        assert code == 0
        content = out.read_text()
        assert content.startswith("# XLINK reproduction")
        assert "Fig. 6" in content


class TestPopulationTables:
    def test_a_treatment_that_rebuffers_against_a_clean_baseline(self):
        """SP never rebuffered, vanilla-MP did: a regression, not
        parity; both clean is parity."""
        header, rows = report.day_series([
            {"sp": {"rebuffer_rate": 0.0},
             "vanilla_mp": {"rebuffer_rate": 0.0201}},
            {"sp": {"rebuffer_rate": 0.0},
             "vanilla_mp": {"rebuffer_rate": 0.0}},
        ])
        column = header.index("vanilla_mp rebuffer Δ")
        assert [row[column] for row in rows] == ["-inf%", "+0.0%"]

    def test_the_fleet_claims_sections_repeat(self):
        """The fleet claim's text is seeded: two runs write the same
        bytes (no wall-clock rate, no worker count)."""
        [claim] = [c for c in CLAIMS if c.name == "fleet"]

        def text():
            return "\n".join(section.title + "\n" + section.body
                             for section in claim.sections(claim.run(4)))

        first = text()
        assert "Merged digest" in first
        assert text() == first


class TestClaimTable:
    """One claim table feeds ``figures/``, the report and the CLI."""

    def test_one_table_three_readers(self):
        names = [claim.name for claim in CLAIMS]
        assert len(set(names)) == len(names)
        reported = [c.name for c in CLAIMS if c.scale is not None]
        assert list(report.SECTIONS) == reported
        subcommands = next(action for action in build_parser()._actions
                           if isinstance(action, argparse._SubParsersAction))
        sections = next(action for action
                        in subcommands.choices["report"]._actions
                        if action.dest == "sections")
        assert list(sections.choices) == reported

    def test_the_transport_never_loads_the_claims(self):
        """A bench child imports its workloads; the claim table and the
        report are not on that path, so they cost no setup or RSS."""
        root = Path(__file__).resolve().parent.parent
        loaded = subprocess.run(
            [sys.executable, "-c",
             "import sys, bench.workloads; print(' '.join(sys.modules))"],
            cwd=root, env={**os.environ, "PYTHONPATH": "src:."},
            capture_output=True, text=True, check=True).stdout.split()
        assert "repro.quic.connection" in loaded
        assert "repro.experiments.claims" not in loaded
        assert "repro.experiments.report" not in loaded
