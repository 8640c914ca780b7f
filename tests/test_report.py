"""Tests for the evaluation report generator."""

import pytest

from repro.cli import main
from repro.experiments import report
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
