"""The stdlib linter's repo-specific rules (``tools/lint.py``)."""

import importlib.util
from pathlib import Path

import pytest

_LINT_PATH = Path(__file__).resolve().parent.parent / "tools" / "lint.py"


def _load_lint():
    spec = importlib.util.spec_from_file_location("repo_lint", _LINT_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def lint(tmp_path, monkeypatch):
    """The linter, pointed at an empty scratch repo."""
    module = _load_lint()
    monkeypatch.setattr(module, "REPO_ROOT", tmp_path)
    return module


class TestDeadPublicNames:
    def test_flags_only_public_names_nothing_else_writes(self, lint,
                                                         tmp_path):
        package = tmp_path / "src" / "repro"
        package.mkdir(parents=True)
        (package / "mod.py").write_text(
            "def used_by_test():\n    return _helper()\n\n"
            "def used_in_module():\n    return 1\n\n"
            "def orphan():\n    return used_in_module()\n\n"
            "def _helper():\n    return 2\n\n"
            "class Orphaned:\n    def method(self):\n        return 3\n\n"
            "class Other:\n    def method(self):\n        return 4\n")
        (tmp_path / "tests").mkdir()
        (tmp_path / "tests" / "test_mod.py").write_text(
            "from repro.mod import used_by_test, Other\n")
        findings = lint.check_dead_public()
        assert sorted(message.split("'")[1]
                      for _path, _line, message in findings) \
            == ["Orphaned", "method", "method", "orphan"]
        assert all(message.startswith("DEAD") for *_, message in findings)

    def test_this_repo_has_no_dead_public_names(self):
        assert _load_lint().check_dead_public() == []
