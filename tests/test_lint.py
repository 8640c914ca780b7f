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
    @staticmethod
    def _dead(lint, tmp_path, package: str, users: dict) -> list:
        """The names DEAD flags in ``src/repro/mod.py`` = ``package``,
        with ``users`` mapping repo-relative paths to their source."""
        (tmp_path / "src" / "repro").mkdir(parents=True)
        (tmp_path / "src" / "repro" / "mod.py").write_text(package)
        for name, source in users.items():
            (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / name).write_text(source)
        findings = lint.check_dead_public()
        assert all(message.startswith("DEAD") for *_, message in findings)
        return sorted(message.split("'")[1]
                      for _path, _line, message in findings)

    def test_flags_only_public_names_nothing_else_writes(self, lint,
                                                         tmp_path):
        assert self._dead(
            lint, tmp_path,
            "def used_by_example():\n    return _helper()\n\n"
            "def used_in_module():\n    return 1\n\n"
            "def orphan():\n    return used_in_module()\n\n"
            "def _helper():\n    return 2\n\n"
            "class Orphaned:\n    def method(self):\n        return 3\n\n"
            "class Other:\n    def method(self):\n        return 4\n",
            {"examples/demo.py": "from repro.mod import used_by_example, "
                                 "Other\n"
                                 "used_by_example(Other())\n"}) \
            == ["Orphaned", "method", "method", "orphan"]

    def test_tests_docstrings_imports_and_all_are_not_uses(self, lint,
                                                          tmp_path):
        """A name only a test calls, or only a docstring, an import,
        ``__all__`` or its own body spells, is code the program never
        runs."""
        assert self._dead(
            lint, tmp_path,
            "def tested_only():\n    return 1\n\n"
            "def in_docstring():\n    return 2\n\n"
            "def imported_only():\n    return 3\n\n"
            "def in_all_only():\n    return 4\n\n"
            "def recursive(n):\n    return recursive(n - 1) if n else 0\n",
            {"tests/test_mod.py": "from repro.mod import tested_only\n"
                                  "assert tested_only() == 1\n",
             "src/repro/__init__.py": '"""in_docstring"""\n'
                                      "from repro.mod import imported_only\n"
                                      "# in_docstring, in_all_only\n"
                                      "__all__ = ['in_all_only']\n"}) \
            == ["imported_only", "in_all_only", "in_docstring",
                "recursive", "tested_only"]

    def test_examples_getattr_and_the_allow_list_are_uses(self, lint,
                                                          tmp_path):
        assert self._dead(
            lint, tmp_path,
            "def example_only():\n    return 1\n\n"
            "class Link:\n"
            "    def queue_depth(self):\n        return 0\n\n"
            "def run_session_tasks():\n    return []\n\n"
            "def load_mahimahi_trace(path):\n    return path\n\n"
            "def save_mahimahi_trace(trace, path):\n    return path\n",
            {"examples/demo.py": "from repro.mod import example_only\n"
                                 "example_only()\n",
             "bench/trace.py": "from repro.mod import Link\n"
                               "getattr(Link(), 'queue_depth', None)\n"}) \
            == []

    def test_a_method_is_used_only_through_an_attribute(self, lint,
                                                         tmp_path):
        """A local variable, parameter or module-level name that shares
        a method's name does not reach it; ``x.method`` and a string do.
        A module-level function is used by its bare name, and a nested
        closure by its bare name inside its function."""
        assert self._dead(
            lint, tmp_path,
            "class Sketch:\n"
            "    def summary(self):\n        return 1\n\n"
            "    def total(self):\n        return 2\n\n"
            "    def merge(self):\n        return 3\n\n"
            "    def spill(self):\n        return 4\n\n"
            "def report(sketch):\n"
            "    summary = sketch.merge()\n"
            "    total = summary\n"
            "    return total\n\n"
            "def drive(sketch):\n"
            "    def tick():\n        return sketch\n"
            "    return tick()\n\n"
            "def nested_unused():\n"
            "    def helper():\n        return 0\n"
            "    return 1\n\n"
            "def elsewhere():\n    return helper()\n",
            {"examples/demo.py": "from repro.mod import Sketch, report, "
                                 "drive, nested_unused, elsewhere\n"
                                 "METHODS = ('spill',)\n"
                                 "report(Sketch()), drive(1)\n"
                                 "nested_unused(), elsewhere()\n"}) \
            == ["helper", "summary", "total"]

    def test_the_allow_list_is_three_names(self):
        assert set(_load_lint().DEAD_ALLOWED) == {
            "run_session_tasks", "load_mahimahi_trace", "save_mahimahi_trace"}

    def test_this_repo_has_no_dead_public_names(self):
        assert _load_lint().check_dead_public() == []


class TestUnsetKnobs:
    def test_flags_a_config_field_nothing_sets(self, lint, tmp_path):
        package = tmp_path / "src" / "repro" / "experiments"
        package.mkdir(parents=True)
        (package / "mod.py").write_text(
            "from dataclasses import dataclass\n\n"
            "@dataclass\n"
            "class RunConfig:\n"
            "    users: int\n"
            "    seed: int = 0\n"
            "    days: int = 1\n"
            "    mix: float = 0.5\n\n"
            "class Unchecked:\n"
            "    other: float = 0.5\n")
        (tmp_path / "examples").mkdir()
        (tmp_path / "examples" / "demo.py").write_text(
            "from dataclasses import replace\n"
            "from repro.experiments.mod import RunConfig\n"
            "cfg = RunConfig(4, seed=3)\n"
            "later = replace(cfg, days=2)\n"
            "elsewhere = dict(mix=0.1)\n")
        findings = lint.check_unset_knobs()
        assert [message.split()[:2] for _path, _line, message in findings] \
            == [["KNOB", "RunConfig.mix"]]

    @staticmethod
    def _unset(lint, tmp_path, caller: str, where: str = "examples/demo.py",
               package_extra: str = "") -> list:
        """The KNOB findings for a package function and class whose only
        callers are ``caller``, the module at ``where``."""
        package = tmp_path / "src" / "repro" / "netem"
        package.mkdir(parents=True)
        (package / "mod.py").write_text(
            "def make(rate, delay=0.0, *, loss=0.0):\n"
            "    return rate, delay, loss\n\n"
            "def _private(knob=1):\n"
            "    return knob\n\n"
            "class Ring:\n"
            "    def __init__(self, nodes, replicas=64):\n"
            "        self.nodes = nodes\n\n"
            "    def spin(self, turns=1):\n"
            "        return turns\n" + package_extra)
        (tmp_path / where).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / where).write_text(
            "from repro.netem.mod import Ring, make\n" + caller)
        return sorted(message.split()[1]
                      for _path, _line, message in lint.check_unset_knobs())

    def test_flags_function_parameters_nothing_sets(self, lint, tmp_path):
        assert self._unset(lint, tmp_path,
                           "make(1)\nRing(['a']).spin()\n") \
            == ["Ring.replicas", "Ring.spin.turns", "make.delay",
                "make.loss"]

    def test_a_parameter_set_by_keyword_or_position(self, lint, tmp_path):
        assert self._unset(lint, tmp_path,
                           "make(1, 0.5, loss=0.1)\n"
                           "Ring(['a'], 8).spin(turns=2)\n") == []

    def test_a_parameter_set_through_a_mapping(self, lint, tmp_path):
        assert self._unset(lint, tmp_path,
                           "opts = {'delay': 0.5}\n"
                           "make(1, **opts, **dict(loss=0.1))\n"
                           "Ring(*[['a'], 8]).spin(*[3])\n") == []

    def test_a_function_called_through_a_variable_escapes(self, lint,
                                                          tmp_path):
        """A function kept in a table is called with arguments the
        linter cannot see, so none of its parameters is flagged."""
        assert self._unset(lint, tmp_path,
                           "FACTORIES = {'make': make}\n"
                           "build = Ring\n"
                           "spin = Ring(['a']).spin\n") == []

    def test_annotations_and_type_tests_are_no_escape(self, lint,
                                                      tmp_path):
        assert self._unset(lint, tmp_path,
                           "def use(ring: Ring) -> 'Ring':\n"
                           "    assert isinstance(ring, Ring)\n"
                           "    return make(1, 0.5, loss=0.1)\n") \
            == ["Ring.replicas", "Ring.spin.turns"]

    def test_a_value_only_a_test_sets_is_flagged(self, lint, tmp_path):
        """A test is not a user: what only it sets is a constant."""
        assert self._unset(lint, tmp_path,
                           "make(1, 0.5, loss=0.1)\n"
                           "Ring(['a'], 8).spin(turns=2)\n",
                           where="tests/test_mod.py") \
            == ["Ring.replicas", "Ring.spin.turns", "make.delay",
                "make.loss"]

    def test_a_driver_sets_a_value_through_a_named_forwarder(self, lint,
                                                             tmp_path):
        """``run(loss=)`` names the parameter it passes on to ``make``,
        so the driver that sets ``run``'s sets ``make``'s too."""
        assert self._unset(
            lint, tmp_path,
            "from repro.netem.mod import run\n"
            "run(1, loss=0.1)\n"
            "Ring(['a'], 8).spin(turns=2)\n",
            package_extra="\n\ndef run(rate, loss=0.0):\n"
                          "    return make(rate, 0.5, loss=loss)\n") == []

    def test_a_keyword_spelling_the_default_sets_nothing(self, lint,
                                                         tmp_path):
        """``make(delay=0.0)`` passes the value the parameter already
        has: the program runs one value, a constant."""
        assert self._unset(lint, tmp_path,
                           "make(1, delay=0.0, loss=0.1)\n"
                           "Ring(['a'], 8).spin(turns=1)\n") \
            == ["Ring.spin.turns", "make.delay"]

    def test_this_repo_has_no_unset_knobs(self):
        assert _load_lint().check_unset_knobs() == []


class TestWriteOnlyState:
    PACKAGE = (
        "from dataclasses import dataclass\n\n"
        "@dataclass\n"
        "class Stats:\n"
        "    packets: int = 0\n"
        "    dropped: int = 0\n"
        "    handshake_completed_at: float = 0.0\n\n"
        "class Detector:\n"
        "    __slots__ = ('sent', 'lost_total', 'last', 'tested', 'rate',\n"
        "                 'probed', 'shared')\n\n"
        "    def __init__(self):\n"
        "        self.sent = {}\n"
        "        self.lost_total = 0\n"
        "        self.last: float = 0.0\n"
        "        self.tested = 0\n"
        "        self.rate, self.probed = 1.0, False\n"
        "        self.shared = 0\n\n"
        "    def on_loss(self, pn):\n"
        "        self.sent.pop(pn)\n"
        "        self.lost_total += 1\n"
        "        self.last = pn\n\n"
        "class ConnectionStats:\n"
        "    def __init__(self):\n"
        "        self.handshake_completed_at = None\n\n"
        "class Other:\n"
        "    def read(self):\n"
        "        return self.shared\n")

    @staticmethod
    def _write_only(lint, tmp_path, users: dict) -> list:
        """The ``Class.attribute`` names WRITE flags in ``PACKAGE``, with
        ``users`` mapping repo-relative paths to their source."""
        (tmp_path / "src" / "repro").mkdir(parents=True)
        (tmp_path / "src" / "repro" / "mod.py").write_text(
            TestWriteOnlyState.PACKAGE)
        for name, source in users.items():
            (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / name).write_text(source)
        findings = lint.check_write_only()
        assert all(message.startswith("WRITE") for *_, message in findings)
        return sorted(message.split()[1]
                      for _path, _line, message in findings)

    def test_flags_state_no_code_reads(self, lint, tmp_path):
        """An attribute only stored, a counter only ``+=``'d and a
        dataclass field never read are flagged; naming one in
        ``__slots__`` is not a read, and neither is a test reading it."""
        assert self._write_only(
            lint, tmp_path,
            {"tests/test_mod.py": "from repro.mod import Detector\n"
                                  "assert Detector().tested == 0\n"}) \
            == ["Detector.last", "Detector.lost_total", "Detector.probed",
                "Detector.rate", "Detector.tested", "Stats.dropped",
                "Stats.handshake_completed_at", "Stats.packets"]

    def test_reads_in_the_program_and_the_allow_list_pass(self, lint,
                                                          tmp_path):
        """``obj.attr`` in ``examples/`` and ``getattr(x, "attr")`` in
        ``bench/`` are reads; ``handshake_completed_at`` is allowed on
        ``ConnectionStats`` only.  ``shared`` passes because
        ``Other.read`` reads an attribute of that name: the rule matches
        by name, not by class."""
        assert self._write_only(
            lint, tmp_path,
            {"examples/demo.py": "from repro.mod import Detector, Stats\n"
                                 "d = Detector()\n"
                                 "print(d.lost_total, d.last, d.rate,\n"
                                 "      d.probed, d.tested)\n",
             "bench/ledger.py": "def total(objs, attr):\n"
                                "    return sum(getattr(o, attr) "
                                "for o in objs)\n"
                                "total([], 'packets')\n"
                                "total([], 'dropped')\n"}) \
            == ["Stats.handshake_completed_at"]

    def test_the_allow_list_is_one_name(self):
        assert _load_lint().WRITE_ALLOWED \
            == {"ConnectionStats.handshake_completed_at"}

    def test_this_repo_reads_what_it_stores(self):
        assert _load_lint().check_write_only() == []


class TestReach:
    def test_flags_a_module_no_driver_imports(self, lint, tmp_path):
        package = tmp_path / "src" / "repro"
        (package / "video").mkdir(parents=True)
        (package / "__init__.py").write_text("")
        (package / "__main__.py").write_text("from repro.cli import main\n")
        (package / "cli.py").write_text("from . import core\n")
        (package / "core.py").write_text("import repro.video.player\n")
        (package / "video" / "__init__.py").write_text("")
        (package / "video" / "player.py").write_text("")
        (package / "video" / "orphan.py").write_text("")
        (package / "bench_only.py").write_text("")
        (package / "figures_only.py").write_text("")
        (tmp_path / "bench").mkdir()
        (tmp_path / "bench" / "run.py").write_text(
            "import importlib\n"
            "importlib.import_module('repro.bench_only')\n")
        (tmp_path / "figures").mkdir()
        (tmp_path / "figures" / "test_fig.py").write_text(
            "from repro import figures_only\n")
        (tmp_path / "tests").mkdir()
        (tmp_path / "tests" / "test_orphan.py").write_text(
            "import repro.video.orphan\n")
        findings = lint.check_reach()
        assert [message.split("'")[1] for _path, _line, message in findings] \
            == ["repro.video.orphan"]
        assert findings[0][2].startswith("REACH")

    def test_this_repo_reaches_every_module(self):
        assert _load_lint().check_reach() == []


class TestFileSize:
    @pytest.mark.parametrize("directory,limit", [
        ("src/repro/quic", 700), ("src/repro/experiments", 686)])
    def test_flags_a_file_past_its_directory_limit(self, lint, tmp_path,
                                                   directory, limit):
        assert lint.MAX_LINES[directory] == limit
        package = tmp_path / directory
        package.mkdir(parents=True)
        (package / "fits.py").write_text("x = 1\n" * limit)
        (package / "grown.py").write_text("x = 1\n" * (limit + 1))
        assert not [m for *_, m in lint.check_file(package / "fits.py")
                    if m.startswith("SIZE")]
        assert [m.split()[:2] for *_, m
                in lint.check_file(package / "grown.py")] \
            == [["SIZE", str(limit + 1)]]

    def test_this_repo_is_within_its_limits(self):
        lint = _load_lint()
        assert not [(path.name, m) for directory in lint.MAX_LINES
                    for path in sorted((lint.REPO_ROOT / directory)
                                       .rglob("*.py"))
                    for *_, m in lint.check_file(path)
                    if m.startswith("SIZE")]


class TestPerStreamDicts:
    SOURCE = (
        "from typing import Dict, List\n"
        "class Connection:\n"
        "    def __init__(self):\n"
        "        self.paths: Dict[int, object] = {}\n"
        "        self.send_streams: Dict[int, object] = {}\n"
        "        self.recv_streams: Dict[int, object] = {}\n"
        "        self.fc_stream_send: Dict[int, object] = {}\n"
        "        self.names: Dict[str, int] = {}\n"
        "class Sender:\n"
        "    def __init__(self, conn):\n"
        "        self.send_streams: Dict[int, object] = conn.send_streams\n"
        "        self.pending_control: Dict[int, List[object]] = {}\n"
        "        self.queued_offset: Dict[int, int] = {}\n"
        "class Receiver:\n"
        "    def reset(self):\n"
        "        self.stream_credit = {}\n"
        "        self.seen = {}\n"
        "class AckHandler:\n"
        "    def __init__(self):\n"
        "        self.acked: dict[int, int] = dict()\n"
        "class Path:\n"
        "    def __init__(self):\n"
        "        self.by_stream: Dict[int, int] = {}\n")

    def test_flags_stream_keyed_dicts_outside_the_two_maps(self, lint,
                                                           tmp_path):
        quic = tmp_path / "src" / "repro" / "quic"
        quic.mkdir(parents=True)
        (quic / "mod.py").write_text(self.SOURCE)
        found = sorted(message.split()[1] for _path, _line, message
                       in lint.check_file(quic / "mod.py")
                       if message.startswith("STREAMSTATE"))
        assert found == ["AckHandler.acked", "Connection.fc_stream_send",
                         "Receiver.stream_credit", "Sender.queued_offset"]

    def test_only_under_the_listed_directory(self, lint, tmp_path):
        other = tmp_path / "src" / "repro" / "video"
        other.mkdir(parents=True)
        (other / "mod.py").write_text(self.SOURCE)
        assert not [m for *_, m in lint.check_file(other / "mod.py")
                    if m.startswith("STREAMSTATE")]

    def test_this_repo_keeps_per_stream_state_on_the_stream(self):
        lint = _load_lint()
        quic = lint.REPO_ROOT / "src" / "repro" / "quic"
        assert not [m for path in sorted(quic.glob("*.py"))
                    for *_, m in lint.check_file(path)
                    if m.startswith("STREAMSTATE")]


class TestGcCalls:
    SOURCE = ("import gc\n"
              "from gc import freeze\n"
              "def run():\n"
              "    gc.disable()\n"
              "    result = 1\n"
              "    gc.collect()\n"
              "    return result, gc.get_count(), gc.isenabled()\n")

    def test_flags_collect_disable_and_freeze_under_the_package(self, lint,
                                                                tmp_path):
        package = tmp_path / "src" / "repro" / "experiments"
        package.mkdir(parents=True)
        (package / "mod.py").write_text(self.SOURCE)
        found = [(line, message.split()[1]) for _path, line, message
                 in lint.check_file(package / "mod.py")
                 if message.startswith("GC")]
        assert sorted(found) == [(2, "gc.freeze"), (4, "gc.disable"),
                                 (6, "gc.collect")]

    def test_reading_gc_state_and_tests_are_allowed(self, lint, tmp_path):
        package = tmp_path / "src" / "repro"
        package.mkdir(parents=True)
        (package / "mod.py").write_text(
            "import gc\nCOUNT = gc.get_count()\n")
        tests = tmp_path / "tests"
        tests.mkdir()
        (tests / "test_mod.py").write_text(self.SOURCE)
        assert not [m for path in (package / "mod.py", tests / "test_mod.py")
                    for *_, m in lint.check_file(path)
                    if m.startswith("GC")]

    def test_this_repo_never_collects_by_hand(self):
        lint = _load_lint()
        package = lint.REPO_ROOT / "src" / "repro"
        assert not [(path.name, m) for path in sorted(package.rglob("*.py"))
                    for *_, m in lint.check_file(path)
                    if m.startswith("GC")]


class TestForeignFunctionBoundary:
    SOURCE = ("import ctypes\n"
              "import ctypes.util as util\n"
              "from ctypes import byref\n"
              "import importlib\n"
              "lib = importlib.import_module('ctypes')\n"
              "from . import ctypes_free\n"
              "import hashlib\n"
              "from _ctypes import call_function\n")

    def test_flags_every_ctypes_import_outside_the_crypto_module(
            self, lint, tmp_path):
        quic = tmp_path / "src" / "repro" / "quic"
        quic.mkdir(parents=True)
        tests = tmp_path / "tests"
        tests.mkdir()
        paths = (quic / "crypto.py", quic / "frames.py",
                 tests / "test_mod.py")
        for path in paths:
            path.write_text(self.SOURCE)
        found = {path.name: sorted(line for _path, line, message
                                   in lint.check_file(path)
                                   if message.startswith("FFI"))
                 for path in paths}
        assert found == {"crypto.py": [], "frames.py": [1, 2, 3, 5, 8],
                         "test_mod.py": [1, 2, 3, 5, 8]}

    def test_this_repo_calls_foreign_code_from_one_module(self):
        lint = _load_lint()
        assert not [(path, m) for path in lint.iter_py_files(
            [str(lint.REPO_ROOT / root)
             for root in (*lint.DEAD_ROOTS, "tests")])
            for *_, m in lint.check_file(path) if m.startswith("FFI")]
