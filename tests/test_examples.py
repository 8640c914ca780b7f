"""Every example under ``examples/`` runs to completion.

Each script is a standalone end-to-end run of the public API, so a
signature change it calls breaks it before any user sees that.
``threshold_tuning.py`` is left out: it sweeps the same thresholds
``figures/test_fig10_table2_thresholds.py`` already runs, and takes
longer than the other examples together.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SKIPPED = {"threshold_tuning.py"}
EXAMPLES = sorted(path.name for path in (REPO / "examples").glob("*.py")
                  if path.name not in SKIPPED)


def test_the_examples_are_found():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs(name):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    done = subprocess.run([sys.executable, str(REPO / "examples" / name)],
                          cwd=REPO, env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
