"""Suite-wide fixtures."""

import gc

import pytest


@pytest.fixture(autouse=True, scope="module")
def no_garbage_from_earlier_modules():
    """Start each module with no cyclic garbage left by the ones before.

    Tests that build a world by hand, parse a CLI (argparse's parsers
    are cyclic) or run ``hypothesis`` leave cycles that only a full
    collection frees, and pytest's own collection leaves some too.  A
    test that counts what ``gc.collect()`` finds after a driver runs
    (``test_contention.py::test_finished_world_is_freed``) must count
    that driver's garbage, not the suite's.  One collection per module
    keeps that true whatever ran before, at a cost of ~50 collections.
    """
    gc.collect()
    yield


@pytest.fixture(scope="session")
def produced():
    """``produced(name)``: what ``tests/test_golden.py``'s producer
    ``name`` returns, as ``golden.json`` holds it -- run once per
    session, however many modules hold it to a value.

    The producers are fixed-seed and deterministic, so a second run
    could only repeat the first; ``test_golden.py`` and
    ``test_pump_equivalence.py`` share the seven video / bulk runs.
    """
    from tests.test_golden import PRODUCERS, as_json
    values = {}

    def produce(name):
        if name not in values:
            values[name] = as_json(PRODUCERS[name]())
        return values[name]

    return produce
