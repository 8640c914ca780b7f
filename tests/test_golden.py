"""Every value this repository promises to hold, checked in one place.

``tests/data/golden.json`` holds ``values`` (entry name -> what the
producer of that name below returns, as JSON) and a ``log`` of why the
values last changed.  Each producer reruns one fixed-seed scenario:
the seven video schemes, each also under the four non-default
congestion controllers, and three bulk downloads on a Wi-Fi + LTE
topology with a Wi-Fi outage, clean and LTE-first video sessions, the
N=16 contention cell, two wire images and their plaintext images, the
generated traces, the Fig. 1 / Fig. 6 drivers, the chaos soaks and
their path-abandon scenario, and two fleet populations.
Small values are stored as they are, not hashed, so a failure shows
which field moved.

Regenerate only when a change means to move a value, and say why::

    PYTHONPATH=src:. python tests/test_golden.py --regen --reason "..."

It refuses to run without ``--reason``, reruns every producer, prints
the entries that changed, writes nothing when nothing changed, and
otherwise appends ``{reason, changed, values_sha256}`` to the log.
"""

import argparse
import hashlib
import json
import os
import sys
from array import array
from dataclasses import asdict
from functools import partial

import pytest

from repro.experiments.chaos import (ChaosSoakConfig, run_abandon_scenario,
                                     run_chaos_soak)
from repro.experiments.contention import ContentionConfig, run_contention
from repro.experiments.dynamics import (FIG6_MODES, run_fig1_dynamics,
                                        run_fig6_dynamics)
from repro.experiments.fleet import (ABPopulationDriver, FleetConfig,
                                     run_fleet_driver)
from repro.experiments.harness import (SCHEMES, PathSpec, run_bulk_download,
                                       run_video_session, scheme_with_cc)
from repro.netem import OutageSchedule
from repro.traces import (campus_walk_wifi_trace, extreme_mobility_trace_pairs,
                          stable_lte_trace)
from repro.traces.radio_profiles import RadioType
from tests.test_wire_digest import rpc_exchange_wire, xlink_session_wire

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "golden.json")

VIDEO_SCHEMES = tuple(SCHEMES)

#: the controllers besides the schemes' own (cubic) that the scheme x
#: CC matrix pins: paced (bbr, mpbbr) and coupled (lia, mpbbr) path
#: choice, which no benchmark workload runs
MATRIX_CCS = ("newreno", "lia", "bbr", "mpbbr")


def outage_paths(window):
    """Wi-Fi (down during ``window``, unless it is None) + LTE."""
    outages = OutageSchedule([window]) if window is not None else None
    return [PathSpec(0, RadioType.WIFI, 0.015, rate_bps=12e6,
                     outages=outages),
            PathSpec(1, RadioType.LTE, 0.035, rate_bps=8e6)]


def video(scheme, window=(0.5, 1.2), seed=7, **kwargs):
    result = run_video_session(scheme, outage_paths(window), seed=seed,
                               **kwargs)
    return {
        "completed": result.completed,
        "duration_s": result.duration_s,
        "metrics": asdict(result.metrics),
        "reinjected_bytes": result.reinjected_bytes,
        "new_stream_bytes": result.new_stream_bytes,
        "client_stats": vars(result.client.stats),
        "server_stats": vars(result.server.stats),
    }


def bulk(scheme):
    result = run_bulk_download(scheme, outage_paths((0.5, 1.2)), 2_000_000,
                               seed=5)
    return {"completed": result.completed,
            "duration_s": result.duration_s,
            "download_time_s": result.download_time_s}


def contention():
    return run_contention(ContentionConfig(
        sessions=16, seed=11, video_duration_s=4.0)).fingerprint()


def trace_sha256(trace):
    """sha256 of the comma-joined timestamps of an ``array('i')``."""
    assert isinstance(trace, array) and trace.typecode == "i"
    return hashlib.sha256(",".join(map(str, trace)).encode()).hexdigest()


def mobility_catalog():
    return {p["trace_id"]: (trace_sha256(p["cellular_ms"]),
                            trace_sha256(p["wifi_ms"]))
            for p in extreme_mobility_trace_pairs()}


def fig1():
    dyn = run_fig1_dynamics()
    return [(dyn[p].max_inflight_in(1.2, 1.7),
             dyn[p].max_inflight_in(1.8, 2.3)) for p in (0, 1)]


def fig6(mode):
    series = run_fig6_dynamics(mode)
    return {"min_buffer": series.min_buffer_in(2.0, 5.2),
            "reinjected": series.total_reinjected(),
            "rebuffer_s": series.rebuffer_time}


def chaos(scenarios, cc_algorithm="cubic"):
    result = run_chaos_soak(ChaosSoakConfig(
        scenarios=scenarios, seed=7, cc_algorithm=cc_algorithm))
    assert result.ok, result.errors + result.violations
    return result.digest


def chaos_abandon():
    """The soak's scripted abandon scenario, as ``make chaos`` runs it
    after its 12 drawn scenarios."""
    outcome = run_abandon_scenario(ChaosSoakConfig(scenarios=12, seed=7))
    assert outcome.ok, (outcome.error, outcome.violations)
    return {"fingerprint": outcome.fingerprint,
            "abandoned": outcome.abandoned}


def population(users, seed):
    """The sink digest of a serial A/B population (a sharded run must
    merge to the same digest; ``make fleet-smoke`` checks that)."""
    run = run_fleet_driver(ABPopulationDriver(FleetConfig(users=users,
                                                          seed=seed)),
                           workers=1)
    assert run.result.ok, run.result
    return run.sink.digest()


PRODUCERS = {
    **{f"video/{s}": partial(video, s) for s in VIDEO_SCHEMES},
    **{f"video_cc/{s}+{cc}": partial(video, scheme_with_cc(s, cc))
       for s in VIDEO_SCHEMES for cc in MATRIX_CCS},
    "video_clean/sp": partial(video, "sp", None, 3),
    "video_clean/xlink": partial(video, "xlink", None, 3),
    "video_long_outage/cm": partial(video, "cm", (0.5, 4.0)),
    "video_lte_first/xlink": partial(
        video, "xlink", None, 5, primary_order=[RadioType.LTE,
                                                RadioType.WIFI]),
    **{f"bulk/{s}": partial(bulk, s) for s in ("mptcp", "sp", "xlink")},
    "contention/n16": contention,
    "wire/xlink_session": xlink_session_wire,
    "wire/rpc_exchange": rpc_exchange_wire,
    "wire/xlink_session_plain": partial(xlink_session_wire, plain=True),
    "wire/rpc_exchange_plain": partial(rpc_exchange_wire, plain=True),
    "trace/stable_lte_60s": lambda: trace_sha256(
        stable_lte_trace(60.0, seed=5, mean_mbps=24.0)),
    "trace/campus_walk_wifi": lambda: trace_sha256(campus_walk_wifi_trace()),
    "trace/mobility_catalog": mobility_catalog,
    "fig1/max_inflight": fig1,
    **{f"fig6/{m}": partial(fig6, m) for m in FIG6_MODES},
    "chaos/12_seed7": partial(chaos, 12),
    "chaos/bbr_4_seed7": partial(chaos, 4, "bbr"),
    "chaos/abandon_seed7": chaos_abandon,
    "fleet/24_seed11": partial(population, 24, 11),
    "fleet/8_seed5": partial(population, 8, 5),
}


def as_json(value):
    """``value`` as golden.json holds it: tuples are lists, keys strings."""
    return json.loads(json.dumps(value))


def values_sha256(values) -> str:
    return hashlib.sha256(json.dumps(values, sort_keys=True,
                                     separators=(",", ":")).encode()
                          ).hexdigest()


def load() -> dict:
    with open(GOLDEN_PATH) as f:
        return json.load(f)


@pytest.fixture(scope="module")
def golden() -> dict:
    return load()


@pytest.mark.parametrize("name", sorted(PRODUCERS))
def test_value_holds(golden, produced, name):
    assert produced(name) == golden["values"][name]


def test_every_entry_has_a_producer(golden):
    assert set(golden["values"]) == set(PRODUCERS)


def test_values_were_written_by_regen(golden):
    assert golden["log"][-1]["values_sha256"] == \
        values_sha256(golden["values"])


def dump(golden: dict) -> str:
    """One log entry and one value per line, so a diff names them."""
    log = ",\n".join(json.dumps(entry, sort_keys=True)
                     for entry in golden["log"])
    values = ",\n".join(
        f"{json.dumps(name)}: {json.dumps(value, sort_keys=True)}"
        for name, value in sorted(golden["values"].items()))
    return f'{{"log": [\n{log}\n],\n"values": {{\n{values}\n}}}}\n'


def regen(reason: str) -> int:
    golden = (load() if os.path.exists(GOLDEN_PATH)
              else {"log": [], "values": {}})
    values = {name: as_json(produce())
              for name, produce in sorted(PRODUCERS.items())}
    changed = sorted(name for name in set(values) | set(golden["values"])
                     if values.get(name) != golden["values"].get(name))
    if not changed:
        print("nothing changed; golden.json not written")
        return 1
    for name in changed:
        print(f"changed: {name}")
    golden["values"] = values
    golden["log"].append({"reason": reason, "changed": changed,
                          "values_sha256": values_sha256(values)})
    with open(GOLDEN_PATH, "w") as f:
        f.write(dump(golden))
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--regen", action="store_true", required=True,
                        help="rerun every producer and rewrite golden.json")
    parser.add_argument("--reason", required=True,
                        help="why the values move (logged)")
    sys.exit(regen(parser.parse_args().reason))
