"""The benchmark's own tests, at ``--quick`` size.

Run explicitly: ``python -m pytest bench -q`` (tier-1's ``testpaths``
stays ``tests``).  The suite is driven as a user would drive it -- as a
subprocess -- once per session; the tracer is also exercised in-process.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

from bench import spec, workloads
from bench.layers import BOUNDARIES, LAYERS
from bench.ledger import layer_metrics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def _bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "bench", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="session")
def suite(tmp_path_factory):
    """One ``--quick --trace`` run of all six workloads."""
    out = tmp_path_factory.mktemp("bench") / "suite.json"
    done = _bench("--quick", "--trace", "--seconds", "1", "--json", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    with open(out) as f:
        return done.stdout, json.load(f), str(out)


# -- the contract file -----------------------------------------------------


def test_benchmark_json_is_the_spec_and_fits_the_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        contract = json.load(f)
    assert contract == spec.benchmark_json()
    assert set(contract) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert contract["paths"] == ["bench"]
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in contract[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in contract["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in contract["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in contract["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    setup = [m for m in contract["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    runs = 4 + 22 * len(contract["workloads"])
    assert runs * 25 <= 3420          # ~25 s a run is what a run may take


# -- the suite, as a user runs it -------------------------------------------


def test_every_metric_is_printed_by_name_with_its_unit(suite):
    stdout, results, _path = suite
    blocks = stdout.split("== ")[1:]
    assert len(blocks) == 2 * len(spec.WORKLOADS)       # untraced + traced
    for block in blocks:
        for metric in spec.END_TO_END:
            assert re.search(rf"^  {re.escape(metric.name)}\s+\S+ "
                             rf"{re.escape(metric.unit)}\s", block, re.M), \
                (metric.name, block[:200])
        assert "fail_share" in block and "sim_digest" in block
    for block in blocks[1::2]:
        for metric in spec.PER_LAYER:
            assert re.search(rf"^  {re.escape(metric.name)}\s+\S+ "
                             rf"{re.escape(metric.unit)}$", block, re.M), \
                (metric.name, block[:200])
    for name, entry in results["workloads"].items():
        for result in entry.values():
            assert result["correct"] and result["failed"] == 0, name


def test_sharded_run_reproduces_the_serial_digest(suite):
    _stdout, results, _path = suite
    workloads_ = results["workloads"]
    assert workloads_["fleet_sharded"]["e2e"]["digest"] \
        == workloads_["ab_day"]["e2e"]["digest"]
    for entry in workloads_.values():
        assert entry["e2e"]["digest"] == entry["trace"]["digest"]


def test_ledger_separates_the_layers(suite):
    _stdout, results, _path = suite

    def layer(workload: str, metric: str) -> float:
        return results["workloads"][workload]["trace"]["per_layer"][metric][
            "value"]

    for workload in ("bulk", "rpc"):
        assert layer(workload, "sched_cc.reinject_share") == 0
        assert layer(workload, "video.events_share") == 0
        assert layer(workload, "host.routed_per_pkt") == 0
    assert layer("bulk", "crypto.bytes_per_pkt") \
        > 4 * layer("rpc", "crypto.bytes_per_pkt")
    assert layer("ab_day", "video.events_share") > 0
    assert layer("contention", "host.routed_per_pkt") > 0
    assert layer("fleet_sharded", "fleet.shards") > 1
    assert layer("fleet_sharded", "metrics.pickle_bytes") > 0
    for workload in results["workloads"]:
        shares = sum(layer(workload, f"{name}.share") for name in LAYERS)
        assert abs(shares + layer(workload, "trace.unattributed_share")
                   - 1.0) < 1e-9
        assert layer(workload, "trace.unattributed_share") < 0.05


def test_trace_files_are_written(suite):
    for workload in spec.WORKLOADS:
        with open(os.path.join(ROOT, "bench", "out",
                               f"layers-{workload.name}.json")) as f:
            layers = json.load(f)
        assert layers["slots"] and set(layers["metrics"]) \
            == {m.name for m in spec.PER_LAYER}
        with open(os.path.join(ROOT, "bench", "out",
                               f"trace-{workload.name}.json")) as f:
            events = json.load(f)["traceEvents"]
        assert events and all(e["ph"] == "X" and e["dur"] >= 0
                              for e in events)
        ids = {e["args"]["id"] for e in events}
        assert all(e["args"]["parent"] in ids for e in events
                   if e["args"]["parent"] is not None)


def test_compare_reads_what_the_suite_wrote(suite):
    _stdout, _results, path = suite
    done = _bench("compare", path, path)
    assert done.returncode == 0, done.stdout + done.stderr
    rows = [line for line in done.stdout.splitlines()
            if re.match(r"^\w+\s+(setup_s|units_per_s|cpu_s_per_unit|"
                        r"peak_rss_mb)\s", line)]
    assert len(rows) == len(spec.WORKLOADS) * len(spec.END_TO_END)
    assert all(re.search(r"\b(unchanged|unresolved)\b", row) for row in rows)
    assert all(" 1.000 " in row for row in rows)        # B/A, base printed
    assert "self_us_per_pkt" in done.stdout


@pytest.mark.parametrize("trace", ["0", "1"])
def test_driver_run_ends_with_the_result_object(trace):
    done = _bench("--workload", "rpc", "--seed", "11", "--seconds", "1",
                  "--trace", trace, "--quick")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    expected = spec.PER_LAYER if trace == "1" else spec.END_TO_END
    assert set(result["metrics"]) == {m.name for m in expected}
    for metric in expected:
        entry = result["metrics"][metric.name]
        assert entry["unit"] == metric.unit
        assert isinstance(entry["value"], (int, float))
    if trace == "0":
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    """In a directory that holds only BENCHMARK.json and ``bench/`` there
    is nothing to measure: non-zero exit, no result object."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", "bulk", "--seed", "1",
         "--seconds", "1", "--trace", "0"], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert not done.stdout.strip().startswith("{")
    assert "{\"correct\"" not in done.stdout


# -- the tracer, in process --------------------------------------------------


def _originals():
    from repro.quic import connection, crypto, frames
    from repro.sim.event_loop import EventLoop
    return {
        "seal": vars(crypto.PacketProtection)["seal"],
        "schedule_at": vars(EventLoop)["schedule_at"],
        "datagram_received": vars(connection.Connection)["datagram_received"],
        "decode_frames@connection": connection.decode_frames,
        "decode_frames@frames": frames.decode_frames,
        "Connection.__init__": vars(connection.Connection)["__init__"],
        "on_stream_data": vars(connection.Connection).get("on_stream_data"),
    }


def test_self_times_add_up_and_wrappers_come_off():
    from bench.trace import Tracer
    before = _originals()
    workload = workloads.make("contention", quick=True)
    workload.prepare(3)
    untraced = workload.rep()
    tracer = Tracer()
    tracer.open_sample_window()
    with tracer:
        assert _originals()["seal"] is not before["seal"]
        t0 = time.perf_counter_ns()
        traced = workload.rep()
        wall_ns = time.perf_counter_ns() - t0
    assert _originals() == before               # every wrapper removed
    assert not tracer.warnings
    assert traced.digest == untraced.digest     # tracing changes nothing
    # self times of all spans are exactly the time under outermost spans
    assert sum(tracer.self_ns) == tracer.attributed_ns
    # ... and those cover the rep: layer self times = traced wall (2%)
    assert 0.98 * wall_ns <= tracer.attributed_ns <= wall_ns
    assert tracer.packets > 0 and tracer.heap_peak > 0
    layers_seen = {row["layer"] for row in tracer.slots() if row["calls"]}
    assert set(LAYERS) - {"metrics"} <= layers_seen
    spans = tracer.sampled_spans()
    assert spans and any(span["session"] for span in spans)
    by_id = {span["id"]: span for span in spans}
    for span in spans:
        if span["parent"] is not None:
            parent = by_id[span["parent"]]
            assert parent["start_ns"] <= span["start_ns"]
            assert span["end_ns"] <= parent["end_ns"]


def test_unresolvable_boundary_reads_null_with_a_warning(monkeypatch):
    from bench import trace
    broken = tuple(b._replace(attr="open_sesame")
                   if b.name == "PacketProtection.open" else b
                   for b in BOUNDARIES)
    monkeypatch.setattr(trace, "BOUNDARIES", broken)
    before = _originals()
    workload = workloads.make("rpc", quick=True)
    workload.prepare(3)
    tracer = trace.Tracer()
    with tracer:
        t0 = time.perf_counter_ns()
        result = workload.rep()
        wall_ns = time.perf_counter_ns() - t0
    assert _originals() == before
    assert result.failed == 0
    assert tracer.unresolved == ["PacketProtection.open_sesame"]
    assert any("open_sesame" in warning for warning in tracer.warnings)
    metrics = layer_metrics(
        tracer, packets=tracer.packets, units=result.units,
        traced_wall_ns=wall_ns, overhead=0.2,
        untraced_best_s=wall_ns / 1e9, reps=1, calls={}, detail={},
        reference_cpu_s=1.0, cpu_best_s=1.0, pickle_bytes=None,
        taskgen_us_per_unit=0.0)
    assert metrics["crypto.open_us"] is None
    assert metrics["crypto.open_us_p90"] is None
    assert metrics["crypto.seal_us"] > 0          # the rest still reads
    assert set(metrics) == {m.name for m in spec.PER_LAYER}


def test_counts_charge_c_calls_to_the_caller():
    from bench import counts
    workload = workloads.make("bulk", quick=True)
    workload.prepare(3)
    result, calls = counts.profile(workload.rep)
    assert result.failed == 0 and calls["packets"] > 0
    # hashlib is C code called from quic/crypto.py; heapq from sim
    assert calls["calls.crypto"] > 20 * calls["packets"]
    assert calls["calls.sim"] > calls["packets"]
    assert calls.get("calls.other", 0) <= 2
    assert not set(calls) - {f"calls.{layer}" for layer in LAYERS} \
        - {"calls.bench", "calls.other", "packets"}


def test_counts_pass_repeats_exactly_between_processes():
    done = _bench("--counts", "--quick", "--workload", "rpc",
                  "--workload", "fleet_sharded")
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.count("exact counts identical in two runs") == 2
