"""Perf benchmark suite for the simulation core.

Measures the hot paths that every experiment in the repository sits
on: raw event-loop throughput, trace-link packet throughput, the
wall-clock of a reference ``xlink`` session, and the serial-vs-parallel
A/B-day fan-out.  The asserted floors are intentionally conservative
(an order of magnitude below current hardware numbers) -- they catch
catastrophic regressions, not jitter; ``BENCH_core.json`` tracks the
real trajectory across PRs (regenerate with ``python -m repro bench``).
"""

from __future__ import annotations

import os

from benchmarks.conftest import print_table, run_once
from repro import perfbench

#: Conservative floors (see module docstring).
MIN_EVENTS_PER_SEC = 100_000
MIN_PACKETS_PER_SEC = 50_000
MAX_SESSION_WALL_S = 30.0
MIN_SEAL_OPEN_BYTES_PER_SEC = 5_000_000
MIN_DATAGRAMS_PER_SEC = 1_000
#: raised from 300 when the batched run-until-blocked pump landed;
#: still ~3x under the steady-state on a loaded 1-CPU container
MIN_PUMP_PACKETS_PER_SEC = 1_000
#: ~18 users/sec steady-state on the 1-CPU reference box
MIN_FLEET_USERS_PER_SEC = 2.0


class TestEventLoopThroughput:
    def test_events_per_sec(self, benchmark):
        result = run_once(benchmark, perfbench.bench_event_loop, 200_000)
        print_table("raw event loop", ["events", "seconds", "events/sec"],
                    [[result["events"], f"{result['seconds']:.3f}",
                      f"{result['events_per_sec']:,.0f}"]])
        assert result["events_per_sec"] > MIN_EVENTS_PER_SEC


class TestTraceLinkThroughput:
    def test_packets_per_sec(self, benchmark):
        result = run_once(benchmark, perfbench.bench_trace_link, 50_000)
        print_table("trace-driven link", ["packets", "seconds", "packets/sec"],
                    [[result["packets"], f"{result['seconds']:.3f}",
                      f"{result['packets_per_sec']:,.0f}"]])
        assert result["packets_per_sec"] > MIN_PACKETS_PER_SEC


class TestReferenceSession:
    def test_xlink_session_wall_clock(self, benchmark):
        result = run_once(benchmark, perfbench.bench_reference_session)
        print_table("reference xlink session",
                    ["wall (s)", "virtual (s)", "x realtime", "completed"],
                    [[f"{result['seconds']:.3f}",
                      f"{result['virtual_seconds']:.2f}",
                      f"{result['virtual_per_wall']:.1f}",
                      result["completed"]]])
        assert result["completed"]
        assert result["seconds"] < MAX_SESSION_WALL_S


class TestHotpath:
    def test_crypto_seal_open(self, benchmark):
        result = run_once(benchmark, perfbench.bench_hotpath_crypto)
        print_table("hotpath: AEAD seal+open",
                    ["payload", "iters", "MB/s"],
                    [[result["payload_bytes"], result["iters"],
                      f"{result['seal_open_bytes_per_sec'] / 1e6:.1f}"]])
        assert result["seal_open_bytes_per_sec"] > \
            MIN_SEAL_OPEN_BYTES_PER_SEC

    def test_datagram_receive_rate(self, benchmark):
        result = run_once(benchmark, perfbench.bench_hotpath_datagrams)
        print_table("hotpath: datagram_received",
                    ["datagrams", "seconds", "datagrams/sec"],
                    [[result["datagrams"], f"{result['seconds']:.3f}",
                      f"{result['datagrams_per_sec']:,.0f}"]])
        assert result["datagrams_per_sec"] > MIN_DATAGRAMS_PER_SEC

    def test_pump_packet_rate(self, benchmark):
        result = run_once(benchmark, perfbench.bench_hotpath_pump,
                          1_000_000)
        print_table("hotpath: send pump bulk transfer",
                    ["bytes", "packets", "packets/sec", "complete"],
                    [[result["transfer_bytes"], result["packets_sent"],
                      f"{result['packets_per_sec']:,.0f}",
                      result["complete"]]])
        assert result["complete"]
        assert result["packets_per_sec"] > MIN_PUMP_PACKETS_PER_SEC


class TestParallelAbDay:
    def test_serial_vs_parallel_identical_and_timed(self, benchmark):
        workers = min(os.cpu_count() or 1, 4)
        result = run_once(benchmark, perfbench.bench_parallel_ab_day,
                          8, max(workers, 2))
        print_table("A/B day fan-out",
                    ["sessions", "workers", "serial (s)", "parallel (s)",
                     "speedup", "identical"],
                    [[result["sessions"], result["workers"],
                      f"{result['serial_seconds']:.2f}",
                      f"{result['parallel_seconds']:.2f}",
                      f"{result['speedup']:.2f}",
                      result["identical_metrics"]]])
        # The determinism contract must hold everywhere; the speedup
        # depends on core count, so only sanity-bound it (pool overhead
        # must not make the parallel path pathologically slow).
        assert result["identical_metrics"]
        assert result["speedup"] > 0.25
        if (os.cpu_count() or 1) >= 4:
            assert result["speedup"] > 1.5
        # Shard-reduced legs: same contract for the fleet tier.
        assert result["fleet_digest_identical"]
        assert result["fleet_speedup"] > 0.25


class TestFleet:
    def test_sharded_fleet_run(self, benchmark):
        result = run_once(benchmark, perfbench.bench_fleet, 24, 2, 4)
        print_table("fleet: sharded population run",
                    ["users", "shards", "workers req/eff", "users/sec",
                     "sink buckets", "failed"],
                    [[result["users"], result["shards"],
                      f"{result['workers_requested']}/"
                      f"{result['workers_effective']}",
                      f"{result['users_per_sec']:.1f}",
                      result["sink_buckets"], result["failed"]]])
        assert result["failed"] == 0
        assert result["sessions"] == result["users"]  # split population
        assert result["workers_effective"] >= 2
        assert result["users_per_sec"] > MIN_FLEET_USERS_PER_SEC
        # bounded-memory proxy: a few hundred sketch slots, not O(users)
        assert result["sink_buckets"] < 5_000
