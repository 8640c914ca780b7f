"""What the benchmark measures: workloads, metrics, bounds, interactions.

``BENCHMARK.json`` at the repo root is the driver's view of this table
(:func:`benchmark_json` builds it; ``bench/test_bench.py`` keeps the
two equal).  Everything the driver's format has no key for lives here
and in ``bench/pins.json``: the default seed, workload sizes and units,
which end-to-end metric each layer metric should move, and the digests
and exact counts measured on this tree.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Tuple

from bench.layers import LAYERS

DEFAULT_SEED = 5

#: seconds one driver run measures (``run_seconds`` in BENCHMARK.json)
RUN_SECONDS = 9

#: fresh child processes per untraced run; each sets up once, so a run
#: sees this many set-ups (and reports the fastest, like every timing)
CHILDREN = 3


class Workload(NamedTuple):
    name: str
    #: what ``units_per_s`` counts
    unit: str
    #: fixed work of one rep (keyword arguments of the workload class)
    size: Dict[str, Any]
    #: the same at ``--quick`` scale (tests)
    quick: Dict[str, Any]
    #: False where call counts depend on process timing
    exact_counts: bool
    why: str


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "bulk", "MB", {"megabytes": 6}, {"megabytes": 1}, True,
        "one 6 MB stream over a 1 Gbps / 1 ms path, drained with "
        "stream_read: MTU-sized packets, so per-byte AEAD, codec and "
        "ACK/credit work dominate; video, host and fleet do nothing"),
    Workload(
        "rpc", "exchange", {"exchanges": 3000, "window": 4},
        {"exchanges": 200, "window": 4}, True,
        "64 B request / 256 B response streams, 4 open at a time: the "
        "smallest packets both ways, so per-packet fixed cost dominates "
        "and a per-byte win that costs per-packet work shows here"),
    Workload(
        "ab_day", "session", {"users": 24}, {"users": 4}, True,
        "the paper's A/B population (sp vs xlink, lossy Wi-Fi+LTE, 2 s "
        "clips) in one process: the north-star users/sec without process "
        "noise; handshake, slow start and first-frame work dominate"),
    Workload(
        "fleet_sharded", "session",
        {"users": 24, "workers": 2, "shard_size": 3},
        {"users": 4, "workers": 2, "shard_size": 1}, False,
        "the same users through 2 forked workers: transport work equals "
        "ab_day, so the difference is the executor (fork, pickle, "
        "validate, merge, idle)"),
    Workload(
        "mobility", "session",
        {"traces": 1, "schemes": ("sp", "vanilla_mp", "cm", "xlink")},
        {"traces": 1, "schemes": ("xlink",)}, True,
        "3 MB sessions over trace-driven links with hand-offs under sp, "
        "vanilla_mp, cm and xlink: steady state, loss/PTO/retransmission, "
        "re-injection and CM migration -- the packets off the fast path"),
    Workload(
        "contention", "session",
        {"sessions": 12, "video_duration_s": 3.0},
        {"sessions": 3, "video_duration_s": 1.0}, True,
        "concurrent sessions on one ServerHost and loop behind a shared "
        "cell: deep event heap, LB/host demux, shared queues, and opens "
        "that miss the AEAD seal cache"),
)

WORKLOAD_BY_NAME = {w.name: w for w in WORKLOADS}


def comparable_counts(workload: str, counts: Dict[str, int]) -> Dict[str, int]:
    """The counts that must repeat exactly (all of them, except the
    per-layer call totals where process timing decides them)."""
    if WORKLOAD_BY_NAME[workload].exact_counts:
        return dict(counts)
    return {k: v for k, v in counts.items() if not k.startswith("calls.")}


def differing_counts(workload: str, a: Dict[str, int],
                     b: Dict[str, int]) -> List[str]:
    """Names of the exact counts on which two runs disagree."""
    a, b = comparable_counts(workload, a), comparable_counts(workload, b)
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: end-to-end: share of the parent's median it may worsen by
    bound: float
    #: end-to-end: what it means; per-layer: which end-to-end metric it
    #: should move, on which workload
    note: str


END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25,
           "child-process start -> first timed rep: imports, inputs from "
           "the seed, handshakes, one discarded warm-up rep (fastest of "
           "the run's children)"),
    Metric("units_per_s", "unit/s", "higher", 0.25,
           "application work completed per wall second (MB, exchanges "
           "or sessions; fastest timed rep of the run)"),
    Metric("cpu_s_per_unit", "CPU-s/unit", "lower", 0.25,
           "user+sys CPU of the child and every process it reaped, per "
           "unit (cheapest timed rep): prices a parallel speed-up bought "
           "with core-seconds"),
    Metric("peak_rss_mb", "MB", "lower", 0.10,
           "max ru_maxrss over the child and its reaped workers"),
)

_LAYER_MOVES = {
    "sim": "units_per_s on contention (deep heap), then all",
    "netem": "units_per_s on mobility (trace links) and contention "
             "(shared queues); little on bulk",
    "crypto": "units_per_s on bulk (largest share), the four session "
              "workloads by its share, least on rpc (fixed per-call part)",
    "codec": "units_per_s on rpc first, then bulk",
    "recovery": "units_per_s on rpc first, then bulk; mobility for loss",
    "conn": "units_per_s on rpc first, then bulk",
    "sched_cc": "units_per_s on mobility; none on bulk/rpc re-injection",
    "video": "units_per_s on ab_day/mobility; none on bulk/rpc",
    "host": "units_per_s on contention; setup_s on session workloads",
    "metrics": "units_per_s and cpu_s_per_unit on fleet_sharded only",
    "fleet": "units_per_s and cpu_s_per_unit on fleet_sharded only; "
             "ab_day must not move",
}


def _layer_triples() -> List[Metric]:
    out = []
    for layer in LAYERS:
        moves = _LAYER_MOVES[layer]
        out.append(Metric(f"{layer}.self_us_per_pkt", "us/pkt", "lower", 0.0,
                          moves))
        out.append(Metric(f"{layer}.share", "ratio", "lower", 0.0, moves))
        out.append(Metric(f"{layer}.calls_per_pkt", "calls/pkt", "lower",
                          0.0, moves))
    return out


PER_LAYER: Tuple[Metric, ...] = (
    *_layer_triples(),
    Metric("sim.events_per_pkt", "events/pkt", "lower", 0.0,
           "units_per_s on contention"),
    Metric("sim.cancel_share", "ratio", "lower", 0.0,
           "units_per_s on contention (wasted heap work)"),
    Metric("sim.heap_peak", "count", "lower", 0.0,
           "units_per_s on contention; peak_rss_mb"),
    Metric("netem.dgrams_per_pkt", "dgrams/pkt", "lower", 0.0,
           "units_per_s on mobility and contention"),
    Metric("netem.drop_share", "ratio", "lower", 0.0,
           "units_per_s on mobility (drops cause recovery work)"),
    Metric("netem.queue_peak_pkts", "count", "lower", 0.0,
           "units_per_s on contention (shared queues)"),
    Metric("crypto.bytes_per_pkt", "bytes/pkt", "higher", 0.0,
           "units_per_s on bulk (per-byte) vs rpc (per-call)"),
    Metric("crypto.seal_us", "us", "lower", 0.0, "units_per_s on bulk"),
    Metric("crypto.open_us", "us", "lower", 0.0, "units_per_s on bulk"),
    Metric("crypto.open_us_p90", "us", "lower", 0.0,
           "units_per_s on contention (seal-cache misses)"),
    Metric("codec.encode_us", "us", "lower", 0.0, "units_per_s on rpc"),
    Metric("codec.decode_us", "us", "lower", 0.0, "units_per_s on rpc"),
    Metric("codec.frames_per_pkt", "frames/pkt", "higher", 0.0,
           "units_per_s on rpc (coalescing)"),
    Metric("recovery.acks_per_pkt", "acks/pkt", "lower", 0.0,
           "units_per_s on rpc, then bulk"),
    Metric("recovery.rtx_share", "ratio", "lower", 0.0,
           "units_per_s on mobility; 0 on bulk/rpc"),
    Metric("recovery.ack_us", "us", "lower", 0.0,
           "units_per_s on rpc, then bulk"),
    Metric("conn.pkts_per_s", "pkts/s", "higher", 0.0,
           "units_per_s everywhere: the packet rate the stack sustains"),
    Metric("conn.pkts_per_unit", "pkts/unit", "lower", 0.0,
           "units_per_s everywhere: packets one unit of work costs"),
    Metric("conn.rx_us", "us", "lower", 0.0, "units_per_s on rpc, bulk"),
    Metric("conn.dropped_share", "ratio", "lower", 0.0,
           "units_per_s on mobility, contention"),
    Metric("sched_cc.reinject_share", "ratio", "lower", 0.0,
           "units_per_s on mobility (Table 3 cost); must read 0 on "
           "bulk/rpc"),
    Metric("sched_cc.select_per_pkt", "calls/pkt", "lower", 0.0,
           "units_per_s on mobility"),
    Metric("sched_cc.blocked_share", "ratio", "lower", 0.0,
           "units_per_s on bulk (cwnd-limited pump wakeups)"),
    Metric("video.ticks_per_pkt", "events/pkt", "lower", 0.0,
           "units_per_s on ab_day/mobility (playback-idle events)"),
    Metric("video.events_share", "ratio", "lower", 0.0,
           "units_per_s on ab_day/mobility; 0 on bulk/rpc"),
    Metric("video.rebuffer_share", "ratio", "lower", 0.0,
           "simulated QoE; a transport change that moves it changed "
           "behaviour"),
    Metric("host.routed_per_pkt", "dgrams/pkt", "lower", 0.0,
           "units_per_s on contention"),
    Metric("host.route_us", "us", "lower", 0.0,
           "units_per_s on contention"),
    Metric("host.session_setup_ms", "ms", "lower", 0.0,
           "setup_s, and slightly units_per_s, on ab_day/fleet_sharded"),
    Metric("metrics.observe_us", "us", "lower", 0.0,
           "units_per_s on ab_day (per session)"),
    Metric("metrics.merge_us", "us", "lower", 0.0,
           "units_per_s on fleet_sharded (per shard)"),
    Metric("metrics.sink_buckets", "count", "lower", 0.0,
           "peak_rss_mb and metrics.pickle_bytes on fleet_sharded"),
    Metric("metrics.pickle_bytes", "bytes", "lower", 0.0,
           "units_per_s on fleet_sharded (pipe traffic per shard)"),
    Metric("fleet.parallel_eff", "ratio", "higher", 0.0,
           "units_per_s on fleet_sharded; ab_day must not move"),
    Metric("fleet.child_cpu_ratio", "ratio", "lower", 0.0,
           "cpu_s_per_unit on fleet_sharded"),
    Metric("fleet.shards", "count", "lower", 0.0,
           "units_per_s on fleet_sharded (fork+pickle per shard)"),
    Metric("fleet.retries", "count", "lower", 0.0,
           "units_per_s and cpu_s_per_unit on fleet_sharded"),
    Metric("fleet.taskgen_us_per_unit", "us/unit", "lower", 0.0,
           "setup_s, and slightly units_per_s, on ab_day/fleet_sharded"),
    Metric("trace.overhead", "ratio", "lower", 0.0,
           "none: traced wall / untraced wall - 1, the price of the "
           "ledger itself"),
    Metric("trace.unattributed_share", "ratio", "lower", 0.0,
           "none: traced time under no layer's span"),
)


def benchmark_json() -> Dict[str, Any]:
    """The driver's contract file, derived from the tables above."""
    return {
        "command": ["python3", "-m", "bench"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }
