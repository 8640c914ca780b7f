"""Core performance microbenchmarks.

Four measurements track the simulator's hot paths across PRs:

- ``event_loop``: events/sec through a raw self-rescheduling event
  chain -- the floor every simulated second stands on;
- ``trace_link``: packets/sec through a Mahimahi-style
  :class:`TraceDrivenLink` with multi-opportunity slots (exercises the
  batched same-slot delivery path);
- ``session_xlink``: wall-clock seconds for one reference ``xlink``
  video session (the end-to-end unit every population driver repeats);
- ``multi_session``: sessions/sec of one :class:`ServerHost` driving
  N=16 concurrent sessions on a shared cell (the host-runtime demux
  and shared-link machinery under load);
- ``ab_day_parallel``: wall-clock of one A/B day serial vs fanned out
  over the process pool, plus the speedup ratio and a checksum-style
  equality flag for the determinism contract (and the same day again
  through the shard-reduced fleet tier, with its own speedup/digest);
- ``fleet_10k``: users/sec of a sharded 10K-user fleet day reduced
  into streaming metric sketches, with workers requested/effective and
  the sink-bucket count as the bounded-memory proxy;
- ``fleet_checkpoint``: per-day checkpoint serialization cost of a
  :class:`~repro.experiments.campaign.FleetCampaign` as a percentage
  of day wall-clock -- the price of multi-day resumability.

:func:`collect` gathers everything into a JSON-serializable report and
:func:`write_report` persists it to ``BENCH_core.json`` so future PRs
have a trajectory to beat.  Writes refuse to *overwrite* an existing
report from a dirty git tree (the numbers would not be attributable to
a commit); pass ``force=True`` to override.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

from repro.experiments.abtest import ABTestConfig, run_ab_day
from repro.experiments.harness import PathSpec, run_video_session
from repro.netem.link import TraceDrivenLink
from repro.netem.packet import Datagram
from repro.sim.event_loop import EventLoop
from repro.traces.radio_profiles import RadioType

#: Default output file, relative to the current working directory.
DEFAULT_REPORT_PATH = "BENCH_core.json"


# ---------------------------------------------------------------------------
# microbenchmarks
# ---------------------------------------------------------------------------


def bench_event_loop(n_events: int = 200_000) -> Dict[str, Any]:
    """Events/sec of a raw self-rescheduling event chain."""
    loop = EventLoop()
    state = {"left": n_events}

    def tick() -> None:
        state["left"] -= 1
        if state["left"] > 0:
            loop.schedule_after(0.001, tick)

    loop.schedule_at(0.0, tick)
    t0 = time.perf_counter()
    loop.run()
    elapsed = time.perf_counter() - t0
    return {
        "events": n_events,
        "seconds": elapsed,
        "events_per_sec": n_events / elapsed if elapsed > 0 else 0.0,
    }


def bench_trace_link(n_packets: int = 50_000) -> Dict[str, Any]:
    """Packets/sec through a trace link with 4 opportunities per slot."""
    loop = EventLoop()
    delivered: List[Datagram] = []
    link = TraceDrivenLink(loop, trace_ms=[0, 0, 0, 0, 1, 1, 1, 1],
                           deliver=delivered.append,
                           queue_limit_bytes=1 << 30)
    payload = b"x" * 1200
    for _ in range(n_packets):
        link.send(Datagram(payload=payload))
    t0 = time.perf_counter()
    loop.run()
    elapsed = time.perf_counter() - t0
    if len(delivered) != n_packets:
        raise RuntimeError(
            f"trace link delivered {len(delivered)} != {n_packets}")
    return {
        "packets": n_packets,
        "seconds": elapsed,
        "packets_per_sec": n_packets / elapsed if elapsed > 0 else 0.0,
    }


def _reference_paths() -> List[PathSpec]:
    return [
        PathSpec(net_path_id=0, radio=RadioType.WIFI,
                 one_way_delay_s=0.012, rate_bps=10e6),
        PathSpec(net_path_id=1, radio=RadioType.LTE,
                 one_way_delay_s=0.040, rate_bps=5e6),
    ]


def bench_reference_session(seed: int = 7) -> Dict[str, Any]:
    """Wall-clock of one reference ``xlink`` video session."""
    t0 = time.perf_counter()
    result = run_video_session("xlink", _reference_paths(),
                               timeout_s=60.0, seed=seed)
    elapsed = time.perf_counter() - t0
    return {
        "seconds": elapsed,
        "completed": result.completed,
        "virtual_seconds": result.duration_s,
        "virtual_per_wall": (result.duration_s / elapsed
                             if elapsed > 0 else 0.0),
    }


def bench_multi_session(sessions: int = 16, seed: int = 11) -> Dict[str, Any]:
    """Sessions/sec of one ServerHost serving N concurrent sessions."""
    from repro.experiments.contention import ContentionConfig, run_contention
    config = ContentionConfig(sessions=sessions, seed=seed,
                              video_duration_s=4.0)
    t0 = time.perf_counter()
    result = run_contention(config)
    elapsed = time.perf_counter() - t0
    return {
        "sessions": sessions,
        "seconds": elapsed,
        "sessions_per_sec": sessions / elapsed if elapsed > 0 else 0.0,
        "completed": result.completed,
        "virtual_seconds": result.duration_s,
        "datagrams_routed": result.datagrams_routed,
        "datagrams_dropped": result.datagrams_dropped,
    }


def bench_chaos_soak(scenarios: int = 6, seed: int = 7) -> Dict[str, Any]:
    """Scenarios/sec of the chaos soak (fault pipeline + hardening)."""
    from repro.experiments.chaos import ChaosSoakConfig, run_chaos_soak
    config = ChaosSoakConfig(scenarios=scenarios, seed=seed)
    t0 = time.perf_counter()
    result = run_chaos_soak(config)
    elapsed = time.perf_counter() - t0
    return {
        "scenarios": scenarios,
        "seconds": elapsed,
        "scenarios_per_sec": scenarios / elapsed if elapsed > 0 else 0.0,
        "ok": result.ok,
        "digest": result.digest,
    }


def bench_parallel_ab_day(users_per_day: int = 10,
                          workers: Optional[int] = None,
                          seed: int = 3) -> Dict[str, Any]:
    """One A/B day serial vs parallel: wall-clock, speedup, identity.

    ``workers=None`` requests ``max(2, cpu_count)`` rather than the
    plain ``cpu_count`` default: on a 1-CPU container the old default
    resolved to 1 and the "parallel" leg silently ran the serial
    fallback, so the bench measured nothing and recorded
    ``workers_effective: 1``.  Requesting 2 keeps the pool (and the
    serial-vs-parallel identity check) exercised everywhere; the
    speedup column is then honestly ~1.0 on a single core instead of
    vacuously 1.0.
    """
    from repro.experiments.parallel import available_workers, effective_workers
    cfg = ABTestConfig(users_per_day=users_per_day, seed=seed,
                       video_duration_s=6.0)
    schemes = ["sp", "xlink"]
    requested = workers if workers else max(2, available_workers())
    n_tasks = users_per_day * len(schemes)

    t0 = time.perf_counter()
    serial = run_ab_day(cfg, 1, schemes, workers=1)
    serial_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = run_ab_day(cfg, 1, schemes, workers=requested)
    parallel_s = time.perf_counter() - t0

    identical = all(serial[s].sessions == parallel[s].sessions
                    for s in schemes)
    effective = effective_workers(requested, n_tasks)

    # Shard-reduced legs: the same day through the fleet tier, where
    # workers ship one merged MetricSink per shard instead of N pickled
    # SessionOutcomes.  fleet_speedup isolates what the reduced pickle
    # volume buys over the outcome path's parallel leg.
    from repro.experiments.abtest import build_ab_day_tasks
    from repro.experiments.parallel import run_fleet
    tasks = build_ab_day_tasks(cfg, 1, schemes)
    # two shards per worker, so the pool engages at any bench scale
    shard_size = max(1, n_tasks // (2 * requested))
    t0 = time.perf_counter()
    fleet_serial = run_fleet(iter(tasks), workers=1,
                             shard_size=shard_size)
    fleet_serial_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    fleet_sharded = run_fleet(iter(tasks), workers=requested,
                              shard_size=shard_size)
    fleet_sharded_s = time.perf_counter() - t0

    return {
        "users_per_day": users_per_day,
        "sessions": n_tasks,
        # "workers" kept for report-format compatibility; requested is
        # what the parallel leg asked the pool for, effective is what
        # fan_out's dispatch decision actually used.
        "workers": effective,
        "workers_requested": requested,
        "workers_effective": effective,
        "serial_seconds": serial_s,
        "parallel_seconds": parallel_s,
        "speedup": serial_s / parallel_s if parallel_s > 0 else 0.0,
        "identical_metrics": identical,
        "fleet_serial_seconds": fleet_serial_s,
        "fleet_parallel_seconds": fleet_sharded_s,
        "fleet_speedup": (fleet_serial_s / fleet_sharded_s
                          if fleet_sharded_s > 0 else 0.0),
        "fleet_workers_effective": fleet_sharded.workers_effective,
        "fleet_digest_identical": (fleet_serial.sink.digest()
                                   == fleet_sharded.sink.digest()),
    }


def bench_fleet(users: int = 10_000, workers: int = 2,
                shard_size: int = 64, seed: int = 5) -> Dict[str, Any]:
    """Users/sec of a sharded split-population fleet day.

    The 10K-user acceptance run of the fleet tier: one A/B day at
    population scale, reduced shard-by-shard into streaming sketches.
    ``sink_buckets`` is the peak-RSS proxy -- the number of occupied
    sketch slots crossing the pool boundary, which stays O(hundreds)
    no matter how many users run.
    """
    from repro.experiments.fleet import (ABPopulationDriver, FleetConfig,
                                         run_fleet_driver)
    cfg = FleetConfig(users=users, seed=seed)
    run = run_fleet_driver(ABPopulationDriver(cfg), workers=workers,
                           shard_size=shard_size)
    result = run.result
    return {
        "users": users,
        "sessions": result.tasks,
        "failed": result.failed,
        "shards": result.shards,
        "seconds": run.seconds,
        "users_per_sec": users / run.seconds if run.seconds > 0 else 0.0,
        "sessions_per_sec": run.sessions_per_sec,
        "workers_requested": result.workers_requested,
        "workers_effective": result.workers_effective,
        "sink_buckets": run.sink.n_buckets,
        "digest": run.sink.digest(),
    }


def bench_fleet_checkpoint(users: int = 48, days: int = 2,
                           seed: int = 5) -> Dict[str, Any]:
    """Checkpoint-write overhead of a day-checkpointed campaign.

    Runs a small campaign with per-day persistence and reports the
    wall-clock spent serializing/replacing ``campaign.json`` as a
    percentage of total campaign wall-clock.  The checkpoint is
    O(schemes x sketch buckets) -- independent of population size --
    so the percentage *shrinks* as days get bigger; this small run is
    therefore an upper-bound shape for the 100K-user figure.
    """
    import tempfile

    from repro.experiments.campaign import FleetCampaign
    from repro.experiments.fleet import FleetConfig
    cfg = FleetConfig(users=users, days=days, seed=seed)
    with tempfile.TemporaryDirectory() as ckpt_dir:
        campaign = FleetCampaign(cfg, checkpoint_dir=ckpt_dir, workers=1)
        result = campaign.run()
        checkpoint_bytes = os.path.getsize(campaign.checkpoint_path)
    overhead = (result.checkpoint_seconds / result.seconds * 100.0
                if result.seconds > 0 else 0.0)
    return {
        "users": users,
        "days": days,
        "sessions": result.tasks,
        "seconds": result.seconds,
        "checkpoint_seconds": result.checkpoint_seconds,
        "checkpoint_overhead_percent": overhead,
        "checkpoint_bytes": checkpoint_bytes,
        "completed": result.completed,
        "digest": result.digest,
    }


# ---------------------------------------------------------------------------
# hotpath family: the per-datagram pipeline, measured in isolation
# ---------------------------------------------------------------------------


def bench_hotpath_crypto(payload_bytes: int = 1350,
                         iters: int = 1500) -> Dict[str, Any]:
    """Seal+open bytes/sec on MTU-sized payloads."""
    from repro.quic.crypto import PacketProtection
    prot = PacketProtection(key=b"hotpath-bench-key")
    payload = bytes(range(256)) * (payload_bytes // 256 + 1)
    payload = payload[:payload_bytes]
    aad = b"\x40" + b"\x07" * 8 + b"\x00\x00\x00\x2a"

    t0 = time.perf_counter()
    for pn in range(iters):
        sealed = prot.seal(payload, aad, 1, pn)
        if prot.open(sealed, aad, 1, pn) != payload:
            raise RuntimeError("seal/open did not round-trip")
    elapsed = time.perf_counter() - t0

    total_bytes = payload_bytes * iters
    return {
        "payload_bytes": payload_bytes,
        "iters": iters,
        "seconds": elapsed,
        "seal_open_bytes_per_sec": (total_bytes / elapsed
                                    if elapsed > 0 else 0.0),
    }


def _established_pair():
    """A client/server connection pair, established over a fast link."""
    from repro.core import MinRttScheduler
    from repro.netem import MultipathNetwork
    from repro.quic.connection import Connection, ConnectionConfig

    loop = EventLoop()
    net = MultipathNetwork(loop)
    net.add_simple_path(0, 1e9, 0.001)
    client = Connection(
        loop, ConnectionConfig(is_client=True, enable_multipath=True),
        transmit=lambda pid, d: net.client.send(
            Datagram(payload=d, path_id=pid)),
        scheduler=MinRttScheduler(), connection_name="bench")
    server = Connection(
        loop, ConnectionConfig(is_client=False, enable_multipath=True),
        transmit=lambda pid, d: net.server.send(
            Datagram(payload=d, path_id=pid)),
        scheduler=MinRttScheduler(), connection_name="bench")
    net.client.on_receive(lambda d: client.datagram_received(d.payload,
                                                            d.path_id))
    net.server.on_receive(lambda d: server.datagram_received(d.payload,
                                                             d.path_id))
    client.add_local_path(0, 0)
    server.add_local_path(0, 0)
    client.connect()
    loop.run(until=0.5)
    if not (client.established and server.established):
        raise RuntimeError("bench pair failed to establish")
    return loop, client, server


def bench_hotpath_datagrams(n_datagrams: int = 2000) -> Dict[str, Any]:
    """Datagrams/sec through ``Connection.datagram_received``.

    Pre-crafts ``n_datagrams`` valid 1-RTT packets (each a 1200-byte
    STREAM frame on its own stream, distinct packet numbers) and times
    only the receive loop: header decode, AEAD open, frame decode,
    stream reassembly and ACK bookkeeping.
    """
    from repro.quic.frames import StreamFrame, encode_frames
    from repro.quic.packets import encode_short_header

    _loop, _client, server = _established_pair()
    dcid = server.cids.issued[0].cid
    data = b"d" * 1200
    base_pn = 1 << 20
    wire: List[bytes] = []
    for i in range(n_datagrams):
        payload = encode_frames([StreamFrame(stream_id=4 * i, offset=0,
                                             data=data, fin=True)])
        pn = base_pn + i
        aad = encode_short_header(dcid, pn)
        wire.append(aad + server.protection.seal(payload, aad, 0, pn))

    before = server.stats.packets_received
    t0 = time.perf_counter()
    for datagram in wire:
        server.datagram_received(datagram, 0)
    elapsed = time.perf_counter() - t0
    processed = server.stats.packets_received - before
    if processed != n_datagrams:
        raise RuntimeError(
            f"hotpath bench processed {processed} != {n_datagrams}")
    return {
        "datagrams": n_datagrams,
        "payload_bytes": len(data),
        "seconds": elapsed,
        "datagrams_per_sec": n_datagrams / elapsed if elapsed > 0 else 0.0,
    }


def bench_hotpath_pump(transfer_bytes: int = 4_000_000) -> Dict[str, Any]:
    """Packets/sec through the send pump during a bulk transfer.

    The receiver drains the stream as data arrives; without the read a
    transfer above the 4 MiB stream window stalls on flow control.
    """
    loop, client, server = _established_pair()
    server.on_stream_data = server.stream_read
    stream_id = client.create_stream()
    before = client.stats.packets_sent
    t0 = time.perf_counter()
    client.stream_send(stream_id, b"p" * transfer_bytes, fin=True)
    loop.run(until=loop.now + 60.0)
    elapsed = time.perf_counter() - t0
    sent = client.stats.packets_sent - before
    recv_stream = server.recv_streams.get(stream_id)
    complete = recv_stream is not None and recv_stream.is_complete
    return {
        "transfer_bytes": transfer_bytes,
        "packets_sent": sent,
        "seconds": elapsed,
        "packets_per_sec": sent / elapsed if elapsed > 0 else 0.0,
        "complete": complete,
    }


# ---------------------------------------------------------------------------
# report assembly / persistence
# ---------------------------------------------------------------------------


def collect(n_events: int = 200_000, n_packets: int = 50_000,
            ab_users: int = 10, fleet_users: int = 10_000,
            workers: Optional[int] = None) -> Dict[str, Any]:
    """Run the whole suite once (``rounds=1``) and assemble the report.

    ``fleet_users`` sizes the ``fleet_10k`` entry (the dominant cost of
    the suite at the default 10K; pass something small for a dry run).
    """
    return {
        "meta": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "git_commit": _git_commit(),
        },
        "benchmarks": {
            "event_loop": bench_event_loop(n_events),
            "trace_link": bench_trace_link(n_packets),
            "session_xlink": bench_reference_session(),
            "multi_session": bench_multi_session(),
            "chaos_soak": bench_chaos_soak(),
            "ab_day_parallel": bench_parallel_ab_day(ab_users,
                                                     workers=workers),
            "fleet_10k": bench_fleet(fleet_users),
            "fleet_checkpoint": bench_fleet_checkpoint(),
            "hotpath_crypto": bench_hotpath_crypto(),
            "hotpath_datagrams": bench_hotpath_datagrams(),
            "hotpath_pump": bench_hotpath_pump(),
        },
    }


def _git(*args: str) -> Optional[str]:
    try:
        out = subprocess.run(["git", *args], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout


def _git_commit() -> Optional[str]:
    out = _git("rev-parse", "--short", "HEAD")
    return out.strip() if out else None


def git_tree_dirty() -> Optional[bool]:
    """True/False from ``git status --porcelain``; None outside a repo."""
    out = _git("status", "--porcelain")
    if out is None:
        return None
    return bool(out.strip())


def write_report(report: Dict[str, Any],
                 path: str = DEFAULT_REPORT_PATH,
                 force: bool = False) -> str:
    """Write the report; guard overwrites from a dirty working tree.

    A fresh ``BENCH_core.json`` may always be written, but replacing an
    existing one requires a clean tree (so the recorded numbers always
    correspond to a commit) unless ``force`` is set.
    """
    if os.path.exists(path) and not force and git_tree_dirty():
        raise RuntimeError(
            f"refusing to overwrite {path}: git tree is dirty "
            "(commit first, or pass --force)")
    with open(path, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def format_report(report: Dict[str, Any]) -> str:
    """Human-readable summary of a collected report."""
    b = report["benchmarks"]
    ab = b["ab_day_parallel"]
    lines = [
        f"event_loop      {b['event_loop']['events_per_sec']:>12,.0f} events/sec",
        f"trace_link      {b['trace_link']['packets_per_sec']:>12,.0f} packets/sec",
        f"session_xlink   {b['session_xlink']['seconds']:>12.3f} s wall-clock "
        f"({b['session_xlink']['virtual_per_wall']:.1f}x realtime)",
        f"multi_session   {b['multi_session']['sessions_per_sec']:>12.2f} "
        f"sessions/sec (N={b['multi_session']['sessions']}, "
        f"{b['multi_session']['completed']} completed)",
        f"chaos_soak      {b['chaos_soak']['scenarios_per_sec']:>12.2f} "
        f"scenarios/sec (N={b['chaos_soak']['scenarios']}, "
        f"ok={b['chaos_soak']['ok']})",
        f"ab_day          {ab['serial_seconds']:>12.3f} s serial / "
        f"{ab['parallel_seconds']:.3f} s x{ab['workers']} workers "
        f"(speedup {ab['speedup']:.2f}, "
        f"identical={ab['identical_metrics']})",
    ]
    if "fleet_speedup" in ab:
        lines.append(
            f"ab_day_fleet    {ab['fleet_serial_seconds']:>12.3f} s serial / "
            f"{ab['fleet_parallel_seconds']:.3f} s sharded "
            f"(speedup {ab['fleet_speedup']:.2f}, "
            f"digest_identical={ab['fleet_digest_identical']})")
    fl = b.get("fleet_10k")
    if fl:
        lines.append(
            f"fleet_10k       {fl['users_per_sec']:>12.1f} users/sec "
            f"({fl['users']:,} users, {fl['shards']} shards, "
            f"workers {fl['workers_requested']}/{fl['workers_effective']}, "
            f"{fl['sink_buckets']} sink buckets)")
    fc = b.get("fleet_checkpoint")
    if fc:
        lines.append(
            f"fleet_ckpt      {fc['checkpoint_overhead_percent']:>12.2f} "
            f"% of day wall-clock ({fc['checkpoint_bytes']:,} bytes, "
            f"{fc['days']} days)")
    hc = b.get("hotpath_crypto")
    if hc:
        lines.append(
            f"hotpath_crypto  {hc['seal_open_bytes_per_sec'] / 1e6:>12.1f} "
            "MB/s seal+open")
    hd = b.get("hotpath_datagrams")
    if hd:
        lines.append(
            f"hotpath_dgrams  {hd['datagrams_per_sec']:>12,.0f} "
            f"datagrams/sec through datagram_received")
    hp = b.get("hotpath_pump")
    if hp:
        lines.append(
            f"hotpath_pump    {hp['packets_per_sec']:>12,.0f} "
            f"packets/sec bulk transfer (complete={hp['complete']})")
    return "\n".join(lines)
