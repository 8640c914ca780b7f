"""From a traced run's raw numbers to the named per-layer metrics.

One function, :func:`layer_metrics`, holds every formula, so the
meaning of a metric can be read in one place.  A metric whose boundary
did not resolve reads ``None``; one with nothing to measure on this
workload (no host on ``bulk``) reads 0.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from bench.layers import LAYERS, PACKET_BOUNDARY
from bench.trace import Tracer

#: ConnectionStats counters that mean "a received datagram was thrown away"
_DROP_COUNTERS = ("corrupted_dropped", "malformed_dropped",
                  "unknown_cid_dropped", "duplicates_suppressed")


def _ratio(num: Optional[float], den: Optional[float]) -> Optional[float]:
    if num is None or den is None:
        return None
    return num / den if den else 0.0


def _total(objects: List[Any], attr: str) -> int:
    return sum(getattr(obj, attr, 0) for obj in objects)


def layer_metrics(tracer: Tracer, *, packets: Optional[int], units: int,
                  traced_wall_ns: int, overhead: float,
                  untraced_best_s: float, reps: int,
                  calls: Dict[str, int], detail: Dict[str, float],
                  reference_cpu_s: float, cpu_best_s: float,
                  pickle_bytes: Optional[int],
                  taskgen_us_per_unit: float) -> Dict[str, Optional[float]]:
    """Every per-layer metric of one workload.

    ``packets`` and ``units`` are totals over the ``reps`` traced reps
    (``fleet_sharded`` passes the packets of its serial reference, its
    own being sealed in children); ``calls`` comes from the counts
    pass; ``overhead`` is traced wall / untraced wall - 1;
    ``reference_cpu_s`` is the CPU one rep costs a single process.
    """
    slots = tracer.slots()
    by_name = {row["name"]: row for row in slots}
    if PACKET_BOUNDARY + " count" in tracer.unresolved:
        packets = None                       # every per-packet metric too

    def slot(name: str, field: str = "calls") -> Optional[float]:
        row = by_name.get(name)
        if row is None:                      # boundary did not resolve
            return None
        return row.get(field, 0)

    def calls_of(suffix: str) -> int:
        return sum(row["calls"] for row in slots
                   if row["name"].endswith(suffix))

    def us(name: str, field: str) -> Optional[float]:
        value = slot(name, field)
        return None if value is None else value / 1e3

    out: Dict[str, Optional[float]] = {}
    self_ns = {layer: 0 for layer in LAYERS}
    bench_ns = 0
    for row in slots:
        if row["layer"] in self_ns:
            self_ns[row["layer"]] += row["self_ns"]
        else:
            bench_ns += row["self_ns"]
    count_packets = calls.get("packets") or None
    if count_packets is None and packets and reps:
        count_packets = packets // reps      # fleet_sharded: reference
    for layer in LAYERS:
        out[f"{layer}.self_us_per_pkt"] = _ratio(self_ns[layer] / 1e3, packets)
        out[f"{layer}.share"] = _ratio(self_ns[layer], traced_wall_ns)
        out[f"{layer}.calls_per_pkt"] = _ratio(
            calls.get(f"calls.{layer}", 0), count_packets)

    events = sum(tracer.calls[s] for s in tracer.event_slots)
    video_events = sum(tracer.calls[s] for s in tracer.event_slots
                       if tracer.slot_layer[s] == "video")
    scheduled = slot("EventLoop.schedule_at")
    out["sim.events_per_pkt"] = _ratio(events, packets) \
        if scheduled is not None else None
    out["sim.cancel_share"] = _ratio(slot("Event.cancel"), scheduled)
    out["sim.heap_peak"] = tracer.heap_peak

    links, boxes = tracer.link_stats, tracer.loss_boxes
    offered = _total(boxes, "packets_dropped") \
        + _total(boxes, "packets_forwarded")
    out["netem.dgrams_per_pkt"] = _ratio(_total(links, "packets_in"), packets)
    out["netem.drop_share"] = _ratio(
        _total(links, "packets_dropped") + _total(boxes, "packets_dropped"),
        offered)
    out["netem.queue_peak_pkts"] = tracer.queue_peak

    out["crypto.bytes_per_pkt"] = _ratio(tracer.sealed_bytes, tracer.packets)
    out["crypto.seal_us"] = us("PacketProtection.seal", "p50_ns")
    out["crypto.open_us"] = us("PacketProtection.open", "p50_ns")
    out["crypto.open_us_p90"] = us("PacketProtection.open", "p90_ns")
    out["codec.encode_us"] = us("encode_frames", "p50_ns")
    out["codec.decode_us"] = us("decode_frames", "p50_ns")
    out["codec.frames_per_pkt"] = _ratio(tracer.frames_decoded,
                                         slot("decode_frames"))

    conns = tracer.conn_stats
    new_bytes = _total(conns, "stream_bytes_new")
    out["recovery.acks_per_pkt"] = _ratio(_total(conns, "acks_sent"), packets)
    out["recovery.rtx_share"] = _ratio(_total(conns, "stream_bytes_rtx"),
                                       new_bytes)
    out["recovery.ack_us"] = us("PathLossDetector.on_ack_received", "p50_ns")
    out["conn.pkts_per_s"] = _ratio(_ratio(packets, reps), untraced_best_s)
    out["conn.pkts_per_unit"] = _ratio(packets, units)
    out["conn.rx_us"] = us("Connection.datagram_received", "p50_ns")
    out["conn.dropped_share"] = _ratio(
        sum(_total(conns, counter) for counter in _DROP_COUNTERS),
        _total(conns, "packets_received"))

    selects = calls_of(".select_path")
    out["sched_cc.reinject_share"] = _ratio(
        _total(conns, "stream_bytes_reinjected"), new_bytes)
    out["sched_cc.select_per_pkt"] = _ratio(selects, packets)
    out["sched_cc.blocked_share"] = _ratio(tracer.select_none, selects)

    out["video.ticks_per_pkt"] = _ratio(video_events, packets)
    out["video.events_share"] = _ratio(video_events, events)
    out["video.rebuffer_share"] = detail.get("rebuffer_share", 0.0)

    out["host.routed_per_pkt"] = _ratio(slot("ServerHost.on_datagram"),
                                        packets)
    out["host.route_us"] = us("ServerHost.route_connection", "p50_ns")
    out["host.session_setup_ms"] = _ratio(tracer.setup_ns / 1e6, units)

    out["metrics.observe_us"] = us("MetricSink.observe", "p50_ns")
    out["metrics.merge_us"] = us("MetricSink.merge", "p50_ns")
    out["metrics.sink_buckets"] = detail.get("sink_buckets", 0)
    out["metrics.pickle_bytes"] = pickle_bytes or 0

    workers = detail.get("workers", 1) or 1
    out["fleet.parallel_eff"] = _ratio(reference_cpu_s,
                                       workers * untraced_best_s)
    out["fleet.child_cpu_ratio"] = _ratio(cpu_best_s, reference_cpu_s)
    out["fleet.shards"] = detail.get("shards", 0)
    out["fleet.retries"] = detail.get("retries", 0)
    out["fleet.taskgen_us_per_unit"] = taskgen_us_per_unit

    out["trace.overhead"] = overhead
    out["trace.unattributed_share"] = _ratio(
        traced_wall_ns - tracer.attributed_ns + bench_ns, traced_wall_ns)
    return out


def reconcile(metrics: Dict[str, Optional[float]],
              units_per_s: float) -> Dict[str, float]:
    """The identity the ledger must satisfy, both sides in us per unit.

    ``1e6 / units_per_s`` against ``conn.pkts_per_unit x sum of layer
    self times per packet``, the latter with the tracing overhead taken
    back out.  (Session set-up needs no term of its own: it runs under
    the ``execute_session_task`` span, so the layers already hold it.)
    """
    per_pkt = sum(metrics.get(f"{layer}.self_us_per_pkt") or 0.0
                  for layer in LAYERS)
    ledger = (metrics.get("conn.pkts_per_unit") or 0.0) * per_pkt
    ledger /= 1.0 + (metrics.get("trace.overhead") or 0.0)
    measured = 1e6 / units_per_s if units_per_s else 0.0
    return {"measured_us_per_unit": measured, "ledger_us_per_unit": ledger,
            "gap": ledger / measured - 1.0 if measured else 0.0}
