"""The one table that says what a *layer* is and where its boundaries lie.

A layer is a set of this repo's modules (``MODULE_LAYERS``).  The
traced run wraps the public callables in ``BOUNDARIES`` with spans; the
counts pass charges every profiled function to a layer by file path.
Both read this file and nothing else, so moving a module between
layers, or adding a boundary, is a one-line change here.

Only *public* names appear below.  Timer-driven private work (loss and
pacing timers, link pumps, player ticks) reaches its layer through the
callback hand-off instead: every callable given to
``EventLoop.schedule_at`` or stored in one of ``CALLBACK_ATTRS`` is
charged to the layer of the module that defines it.

Five callables the issue named are deliberately *not* boundaries.
``encode_short_header``, ``PathLossDetector.on_packet_sent`` and
``CongestionController.on_packet_sent`` are per-packet one-liners: each
does less work than the span around it costs (about 1.3 us in place),
so a span there measures the tracer and pushes ``trace.overhead`` past
its 30% budget.  Their time stays in ``conn``'s self time (about 2 us
of ~140 us per packet).  ``DoubleThresholdController.update`` and
``should_reinject`` only ever run inside ``XlinkScheduler`` hooks that
are spans of the same layer, so spans on them would move no time
between layers.  The counts pass still charges all five to their own
layers by file path.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

#: report order; ``bench`` (this harness's own glue) is not a layer of
#: the program and is reported as ``trace.unattributed_share``
LAYERS = ("sim", "netem", "crypto", "codec", "recovery", "conn",
          "sched_cc", "video", "host", "metrics", "fleet")

#: module prefix -> layer; the longest matching prefix wins
MODULE_LAYERS = {
    "repro.sim": "sim",
    "repro.netem": "netem",
    "repro.traces": "netem",
    "repro.quic.crypto": "crypto",
    "repro.quic.frames": "codec",
    "repro.quic.packets": "codec",
    "repro.quic.varint": "codec",
    "repro.quic.loss_detection": "recovery",
    "repro.quic.rtt": "recovery",
    "repro.quic.path": "recovery",
    "repro.quic.cc": "sched_cc",
    "repro.core": "sched_cc",
    "repro.quic": "conn",
    "repro.video": "video",
    "repro.host": "host",
    "repro.lb": "host",
    "repro.metrics": "metrics",
    "repro.experiments": "fleet",
    "bench": "bench",
}

#: where calls land that belong to no module above (stdlib reached
#: from the harness, other ``repro`` packages no workload runs)
OTHER = "other"

_PREFIXES = sorted(MODULE_LAYERS, key=len, reverse=True)


def layer_of_module(module: Optional[str]) -> str:
    """Layer of a dotted module name (``OTHER`` when none matches)."""
    if module:
        for prefix in _PREFIXES:
            if module == prefix or module.startswith(prefix + "."):
                return MODULE_LAYERS[prefix]
    return OTHER


def layer_of_path(filename: str) -> Optional[str]:
    """Layer of a source file path; ``None`` for code outside the repo.

    ``.../src/repro/quic/crypto.py`` -> ``crypto``; the profiler's
    ``~`` pseudo-file for C functions and stdlib paths -> ``None`` (the
    counts pass then charges the call to its caller's layer).
    """
    path = filename.replace("\\", "/")
    for root in ("/repro/", "/bench/"):
        at = path.rfind(root)
        if at >= 0 and path.endswith(".py"):
            dotted = path[at + 1:-3].replace("/", ".")
            if dotted.endswith(".__init__"):
                dotted = dotted[:-len(".__init__")]
            return layer_of_module(dotted)
    return None


class Boundary(NamedTuple):
    """One public callable the traced run wraps with a span.

    ``owner`` is a class name (``attr`` is then a method, wrapped on
    the class and -- with ``subclasses`` -- on every loaded subclass
    that overrides it) or ``None`` (``attr`` is then a
    module-level function, replaced in every ``repro`` module that
    imported it).  ``sample`` keeps every call's duration so medians
    and p90s can be reported, not just totals.
    """

    layer: str
    module: str
    owner: Optional[str]
    attr: str
    sample: bool = False
    subclasses: bool = False

    @property
    def name(self) -> str:
        return f"{self.owner}.{self.attr}" if self.owner else self.attr


_SCHEDULERS = ("SinglePathScheduler", "MinRttScheduler",
               "RoundRobinScheduler", "XlinkScheduler")
#: only XLINK's scheduler does work in these; the others inherit no-ops
_XLINK_HOOKS = ("on_qoe", "on_queue_empty", "on_chunk_sent_out")
_CC_HOOKS = ("on_packet_acked", "on_packets_lost", "on_rate_sample",
             "on_discarded", "reset")

BOUNDARIES: Tuple[Boundary, ...] = (
    # sim: schedule_at also wraps the callback it is handed
    Boundary("sim", "repro.sim.event_loop", "EventLoop", "run"),
    Boundary("sim", "repro.sim.event_loop", "EventLoop", "schedule_at"),
    Boundary("sim", "repro.sim.event_loop", "Event", "cancel"),
    # netem
    Boundary("netem", "repro.netem.network", "Endpoint", "send"),
    Boundary("netem", "repro.netem.link", "ConstantRateLink", "send"),
    Boundary("netem", "repro.netem.link", "TraceDrivenLink", "send"),
    # crypto
    Boundary("crypto", "repro.quic.crypto", "PacketProtection", "seal",
             sample=True),
    Boundary("crypto", "repro.quic.crypto", "PacketProtection", "open",
             sample=True),
    # codec
    Boundary("codec", "repro.quic.frames", None, "encode_frames",
             sample=True),
    Boundary("codec", "repro.quic.frames", None, "decode_frames",
             sample=True),
    Boundary("codec", "repro.quic.packets", None, "decode_header"),
    # recovery
    Boundary("recovery", "repro.quic.loss_detection", "PathLossDetector",
             "on_ack_received", sample=True),
    Boundary("recovery", "repro.quic.loss_detection", "PathLossDetector",
             "on_loss_timer"),
    # conn
    Boundary("conn", "repro.quic.connection", "Connection",
             "datagram_received", sample=True),
    Boundary("conn", "repro.quic.connection", "Connection", "stream_send"),
    Boundary("conn", "repro.quic.connection", "Connection", "stream_read"),
    # sched_cc
    *(Boundary("sched_cc", "repro.core.scheduler", cls, "select_path")
      for cls in _SCHEDULERS),
    *(Boundary("sched_cc", "repro.core.scheduler", "XlinkScheduler", hook)
      for hook in _XLINK_HOOKS),
    *(Boundary("sched_cc", "repro.quic.cc.base", "CongestionController",
               hook, subclasses=True) for hook in _CC_HOOKS),
    # host
    Boundary("host", "repro.host.server", "ServerHost", "on_datagram"),
    Boundary("host", "repro.host.server", "ServerHost", "route_connection",
             sample=True),
    Boundary("host", "repro.host.client", "ClientEndpoint", "on_datagram"),
    Boundary("host", "repro.lb.frontend", "CdnFrontend", "on_datagram"),
    # metrics
    Boundary("metrics", "repro.metrics.sink", "MetricSink", "observe",
             sample=True),
    Boundary("metrics", "repro.metrics.sink", "MetricSink", "merge",
             sample=True),
    # fleet: the entry points the workloads call, and the per-session
    # and per-shard units below them
    Boundary("fleet", "repro.experiments.fleet", None, "run_fleet_driver"),
    Boundary("fleet", "repro.experiments.contention", None,
             "run_contention"),
    Boundary("fleet", "repro.experiments.parallel", None,
             "execute_session_task"),
    Boundary("fleet", "repro.experiments.parallel", None, "execute_shard"),
)

#: public callback attributes of ``Connection``: whatever is stored in
#: one runs under a span of the layer whose module defines it (the
#: player's and media server's stream handlers land in ``video``)
CALLBACK_ATTRS = ("repro.quic.connection", "Connection",
                  ("on_established", "on_stream_data", "on_stream_complete",
                   "qoe_provider"))

#: the call that defines "one packet" for every per-packet metric
PACKET_BOUNDARY = "PacketProtection.seal"

#: the call whose ``callback`` argument is wrapped like a CALLBACK_ATTRS
#: value: that is how timer-driven work finds its layer
SCHEDULE_BOUNDARY = "EventLoop.schedule_at"
