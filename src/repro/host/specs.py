"""Session vocabulary shared by the host runtime and the experiments.

========== =============================================================
scheme      configuration
========== =============================================================
sp          single-path QUIC on the primary interface
cm          single-path QUIC with connection migration (probe + cwnd
            reset) -- the CM baseline of Fig. 13
vanilla_mp  multipath QUIC, min-RTT scheduler, no re-injection
            (MPQUIC default; Sec. 3)
reinject    XLINK re-injection *without* QoE control (always on) --
            the 15%-overhead configuration of Sec. 5.2
xlink       full XLINK: priority-based re-injection gated by the
            double-threshold QoE controller
xlink_nofa  XLINK without first-video-frame acceleration (Fig. 12's
            ablation)
mptcp       the MPTCP baseline on the same stack: min-RTT path choice,
            ACKs on the subflow that carried the data, opportunistic
            retransmission (always-on appending re-injection), no
            first-frame acceleration
========== =============================================================

A scheme is a value (:class:`SchemeConfig`).  ``SCHEMES`` names the
seven above and cannot be added to; a sweep point or ablation is
``dataclasses.replace(SCHEMES["xlink"], name=..., thresholds=...)``, a
scheme x CC arm is :func:`scheme_with_cc`, and every session entry
point takes the value (or one of the seven names).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import List, Mapping, Optional, Sequence, Union

from repro.core import (MinRttScheduler, ReinjectionMode, SinglePathScheduler,
                        ThresholdConfig, XlinkScheduler)
from repro.netem import MultipathNetwork, OutageSchedule
from repro.netem.link import as_trace
from repro.sim import EventLoop
from repro.sim.rng import make_rng
from repro.traces.radio_profiles import RadioType


@dataclass
class PathSpec:
    """One emulated network path; every network built from it shares
    ``trace_ms`` (a trace, :func:`~repro.netem.link.as_trace`)."""

    net_path_id: int
    radio: RadioType
    one_way_delay_s: float
    rate_bps: Optional[float] = None
    trace_ms: Optional[array] = None
    loss_rate: float = 0.0
    queue_limit_bytes: int = 192 * 1024
    outages: Optional[OutageSchedule] = None

    def __post_init__(self) -> None:
        if (self.rate_bps is None) == (self.trace_ms is None):
            raise ValueError("specify exactly one of rate_bps / trace_ms")
        if self.trace_ms is not None:
            self.trace_ms = as_trace(self.trace_ms)


@dataclass(frozen=True)
class SchemeConfig:
    """One arm's transport configuration: a value, compared and shipped
    to workers as such."""

    name: str
    multipath: bool
    reinjection_mode: ReinjectionMode = ReinjectionMode.NONE
    thresholds: Optional[ThresholdConfig] = None
    connection_migration: bool = False
    first_frame_acceleration: bool = True
    ack_path_policy: str = "fastest"
    cc_algorithm: str = "cubic"


_XLINK = SchemeConfig(name="xlink", multipath=True,
                      reinjection_mode=ReinjectionMode.FRAME_PRIORITY,
                      thresholds=ThresholdConfig(t_th1=0.5, t_th2=2.0))

#: The paper's seven arms (Sec. 7).  Read-only: a variant is a value
#: handed to whatever runs the session, never a new key here.
SCHEMES: Mapping[str, SchemeConfig] = MappingProxyType({
    "sp": SchemeConfig(name="sp", multipath=False),
    "cm": SchemeConfig(name="cm", multipath=False,
                       connection_migration=True),
    "vanilla_mp": SchemeConfig(name="vanilla_mp", multipath=True,
                               reinjection_mode=ReinjectionMode.NONE),
    "reinject": replace(_XLINK, name="reinject",
                        thresholds=ThresholdConfig(always_on=True)),
    "xlink": _XLINK,
    "xlink_nofa": replace(_XLINK, name="xlink_nofa",
                          reinjection_mode=ReinjectionMode.STREAM_PRIORITY,
                          first_frame_acceleration=False),
    # Linux MPTCP as Fig. 13 sees it (Secs. 5.3 and 8): the appending
    # sweep re-sends overdue slow-path ranges on the queue tail, which
    # is opportunistic retransmission; subflow penalization is omitted.
    "mptcp": SchemeConfig(name="mptcp", multipath=True,
                          reinjection_mode=ReinjectionMode.APPENDING,
                          thresholds=ThresholdConfig(always_on=True),
                          first_frame_acceleration=False,
                          ack_path_policy="original"),
})

#: what every session entry point accepts: a value, or an arm's name
SchemeLike = Union[str, SchemeConfig]


def resolve_scheme(scheme: SchemeLike) -> SchemeConfig:
    """The value of ``scheme``; the only place a name is looked up.
    Called where a session is built, so that is where an unknown name
    raises ``KeyError`` (and a fleet tallies it)."""
    return scheme if isinstance(scheme, SchemeConfig) else SCHEMES[scheme]


def scheme_name(scheme: SchemeLike) -> str:
    """The name results, sink buckets and CLI output are keyed by."""
    return scheme.name if isinstance(scheme, SchemeConfig) else scheme


def scheme_paths(scheme: SchemeLike, paths: Sequence[PathSpec]
                 ) -> List[PathSpec]:
    """The paths a session under ``scheme`` is handed: all of them, or
    the primary alone when the scheme neither aggregates nor migrates
    (``sp+bbr`` as much as ``sp``).  An unknown name keeps every path:
    the session is what fails on it."""
    try:
        config = resolve_scheme(scheme)
    except KeyError:
        return list(paths)
    if config.multipath or config.connection_migration:
        return list(paths)
    return list(paths[:1])


def scheme_with_cc(scheme: SchemeLike, cc: str) -> SchemeConfig:
    """``scheme`` under congestion controller ``cc``, as a new value
    named ``"<scheme>+<cc>"``.

    The scheme's own controller returns the scheme itself
    (``scheme_with_cc("xlink", "cubic") is SCHEMES["xlink"]``), so
    drivers can map every arm through this without perturbing the
    default (bit-pinned) configurations.
    """
    base = resolve_scheme(scheme)
    if cc == base.cc_algorithm:
        return base
    # Validate eagerly: an unknown CC should fail at configuration
    # time, not inside a worker process mid-experiment.
    from repro.quic.cc import CC_REGISTRY
    if cc not in CC_REGISTRY:
        raise ValueError(f"unknown congestion controller {cc!r}")
    return replace(base, name=f"{base.name}+{cc}", cc_algorithm=cc)


def make_scheduler(scheme: SchemeConfig):
    """The packet scheduler both endpoints of a scheme run."""
    if not scheme.multipath:
        return SinglePathScheduler()
    if scheme.reinjection_mode is ReinjectionMode.NONE:
        return MinRttScheduler()
    return XlinkScheduler(mode=scheme.reinjection_mode,
                          thresholds=scheme.thresholds)


def build_network(loop: EventLoop, paths: Sequence[PathSpec],
                  seed: int) -> MultipathNetwork:
    """Instantiate the emulated paths of a session network."""
    net = MultipathNetwork(loop)
    for spec in paths:
        rng = make_rng(seed, f"path-{spec.net_path_id}")
        if spec.trace_ms is not None:
            net.add_trace_path(
                spec.net_path_id, spec.trace_ms, spec.one_way_delay_s,
                loss_rate=spec.loss_rate,
                queue_limit_bytes=spec.queue_limit_bytes,
                outages=spec.outages, rng=rng)
        else:
            net.add_simple_path(
                spec.net_path_id, spec.rate_bps, spec.one_way_delay_s,
                loss_rate=spec.loss_rate,
                queue_limit_bytes=spec.queue_limit_bytes,
                outages=spec.outages, rng=rng)
    return net
