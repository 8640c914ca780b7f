"""Per-path congestion controllers.

The paper runs "decoupled" Cubic per path (Sec. 7 / Sec. 9); the
registry also provides NewReno, a coupled LIA variant for the fairness
discussion in Sec. 9, and the model-based BBR family (ROADMAP item 4):

- ``"newreno"`` -- RFC 9002 NewReno (loss-based, unpaced)
- ``"cubic"``   -- RFC 9438 Cubic, the production default (unpaced)
- ``"lia"``     -- RFC 6356 coupled LIA; subflows share a
  :class:`LiaCoordinator` (unpaced)
- ``"bbr"``     -- BBR v1 (model-based, paced; per-path, decoupled)
- ``"mpbbr"``   -- coupled multipath BBR; subflows share an
  :class:`MpBbrCoordinator` (staggered bandwidth probing + a
  non-starvation cwnd floor)

Coupled controllers take a per-connection coordinator: build one with
:func:`make_coordinator` and pass it to every :func:`make_cc` call of
that connection, or omit it for a standalone (single-path) instance.
"""

from typing import Optional

from repro.quic.cc.base import CongestionController, RateSample
from repro.quic.cc.newreno import NewRenoCc
from repro.quic.cc.cubic import CubicCc
from repro.quic.cc.coupled import LiaCoupledCc, LiaCoordinator
from repro.quic.cc.bbr import BbrCc, MpBbrCc, MpBbrCoordinator

CC_REGISTRY = {
    "newreno": NewRenoCc,
    "cubic": CubicCc,
    "lia": LiaCoupledCc,
    "bbr": BbrCc,
    "mpbbr": MpBbrCc,
}

#: coordinator factory for the coupled entries; uncoupled names map to
#: nothing and get a plain per-path controller.
COORDINATORS = {
    "lia": LiaCoordinator,
    "mpbbr": MpBbrCoordinator,
}


def make_cc(name: str, **kwargs) -> CongestionController:
    """Build a congestion controller by name.

    Registered names: ``newreno``, ``cubic``, ``lia``, ``bbr``,
    ``mpbbr`` (see the module docstring for what each is).  For the
    coupled entries pass ``coordinator=`` (one per connection, from
    :func:`make_coordinator`) to couple the subflows; without it each
    instance gets a private coordinator.
    """
    try:
        return CC_REGISTRY[name](**kwargs)
    except KeyError as exc:
        raise ValueError(f"unknown congestion controller {name!r}") from exc


def make_coordinator(name: str) -> Optional[object]:
    """Per-connection shared state for coupled controllers, else None."""
    factory = COORDINATORS.get(name)
    return factory() if factory is not None else None


__all__ = [
    "CongestionController",
    "RateSample",
    "NewRenoCc",
    "CubicCc",
    "LiaCoupledCc",
    "LiaCoordinator",
    "BbrCc",
    "MpBbrCc",
    "MpBbrCoordinator",
    "make_cc",
    "make_coordinator",
    "CC_REGISTRY",
    "COORDINATORS",
]
