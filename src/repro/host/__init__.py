"""Layered endpoint runtime: one emulated CDN node, many sessions.

- :class:`ServerHost` -- owns the listening endpoint, demultiplexes
  datagrams to per-connection state by DCID, serves everything from
  one shared media catalog.
- :class:`ClientEndpoint` -- one user's device behind explicit
  ``on_datagram`` / ``on_established`` hooks.
- :class:`SessionRuntime` -- provisions N concurrent sessions and
  drives the event loop; the single-session harness is its N=1 case.
"""

from repro.host.client import ClientEndpoint, MigrationMonitor
from repro.host.runtime import (SessionHandle, SessionResult, SessionRuntime,
                                VideoSessionSpec)
from repro.host.server import ServerHost
from repro.host.specs import (SCHEMES, PathSpec, SchemeConfig, build_network,
                              make_scheduler, resolve_scheme, scheme_with_cc)

__all__ = [
    "SCHEMES",
    "ClientEndpoint",
    "MigrationMonitor",
    "PathSpec",
    "SchemeConfig",
    "ServerHost",
    "SessionHandle",
    "SessionResult",
    "SessionRuntime",
    "VideoSessionSpec",
    "build_network",
    "make_scheduler",
    "resolve_scheme",
    "scheme_with_cc",
]
