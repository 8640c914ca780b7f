"""XLINK reproduction: QoE-driven multipath QUIC video transport.

A complete Python reproduction of "XLINK: QoE-Driven Multi-Path QUIC
Transport in Large-scale Video Services" (SIGCOMM 2021), built on a
deterministic discrete-event emulator.  The most commonly used entry
points are re-exported here; see the subpackages for the full API:

- :mod:`repro.experiments` -- session harness, A/B populations, and
  the per-figure experiment drivers.
- :mod:`repro.core` -- XLINK's schedulers, re-injection, and Alg. 1.
- :mod:`repro.quic` -- the multipath QUIC stack.
- :mod:`repro.video` -- media model, player, media server, HTTP ranges.
- :mod:`repro.netem` / :mod:`repro.traces` -- network emulation.
"""

__version__ = "1.0.0"

from repro.experiments import (PathSpec, SCHEMES, run_bulk_download,
                               run_video_session)
from repro.video import make_video

__all__ = [
    "__version__",
    "PathSpec",
    "SCHEMES",
    "run_bulk_download",
    "run_video_session",
    "make_video",
]
