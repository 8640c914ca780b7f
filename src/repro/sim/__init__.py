"""Deterministic discrete-event simulation engine.

All XLINK experiments run in *virtual time*: events are executed in
timestamp order off a binary heap, ties broken by insertion order so a
given seed always produces a bit-identical run.  The engine is
deliberately tiny -- an event loop whose ``now`` is the one clock, a
couple of scheduling helpers and seed derivation -- because everything
interesting lives in the network and protocol layers built on top of
it.
"""

from repro.sim.event_loop import Event, EventLoop, SimulationError
from repro.sim.rng import make_rng

__all__ = ["Event", "EventLoop", "SimulationError", "make_rng"]
