"""Spans around each layer's public callables, installed from outside.

:class:`Tracer` replaces the callables named in :mod:`bench.layers`
with timing wrappers for the length of a traced run and puts the
originals back afterwards; nothing under ``src/`` knows it exists.

A span is one call through a wrapper.  Its *self time* is its duration
minus the time its child spans cover, so the self times of all spans
in a run add up to the time spent under the outermost ones.  Totals
and call counts aggregate online per ``(layer, name)`` slot; complete
span records are kept only while the sample window is open (the first
``SAMPLE_PACKETS`` packets or ``SAMPLE_SESSIONS`` sessions of a
workload) and are written as Chrome trace events by
:meth:`Tracer.chrome_trace`.

Beside the spans the tracer places a few *probes* -- counters that
time nothing: packets sealed and their bytes, the stats objects of
every connection, link and loss box built, and the pickled size of one
shard result.  ``Tracer(spans=False)`` installs only those; it costs a
fraction of a percent and is how ``fleet_sharded`` counts the packets
of its serial reference run.

A boundary that cannot be resolved (renamed, moved, turned into a
property) is skipped with a warning and its metrics read ``None``.
"""

from __future__ import annotations

import functools
from functools import partial
import importlib
import inspect
import os
import pickle
import sys
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Tuple

from bench.layers import (BOUNDARIES, CALLBACK_ATTRS, PACKET_BOUNDARY,
                          SCHEDULE_BOUNDARY, Boundary, layer_of_module)

SAMPLE_PACKETS = 2000
SAMPLE_SESSIONS = 2

#: the tracer whose wrappers are live in this process, if any; a forked
#: shard worker drops them so the children of a traced ``fleet_sharded``
#: run at full speed (their spans could not be collected anyway)
_ACTIVE: Optional["Tracer"] = None
_FORK_HOOK_SET = False


def _drop_in_child() -> None:
    if _ACTIVE is not None:
        _ACTIVE.uninstall()


def _percentile(sorted_values: List[int], pct: float) -> float:
    index = min(int(len(sorted_values) * pct / 100.0), len(sorted_values) - 1)
    return float(sorted_values[index])


class Tracer:
    """Installs, aggregates and removes the layer spans and probes."""

    def __init__(self, spans: bool = True) -> None:
        self.spans = spans
        self.warnings: List[str] = []
        #: boundary names that did not resolve
        self.unresolved: List[str] = []
        # -- span aggregation, one entry per slot ----------------------
        self.slot_layer: List[str] = []
        self.slot_name: List[str] = []
        self.self_ns: List[int] = []
        self.calls: List[int] = []
        self.durations: Dict[int, List[int]] = {}
        self._slot_of: Dict[Tuple[str, str], int] = {}
        #: callback code object -> its slot's ``fire``, or _ALREADY_SPAN
        self._callback_fire: Dict[Any, Any] = {}
        #: slots of callbacks that ran as loop events
        self.event_slots: set = set()
        #: [0] is the time spent so far under the children of the
        #: innermost open span; with no span open, the attributed total
        self.under: List[int] = [0]
        # -- sample window ---------------------------------------------
        self._rec_on = [False]
        self.sample: List[Tuple[int, int, int, Optional[str]]] = []
        self._sample_sessions: List[str] = []
        self._shards_seen = 0
        # -- probes ----------------------------------------------------
        self.packets = 0
        self.sealed_bytes = 0
        self.conn_stats: List[Any] = []
        self.link_stats: List[Any] = []
        self.loss_boxes: List[Any] = []
        self.pickle_bytes: Optional[int] = None
        self.heap_peak: Optional[int] = None
        self.queue_peak = 0
        self.select_none = 0
        self.frames_decoded = 0
        self.setup_ns = 0
        self._setup_mark = 0
        self._patches: List[Tuple[Any, str, Any, bool]] = []
        self._installed = False

    # ------------------------------------------------------------------
    # slots
    # ------------------------------------------------------------------

    def _slot(self, layer: str, name: str) -> int:
        key = (layer, name)
        slot = self._slot_of.get(key)
        if slot is None:
            slot = len(self.self_ns)
            self._slot_of[key] = slot
            self.slot_layer.append(layer)
            self.slot_name.append(name)
            self.self_ns.append(0)
            self.calls.append(0)
        return slot

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    #
    # Every wrapper does the same accounting.  ``under[0]`` is the time
    # spent so far in the children of the innermost open span; a span
    # saves it, zeroes it for its own children, and on the way out
    # books ``duration - under[0]`` as self time and hands ``saved +
    # duration`` back to its parent.  The closures are spelled out
    # rather than composed because they are the cost the traced run
    # pays on every call.

    def _span(self, fn: Callable, slot: int, sample: bool = False,
              before: Optional[Callable] = None,
              after: Optional[Callable] = None) -> Callable:
        """``fn`` under a span charged to ``slot``.

        ``sample`` keeps each call's duration.  ``before(args)`` and
        ``after(args, result)`` are probe hooks run outside the timed
        interval, so what they cost is charged to the caller.
        """
        self_ns, calls, under = self.self_ns, self.calls, self.under
        clock, rec_on, record = perf_counter_ns, self._rec_on, self._record
        keep = self.durations.setdefault(slot, []).append if sample else None

        if before is not None or after is not None:
            def span(*args, **kwargs):
                if before is not None:
                    before(args)
                saved = under[0]
                under[0] = 0
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    self_ns[slot] += dt - under[0]
                    under[0] = saved + dt
                    calls[slot] += 1
                    if keep is not None:
                        keep(dt)
                    if rec_on[0]:
                        record(slot, t0, dt, args)
                if after is not None:
                    after(args, result)
                return result
        elif sample:
            def span(*args, **kwargs):
                saved = under[0]
                under[0] = 0
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    self_ns[slot] += dt - under[0]
                    under[0] = saved + dt
                    calls[slot] += 1
                    keep(dt)
                    if rec_on[0]:
                        record(slot, t0, dt, args)
        else:
            def span(*args, **kwargs):
                saved = under[0]
                under[0] = 0
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    self_ns[slot] += dt - under[0]
                    under[0] = saved + dt
                    calls[slot] += 1
                    if rec_on[0]:
                        record(slot, t0, dt, args)

        # a span handed on as a callback must not be wrapped again
        self._callback_fire[span.__code__] = _ALREADY_SPAN
        functools.update_wrapper(span, fn)
        return span

    def _callback(self, callback: Callable, event: bool = False) -> Callable:
        """A handed-over callback under a span of its defining module.

        Runs once per scheduled event (``event=True``), so it builds no
        closure: the per-slot ``fire`` function is made once and bound
        to each callback with a C-level ``partial``.
        """
        try:
            key = callback.__code__      # functions and bound methods
        except AttributeError:
            key = type(callback)         # partials, callable objects
        fire = self._callback_fire.get(key)
        if fire is None:
            module = getattr(callback, "__module__", None)
            name = getattr(callback, "__qualname__", None) \
                or getattr(key, "__qualname__", repr(key))
            slot = self._slot(layer_of_module(module), name)
            if event:
                self.event_slots.add(slot)
            fire = self._fire(slot)
            self._callback_fire[key] = fire
        elif fire is _ALREADY_SPAN:
            return callback
        return partial(fire, callback)

    def _fire(self, slot: int) -> Callable:
        """``fire(callback, *args)``: run ``callback`` under ``slot``."""
        self_ns, calls, under = self.self_ns, self.calls, self.under
        clock, rec_on, record = perf_counter_ns, self._rec_on, self._record

        def fire(callback, *args):
            saved = under[0]
            under[0] = 0
            t0 = clock()
            try:
                return callback(*args)
            finally:
                dt = clock() - t0
                self_ns[slot] += dt - under[0]
                under[0] = saved + dt
                calls[slot] += 1
                if rec_on[0]:
                    record(slot, t0, dt, (callback,))

        return fire

    def _scheduling(self, schedule_at: Callable, slot: int,
                    sample_heap: bool) -> Callable:
        """``EventLoop.schedule_at`` under a span, wrapping its callback.

        The event's callback later runs under a span of its own layer,
        and (when the loop still keeps its heap in ``_heap``) the heap
        length is sampled for ``sim.heap_peak``.
        """
        self_ns, calls, under = self.self_ns, self.calls, self.under
        clock, wrap, tracer = perf_counter_ns, self._callback, self

        def span(loop, time, callback, *args, **kwargs):
            saved = under[0]
            under[0] = 0
            t0 = clock()
            try:
                return schedule_at(loop, time, wrap(callback, True),
                                   *args, **kwargs)
            finally:
                dt = clock() - t0
                self_ns[slot] += dt - under[0]
                under[0] = saved + dt
                calls[slot] += 1
                if sample_heap and len(loop._heap) > tracer.heap_peak:
                    tracer.heap_peak = len(loop._heap)

        functools.update_wrapper(span, schedule_at)
        return span

    # ------------------------------------------------------------------
    # sample window
    # ------------------------------------------------------------------

    def open_sample_window(self) -> None:
        """Start keeping complete spans (call before the first rep)."""
        self._rec_on[0] = True

    def _record(self, slot: int, t0: int, dt: int, args: tuple) -> None:
        # the session is the connection a span was called on, or the
        # one a timer callback is bound to
        subject = args[0] if args else None
        session = getattr(subject, "connection_name", None)
        if session is None:
            session = getattr(getattr(subject, "__self__", None),
                              "connection_name", None)
        if session is None and self.slot_name[slot] == "execute_shard":
            session = f"shard-{self._shards_seen}"
            self._shards_seen += 1
        if session is not None and session not in self._sample_sessions:
            if len(self._sample_sessions) >= SAMPLE_SESSIONS:
                self._rec_on[0] = False
                return
            self._sample_sessions.append(session)
        self.sample.append((slot, t0, dt, session))
        if self.packets >= SAMPLE_PACKETS:
            self._rec_on[0] = False

    def sampled_spans(self) -> List[Dict[str, Any]]:
        """The sample window as span records with parents resolved.

        One thread ran everything, so a span's parent is the innermost
        span whose interval contains it; a span without a session of
        its own inherits its parent's.
        """
        records = [{"id": 0, "layer": self.slot_layer[slot],
                    "name": self.slot_name[slot], "start_ns": t0,
                    "end_ns": t0 + dt, "parent": None, "session": session}
                   for slot, t0, dt, session in self.sample]
        # outermost first among spans that start on the same tick
        records.sort(key=lambda r: (r["start_ns"], -r["end_ns"]))
        open_spans: List[Dict[str, Any]] = []
        for index, rec in enumerate(records):
            rec["id"] = index
            while open_spans and open_spans[-1]["end_ns"] < rec["end_ns"]:
                open_spans.pop()
            if open_spans:
                rec["parent"] = open_spans[-1]["id"]
                if rec["session"] is None:
                    rec["session"] = open_spans[-1]["session"]
            open_spans.append(rec)
        return records

    def chrome_trace(self) -> Dict[str, Any]:
        """The sample window as Chrome trace-event JSON (Perfetto)."""
        spans = self.sampled_spans()
        origin = min((s["start_ns"] for s in spans), default=0)
        events = [{
            "name": s["name"], "cat": s["layer"], "ph": "X",
            "ts": (s["start_ns"] - origin) / 1000.0,
            "dur": (s["end_ns"] - s["start_ns"]) / 1000.0,
            "pid": 1, "tid": 1,
            "args": {"id": s["id"], "parent": s["parent"],
                     "session": s["session"], "layer": s["layer"]},
        } for s in spans]
        return {"traceEvents": events, "displayTimeUnit": "ns"}

    # ------------------------------------------------------------------
    # install / uninstall
    # ------------------------------------------------------------------

    def _patch(self, holder: Any, attr: str, value: Any) -> None:
        had_own = attr in vars(holder)
        self._patches.append((holder, attr, vars(holder).get(attr), had_own))
        setattr(holder, attr, value)

    def _unresolved(self, name: str, why: str) -> None:
        self.unresolved.append(name)
        self.warnings.append(f"boundary {name} not traced: {why}")

    def _resolve_class(self, module: str, owner: str) -> Optional[type]:
        try:
            cls = getattr(importlib.import_module(module), owner)
        except (ImportError, AttributeError):
            return None
        return cls if inspect.isclass(cls) else None

    def _patch_everywhere(self, fn: Callable, attr: str,
                          wrapped: Callable) -> None:
        """Replace a module-level function wherever it was imported to."""
        for name, module in list(sys.modules.items()):
            if module is not None and name.split(".")[0] in ("repro", "bench") \
                    and vars(module).get(attr) is fn:
                self._patch(module, attr, wrapped)

    def _wrap_method(self, cls: type, boundary: Boundary,
                     before=None, after=None) -> bool:
        fn = vars(cls).get(boundary.attr)
        if not inspect.isfunction(fn):
            return False
        name = f"{cls.__name__}.{boundary.attr}"
        slot = self._slot(boundary.layer, name)
        if name == SCHEDULE_BOUNDARY:
            sample_heap = hasattr(cls(), "_heap")
            if sample_heap:
                self.heap_peak = self.heap_peak or 0
            else:
                self._unresolved("EventLoop heap length",
                                 "no _heap attribute")
            wrapped = self._scheduling(fn, slot, sample_heap)
        else:
            wrapped = self._span(fn, slot, boundary.sample, before, after)
        self._patch(cls, boundary.attr, wrapped)
        return True

    def _install_spans(self) -> None:
        hooks = self._span_hooks()
        for boundary in BOUNDARIES:
            before, after = hooks.get(boundary.name, (None, None))
            if boundary.owner is None:
                self._install_function_span(boundary, before, after)
                continue
            cls = self._resolve_class(boundary.module, boundary.owner)
            if cls is None:
                self._unresolved(boundary.name, "class not found")
                continue
            targets = [cls]
            if boundary.subclasses:
                pending = list(cls.__subclasses__())
                while pending:
                    sub = pending.pop()
                    targets.append(sub)
                    pending.extend(sub.__subclasses__())
            wrapped = [self._wrap_method(target, boundary, before, after)
                       for target in targets]
            if not wrapped[0]:
                self._unresolved(boundary.name, "not a plain method")

    def _install_function_span(self, boundary: Boundary,
                               before=None, after=None) -> None:
        try:
            fn = getattr(importlib.import_module(boundary.module),
                         boundary.attr)
        except (ImportError, AttributeError) as exc:
            self._unresolved(boundary.name, str(exc))
            return
        if not inspect.isfunction(fn):
            self._unresolved(boundary.name, "not a plain function")
            return
        wrapped = self._span(fn, self._slot(boundary.layer, boundary.name),
                             boundary.sample, before, after)
        self._patch_everywhere(fn, boundary.attr, wrapped)

    def _span_hooks(self) -> Dict[str, Tuple[Optional[Callable],
                                             Optional[Callable]]]:
        """Probe hooks that ride on a span: name -> (before, after)."""
        tracer = self

        def mark_setup(args):
            tracer._setup_mark = perf_counter_ns()

        def close_setup(args):
            if tracer._setup_mark:
                tracer.setup_ns += perf_counter_ns() - tracer._setup_mark
                tracer._setup_mark = 0

        def count_blocked(args, result):
            if result is None:
                tracer.select_none += 1

        def queue_depth(args, result):
            depth = getattr(args[0], "queue_depth_packets", 0)
            if depth > tracer.queue_peak:
                tracer.queue_peak = depth

        def count_frames(args, result):
            tracer.frames_decoded += len(result)

        hooks = {
            # set-up of a session: task in hand -> its loop entered
            "execute_session_task": (mark_setup, None),
            "run_contention": (mark_setup, None),
            "EventLoop.run": (close_setup, None),
            "ConstantRateLink.send": (None, queue_depth),
            "TraceDrivenLink.send": (None, queue_depth),
            "decode_frames": (None, count_frames),
        }
        for boundary in BOUNDARIES:
            if boundary.attr == "select_path":
                hooks[boundary.name] = (None, count_blocked)
        return hooks

    def _install_callback_attrs(self) -> None:
        module, owner, attrs = CALLBACK_ATTRS
        cls = self._resolve_class(module, owner)
        for attr in attrs:
            name = f"{owner}.{attr}"
            if cls is None or attr in vars(cls) \
                    or hasattr(cls, "__slots__"):
                self._unresolved(name, "not a plain instance attribute")
                continue
            self._patch(cls, attr, _CallbackAttr(attr, self._callback))

    def _install_probes(self) -> None:
        tracer = self

        def collect(module: str, owner: str, into: List[Any],
                    pick: Callable[[Any], Any]) -> None:
            cls = self._resolve_class(module, owner)
            init = vars(cls).get("__init__") if cls is not None else None
            if not inspect.isfunction(init):
                self._unresolved(f"{owner}()", "no plain __init__")
                return

            @functools.wraps(init)
            def collecting_init(obj, *args, **kwargs):
                init(obj, *args, **kwargs)
                into.append(pick(obj))

            self._patch(cls, "__init__", collecting_init)

        collect("repro.quic.connection", "Connection", self.conn_stats,
                lambda conn: conn.stats)
        collect("repro.netem.link", "ConstantRateLink", self.link_stats,
                lambda link: link.stats)
        collect("repro.netem.link", "TraceDrivenLink", self.link_stats,
                lambda link: link.stats)
        collect("repro.netem.pipes", "LossBox", self.loss_boxes,
                lambda box: box)

        cls = self._resolve_class("repro.quic.crypto", "PacketProtection")
        seal = vars(cls).get("seal") if cls is not None else None
        if inspect.isfunction(seal):
            def counted_seal(protection, plaintext, *args, **kwargs):
                tracer.packets += 1
                tracer.sealed_bytes += len(plaintext)
                return seal(protection, plaintext, *args, **kwargs)

            functools.update_wrapper(counted_seal, seal)
            self._patch(cls, "seal", counted_seal)
        else:
            self._unresolved(PACKET_BOUNDARY + " count", "no seal method")

        try:
            parallel = importlib.import_module("repro.experiments.parallel")
            execute_shard = parallel.execute_shard
        except (ImportError, AttributeError) as exc:
            self._unresolved("execute_shard result size", str(exc))
            return

        def sized_execute_shard(*args, **kwargs):
            result = execute_shard(*args, **kwargs)
            if tracer.pickle_bytes is None:
                tracer.pickle_bytes = len(pickle.dumps(result))
            return result

        functools.update_wrapper(sized_execute_shard, execute_shard)
        self._patch_everywhere(execute_shard, "execute_shard",
                               sized_execute_shard)

    def install(self) -> "Tracer":
        """Wrap every resolvable boundary.

        May be called again after :meth:`uninstall`: slots are keyed by
        name, so totals keep adding up across installations.
        """
        global _ACTIVE, _FORK_HOOK_SET
        if self._installed:
            return self
        if _ACTIVE is not None:
            raise RuntimeError("another tracer is installed")
        del self.warnings[:], self.unresolved[:]
        if self.spans:
            self._install_spans()
            self._install_callback_attrs()
        # probes go on last, outside the spans, so the little they cost
        # is charged to the caller rather than to the layer probed
        self._install_probes()
        self._installed = True
        _ACTIVE = self
        if not _FORK_HOOK_SET:
            os.register_at_fork(after_in_child=_drop_in_child)
            _FORK_HOOK_SET = True
        return self

    def uninstall(self) -> None:
        """Put every original back (reverse order of installation)."""
        global _ACTIVE
        while self._patches:
            holder, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(holder, attr, original)
            else:
                delattr(holder, attr)
        self._installed = False
        if _ACTIVE is self:
            _ACTIVE = None

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def slots(self) -> List[Dict[str, Any]]:
        """Every slot's totals, with duration percentiles if sampled."""
        out = []
        for slot, name in enumerate(self.slot_name):
            row = {"layer": self.slot_layer[slot], "name": name,
                   "calls": self.calls[slot], "self_ns": self.self_ns[slot]}
            durations = self.durations.get(slot)
            if durations:
                ordered = sorted(durations)
                row["p50_ns"] = _percentile(ordered, 50)
                row["p90_ns"] = _percentile(ordered, 90)
            out.append(row)
        return out

    @property
    def attributed_ns(self) -> int:
        """Time spent under outermost spans since installation."""
        return self.under[0]


#: marks a callable that already is a span in ``Tracer._callback_fire``
_ALREADY_SPAN = object()


class _CallbackAttr:
    """Data descriptor: wraps whatever callable is stored in the attribute.

    Stands in for a plain instance attribute such as
    ``Connection.on_stream_data``; the wrapped callable lives in the
    instance ``__dict__`` under a private key.
    """

    def __init__(self, attr: str, wrap: Callable[[Callable], Callable]):
        self.key = "_bench_" + attr
        self.wrap = wrap

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        return obj.__dict__.get(self.key)

    def __set__(self, obj, value) -> None:
        obj.__dict__[self.key] = None if value is None else self.wrap(value)
