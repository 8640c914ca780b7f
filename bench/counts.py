"""The counts pass: exact function calls per layer from one profiled rep.

Wall-clock on a shared 2-vCPU box moves by 10% between runs of the
same code; the number of function calls a fixed-seed rep makes does not
move at all, so it can show a 1% change that timing cannot.

Every profiled function is charged to a layer by the file that defines
it.  Calls into code outside the repo -- C functions and the stdlib --
are charged to the layer of the *caller*, so ``hashlib`` lands in
``crypto`` and ``heapq`` in ``sim``.  (A stdlib function calling
another is charged where most of its own callers are.)
"""

from __future__ import annotations

import cProfile
import os
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from bench.layers import OTHER, layer_of_path

#: the profiler running in this process, if any; a forked shard worker
#: switches it off (its numbers could not be collected, only paid for)
_ACTIVE: Optional[cProfile.Profile] = None
_FORK_HOOK_SET = False


def _stop_in_child() -> None:
    if _ACTIVE is not None:
        _ACTIVE.disable()


def profile(rep: Callable[[], Any]) -> Tuple[Any, Dict[str, int]]:
    """Run ``rep`` under cProfile; returns its result and the counts."""
    global _ACTIVE, _FORK_HOOK_SET
    if not _FORK_HOOK_SET:
        os.register_at_fork(after_in_child=_stop_in_child)
        _FORK_HOOK_SET = True
    profiler = cProfile.Profile()
    _ACTIVE = profiler
    profiler.enable()
    try:
        result = rep()
    finally:
        profiler.disable()
        _ACTIVE = None
    return result, layer_calls(profiler.getstats())


def layer_calls(entries: List[Any]) -> Dict[str, int]:
    """``calls.<layer>`` totals (and ``packets``) from ``getstats()``.

    Works on the profiler's own entries, one per code object, rather
    than on ``pstats``: that keys functions by (file, line, name) and
    lets one entry overwrite another, so the many dataclass
    ``__init__``s (all ``<string>:2``) would count as whichever came
    last in address order -- a different one from run to run.
    """
    def key(code: Any) -> Any:
        # C functions come as strings.  Code objects are keyed by
        # identity: they compare by value, and two dataclasses with the
        # same fields have generated methods that compare equal.
        return code if isinstance(code, str) else id(code)

    own: Dict[Any, Optional[str]] = {}
    callers: Dict[Any, Counter] = {}
    for entry in entries:
        code = entry.code
        own[key(code)] = None if isinstance(code, str) \
            else layer_of_path(code.co_filename)
        for sub in entry.calls or ():
            callers.setdefault(key(sub.code), Counter())[key(code)] \
                += sub.callcount
    home: Dict[Any, str] = {}

    def home_of(func: Any, seen: frozenset = frozenset()) -> str:
        """The layer a function's calls count towards."""
        if own.get(func) is not None:
            return own[func]
        if func in home:
            return home[func]
        if func in seen:
            return OTHER
        votes: Counter = Counter()
        for caller, count in callers.get(func, {}).items():
            votes[home_of(caller, seen | {func})] += count
        # ties broken by name so the answer never depends on dict order
        home[func] = min(votes, key=lambda layer: (-votes[layer], layer)) \
            if votes else OTHER
        return home[func]

    totals: Counter = Counter()
    packets = 0
    charged_to_callers = set()
    for entry in entries:
        code = entry.code
        func = key(code)
        if own[func] is not None:
            totals[own[func]] += entry.callcount
            if code.co_name == "seal" \
                    and code.co_filename.endswith("crypto.py"):
                packets += entry.callcount
            continue
        totals[OTHER] += entry.callcount
        if func not in charged_to_callers:     # equal strings: charge once
            charged_to_callers.add(func)
            for caller, count in callers.get(func, {}).items():
                totals[home_of(caller)] += count
                totals[OTHER] -= count         # only roots stay in OTHER
    out = {f"calls.{layer}": count for layer, count in sorted(totals.items())
           if count}
    out["packets"] = packets
    return out
