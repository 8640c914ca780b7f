"""Mergeable streaming distribution sketch.

The fleet layer runs tens of thousands of sessions per invocation;
keeping every request-completion time in a list (the small-N drivers'
approach) would make memory grow with the population.  ``DistSketch``
is a fixed-grid log-bucket histogram in the DDSketch family: a value
``v`` lands in bucket ``ceil(log_gamma(v))`` where
``gamma = (1 + alpha) / (1 - alpha)``, so any quantile read back from
bucket midpoints carries at most ``alpha`` relative error.  Buckets
are a sparse dict, so memory is O(occupied buckets) -- a few hundred
entries for values spanning ``1e-6 .. 1e4`` -- independent of sample
count.

Small populations stay *exact*: until ``exact_limit`` samples the
sketch keeps the raw values and answers percentiles through
:func:`repro.metrics.stats.percentile`, bit-identical to the reference
implementation.  Past the limit it converts to buckets; because the
value->bucket mapping is a pure function, the final bucket counts do
not depend on *when* the conversion happened.

Merge contract (the property the sharded fleet runner leans on):
``merge`` is associative and commutative, and every accumulated
scalar is order-independent -- counts and bucket counts are integers,
and sums are kept in fixed-point (integer nanounits) so float
rounding cannot differ between a serial run and any shuffling of
shard merges.  A serial fleet run and a sharded one therefore produce
**identical digests**, not merely close ones.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Dict, Iterable, List, Optional, Tuple

from repro.metrics.stats import percentile
from repro.sim.rng import make_rng

__all__ = [
    "DistSketch",
    "permutation_mean_test",
]

#: Default relative-accuracy target for bucketed percentiles.
DEFAULT_ALPHA = 0.01

#: Default exact-mode capacity (raw samples kept before bucketing).
DEFAULT_EXACT_LIMIT = 512

#: Values below this are counted in the zero bucket (QoE metrics are
#: non-negative; exact zeros are common for e.g. rebuffer time).
TINY = 1e-9

#: Fixed-point quantum for order-independent sums (nanounits).
QUANTUM = 1e-9


def _quantize(value: float) -> int:
    """Map a float to integer nanounits (pure, order-independent)."""
    return int(round(value / QUANTUM))


class DistSketch:
    """Streaming distribution sketch with exact small-N fallback.

    Not thread-safe; one sketch per (shard, metric) is the intended
    usage, reduced with :meth:`merge`.
    """

    __slots__ = ("alpha", "exact_limit", "_gamma_log", "count",
                 "_zero", "_exact", "_buckets", "_sum_q", "_min", "_max")

    def __init__(self, alpha: float = DEFAULT_ALPHA,
                 exact_limit: int = DEFAULT_EXACT_LIMIT) -> None:
        if not 0 < alpha < 1:
            raise ValueError(f"alpha {alpha} out of range (0, 1)")
        self.alpha = alpha
        self.exact_limit = exact_limit
        self._gamma_log = math.log((1 + alpha) / (1 - alpha))
        self.count = 0
        self._zero = 0                      # samples below TINY
        self._exact: Optional[List[float]] = []   # None once bucketed
        self._buckets: Dict[int, int] = {}
        self._sum_q = 0                     # fixed-point sum (nanounits)
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    # -- ingest ---------------------------------------------------------

    def add(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self._sum_q += _quantize(value)
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value
        if self._exact is not None:
            self._exact.append(value)
            if self.count > self.exact_limit:
                self._spill()
        elif value < TINY:
            self._zero += 1
        else:
            index = self._bucket_index(value)
            self._buckets[index] = self._buckets.get(index, 0) + 1

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.add(value)

    def _bucket_index(self, value: float) -> int:
        return int(math.ceil(math.log(value) / self._gamma_log))

    def _representative(self, index: int) -> float:
        """Geometric midpoint of bucket ``(gamma^(i-1), gamma^i]``."""
        return math.exp((index - 0.5) * self._gamma_log)

    def _spill(self) -> None:
        """Convert exact samples to buckets (pure per-value mapping)."""
        assert self._exact is not None
        for value in self._exact:
            if value < TINY:
                self._zero += 1
            else:
                index = self._bucket_index(value)
                self._buckets[index] = self._buckets.get(index, 0) + 1
        self._exact = None

    # -- merge ----------------------------------------------------------

    def merge(self, other: "DistSketch") -> "DistSketch":
        """Fold ``other`` into self (associative, commutative)."""
        if (other.alpha != self.alpha
                or other.exact_limit != self.exact_limit):
            raise ValueError("cannot merge sketches with different grids")
        self.count += other.count
        self._sum_q += other._sum_q
        if other._min is not None and (self._min is None
                                       or other._min < self._min):
            self._min = other._min
        if other._max is not None and (self._max is None
                                       or other._max > self._max):
            self._max = other._max
        if self._exact is not None and other._exact is not None \
                and self.count <= self.exact_limit:
            self._exact.extend(other._exact)
            return self
        if self._exact is not None:
            self._spill()
        self._zero += other._zero
        if other._exact is not None:
            for value in other._exact:
                if value < TINY:
                    self._zero += 1
                else:
                    index = self._bucket_index(value)
                    self._buckets[index] = self._buckets.get(index, 0) + 1
        else:
            for index, n in other._buckets.items():
                self._buckets[index] = self._buckets.get(index, 0) + n
        return self

    # -- reads ----------------------------------------------------------

    @property
    def sum(self) -> float:
        return self._sum_q * QUANTUM

    @property
    def mean(self) -> Optional[float]:
        if self.count == 0:
            return None
        return self.sum / self.count

    def percentile(self, pct: float) -> Optional[float]:
        """Percentile in [0, 100]; ``None`` on an empty sketch.

        Exact mode matches :func:`repro.metrics.stats.percentile`
        bit-for-bit; bucket mode returns the midpoint of the bucket
        holding the target rank (<= ``alpha`` relative error for
        values above ``TINY``).
        """
        if self.count == 0:
            return None
        if not 0 <= pct <= 100:
            raise ValueError(f"percentile {pct} out of range")
        if self._exact is not None:
            return percentile(self._exact, pct)
        rank = pct / 100.0 * (self.count - 1)
        seen = self._zero
        if rank < seen:
            return 0.0
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if rank < seen:
                return self._representative(index)
        return self._max if self._max is not None else 0.0

    def fraction_below(self, threshold: float) -> float:
        """Fraction of samples strictly below ``threshold``.

        Exact in exact mode; in bucket mode a bucket straddling the
        threshold counts by its midpoint (error bounded by the mass of
        that single bucket).
        """
        if self.count == 0:
            return 0.0
        if self._exact is not None:
            return sum(1 for v in self._exact if v < threshold) / self.count
        below = self._zero if threshold > 0.0 else 0
        for index, n in self._buckets.items():
            if self._representative(index) < threshold:
                below += n
        return below / self.count

    @property
    def n_buckets(self) -> int:
        """Occupied storage slots (the fleet's memory-footprint proxy)."""
        if self._exact is not None:
            return len(self._exact)
        return len(self._buckets) + (1 if self._zero else 0)

    # -- canonical form / digest ----------------------------------------

    def canonical(self) -> Tuple:
        """Order-independent canonical state (digest/equality input)."""
        if self._exact is not None:
            body: Tuple = ("exact", tuple(sorted(repr(v)
                                                 for v in self._exact)))
        else:
            body = ("buckets", self._zero,
                    tuple(sorted(self._buckets.items())))
        return (repr(self.alpha), self.exact_limit, self.count,
                self._sum_q, repr(self._min), repr(self._max), body)

    def digest(self) -> str:
        return hashlib.sha256(repr(self.canonical()).encode()).hexdigest()

    # -- checkpoint serialization ---------------------------------------

    def to_dict(self) -> Dict:
        """Full-state JSON-safe form (the campaign checkpoint format).

        Everything is either an int or a float: Python's ``json``
        round-trips both exactly (floats serialize via their shortest
        ``repr``), so ``from_dict(to_dict(s))`` reproduces the
        *identical* canonical state and digest -- the property the
        checkpointed multi-day campaigns lean on.  Bucket indices are
        emitted as sorted ``[index, count]`` pairs because JSON object
        keys must be strings.
        """
        return {
            "alpha": self.alpha,
            "exact_limit": self.exact_limit,
            "count": self.count,
            "sum_q": self._sum_q,
            "min": self._min,
            "max": self._max,
            "zero": self._zero,
            "exact": (list(self._exact)
                      if self._exact is not None else None),
            "buckets": sorted(self._buckets.items()),
        }

    @classmethod
    def from_dict(cls, state: Dict) -> "DistSketch":
        """Reconstruct a sketch from :meth:`to_dict` output, exactly."""
        sketch = cls(alpha=state["alpha"],
                     exact_limit=state["exact_limit"])
        sketch.count = state["count"]
        sketch._sum_q = state["sum_q"]
        sketch._min = state["min"]
        sketch._max = state["max"]
        sketch._zero = state["zero"]
        exact = state["exact"]
        sketch._exact = [float(v) for v in exact] \
            if exact is not None else None
        sketch._buckets = {int(index): int(n)
                           for index, n in state["buckets"]}
        return sketch

    def items(self) -> List[Tuple[float, int]]:
        """(value, count) pairs; exact values or bucket midpoints."""
        if self._exact is not None:
            return [(v, 1) for v in self._exact]
        out: List[Tuple[float, int]] = []
        if self._zero:
            out.append((0.0, self._zero))
        for index in sorted(self._buckets):
            out.append((self._representative(index), self._buckets[index]))
        return out


# ---------------------------------------------------------------------------
# permutation significance test over two sketches
# ---------------------------------------------------------------------------


def permutation_mean_test(a: DistSketch, b: DistSketch,
                          rounds: int = 200,
                          seed: int = 0) -> Optional[float]:
    """Seeded two-sided permutation test for ``mean(a) != mean(b)``:
    its p-value, add-one smoothed.

    Works directly on the sketch histograms: each permutation round
    reassigns the pooled samples to group A by sampling without
    replacement (sequential Bernoulli draws with shrinking odds, an
    exact multivariate-hypergeometric split), so the test needs no raw
    per-session lists -- O(total samples) work per round, O(buckets)
    memory.  Returns ``None`` when either group is empty.
    """
    if a.count == 0 or b.count == 0 or rounds <= 0:
        return None
    items = a.items() + b.items()
    n_a, n_b = a.count, b.count
    total = n_a + n_b
    sum_all = sum(v * c for v, c in items)
    sum_a_obs = sum(v * c for v, c in a.items())
    delta_obs = sum_a_obs / n_a - (sum_all - sum_a_obs) / n_b
    rng: random.Random = make_rng(seed, "permutation")
    uniform = rng.random
    hits = 0
    for _ in range(rounds):
        a_left = n_a
        t_left = total
        sum_a = 0.0
        for value, c in items:
            if a_left == 0:
                break
            k = 0
            for _draw in range(c):
                if uniform() * t_left < a_left:
                    a_left -= 1
                    k += 1
                t_left -= 1
            if k:
                sum_a += value * k
        delta = sum_a / n_a - (sum_all - sum_a) / n_b
        if abs(delta) >= abs(delta_obs) - 1e-15:
            hits += 1
    return (hits + 1) / (rounds + 1)
