"""DistSketch / MetricSink contracts the fleet layer leans on.

Three properties carry the fleet tier: exact small-N mode is
bit-identical to the reference ``stats.percentile``; bucketed
percentiles stay within the alpha relative-error bound on realistic
(lognormal, heavy-tail) populations; and merge is associative,
commutative and *exactly* order-independent, so any shuffling of
shard merges digests identically to the serial fold.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.parallel import SessionOutcome
from repro.metrics.qoe import SessionMetrics, aggregate_rebuffer_rate
from repro.metrics.sink import MetricSink, SchemeSink
from repro.metrics.sketch import (DEFAULT_ALPHA, DEFAULT_EXACT_LIMIT, TINY,
                                  DistSketch, permutation_mean_test)
from repro.metrics.stats import percentile


def _lognormal_samples(n: int, seed: int = 1) -> list:
    rng = random.Random(seed)
    return [rng.lognormvariate(0.0, 1.0) for _ in range(n)]


def _pareto_samples(n: int, seed: int = 2) -> list:
    rng = random.Random(seed)
    return [rng.paretovariate(1.5) for _ in range(n)]


class TestExactMode:
    def test_matches_reference_percentile_bitwise(self):
        samples = _lognormal_samples(200)
        sketch = DistSketch()
        sketch.extend(samples)
        assert sketch._exact is not None
        for pct in (0, 10, 50, 90, 95, 99, 100):
            assert sketch.percentile(pct) == percentile(samples, pct)

    def test_spill_timing_does_not_change_state(self):
        # Converting exact->buckets is a pure per-value mapping, so a
        # sketch that spilled early (tiny exact_limit) must digest
        # identically to one that spilled on overflow.
        samples = _lognormal_samples(400, seed=3)
        early = DistSketch(exact_limit=10)
        late = DistSketch(exact_limit=10)
        for v in samples[:200]:
            early.add(v)
        shard = DistSketch(exact_limit=10)
        for v in samples[200:]:
            shard.add(v)
        early.merge(shard)
        for v in samples:
            late.add(v)
        assert early.digest() == late.digest()


class TestEmptyState:
    def test_empty_sketch_is_well_defined(self):
        sketch = DistSketch()
        assert sketch.count == 0
        assert sketch.percentile(50) is None
        assert sketch.mean is None
        assert sketch.fraction_below(1.0) == 0.0
        assert sketch.n_buckets == 0

    def test_exact_reference_keeps_raising(self):
        # The fleet sink tolerates empty populations; the pinned exact
        # reference does not -- that contract must not drift.
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_empty_scheme_sink_reads(self):
        sink = SchemeSink("sp")
        assert sink.rebuffer_rate == 0.0
        assert sink.traffic_overhead_percent == 0.0
        d = sink.as_dict()
        assert d["rct_p50"] is None and d["sessions"] == 0


class TestMergeOrderIndependence:
    def _sharded_digest(self, samples, n_shards, order_seed):
        shards = [DistSketch() for _ in range(n_shards)]
        for i, v in enumerate(samples):
            shards[i % n_shards].add(v)
        order = list(range(n_shards))
        random.Random(order_seed).shuffle(order)
        merged = DistSketch()
        for j in order:
            merged.merge(shards[j])
        return merged.digest()

    def test_shuffled_shard_merges_digest_identically(self):
        samples = _lognormal_samples(3000, seed=4)
        serial = DistSketch()
        serial.extend(samples)
        expected = serial.digest()
        for order_seed in range(5):
            assert self._sharded_digest(samples, 7, order_seed) == expected

    def test_associativity_of_pairwise_merges(self):
        samples = _pareto_samples(1500, seed=5)
        a, b, c = DistSketch(), DistSketch(), DistSketch()
        for i, v in enumerate(samples):
            (a, b, c)[i % 3].add(v)
        left = DistSketch().merge(a).merge(b).merge(c)
        bc = DistSketch().merge(b).merge(c)
        right = DistSketch().merge(a).merge(bc)
        assert left.digest() == right.digest()

    def test_fixed_point_sum_is_exactly_order_independent(self):
        samples = _lognormal_samples(2000, seed=6)
        fwd, rev = DistSketch(), DistSketch()
        fwd.extend(samples)
        rev.extend(reversed(samples))
        assert fwd.sum == rev.sum  # exact equality, not approx

    def test_grid_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DistSketch(alpha=0.01).merge(DistSketch(alpha=0.02))


class TestErrorBounds:
    @pytest.mark.parametrize("samples", [
        _lognormal_samples(20_000, seed=7),
        _pareto_samples(20_000, seed=8),
    ], ids=["lognormal", "pareto-heavy-tail"])
    def test_bucketed_percentiles_within_alpha(self, samples):
        sketch = DistSketch()
        sketch.extend(samples)
        assert sketch._exact is None
        for pct in (10, 25, 50, 75, 90, 95, 99):
            exact = percentile(samples, pct)
            got = sketch.percentile(pct)
            # midpoint representatives bound the value error at alpha;
            # allow 2*alpha for rank-interpolation differences
            assert abs(got - exact) / exact <= 2 * DEFAULT_ALPHA

    def test_fraction_below_tracks_exact(self):
        samples = _lognormal_samples(20_000, seed=9)
        sketch = DistSketch()
        sketch.extend(samples)
        threshold = 1.0
        exact = sum(1 for v in samples if v < threshold) / len(samples)
        assert abs(sketch.fraction_below(threshold) - exact) < 0.01


class TestPermutationTest:
    def test_same_distribution_not_significant(self):
        a, b = DistSketch(), DistSketch()
        a.extend(_lognormal_samples(400, seed=10))
        b.extend(_lognormal_samples(400, seed=11))
        p_value = permutation_mean_test(a, b, rounds=100, seed=0)
        assert p_value is not None and p_value > 0.05

    def test_shifted_distribution_significant(self):
        a, b = DistSketch(), DistSketch()
        a.extend(_lognormal_samples(400, seed=12))
        b.extend(v * 1.8 for v in _lognormal_samples(400, seed=13))
        p_value = permutation_mean_test(a, b, rounds=100, seed=0)
        assert p_value is not None and p_value < 0.05

    def test_empty_group_returns_none(self):
        a = DistSketch()
        b = DistSketch()
        b.add(1.0)
        assert permutation_mean_test(a, b) is None

    def test_seeded_and_reproducible(self):
        a, b = DistSketch(), DistSketch()
        a.extend(_lognormal_samples(200, seed=14))
        b.extend(_lognormal_samples(200, seed=15))
        r1 = permutation_mean_test(a, b, rounds=50, seed=3)
        r2 = permutation_mean_test(a, b, rounds=50, seed=3)
        assert r1 == r2


_seconds = st.floats(min_value=0.0, max_value=120.0, allow_nan=False)
_session_metrics = st.builds(
    SessionMetrics,
    request_completion_times=st.lists(_seconds, max_size=12),
    first_frame_latency=st.none() | _seconds,
    rebuffer_time=_seconds,
    play_time=st.floats(min_value=1.0, max_value=120.0),
    redundant_bytes=st.integers(0, 10 ** 7),
    useful_bytes=st.integers(1, 10 ** 9),
    buffer_level_samples=st.lists(_seconds, max_size=12))

#: a bucket's geometric midpoint is this far, relatively, from any value
#: the bucket holds: alpha to first order
_BUCKET_ERROR = math.sqrt((1 + DEFAULT_ALPHA) / (1 - DEFAULT_ALPHA)) - 1


def _assert_matches_list(sketch: DistSketch, samples: list) -> None:
    """Exact (bit for bit) up to the exact limit; above it, within the
    bucket error of the two order statistics the reference interpolates
    between."""
    assert sketch.count == len(samples)
    if not samples:
        assert sketch.percentile(50) is None
        return
    ordered = sorted(samples)
    for pct in (0, 5, 50, 90, 99, 100):
        got = sketch.percentile(pct)
        if len(samples) <= DEFAULT_EXACT_LIMIT:
            assert got == percentile(samples, pct)
            continue
        rank = pct / 100.0 * (len(ordered) - 1)
        lo, hi = ordered[math.floor(rank)], ordered[math.ceil(rank)]
        assert lo * (1 - _BUCKET_ERROR) - TINY <= got \
            <= hi * (1 + _BUCKET_ERROR) + TINY, (pct, lo, got, hi)


class TestSchemeSinkAgainstLists:
    """The population aggregate against the list reference it replaced
    (per-session metrics, ``stats.percentile``,
    ``aggregate_rebuffer_rate``)."""

    @settings(max_examples=60, deadline=None)
    @given(sessions=st.lists(_session_metrics, min_size=1, max_size=40),
           repeat=st.integers(1, 16), completed=st.booleans())
    def test_sink_equals_list_reference(self, sessions, repeat, completed):
        # ``repeat`` tiles the drawn population so that examples land on
        # both sides of the exact limit
        sessions = sessions * repeat
        sink = SchemeSink("xlink")
        for i, metrics in enumerate(sessions):
            sink.observe(SessionOutcome(
                key=i, scheme="xlink", completed=completed,
                duration_s=metrics.play_time, metrics=metrics))
        assert sink.sessions == len(sessions)
        assert sink.completed == (len(sessions) if completed else 0)
        _assert_matches_list(sink.rct, [
            t for m in sessions for t in m.request_completion_times])
        _assert_matches_list(sink.startup, [
            m.first_frame_latency for m in sessions
            if m.first_frame_latency is not None])
        _assert_matches_list(sink.buffer_level, [
            level for m in sessions for level in m.buffer_level_samples])
        # totals are fixed-point nanoseconds, each off by up to half a
        # quantum per session, so their ratio moves by at most
        # n * 0.5 ns * (1 + rate) / play: a large rate over a short play
        # time moves it more than n ns
        rate = aggregate_rebuffer_rate(sessions)
        play = sum(m.play_time for m in sessions)
        assert sink.rebuffer_rate == pytest.approx(
            rate, abs=1e-9 * len(sessions) * (1 + rate) / play)
        assert sink.traffic_overhead_percent == (
            sum(m.redundant_bytes for m in sessions)
            / sum(m.useful_bytes for m in sessions) * 100.0)


class TestMetricSinkMerge:
    def test_sink_merge_grid_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MetricSink(alpha=0.01).merge(MetricSink(alpha=0.05))

    def test_scheme_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SchemeSink("sp").merge(SchemeSink("xlink"))

    def test_empty_sink_digest_is_stable(self):
        assert MetricSink().digest() == MetricSink().digest()
