"""Statistics and QoE metrics used across the evaluation.

Two tiers: the exact reference (``percentile`` over a raw sample
list, used by the per-session drivers and as the reference the
sketches are tested against) and the
streaming tier every population driver reduces into (``DistSketch`` /
``MetricSink``): exact up to 512 samples per sketch, then ``alpha``
relative percentile error for O(buckets) memory, with an
order-independent merge so populations reduce across process shards.
"""

from repro.metrics.stats import percentile
from repro.metrics.qoe import (SessionMetrics, aggregate_rebuffer_rate,
                               improvement_percent)
from repro.metrics.sketch import DistSketch, permutation_mean_test
from repro.metrics.sink import MetricSink, SchemeSink

__all__ = [
    "percentile",
    "SessionMetrics",
    "aggregate_rebuffer_rate",
    "improvement_percent",
    "DistSketch",
    "permutation_mean_test",
    "MetricSink",
    "SchemeSink",
]
