"""Double-threshold sweep driver: Fig. 10 and Table 2.

The paper sweeps threshold pairs expressed as percentiles of the
measured play-time-left distribution: (95,80), (90,80), (90,60),
(60,50), (60,1) and (1,1), plus re-injection off.  Recall the
convention (Sec. 7.1): th(X) is the value such that X% of play-time
samples are *above* it, so th(95) is a small number of seconds and
th(1) is large -- (1,1) effectively means "QoE control off".

The driver first measures the play-time-left distribution with the
control off, converts the percentile pairs into seconds, then runs the
population once per setting (each an A/B day reduced to its
:class:`~repro.metrics.sink.SchemeSink`), reporting:

- buffer-level improvement over SP at p90/p95/p99 (improvement in the
  *low tail*: we compare the (100-p)-th percentile of buffer levels,
  so "p99" reflects the worst 1% of samples -- the tail the paper's
  buffer improvements describe);
- redundant-traffic cost (% of useful bytes);
- the percentage reduction of buffer-level samples below 50 ms
  (Table 2's rebuffer-danger metric).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

from repro.core import ThresholdConfig
from repro.experiments.abtest import ABTestConfig, run_ab_day
from repro.experiments.harness import SCHEMES, SchemeConfig
from repro.metrics.sink import SchemeSink
from repro.metrics.sketch import DistSketch

#: The paper's threshold settings, as (X, Y) percentile pairs.
PAPER_THRESHOLD_SETTINGS = ((95, 80), (90, 80), (90, 60), (60, 50),
                            (60, 1), (1, 1))

#: Table 2's rebuffer-danger level: 50 ms of play-time left.
DANGER_LEVEL_S = 0.050


def _population(cfg: ABTestConfig, day: int,
                scheme: SchemeConfig) -> SchemeSink:
    """One scheme's population for ``day``; its ``buffer_level`` sketch
    is the play-time-left distribution, ``traffic_overhead_percent``
    the cost."""
    sink = run_ab_day(cfg, day, [scheme]).schemes[scheme.name]
    if sink.buffer_level.count == 0:
        raise RuntimeError("no buffer samples collected")
    return sink


def percentile_pair_to_seconds(samples: DistSketch,
                               x: int, y: int) -> ThresholdConfig:
    """Convert (X, Y) percentile thresholds into seconds.

    th(X) is the value with X% of samples above it, i.e. the
    (100-X)-th percentile of the distribution (exact up to the
    sketch's exact limit, within its alpha relative error above it).
    """
    t1 = samples.percentile(100 - x)
    t2 = samples.percentile(100 - y)
    if t1 > t2:  # degenerate distributions: keep the config valid
        t1 = t2
    return ThresholdConfig(t_th1=t1, t_th2=t2)


@dataclass
class ThresholdResult:
    """One Fig. 10 bar group + its Table 2 entry."""

    label: str
    thresholds: Optional[ThresholdConfig]
    buffer_improvement_p90: float
    buffer_improvement_p95: float
    buffer_improvement_p99: float
    cost_percent: float
    danger_reduction_percent: float


def run_threshold_sweep(cfg: ABTestConfig) -> List[ThresholdResult]:
    """Fig. 10 / Table 2: re-injection off, then each of
    ``PAPER_THRESHOLD_SETTINGS``, over one population.

    Play-time-left is measured on day 1 with re-injection control off
    (vanilla-MP); SP and every setting then play day 2.  Each
    population's sessions fan out over every core; results are
    bit-identical to the serial run.
    """
    distribution = _population(cfg, 1, SCHEMES["vanilla_mp"]).buffer_level
    sp_levels = _population(cfg, 2, SCHEMES["sp"]).buffer_level

    def run_with(label: str, thresholds: Optional[ThresholdConfig]
                 ) -> ThresholdResult:
        if thresholds is None:
            scheme = SCHEMES["vanilla_mp"]  # re-injection off entirely
        else:
            scheme = replace(SCHEMES["xlink"], name=f"_sweep_{label}",
                             thresholds=thresholds)
        population = _population(cfg, 2, scheme)
        levels = population.buffer_level

        def improvement(pct: float) -> float:
            # the (100-pct)-th percentile: the 'worst pct%' buffer level
            sp_val = sp_levels.percentile(100 - pct)
            val = levels.percentile(100 - pct)
            if sp_val <= 0:
                return 0.0 if val <= 0 else 100.0
            return (val - sp_val) / sp_val * 100.0

        sp_danger = sp_levels.fraction_below(DANGER_LEVEL_S)
        danger = levels.fraction_below(DANGER_LEVEL_S)
        danger_reduction = (0.0 if sp_danger == 0 else
                            (sp_danger - danger) / sp_danger * 100.0)
        return ThresholdResult(
            label=label, thresholds=thresholds,
            buffer_improvement_p90=improvement(90),
            buffer_improvement_p95=improvement(95),
            buffer_improvement_p99=improvement(99),
            cost_percent=population.traffic_overhead_percent,
            danger_reduction_percent=danger_reduction)

    results = [run_with("re-inj. off", None)]
    for x, y in PAPER_THRESHOLD_SETTINGS:
        thresholds = percentile_pair_to_seconds(distribution, x, y)
        results.append(run_with(f"{x}-{y}", thresholds))
    return results
