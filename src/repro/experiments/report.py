"""One-shot evaluation report: regenerate every figure/table to a file.

``python -m repro report --out report.md`` runs scaled-down versions
of every claim in :data:`repro.experiments.claims.CLAIMS` that has a
report scale and writes a self-contained markdown report with the
regenerated rows/series -- the quickest way to eyeball the whole
reproduction without reading bench output.  Scale knobs trade fidelity
for runtime ("quick" finishes in a couple of minutes).  This module
also renders the population tables: a sink's QoE, a day-over-day A/B
series and a campaign ledger.
"""

from __future__ import annotations

import io
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.claims import CLAIMS, ReportSection, markdown_table
from repro.metrics import (MetricSink, improvement_percent,
                           permutation_mean_test)

#: scale name -> (ab users, ab days, mobility traces)
SCALES = {
    "quick": (6, 2, 2),
    "standard": (12, 4, 4),
    "full": (20, 7, 10),
}


def _fmt(value, spec: str = "{:.3f}") -> str:
    """Render a metric cell; ``None`` (empty sketch) becomes a dash."""
    return "—" if value is None else spec.format(value)


#: the control arm of every day-over-day series
BASELINE = "sp"


def day_series(days: Sequence[Dict[str, Dict]]
               ) -> Tuple[List[str], List[List]]:
    """Header and rows of a day-over-day A/B series (Fig. 1c / Fig. 11
    with Tables 1 / 3 folded in): per day SP's RCT p50/p95/p99, then
    each treatment's, its rebuffer-rate improvement and its cost.

    ``days`` holds one :meth:`MetricSink.as_dict` summary per day,
    day 1 first -- what :func:`run_ab_test`'s sinks give and what a
    campaign ledger stores, so a checkpoint renders without re-running.
    """
    treatments = sorted({name for day in days for name in day
                         if name != BASELINE})
    header = ["day", f"{BASELINE} RCT p50/p95/p99 (s)"]
    for name in treatments:
        header += [f"{name} RCT p50/p95/p99 (s)", f"{name} rebuffer Δ",
                   f"{name} cost"]

    def rct(summary: Dict) -> str:
        return "/".join(_fmt(summary.get(f"rct_p{p}")) for p in (50, 95, 99))

    rows = []
    for number, day in enumerate(days, 1):
        base = day.get(BASELINE, {})
        row = [number, rct(base)]
        for name in treatments:
            treat = day.get(name, {})
            base_rb, treat_rb = base.get("rebuffer_rate"), \
                treat.get("rebuffer_rate")
            row += [rct(treat),
                    _fmt(None if base_rb is None or treat_rb is None
                         else improvement_percent(base_rb, treat_rb),
                         "{:+.1f}%"),
                    _fmt(treat.get("traffic_overhead_percent"), "{:.1f}%")]
        rows.append(row)
    return header, rows


#: CDF grid rendered in the fleet section's percentile tables.
FLEET_CDF_PCTS = (10, 25, 50, 75, 90, 95, 99)


def fleet_sections(sink: MetricSink, baseline: str = BASELINE,
                   seed: int = 0, rounds: int = 200
                   ) -> List[ReportSection]:
    """Render a population sink: per-scheme QoE, RCT CDFs, and the
    baseline-vs-treatment deltas with their significance.

    The one sink renderer: the report's fleet section embeds these
    sections and ``python -m repro ab`` / ``fleet`` print them, whatever
    the population size.  Schemes with zero completed sessions get dash
    cells instead of a crash -- the sink's empty state is well-defined
    (``None`` percentiles), unlike the exact ``percentile()`` reference
    which keeps raising on empty input.
    """
    sections: List[ReportSection] = []
    names = sink.scheme_names()

    rows = []
    for name in names:
        s = sink.scheme(name)
        startup_p50 = s.startup.percentile(50)
        rows.append([
            name, s.sessions, s.completed, s.failed,
            _fmt(s.rebuffer_rate * 100 if s.play_q else None, "{:.2f}%"),
            _fmt(None if startup_p50 is None else startup_p50 * 1000,
                 "{:.0f} ms"),
            _fmt(s.reinjection_overhead_percent, "{:.1f}%"),
        ])
    sections.append(ReportSection(
        "Population — per-scheme QoE (Tables 1/3 shape)",
        markdown_table(["scheme", "sessions", "completed", "failed",
                        "rebuffer rate", "startup p50", "reinjection cost"],
                       rows)))

    rows = []
    for name in names:
        sketch = sink.scheme(name).rct
        rows.append([name] + [_fmt(sketch.percentile(p), "{:.3f}")
                              for p in FLEET_CDF_PCTS])
    sections.append(ReportSection(
        "Population — request completion time CDF (s)",
        markdown_table(["scheme"] + [f"p{p}" for p in FLEET_CDF_PCTS],
                       rows)))

    treatments = [n for n in names if n != baseline]
    if baseline in names and treatments:
        base = sink.scheme(baseline)
        rows = []
        for name in treatments:
            treat = sink.scheme(name)
            delta = (improvement_percent(base.rebuffer_rate,
                                         treat.rebuffer_rate)
                     if base.play_q and treat.play_q else None)
            p99_b, p99_t = base.rct.percentile(99), treat.rct.percentile(99)
            rct_delta = (improvement_percent(p99_b, p99_t)
                         if p99_b is not None and p99_t is not None
                         else None)
            p_rebuffer = permutation_mean_test(base.session_rebuffer_rate,
                                               treat.session_rebuffer_rate,
                                               rounds=rounds, seed=seed)
            p_rct = permutation_mean_test(base.rct, treat.rct,
                                          rounds=rounds, seed=seed)
            rows.append([
                f"{baseline} → {name}",
                _fmt(delta, "{:+.1f}%"),
                _fmt(rct_delta, "{:+.1f}%"),
                _fmt(p_rebuffer),
                _fmt(p_rct),
            ])
        sections.append(ReportSection(
            "Population — treatment deltas vs baseline",
            markdown_table(["contrast", "rebuffer improvement",
                            "RCT p99 improvement", "p (rebuffer)",
                            "p (RCT)"], rows)
            + f"\n\np-values: seeded permutation test over the merged "
              f"sketches ({rounds} rounds, seed {seed})."))
    return sections


def campaign_day_section(result) -> ReportSection:
    """Day-over-day series from a campaign ledger.

    Pure rendering over a :class:`~repro.experiments.campaign.
    CampaignResult`: each :class:`DayRecord` carries that day's
    per-scheme summary, so the daily SP-vs-treatment trend can be
    tabulated without re-running anything -- including from a
    checkpoint of a still-running multi-day campaign.
    """
    header, rows = day_series([rec.schemes for rec in result.days])
    for row, rec in zip(rows, result.days):
        row += [rec.sessions,
                rec.failed + rec.retries + rec.abandoned_shards or "—"]
    state = "interrupted" if result.interrupted else (
        "complete" if result.completed else "partial")
    footer = (f"\n\nCampaign {state}: {len(result.days)}/"
              f"{result.days_planned} days, {result.tasks} sessions, "
              f"{result.retries} shard retries, "
              f"{result.abandoned_shards} abandoned shards. "
              f"Merged digest `{result.digest[:16]}`.")
    return ReportSection(
        "Checkpointed campaign — day-over-day series",
        markdown_table(header + ["sessions", "faults"], rows) + footer)


#: report section name -> its builder, given the scale's users per day,
#: days and mobility traces; the CLI's ``--sections`` choices
SECTIONS: Dict[str, Callable[[int, int, int], List[ReportSection]]] = {
    claim.name: claim.section for claim in CLAIMS if claim.scale is not None}


def generate_report(scale: str = "quick",
                    sections: Optional[Sequence[str]] = None) -> str:
    """Build the markdown report; ``sections`` filters by fig name.

    Every name is checked before any section runs, so a typo costs
    nothing.
    """
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; pick from {list(SCALES)}")
    chosen = list(sections or SECTIONS)
    unknown = [key for key in chosen if key not in SECTIONS]
    if unknown:
        raise ValueError(f"unknown section(s) {unknown}; pick from "
                         f"{list(SECTIONS)}")
    users, days, traces = SCALES[scale]
    out = io.StringIO()
    out.write("# XLINK reproduction — regenerated evaluation\n\n")
    out.write(f"Scale: `{scale}` ({users} users/day, {days} days, "
              f"{traces} mobility traces). Shapes, not absolute\n"
              f"numbers, are the comparison target; see EXPERIMENTS.md.\n")
    for key in chosen:
        for section in SECTIONS[key](users, days, traces):
            out.write(f"\n## {section.title}\n\n{section.body}\n")
    return out.getvalue()
