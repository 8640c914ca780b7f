"""One-shot evaluation report: regenerate every figure/table to a file.

``python -m repro report --out report.md`` runs scaled-down versions
of every experiment and writes a self-contained markdown report with
the regenerated rows/series -- the quickest way to eyeball the whole
reproduction without reading bench output.  Scale knobs trade fidelity
for runtime ("quick" finishes in a couple of minutes).
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.abtest import ABTestConfig, run_ab_day, run_ab_test
from repro.experiments.harness import scheme_with_cc
from repro.experiments.dynamics import FIG6_MODES, run_fig6_dynamics
from repro.experiments.energyexp import normalize, run_fig14
from repro.experiments.firstframe import FIG12_PERCENTILES, run_fig12
from repro.experiments.mobility import FIG13_SCHEMES, run_fig13
from repro.experiments.pathexp import run_fig7, run_fig8
from repro.metrics import (MetricSink, improvement_percent,
                           permutation_mean_test)

#: scale name -> (ab users, ab days, mobility traces)
SCALES = {
    "quick": (6, 2, 2),
    "standard": (12, 4, 4),
    "full": (20, 7, 10),
}


@dataclass
class ReportSection:
    title: str
    body: str


def _table(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    out = ["| " + " | ".join(str(h) for h in header) + " |",
           "|" + "---|" * len(header)]
    for row in rows:
        out.append("| " + " | ".join(str(c) for c in row) + " |")
    return "\n".join(out)


def section_fig6() -> ReportSection:
    rows = []
    for mode in FIG6_MODES:
        series = run_fig6_dynamics(mode)
        rows.append([mode,
                     f"{series.min_buffer_in(2.0, 5.2) / 1e3:.0f} KB",
                     f"{series.rebuffer_time:.2f} s",
                     f"{series.redundancy_percent:.1f}%"])
    body = _table(["mode", "min buffer (blackout)", "rebuffer",
                   "redundancy"], rows)
    return ReportSection("Fig. 6 — re-injection & QoE control dynamics",
                         body)


def section_fig7() -> ReportSection:
    sweep = run_fig7(frame_sizes=(128 * 1024, 512 * 1024, 2 * 1024 ** 2))
    rows = []
    for (size, wifi_t), (_s, nr_t) in zip(sweep["wifi"], sweep["5g"]):
        rows.append([f"{size // 1024} KB", f"{wifi_t * 1000:.0f} ms",
                     f"{nr_t * 1000:.0f} ms"])
    return ReportSection(
        "Fig. 7 — first-frame delivery vs primary path",
        _table(["first frame", "WiFi primary", "5G primary"], rows))


def section_fig8() -> ReportSection:
    sweep = run_fig8(ratios=(1, 4, 8))
    rows = []
    for (ratio, fast), (_r, orig) in zip(sweep["fastest"],
                                         sweep["original"]):
        rows.append([f"{ratio}:1", f"{fast:.2f} s", f"{orig:.2f} s"])
    return ReportSection(
        "Fig. 8 — ACK_MP return-path strategies (4 MB, Cubic)",
        _table(["RTT ratio", "min-RTT path", "original path"], rows))


def _fmt(value, spec: str = "{:.3f}") -> str:
    """Render a metric cell; ``None`` (empty sketch) becomes a dash."""
    return "—" if value is None else spec.format(value)


#: the control arm of every day-over-day series
BASELINE = "sp"


def _day_series(days: Sequence[Dict[str, Dict]]
                ) -> Tuple[List[str], List[List]]:
    """Header and rows of a day-over-day A/B series (Fig. 1c / Fig. 11
    with Tables 1 / 3 folded in): per day SP's p99 RCT, then each
    treatment's p99 RCT, rebuffer-rate improvement and cost.

    ``days`` holds one :meth:`MetricSink.as_dict` summary per day,
    day 1 first -- what :func:`run_ab_test`'s sinks give and what a
    campaign ledger stores, so a checkpoint renders without re-running.
    """
    treatments = sorted({name for day in days for name in day
                         if name != BASELINE})
    header = ["day", f"{BASELINE} p99 RCT (s)"]
    for name in treatments:
        header += [f"{name} p99 RCT (s)", f"{name} rebuffer Δ",
                   f"{name} cost"]
    rows = []
    for number, day in enumerate(days, 1):
        base = day.get(BASELINE, {})
        row = [number, _fmt(base.get("rct_p99"), "{:.2f}")]
        for name in treatments:
            treat = day.get(name, {})
            base_rb, treat_rb = base.get("rebuffer_rate"), \
                treat.get("rebuffer_rate")
            row += [_fmt(treat.get("rct_p99"), "{:.2f}"),
                    _fmt(None if base_rb is None or treat_rb is None
                         else improvement_percent(base_rb, treat_rb),
                         "{:+.0f}%"),
                    _fmt(treat.get("traffic_overhead_percent"), "{:.1f}%")]
        rows.append(row)
    return header, rows


def section_ab(users: int, days: int) -> List[ReportSection]:
    sections = []
    # Fig. 1c + Table 1 (vanilla-MP study population), then Fig. 11 +
    # Table 3 (XLINK study population: leaner Wi-Fi, more hand-offs).
    for title, treatment, mix in (
            ("Fig. 1c + Table 1 — vanilla-MP vs SP", "vanilla_mp", {}),
            ("Fig. 11 + Table 3 — XLINK vs SP", "xlink",
             dict(wifi_rate_mu=15.5, wifi_outage_prob=0.25))):
        cfg = ABTestConfig(users_per_day=users, days=days, seed=3, **mix)
        sinks = run_ab_test(cfg, ["sp", treatment])
        sections.append(ReportSection(
            title, _table(*_day_series([s.as_dict() for s in sinks]))))
    return sections


#: the scheme × CC matrix swept by the ``ccmatrix`` report section
CC_MATRIX_SCHEMES = ("sp", "xlink")
CC_MATRIX_CCS = ("cubic", "newreno", "lia", "bbr", "mpbbr")


def section_ccmatrix(users: int) -> ReportSection:
    """One A/B day per congestion controller (ROADMAP item 4).

    Every controller in the registry drives the SP baseline and full
    XLINK over the same seeded population, so the per-CC QoE rows are
    directly comparable down the table.
    """
    cfg = ABTestConfig(users_per_day=users, seed=5)
    rows = []
    for cc in CC_MATRIX_CCS:
        schemes = [scheme_with_cc(s, cc) for s in CC_MATRIX_SCHEMES]
        sink = run_ab_day(cfg, 1, schemes)
        for base, scheme in zip(CC_MATRIX_SCHEMES, schemes):
            day = sink.schemes[scheme.name]
            rows.append([base, cc,
                         f"{day.rct.percentile(50):.3f}",
                         f"{day.rct.percentile(95):.3f}",
                         f"{day.rct.percentile(99):.3f}",
                         f"{day.rebuffer_rate * 100:.2f}%",
                         f"{day.traffic_overhead_percent:.1f}%"])
    return ReportSection(
        "Scheme × CC matrix — per-controller QoE (one A/B day)",
        _table(["scheme", "cc", "RCT p50 (s)", "RCT p95 (s)",
                "RCT p99 (s)", "rebuffer", "cost"], rows))


def section_fig12(users: int) -> ReportSection:
    cfg = ABTestConfig(users_per_day=users, seed=7)
    result = run_fig12(cfg)
    rows = []
    for pct in FIG12_PERCENTILES:
        rows.append([f"p{pct}",
                     f"{result.with_acceleration[pct]:+.1f}%",
                     f"{result.without_acceleration[pct]:+.1f}%"])
    return ReportSection(
        "Fig. 12 — first-frame latency improvement over SP",
        _table(["percentile", "with acceleration", "without"], rows))


def section_fig13(n_traces: int) -> ReportSection:
    results = run_fig13(n_traces=n_traces, seed=2)
    rows = []
    for r in results:
        row = [f"{r.trace_id} ({r.environment[:6]})"]
        for scheme in FIG13_SCHEMES:
            row.append(f"{r.median(scheme):.2f}/{r.maximum(scheme):.2f}")
        rows.append(row)
    return ReportSection(
        "Fig. 13 — extreme mobility, request download time median/max (s)",
        _table(["trace"] + list(FIG13_SCHEMES), rows))


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
    (``None`` percentiles), unlike the exact ``summarize()`` reference
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
        _table(["scheme", "sessions", "completed", "failed",
                "rebuffer rate", "startup p50", "reinjection cost"],
               rows)))

    rows = []
    for name in names:
        sketch = sink.scheme(name).rct
        rows.append([name] + [_fmt(sketch.percentile(p), "{:.3f}")
                              for p in FLEET_CDF_PCTS])
    sections.append(ReportSection(
        "Population — request completion time CDF (s)",
        _table(["scheme"] + [f"p{p}" for p in FLEET_CDF_PCTS], rows)))

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
            sig = permutation_mean_test(base.session_rebuffer_rate,
                                        treat.session_rebuffer_rate,
                                        rounds=rounds, seed=seed)
            sig_rct = permutation_mean_test(base.rct, treat.rct,
                                            rounds=rounds, seed=seed)
            rows.append([
                f"{baseline} → {name}",
                _fmt(delta, "{:+.1f}%"),
                _fmt(rct_delta, "{:+.1f}%"),
                _fmt(sig.p_value if sig else None, "{:.3f}"),
                _fmt(sig_rct.p_value if sig_rct else None, "{:.3f}"),
            ])
        sections.append(ReportSection(
            "Population — treatment deltas vs baseline",
            _table(["contrast", "rebuffer improvement", "RCT p99 improvement",
                    "p (rebuffer)", "p (RCT)"], rows)
            + f"\n\np-values: seeded permutation test over the merged "
              f"sketches ({rounds} rounds, seed {seed})."))
    return sections


#: seed of the report's fleet day and campaign
FLEET_SEED = 11


def section_fleet(users: int) -> List[ReportSection]:
    """Run a split-population fleet day and render its sink."""
    from repro.experiments.fleet import (ABPopulationDriver, FleetConfig,
                                         run_fleet_driver)
    cfg = FleetConfig(users=users, seed=FLEET_SEED)
    run = run_fleet_driver(ABPopulationDriver(cfg))
    header = (f"{users} users split-population over "
              f"{', '.join(cfg.schemes)}; {run.result.shards} shards, "
              f"{run.result.workers_effective} effective workers, "
              f"{run.sessions_per_sec:.1f} sessions/sec.\n"
              f"Merged digest `{run.sink.digest()[:16]}`.")
    sections = fleet_sections(run.sink, seed=FLEET_SEED)
    first = sections[0]
    sections[0] = ReportSection(first.title, header + "\n\n" + first.body)
    return sections


def campaign_day_section(result) -> ReportSection:
    """Day-over-day series from a campaign ledger.

    Pure rendering over a :class:`~repro.experiments.campaign.
    CampaignResult`: each :class:`DayRecord` carries that day's
    per-scheme summary, so the daily SP-vs-treatment trend can be
    tabulated without re-running anything -- including from a
    checkpoint of a still-running multi-day campaign.
    """
    header, rows = _day_series([rec.schemes for rec in result.days])
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
        _table(header + ["sessions", "faults"], rows) + footer)


def section_campaign(users: int, days: int) -> List[ReportSection]:
    """Run a multi-day campaign and render its day-over-day ledger."""
    from repro.experiments.campaign import FleetCampaign
    from repro.experiments.fleet import FleetConfig
    cfg = FleetConfig(users=users, days=days, seed=FLEET_SEED)
    result = FleetCampaign(cfg).run()
    return [campaign_day_section(result)]


def section_fig14() -> ReportSection:
    points = normalize(run_fig14(sizes=(4_000_000,)))
    rows = [[p.config, f"{p.energy_per_bit_j:.2f}",
             f"{p.throughput_mbps:.2f}"] for p in points]
    return ReportSection(
        "Fig. 14 — normalized energy/bit vs throughput",
        _table(["config", "norm J/bit", "norm throughput"], rows))


#: report section name -> its builder, given the scale's users per day,
#: days and mobility traces; the CLI's ``--sections`` choices
SECTIONS: Dict[str, Callable[[int, int, int], List[ReportSection]]] = {
    "fig6": lambda users, days, traces: [section_fig6()],
    "fig7": lambda users, days, traces: [section_fig7()],
    "fig8": lambda users, days, traces: [section_fig8()],
    "ab": lambda users, days, traces: section_ab(users, days),
    # the fleet tier is cheap per session (2s clip), so its population
    # is scaled 8x the per-day A/B cohort
    "fleet": lambda users, days, traces: section_fleet(users * 8),
    "campaign": lambda users, days, traces: section_campaign(users * 4,
                                                             days),
    "ccmatrix": lambda users, days, traces: [section_ccmatrix(users)],
    "fig12": lambda users, days, traces: [section_fig12(users)],
    "fig13": lambda users, days, traces: [section_fig13(traces)],
    "fig14": lambda users, days, traces: [section_fig14()],
}


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
