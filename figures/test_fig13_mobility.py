"""Fig. 13: extreme mobility -- request download time across schemes.

Replays subway and high-speed-rail trace pairs and measures per-chunk
request download time (median + max) for SP, vanilla-MP, MPTCP, CM
and XLINK.  The paper's shapes:

- SP performs poorly (no mobility support);
- CM improves on SP in some traces but is not responsive enough under
  frequent hand-offs;
- MPTCP and vanilla-MP improve sometimes but suffer MP-HoL blocking;
- XLINK consistently gives the smallest median and max times.
"""

from figures.conftest import print_table
from repro.experiments.mobility import FIG13_SCHEMES, run_fig13
from repro.metrics import percentile

N_TRACES = 4  # subset of the 10-trace catalog for bench runtime
DURATION = 30.0


def _run():
    return run_fig13(n_traces=N_TRACES, duration_s=DURATION, seed=2)


def test_fig13_mobility():
    results = _run()

    rows = []
    for r in results:
        row = [r.trace_id, r.environment[:6]]
        for scheme in FIG13_SCHEMES:
            row.append(f"{r.median(scheme):.2f}/{r.maximum(scheme):.2f}")
        rows.append(row)
    print_table("Fig. 13: request download time median/max (s)",
                ["trace", "env"] + list(FIG13_SCHEMES), rows)

    def aggregate(scheme, fn):
        return [fn(r, scheme) for r in results]

    medians = {s: aggregate(s, lambda r, s_: r.median(s_))
               for s in FIG13_SCHEMES}
    maxima = {s: aggregate(s, lambda r, s_: r.maximum(s_))
              for s in FIG13_SCHEMES}

    def mean(values):
        return sum(values) / len(values)

    print("\nmean of per-trace medians:",
          {s: round(mean(v), 2) for s, v in medians.items()})
    print("mean of per-trace maxima:",
          {s: round(mean(v), 2) for s, v in maxima.items()})

    # XLINK beats the QUIC-family baselines on mean median and max.
    for baseline in ("sp", "vanilla_mp", "cm"):
        assert mean(medians["xlink"]) <= mean(medians[baseline]) * 1.05, \
            f"XLINK median should beat {baseline}"
        assert mean(maxima["xlink"]) <= mean(maxima[baseline]) * 1.05, \
            f"XLINK max should beat {baseline}"

    # MPTCP is the "mptcp" scheme on the same QUIC stack: min-RTT,
    # ACKs on the original subflow and always-on appending
    # re-injection (opportunistic retransmission), with no subflow
    # penalization and none of the kernel or middlebox costs the
    # paper's real-kernel MPTCP paid.  Re-injecting every overdue
    # range without a QoE gate buys it tail latency on these traces
    # (EXPERIMENTS.md, Known delta #4), so XLINK is only required to
    # stay within a modest margin of it rather than beat it.
    assert mean(medians["xlink"]) <= mean(medians["mptcp"]) * 1.45
    assert mean(maxima["xlink"]) <= mean(maxima["mptcp"]) * 1.45

    # Multipath schemes beat single-path SP on the worst-case chunk:
    # bandwidth aggregation + a second path to hide fades behind.
    assert mean(maxima["xlink"]) < mean(maxima["sp"])
