"""Fig. 15: trace examples (high-speed-rail cellular / Wi-Fi traces).

Generates the mobility trace catalog and verifies the properties the
paper's trace plots show: realistic mean capacities, deep periodic
fades (tunnels / hand-offs), and per-environment pairing of cellular
and onboard-Wi-Fi captures that can be replayed together as a
multipath trace (Fig. 15c).
"""

from figures.conftest import print_table
from repro.traces import extreme_mobility_trace_pairs, trace_mean_throughput_bps


def _run():
    return extreme_mobility_trace_pairs(duration_s=30.0)


def _window_counts(trace_ms, window_ms=1000, duration_ms=30000):
    counts = []
    for start in range(0, duration_ms, window_ms):
        counts.append(len([t for t in trace_ms
                           if start <= t < start + window_ms]))
    return counts


def test_fig15_traces():
    pairs = _run()

    rows = []
    for pair in pairs:
        cell = pair["cellular_ms"]
        wifi = pair["wifi_ms"]
        rows.append([
            pair["trace_id"], pair["environment"],
            f"{trace_mean_throughput_bps(cell) / 1e6:.1f}",
            f"{trace_mean_throughput_bps(wifi) / 1e6:.1f}",
        ])
    print_table("Fig. 15: trace catalog mean capacities (Mbps)",
                ["trace", "environment", "cellular", "wifi"], rows)

    assert len(pairs) == 10
    for pair in pairs:
        for key in ("cellular_ms", "wifi_ms"):
            trace = pair[key]
            counts = _window_counts(trace)
            # Deep fades: some 1-second window carries < 1/4 of the
            # busiest window (the tunnel/hand-off dips of Fig. 15).
            assert min(counts) < max(counts) / 4, \
                f"trace {pair['trace_id']}/{key} lacks deep fades"
            # Sane capacity range for the emulated environments.
            mean_mbps = trace_mean_throughput_bps(trace) / 1e6
            assert 0.5 < mean_mbps < 20.0
