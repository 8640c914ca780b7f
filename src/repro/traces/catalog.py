"""Named trace sets used by benchmarks.

``extreme_mobility_trace_pairs`` builds the 10 trace pairs of Fig. 13:
five subway pairs and five high-speed-rail pairs, each pair being a
(cellular, onboard-Wi-Fi) capture from the same environment -- the
paper always replays traces collected in the same environment on the
two paths (Appendix B).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.traces.synthetic import (high_speed_rail_cellular_trace,
                                    high_speed_rail_wifi_trace,
                                    subway_cellular_trace,
                                    subway_wifi_trace)


#: (environment, cellular generator, its seed base, Wi-Fi generator, its
#: seed base) of trace ids 1-5 and 6-10
_ENVIRONMENTS = (
    ("subway", subway_cellular_trace, 100, subway_wifi_trace, 200),
    ("high_speed_rail", high_speed_rail_cellular_trace, 300,
     high_speed_rail_wifi_trace, 400),
)


def extreme_mobility_trace_pairs(
        duration_s: float = 30.0,
        n_traces: Optional[int] = None) -> List[Dict[str, object]]:
    """The 10 (cellular, wifi) trace pairs used by the Fig. 13 bench,
    or the first ``n_traces`` of them: a pair is generated only if it
    is returned, and its bytes depend on nothing but its own seeds.

    Returns a list of dicts with keys ``trace_id``, ``environment``,
    ``cellular_ms``, ``wifi_ms`` (traces every replay of it shares).
    """
    pairs: List[Dict[str, object]] = []
    for index in range(10)[:n_traces]:
        environment, cellular, cellular_seed, wifi, wifi_seed = \
            _ENVIRONMENTS[index // 5]
        pairs.append({
            "trace_id": index + 1,
            "environment": environment,
            "cellular_ms": cellular(duration_s, seed=cellular_seed + index % 5),
            "wifi_ms": wifi(duration_s, seed=wifi_seed + index % 5),
        })
    return pairs
