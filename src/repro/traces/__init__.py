"""Network traces: file format, synthetic generators, radio profiles.

Real captures (saturatr on campus walks, subways, high-speed rail) are
unavailable, so :mod:`repro.traces.synthetic` generates traces shaped
like the paper's descriptions, and :mod:`repro.traces.radio_profiles`
encodes the measured per-technology delay statistics of Sec. 3.2 and
the cross-ISP inflation of Table 4.
"""

from repro.traces.format import (load_mahimahi_trace, save_mahimahi_trace,
                                 trace_from_rate_series,
                                 trace_mean_throughput_bps)
from repro.traces.synthetic import (campus_walk_wifi_trace,
                                    high_speed_rail_cellular_trace,
                                    high_speed_rail_wifi_trace,
                                    stable_lte_trace, subway_cellular_trace,
                                    subway_wifi_trace)
from repro.traces.radio_profiles import (CROSS_ISP_DELAY_INCREASE, RadioType,
                                         RADIO_PROFILES, cross_isp_delay)
from repro.traces.catalog import extreme_mobility_trace_pairs

__all__ = [
    "load_mahimahi_trace",
    "save_mahimahi_trace",
    "trace_from_rate_series",
    "trace_mean_throughput_bps",
    "campus_walk_wifi_trace",
    "stable_lte_trace",
    "subway_cellular_trace",
    "subway_wifi_trace",
    "high_speed_rail_cellular_trace",
    "high_speed_rail_wifi_trace",
    "RadioType",
    "RADIO_PROFILES",
    "CROSS_ISP_DELAY_INCREASE",
    "cross_isp_delay",
    "extreme_mobility_trace_pairs",
]
