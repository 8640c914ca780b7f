"""Per-radio path-delay statistics and cross-ISP inflation.

Sec. 3.2 of the paper reports that the median path delay of LTE is
2.7x Wi-Fi and 5.5x 5G SA, with the 90th-percentile LTE delay 3.3x
Wi-Fi.  Table 4 reports the relative cross-ISP LTE delay increase.
This module encodes those statistics as lognormal delay models so the
experiments can sample per-user path delays with the published shape.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass
from typing import Dict


class RadioType(enum.Enum):
    """Wireless access technology of a path."""

    WIFI = "wifi"
    LTE = "lte"
    NR_SA = "5g_sa"     # standalone 5G
    NR_NSA = "5g_nsa"   # non-standalone 5G (LTE core)

    def __str__(self) -> str:  # pragma: no cover - display helper
        return self.value


@dataclass(frozen=True)
class RadioProfile:
    """Lognormal one-way-delay model plus typical bandwidth for a radio.

    ``median_rtt_s`` and ``p90_rtt_s`` pin the lognormal parameters:
    mu = ln(median), sigma = (ln(p90) - mu) / 1.2816.
    """

    radio: RadioType
    median_rtt_s: float
    p90_rtt_s: float
    typical_rate_mbps: float
    #: wireless-aware primary-path preference (higher = preferred);
    #: the paper's ordering is 5G SA > 5G NSA > WiFi > LTE.
    preference: int

    @property
    def mu(self) -> float:
        return math.log(self.median_rtt_s)

    @property
    def sigma(self) -> float:
        return max((math.log(self.p90_rtt_s) - self.mu) / 1.2816, 1e-6)

    def sample_rtt(self, rng: random.Random) -> float:
        """Sample an RTT from the lognormal model (clamped to >= 2 ms)."""
        return max(rng.lognormvariate(self.mu, self.sigma), 0.002)


# Calibrated to Sec. 3.2: LTE median = 2.7x Wi-Fi, 5.5x 5G SA;
# LTE p90 = 3.3x Wi-Fi p90.  Absolute values anchored at a typical
# enterprise-Wi-Fi RTT of 20 ms to the edge CDN.
RADIO_PROFILES: Dict[RadioType, RadioProfile] = {
    RadioType.WIFI: RadioProfile(RadioType.WIFI, median_rtt_s=0.020,
                                 p90_rtt_s=0.045, typical_rate_mbps=30.0,
                                 preference=2),
    RadioType.LTE: RadioProfile(RadioType.LTE, median_rtt_s=0.054,
                                p90_rtt_s=0.149, typical_rate_mbps=24.0,
                                preference=1),
    RadioType.NR_SA: RadioProfile(RadioType.NR_SA, median_rtt_s=0.0098,
                                  p90_rtt_s=0.020, typical_rate_mbps=80.0,
                                  preference=4),
    RadioType.NR_NSA: RadioProfile(RadioType.NR_NSA, median_rtt_s=0.030,
                                   p90_rtt_s=0.070, typical_rate_mbps=60.0,
                                   preference=3),
}

# Table 4: relative increase (fraction) of cross-ISP LTE delay.
# CROSS_ISP_DELAY_INCREASE[client_isp][server_isp]
CROSS_ISP_DELAY_INCREASE: Dict[str, Dict[str, float]] = {
    "A": {"A": 0.00, "B": 0.21, "C": 0.17},
    "B": {"A": 0.42, "B": 0.00, "C": 0.54},
    "C": {"A": 0.39, "B": 0.34, "C": 0.00},
}


def cross_isp_delay(base_delay_s: float, client_isp: str,
                    server_isp: str) -> float:
    """Inflate a path delay by the Table-4 cross-ISP factor."""
    try:
        factor = CROSS_ISP_DELAY_INCREASE[client_isp][server_isp]
    except KeyError as exc:
        raise KeyError(f"unknown ISP pair ({client_isp}, {server_isp})") from exc
    return base_delay_s * (1.0 + factor)