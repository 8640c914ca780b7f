"""Smartphone radio power models and energy-per-bit accounting.

The paper measures normalized communication energy per bit vs.
throughput on 5G-NSA-capable Android phones (Snapdragon 765G /
Kirin 990), with each link capped at 30 Mbps (Fig. 14).  We model each
radio with the standard affine power model P(r) = P_idle_active + k*r
(active baseline power plus a per-throughput slope), with parameters
shaped after published measurements: Wi-Fi is the most efficient per
bit, NR draws the most power, LTE sits in between.  Energy per bit
falls with throughput because the active baseline is amortized --
which is exactly why multipath (higher throughput, two radios) can
still land in Fig. 14's top-left region.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from repro.traces.radio_profiles import RadioType


@dataclass(frozen=True)
class RadioPowerModel:
    """Affine active-power model for one radio."""

    radio: RadioType
    #: power drawn while the radio is active, regardless of rate (W)
    base_active_w: float
    #: incremental power per Mbps of goodput (W / Mbps)
    per_mbps_w: float

    def power_at(self, throughput_mbps: float) -> float:
        if throughput_mbps < 0:
            raise ValueError("throughput must be non-negative")
        return self.base_active_w + self.per_mbps_w * throughput_mbps


# Parameters shaped after measurement studies the paper cites ([36] for
# 5G; MobiSys/IMC Wi-Fi-vs-LTE studies): 5G NR draws ~2x LTE's active
# power; Wi-Fi is cheapest both in baseline and slope.
POWER_MODELS: Dict[RadioType, RadioPowerModel] = {
    RadioType.WIFI: RadioPowerModel(RadioType.WIFI, base_active_w=0.6,
                                    per_mbps_w=0.010),
    RadioType.LTE: RadioPowerModel(RadioType.LTE, base_active_w=1.2,
                                   per_mbps_w=0.025),
    RadioType.NR_NSA: RadioPowerModel(RadioType.NR_NSA, base_active_w=2.3,
                                      per_mbps_w=0.030),
    RadioType.NR_SA: RadioPowerModel(RadioType.NR_SA, base_active_w=2.1,
                                     per_mbps_w=0.028),
}


class EnergyAccount:
    """Integrates per-radio energy over a download.

    The harness reports, per radio, the bytes carried and the wall
    time during which the radio was active; the account produces total
    energy and energy per (delivered) bit.
    """

    def __init__(self) -> None:
        self._entries: List[Tuple[RadioType, int, float]] = []

    def add(self, radio: RadioType, bytes_carried: int,
            active_time_s: float) -> None:
        if bytes_carried < 0 or active_time_s < 0:
            raise ValueError("negative energy account entry")
        self._entries.append((radio, bytes_carried, active_time_s))

    @property
    def total_bytes(self) -> int:
        return sum(b for _r, b, _t in self._entries)

    def total_energy_j(self) -> float:
        total = 0.0
        for radio, bytes_carried, active_time in self._entries:
            if active_time <= 0:
                continue
            mbps = bytes_carried * 8.0 / active_time / 1e6
            total += POWER_MODELS[radio].power_at(mbps) * active_time
        return total

    def energy_per_bit_j(self) -> float:
        bits = self.total_bytes * 8
        if bits == 0:
            return 0.0
        return self.total_energy_j() / bits
