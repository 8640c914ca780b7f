"""Energy-consumption driver: Fig. 14.

Downloads 10-50 MB loads over five radio configurations -- Wi-Fi,
LTE, NR alone, and Wi-Fi+LTE / Wi-Fi+NR with XLINK -- with every link
capped at 30 Mbps (the paper's setting for the multipath-relevant
regime), and reports normalized throughput vs normalized
communication energy per bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.energy import EnergyAccount
from repro.experiments.harness import PathSpec, run_bulk_download
from repro.traces.radio_profiles import RADIO_PROFILES, RadioType

#: The five configurations of Fig. 14.
FIG14_CONFIGS: Dict[str, Tuple[RadioType, ...]] = {
    "WiFi": (RadioType.WIFI,),
    "LTE": (RadioType.LTE,),
    "NR": (RadioType.NR_NSA,),
    "WiFi-LTE": (RadioType.WIFI, RadioType.LTE),
    "WiFi-NR": (RadioType.WIFI, RadioType.NR_NSA),
}

#: Per-link rate cap (the paper caps each link at 30 Mbps).
LINK_CAP_BPS = 30e6

#: Download sizes, 10-50 MB in the paper; scaled for emulation speed.
FIG14_SIZES = (4_000_000, 8_000_000)


@dataclass
class EnergyPoint:
    """One point of Fig. 14."""

    config: str
    throughput_mbps: float
    energy_per_bit_j: float


def _paths_for(radios: Sequence[RadioType]) -> List[PathSpec]:
    paths = []
    for i, radio in enumerate(radios):
        profile = RADIO_PROFILES[radio]
        paths.append(PathSpec(
            net_path_id=i, radio=radio,
            one_way_delay_s=profile.median_rtt_s / 2,
            rate_bps=LINK_CAP_BPS))
    return paths


def run_fig14_point(config: str, total_bytes: int) -> EnergyPoint:
    """Download ``total_bytes`` under one radio configuration."""
    radios = FIG14_CONFIGS[config]
    paths = _paths_for(radios)
    scheme = "sp" if len(radios) == 1 else "xlink"
    result = run_bulk_download(scheme, paths, total_bytes, timeout_s=300.0)
    if result.download_time_s is None:
        raise RuntimeError(f"fig14 download did not complete: {config}")
    duration = result.download_time_s
    account = EnergyAccount()
    if len(radios) == 1:
        account.add(radios[0], total_bytes, duration)
    else:
        # Charge each radio for the bytes it actually carried, active
        # for the whole transfer (both radios stay powered).
        net = result.net
        by_path = {spec.net_path_id: spec.radio for spec in paths}
        total_down = sum(p.down_bytes_out for p in net.paths.values()) or 1
        for pid, path in net.paths.items():
            share = path.down_bytes_out / total_down
            account.add(by_path[pid], int(total_bytes * share), duration)
    throughput_mbps = total_bytes * 8.0 / duration / 1e6
    return EnergyPoint(config=config, throughput_mbps=throughput_mbps,
                       energy_per_bit_j=account.energy_per_bit_j())


def run_fig14(sizes: Sequence[int] = FIG14_SIZES) -> List[EnergyPoint]:
    """All Fig. 14 configurations over the download sizes (averaged)."""
    points = []
    for config in FIG14_CONFIGS:
        runs = [run_fig14_point(config, size) for size in sizes]
        points.append(EnergyPoint(
            config=config,
            throughput_mbps=sum(r.throughput_mbps for r in runs)
            / len(runs),
            energy_per_bit_j=sum(r.energy_per_bit_j for r in runs)
            / len(runs)))
    return points


def normalize(points: List[EnergyPoint]) -> List[EnergyPoint]:
    """Normalize throughput and J/bit to the max across configs."""
    max_tp = max(p.throughput_mbps for p in points) or 1.0
    max_e = max(p.energy_per_bit_j for p in points) or 1.0
    return [EnergyPoint(config=p.config,
                        throughput_mbps=p.throughput_mbps / max_tp,
                        energy_per_bit_j=p.energy_per_bit_j / max_e)
            for p in points]
