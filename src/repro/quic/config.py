"""Connection configuration, traffic accounting and the shared identity
derivations both endpoints (and the server host) agree on."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from repro.sim.rng import make_rng


@dataclass
class ConnectionConfig:
    """Tunable connection behaviour."""

    is_client: bool = True
    enable_multipath: bool = True
    #: congestion controller: any name in ``repro.quic.cc.CC_REGISTRY``
    #: ("cubic" | "newreno" | "lia" | "bbr" | "mpbbr")
    cc_algorithm: str = "cubic"
    #: ACK_MP return-path policy: "fastest" (XLINK) or "original" (MPTCP-like)
    ack_path_policy: str = "fastest"
    seed: int = 0
    #: silently close after this long without an authenticated packet
    #: (``None`` disables the idle timer entirely)
    idle_timeout_s: Optional[float] = None


def derive_initial_dcid(seed: int, connection_name: str) -> bytes:
    """The client-chosen random initial DCID for a connection.

    Derived deterministically from the connection's shared identity so
    the server host (which knows the same identity) can pre-pin the
    handshake route -- NAT rebinds before the first packet then cannot
    orphan the connection.
    """
    rng = make_rng(seed, f"{connection_name}-initial-dcid")
    return bytes(rng.getrandbits(8) for _ in range(8))


class ConnectionStats:
    """Traffic accounting used by the cost benchmarks."""

    def __init__(self) -> None:
        self.stream_bytes_new = 0
        self.stream_bytes_rtx = 0
        self.stream_bytes_reinjected = 0
        self.packets_sent = 0
        self.packets_received = 0
        self.acks_sent = 0
        self.handshake_completed_at: Optional[float] = None
        #: robustness counters (chaos / hostile-input accounting)
        self.corrupted_dropped = 0
        self.malformed_dropped = 0
        self.unknown_cid_dropped = 0
        self.frame_decode_errors = 0
        self.protocol_error_closes = 0
        self.duplicates_suppressed = 0
        self.reorder_max_depth = 0
        self.storm_guard_trims = 0
        self.storm_guard_trimmed_bytes = 0
        self.idle_timeouts = 0

    def robustness_dict(self) -> Dict[str, int]:
        """The robustness counters, for summaries and invariant checks."""
        return {
            "corrupted_dropped": self.corrupted_dropped,
            "malformed_dropped": self.malformed_dropped,
            "unknown_cid_dropped": self.unknown_cid_dropped,
            "frame_decode_errors": self.frame_decode_errors,
            "protocol_error_closes": self.protocol_error_closes,
            "duplicates_suppressed": self.duplicates_suppressed,
            "reorder_max_depth": self.reorder_max_depth,
            "storm_guard_trims": self.storm_guard_trims,
            "storm_guard_trimmed_bytes": self.storm_guard_trimmed_bytes,
            "idle_timeouts": self.idle_timeouts,
        }


def merge_robustness(counters: Iterable[Dict[str, int]]) -> Dict[str, int]:
    """Merge robustness counter dicts.

    ``reorder_max_depth`` is a high-water mark (max); everything else
    is additive.
    """
    total: Dict[str, int] = {}
    for counts in counters:
        for key, value in counts.items():
            if key == "reorder_max_depth":
                total[key] = max(total.get(key, 0), value)
            else:
                total[key] = total.get(key, 0) + value
    return total


def aggregate_robustness(stats_list) -> Dict[str, int]:
    """Merge robustness counters across connections."""
    return merge_robustness(stats.robustness_dict() for stats in stats_list)
