"""Seeded RNG helpers.

Every stochastic component takes an explicit ``random.Random`` (or a
seed) so experiments never touch the global RNG state.  ``make_rng``
also derives child streams from string labels, which keeps independent
subsystems (loss model vs. workload sampling) decorrelated under a
single top-level seed.
"""

from __future__ import annotations

import hashlib
import random
from typing import Union

RngLike = Union[int, random.Random, None]


def make_rng(seed: RngLike = None, label: str = "") -> random.Random:
    """Build a deterministic ``random.Random``.

    ``seed`` may be an int, an existing Random (a derived child is
    returned so the parent stream is not consumed), or None (seed 0).
    ``label`` mixes a subsystem name into the derived seed.
    """
    if isinstance(seed, random.Random):
        base = seed.getrandbits(64)
    elif seed is None:
        base = 0
    else:
        base = int(seed)
    if label:
        digest = hashlib.sha256(f"{base}:{label}".encode()).digest()
        base = int.from_bytes(digest[:8], "big")
    return random.Random(base)


def derive_seed(seed: int, label: str) -> int:
    """Derive a stable child seed from (seed, label)."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")
