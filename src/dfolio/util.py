"""Small shared helpers: date spans and deterministic RNG derivation."""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from datetime import date
from typing import Sequence

import numpy as np


def span_indices(dates: Sequence[date], start: date | None, end: date | None) -> range:
    """Index range of `dates` falling in the half-open span [start, end)."""
    lo = 0 if start is None else bisect_left(dates, start)
    hi = len(dates) if end is None else bisect_left(dates, end)
    return range(lo, hi)


def stable_seed(*parts) -> int:
    """Deterministic 64-bit seed from arbitrary parts (stable across processes)."""
    text = "|".join(str(p) for p in parts)
    return int.from_bytes(hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest(), "big")


def derived_rng(seed: int, *tags) -> np.random.Generator:
    """Generator seeded from a base seed plus string/int tags."""
    return np.random.Generator(np.random.PCG64(stable_seed(seed, *tags)))

