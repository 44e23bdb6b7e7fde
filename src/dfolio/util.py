"""Small shared helpers: the error base classes, config field rules, date spans, deterministic RNG derivation, the long-table CSV writer."""

from __future__ import annotations

import csv
import hashlib
import io
from bisect import bisect_left
from datetime import date
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np


class DfolioError(Exception):
    """Base of the errors a bad input or a failed run raises, each located by file:line, key or path.

    `dfolio.cli.main` catches this class alone: it prints the message to
    stderr and exits 2 for a UsageError, 1 for every other (data or run) error.
    """


class UsageError(DfolioError, ValueError):
    """An argument or input file named on the command line that the command cannot use."""


class ConfigError(UsageError):
    """Every fault found in a run config or in command-line values, one message per fault."""

    def __str__(self) -> str:
        return "\n".join(map(str, self.args))


def check_fields(values: dict, rules) -> None:
    """Raise one ConfigError with a `<field>: <reason>` line for every rule that `values` breaks.

    A rule is (field, holds, reason): holds(values) is true for good values, and reason is formatted
    with them. A rule that reads a value left out is skipped, so a reader can leave out what it rejected.
    """
    faults = []
    for name, holds, reason in rules:
        try:
            if not holds(values):
                faults.append(f"{name}: {reason.format(**values)}")
        except KeyError:  # the rule reads a value left out
            pass
    if faults:
        raise ConfigError(*faults)


def at_least(minimum, *names: str) -> list[tuple]:
    return [(n, lambda v, n=n: v[n] >= minimum, f"must be >= {minimum}, got {{{n}!r}}") for n in names]


def at_most(maximum, *names: str) -> list[tuple]:
    return [(n, lambda v, n=n: v[n] <= maximum, f"must be <= {maximum}, got {{{n}!r}}") for n in names]


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


def write_long_csv(path, header: Sequence[str], dates: Sequence[date], labels: Sequence[str],
                   blocks: Iterable[np.ndarray]) -> Path:
    """Write one (date, label, *cells) row per label per date, one date block per write.

    `blocks` yields a (len(labels), len(header) - 2) float array per date. The
    bytes equal a csv.writer row per (date, label) of Python floats: csv
    quotes the header and each label (QUOTE_MINIMAL), and each cell is
    repr(float), which `%r` prints for the block's `.tolist()` floats.
    """
    path = Path(path)
    row = ",%r" * (len(header) - 2) + "\r\n"
    pieces = []
    for label in labels:
        # Quoted as a cell among others (csv quotes a lone empty cell, not an
        # empty cell in a row), in the file's dialect: drop the ",\r\n" after it.
        buf = io.StringIO()
        csv.writer(buf).writerow([label, ""])
        pieces.append("," + buf.getvalue()[:-3].replace("%", "%%") + row)
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for d, block in zip(dates, blocks):
            iso = d.isoformat()
            fh.write("".join([iso + piece for piece in pieces]) % tuple(block.ravel().tolist()))
    return path
