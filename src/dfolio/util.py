"""Small shared helpers: the error base classes, config field rules, date spans, deterministic RNG derivation, the long-table CSV writer."""

from __future__ import annotations

import csv
import hashlib
import io
import locale
import os
from bisect import bisect_left
from contextlib import contextmanager
from datetime import date
from itertools import chain, repeat
from pathlib import Path
from typing import Sequence

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


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Dates formatted per task. Small, so that the chunks in flight add little to
# the writer's memory.
CHUNK_DATES = 16


def _format_dates(isos: Sequence[bytes], pieces: Sequence[bytes], chunk: Sequence[np.ndarray]) -> bytes:
    """The rows of one chunk of dates: `chunk` holds one (dates, labels) slice per cell column."""
    cells = np.stack(chunk, axis=-1).ravel().tolist()
    return b"".join([iso + piece for iso in isos for piece in pieces]) % tuple(cells)


def _serve(tasks, texts, pieces: Sequence[bytes]) -> None:
    """A formatting worker: answers each (isos, chunk) task it receives with the chunk's bytes."""
    while True:
        isos, chunk = tasks.recv()
        texts.send_bytes(_format_dates(isos, pieces, chunk))


@contextmanager
def _chunk_texts(path: Path, pieces: Sequence[bytes], tasks, workers: int):
    """Yield the chunks' bytes in date order: formatted here for one worker, else by `workers` processes.

    Each worker has its own two pipes and one task in flight: task i goes to
    worker i % workers, which is sent task i + workers as soon as its answer
    to task i is read. This thread does all the pickling and reading, in task
    order, and starts no other thread, so the memory the pool adds to this
    process is the same from run to run. A worker that dies becomes a
    DfolioError located at `path`. The workers hold no state, so they are
    killed, not asked to stop, and joined before this returns or raises.
    """
    if workers < 2:
        yield (_format_dates(isos, pieces, chunk) for isos, chunk in tasks)
        return
    # Imported here, so that commands that never write a long table do not load it.
    import multiprocessing

    ctx = multiprocessing.get_context()
    links, procs = [], []

    def ordered():
        for i, task in enumerate(chain(tasks, repeat(None, workers))):
            task_w, text_r = links[i % workers]
            try:
                text = text_r.recv_bytes() if i >= workers else None
                if task is not None:
                    task_w.send(task)
            except (EOFError, OSError) as exc:
                raise DfolioError(f"cannot write {path}: a formatting worker exited") from exc
            if text is not None:
                yield text

    try:
        for _ in range(workers):
            task_r, task_w = ctx.Pipe(duplex=False)
            text_r, text_w = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_serve, args=(task_r, text_w, pieces), daemon=True)
            proc.start()
            procs.append(proc)
            links.append((task_w, text_r))
            # Only the worker keeps its ends, so its death reads here as the end of its pipe.
            task_r.close()
            text_w.close()
        yield ordered()
    finally:
        # Killed before their pipes close, so that none reads the end of its pipe and prints a traceback.
        for proc in procs:
            proc.kill()
            proc.join()
        for task_w, text_r in links:
            task_w.close()
            text_r.close()


def write_long_csv(path, header: Sequence[str], dates: Sequence[date], labels: Sequence[str],
                   columns: Sequence[np.ndarray]) -> Path:
    """Write one (date, label, *cells) row per label per date, formatted in chunks of CHUNK_DATES dates.

    `columns` holds one (len(dates), len(labels)) float array per cell
    column. The bytes equal a csv.writer row per (date, label) of Python
    floats: csv quotes the header and each label (QUOTE_MINIMAL), and each
    cell is repr(float), which `%r` prints for `.tolist()` floats. With more
    than one chunk and more than one usable CPU, the chunks are formatted in
    min(usable CPUs, chunks) worker processes, each sent its slices of the
    columns, and written in date order; the bytes are the same either way.
    """
    path = Path(path)
    encoding = locale.getpreferredencoding(False)  # what a text-mode open writes
    row = b",%r" * len(columns) + b"\r\n"
    pieces = []
    for label in labels:
        # Quoted as a cell among others (csv quotes a lone empty cell, not an
        # empty cell in a row), in the file's dialect: drop the ",\r\n" after it.
        buf = io.StringIO()
        csv.writer(buf).writerow([label, ""])
        pieces.append(b"," + buf.getvalue()[:-3].encode(encoding).replace(b"%", b"%%") + row)
    head = io.StringIO()
    csv.writer(head).writerow(header)
    starts = range(0, len(dates), CHUNK_DATES)
    tasks = (
        ([d.isoformat().encode() for d in dates[s : s + CHUNK_DATES]], [col[s : s + CHUNK_DATES] for col in columns])
        for s in starts
    )
    with path.open("wb") as fh, _chunk_texts(path, pieces, tasks, min(usable_cpus(), len(starts))) as texts:
        fh.write(head.getvalue().encode(encoding))
        for text in texts:
            fh.write(text)
    return path
