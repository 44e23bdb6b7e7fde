"""Market data layer: CSV ingestion, calendar alignment, return panels, synthetic markets."""

from __future__ import annotations

import csv
import math
import operator
from bisect import bisect_left
from dataclasses import dataclass
from datetime import date, timedelta
from functools import partial
from itertools import chain, filterfalse
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .util import DfolioError

CSV_HEADER = ("date", "open", "high", "low", "close", "adj_close", "volume")

# Soft requirement for running a real backtest; small frames are fine for unit work.
MIN_USABLE_ASSETS = 2
MIN_USABLE_DATES = 252


class IngestionError(DfolioError, ValueError):
    """A CSV file could not be parsed or a row violates bar invariants."""

    def __init__(self, path, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.path = str(path)
        self.line = line


class UniverseError(DfolioError, ValueError):
    """The universe is unusable: an unreadable data path, an empty intersection, too few
    assets/dates, or indicators that are not finite."""


def _adopt(a) -> np.ndarray:
    """`a` itself when nothing can write to its memory, else a read-only copy.

    Adopted are a read-only array that owns its memory and a read-only view
    of such an array (a row window of another frame or tensor). Every other
    array is copied, since a caller could still write through it.
    """
    a = np.asarray(a, dtype=float)
    owner = a if a.base is None else a.base
    if not a.flags.writeable and isinstance(owner, np.ndarray) and owner.flags.owndata and not owner.flags.writeable:
        return a
    a = a.copy(order="K")
    a.setflags(write=False)
    return a


class AssetBar(NamedTuple):
    """One daily bar of a single asset, as far as `TickerBars` keeps it."""

    day: date
    adj_close: float
    volume: float


@dataclass(frozen=True, eq=False)
class TickerBars:
    """One ticker's bars as columns, as `read_ticker_csv` returns them.

    `days` holds the dates, strictly increasing; `values` is the read-only
    (2, n) float array of adj_close and volume, the two columns that
    alignment reads. Open, high, low and close are parsed and checked, then
    dropped. `len()` is the row count, and iterating yields `AssetBar` rows,
    built one at a time.
    """

    days: tuple[date, ...]
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.days)

    def __iter__(self) -> Iterator[AssetBar]:
        return map(AssetBar._make, zip(self.days, *self.values.tolist()))


@dataclass(frozen=True)
class MarketFrame:
    """Aligned date x asset panel of adjusted closes and volumes.

    Every (date, asset) cell is populated and dates are strictly increasing.
    Immutable after construction; safe to share across threads.
    """

    dates: tuple[date, ...]
    tickers: tuple[str, ...]
    adj_close: np.ndarray
    volume: np.ndarray

    def __post_init__(self):
        n_d, n_a = len(self.dates), len(self.tickers)
        if n_d == 0 or n_a == 0:
            raise UniverseError("empty market frame")
        if any(self.dates[i] >= self.dates[i + 1] for i in range(n_d - 1)):
            raise ValueError("dates must be strictly increasing")
        ac = np.asarray(self.adj_close, dtype=float)
        vol = np.asarray(self.volume, dtype=float)
        if ac.shape != (n_d, n_a) or vol.shape != (n_d, n_a):
            raise ValueError(f"panel shapes must be ({n_d}, {n_a})")
        if not np.all(np.isfinite(ac)) or np.any(ac <= 0):
            raise ValueError("adj_close must be finite and > 0")
        if not np.all(np.isfinite(vol)) or np.any(vol < 0):
            raise ValueError("volume must be finite and >= 0")
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "tickers", tuple(self.tickers))
        object.__setattr__(self, "adj_close", _adopt(ac))
        object.__setattr__(self, "volume", _adopt(vol))

    @property
    def n_dates(self) -> int:
        return len(self.dates)

    @property
    def n_assets(self) -> int:
        return len(self.tickers)

    def index_of(self, day: date) -> int:
        """Index of `day` in the calendar; raises KeyError if absent."""
        i = bisect_left(self.dates, day)
        if i == len(self.dates) or self.dates[i] != day:
            raise KeyError(f"{day} not a trading day of this frame")
        return i

    def check_usable(self) -> None:
        if self.n_assets < MIN_USABLE_ASSETS or self.n_dates < MIN_USABLE_DATES:
            raise UniverseError(
                f"universe has {self.n_assets} assets / {self.n_dates} dates; "
                f"need >= {MIN_USABLE_ASSETS} assets and >= {MIN_USABLE_DATES} dates"
            )


@dataclass(frozen=True)
class ReturnPanel:
    """Daily simple returns, read-only (`_adopt`); dates drop the first frame date."""

    dates: tuple[date, ...]
    simple_returns: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "simple_returns", _adopt(self.simple_returns))


def compute_returns(frame: MarketFrame) -> ReturnPanel:
    """Simple return panel from adjusted closes.

    Row t corresponds to the move into frame.dates[t + 1]. The 1.0 is
    subtracted in place, so the panel is one array, which ReturnPanel adopts.
    """
    if frame.n_dates < 2:
        raise ValueError("need at least 2 dates to compute returns")
    returns = frame.adj_close[1:] / frame.adj_close[:-1]
    returns -= 1.0
    returns.setflags(write=False)
    return ReturnPanel(dates=frame.dates[1:], simple_returns=returns)


def _check_row(path, line_no: int, row: list[str], prev_day: date | None) -> date:
    """Every check on one data row, in the order that picks the reported fault."""
    if len(row) != len(CSV_HEADER):
        raise IngestionError(path, line_no, f"expected {len(CSV_HEADER)} fields, got {len(row)}")
    try:
        day = date.fromisoformat(row[0])
    except ValueError as exc:
        raise IngestionError(path, line_no, f"bad date {row[0]!r}: {exc}") from None
    try:
        values = [float(v) for v in row[1:]]
    except ValueError as exc:
        raise IngestionError(path, line_no, str(exc)) from None
    for name, cell, value in zip(CSV_HEADER[1:], row[1:], values):
        if not math.isfinite(value):
            raise IngestionError(path, line_no, f"{name} must be finite, got {cell!r}")
    open_, high, low, close, adj_close, volume = values
    if adj_close <= 0:
        raise IngestionError(path, line_no, "adj_close must be > 0")
    if not (low <= min(open_, close) and max(open_, close) <= high):
        raise IngestionError(path, line_no, "low <= min(open, close) <= max(open, close) <= high violated")
    if volume < 0:
        raise IngestionError(path, line_no, "volume must be >= 0")
    if prev_day is not None and day <= prev_day:
        raise IngestionError(path, line_no, f"dates not strictly increasing at {day}")
    return day


def _checked_bars(day_cells: Sequence[str], columns, calendar: dict[str, date]) -> TickerBars:
    """The bars of one file from its date strings and its six numeric columns, in
    `CSV_HEADER` order: the bar checks run as masks, and the bars keep adj_close and volume.

    `calendar` maps each date string seen so far to its date; the strings it
    lacks are parsed and added, so tickers that share a calendar share its
    date objects. Raises ValueError, without a location, when any row fails
    any check.
    """
    misses = list(filterfalse(calendar.__contains__, day_cells))
    calendar.update(zip(misses, map(date.fromisoformat, misses)))
    days = tuple(map(calendar.__getitem__, day_cells))
    open_, high, low, close, adj_close, volume = columns
    ok = (
        all(np.isfinite(column).all() for column in columns)
        and (adj_close > 0).all()
        and (low <= np.minimum(open_, close)).all()
        and (np.maximum(open_, close) <= high).all()
        and (volume >= 0).all()
        and all(map(operator.lt, days, days[1:]))
    )
    if not ok:
        raise ValueError("bar check")
    kept = np.stack((adj_close, volume))
    kept.setflags(write=False)
    return TickerBars(days, kept)


_PLAIN_HEADERS = (",".join(CSV_HEADER) + "\n", ",".join(CSV_HEADER) + "\r\n")
# Wider than any date string that date.fromisoformat accepts (10 characters),
# so a longer cell, cut to 11, still fails to parse.
_PLAIN_ROW = np.dtype([("date", "U11"), *((name, "f8") for name in CSV_HEADER[1:])])
_BATCH_CHARS = 1 << 16
# loadtxt drops these where float() or fromisoformat keeps them: \x1c-\x1f
# around a number (whitespace to str.isspace, not to float()) and NULs at
# the end of a date (a numpy string drops its trailing NULs).
_UNPLAIN_CHARS = "\x00\x1c\x1d\x1e\x1f"


def _plain_batch(lines: list[str]) -> list[str]:
    """`lines`, as they are, if loadtxt reads them as the csv path would; else ValueError.

    csv rejects a field over `csv.field_size_limit()` and loadtxt has no such
    limit, so a line longer than the limit is declined too.
    """
    text = "".join(lines)
    if max(map(len, lines)) > csv.field_size_limit() or any(map(text.__contains__, _UNPLAIN_CHARS)):
        raise ValueError("not a plain batch")
    return lines


def _read_plain(fh, calendar: dict[str, date]) -> TickerBars:
    """The bars of a plain file, parsed by numpy's C reader in one call.

    Plain means: the exact header line, a data row right after it, and cells
    that loadtxt converts exactly as `float()` and `date.fromisoformat` do.
    The lines are streamed to loadtxt in batches, each checked on the way.
    Raises ValueError on anything else (quotes, `1_000`, non-ASCII digits,
    empty cells, a CR inside a row, a wrong field count, bytes that are not
    UTF-8) and on any failing bar check, so that the csv path reads the file
    again.
    """
    if fh.readline() not in _PLAIN_HEADERS:
        raise ValueError("not the plain header")
    first = fh.readline()
    if not first.rstrip("\r\n"):  # no data row, which loadtxt warns about, or a blank line
        raise ValueError("no data row after the header")
    batches = chain([[first]], iter(partial(fh.readlines, _BATCH_CHARS), []))
    rows = np.loadtxt(
        chain.from_iterable(map(_plain_batch, batches)),
        delimiter=",", comments=None, quotechar=None, ndmin=1, dtype=_PLAIN_ROW,
    )
    return _checked_bars(rows["date"].tolist(), [rows[name] for name in CSV_HEADER[1:]], calendar)


def read_ticker_csv(path, calendar: dict[str, date] | None = None) -> TickerBars:
    """Parse one per-ticker OHLCV file, validating header and every bar.

    A plain file is parsed by numpy's C reader (`_read_plain`). Any other
    file, and any file with a bad bar, is read again by the csv module:
    `_check_row` scans its rows in file order and names the first bad line,
    then `_checked_bars` builds the bars. Date strings are looked up in, and
    added to, `calendar`.
    """
    path = Path(path)
    calendar = {} if calendar is None else calendar
    try:
        fh = path.open(newline="")
    except OSError as exc:  # e.g. a directory named X.csv
        raise UniverseError(f"cannot open {path} ({exc.strerror})") from None
    with fh:
        try:
            return _read_plain(fh, calendar)
        except ValueError:  # also a UnicodeDecodeError
            fh.seek(0)
        reader = csv.reader(fh)
        try:
            header = next(reader)
            if tuple(h.strip() for h in header) != CSV_HEADER:
                raise IngestionError(path, 1, f"bad header {header!r}, expected {','.join(CSV_HEADER)}")
            rows = list(reader)
        except StopIteration:
            raise IngestionError(path, 1, "empty file") from None
        except csv.Error as exc:  # e.g. a cell over the field size limit
            raise IngestionError(path, reader.line_num, str(exc)) from None
        except UnicodeDecodeError as exc:  # decoded a buffer ahead of the reader, so no exact line
            message = f"not UTF-8 text at or after this line ({exc.reason})"
            raise IngestionError(path, reader.line_num + 1, message) from None
    data, prev_day = [], None
    for line_no, row in enumerate(rows, start=2):
        if row:
            prev_day = _check_row(path, line_no, row, prev_day)
            data.append(row)
    if not data:
        raise IngestionError(path, 2, "no data rows")
    cells = list(zip(*data))
    return _checked_bars(cells[0], np.array(cells[1:], dtype=float), calendar)


def load_series(path, tickers: Sequence[str] | None = None) -> dict[str, TickerBars]:
    """Read the per-ticker CSVs in a directory, keyed by filename stem.

    With `tickers`, only their files are read, and a ticker without a file
    is a UniverseError; without, every CSV is. Two files to be read with one
    stem (`X.csv` and `X.CSV`) are a UniverseError. The files share one
    calendar, so each distinct date string is parsed once and every ticker's
    `days` holds the same date objects.
    """
    path = Path(path)
    try:
        entries = list(path.iterdir())
    except OSError as exc:
        raise UniverseError(f"cannot read data directory {path} ({exc.strerror})") from None
    files = sorted(p for p in entries if p.suffix.lower() == ".csv")
    if not files:
        raise UniverseError(f"no input files in {path}")
    if tickers is not None:
        wanted = set(tickers)
        files = [p for p in files if p.stem in wanted]
        found = {p.stem for p in files}
        missing = [t for t in tickers if t not in found]
        if missing:
            raise UniverseError(f"unknown tickers: {', '.join(missing)}")
    by_stem: dict[str, Path] = {}
    for f in files:
        if by_stem.setdefault(f.stem, f) is not f:
            raise UniverseError(f"ticker {f.stem} has two files in {path}: {by_stem[f.stem].name} and {f.name}")
    calendar: dict[str, date] = {}
    return {stem: read_ticker_csv(f, calendar) for stem, f in by_stem.items()}


def align_series(series: dict[str, TickerBars]) -> MarketFrame:
    """Restrict all tickers to their common trading dates, sorted ascending.

    A date that a ticker repeats takes that ticker's last bar for it. The
    dates are intersected one ticker at a time, and the two panels are
    read-only, so the frame adopts them without a copy.
    """
    if not series:
        raise UniverseError("no ticker series to align")
    tickers = sorted(series)
    common = set(series[tickers[0]].days)
    for t in tickers[1:]:
        common.intersection_update(series[t].days)
    if not common:
        raise UniverseError("empty date intersection across tickers")
    dates = tuple(sorted(common))
    adj_close = np.empty((len(dates), len(tickers)))
    volume = np.empty_like(adj_close)
    for j, t in enumerate(tickers):
        bars = series[t]
        row_of = dict(zip(bars.days, range(len(bars))))
        rows = list(map(row_of.__getitem__, dates))
        adj_close_of, volume_of = bars.values
        adj_close[:, j] = adj_close_of[rows]
        volume[:, j] = volume_of[rows]
    adj_close.setflags(write=False)
    volume.setflags(write=False)
    return MarketFrame(dates=dates, tickers=tuple(tickers), adj_close=adj_close, volume=volume)


def write_csv_dir(frame: MarketFrame, out_dir) -> list[Path]:
    """Write one OHLCV CSV per ticker (flat bars: open=high=low=close=adj_close)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    days = [d.isoformat() for d in frame.dates]
    written = []
    for j, t in enumerate(frame.tickers):
        p = out_dir / f"{t}.csv"
        px, vol = frame.adj_close[:, j].tolist(), frame.volume[:, j].tolist()
        with p.open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(CSV_HEADER)
            w.writerows(zip(days, px, px, px, px, px, vol))
        written.append(p)
    return written


@dataclass(frozen=True)
class SyntheticSpec:
    """Seeded planted-signal market: next-day returns are linear in exogenous features."""

    n_assets: int
    n_days: int
    seed: int
    signal_coefficients: tuple[float, ...] = (0.01, -0.01, 0.005)
    noise_scale: float = 0.005
    regime_breaks: tuple[tuple[int, float], ...] = ()

    def __post_init__(self):
        if self.n_assets < 1 or self.n_days < 2:
            raise ValueError("need n_assets >= 1 and n_days >= 2")
        if self.noise_scale <= 0:
            raise ValueError("noise_scale must be > 0")
        for day, _mult in self.regime_breaks:
            if not 0 <= day < self.n_days:
                raise ValueError(f"regime break day {day} outside [0, {self.n_days})")
        object.__setattr__(self, "signal_coefficients", tuple(float(c) for c in self.signal_coefficients))
        object.__setattr__(self, "regime_breaks", tuple((int(d), float(m)) for d, m in self.regime_breaks))


def business_days(start: date, n: int) -> tuple[date, ...]:
    """`n` consecutive weekday dates from `start` (weekends skipped)."""
    out, d = [], start
    while len(out) < n:
        if d.weekday() < 5:
            out.append(d)
        d += timedelta(days=1)
    return tuple(out)


def generate_synthetic(spec: SyntheticSpec):
    """Build (MarketFrame, FeatureTensor, true_coefficients) with a planted linear signal.

    returns[t+1, i] = beta . x[t, i] + eps[t, i]; eps is seeded Gaussian noise
    scaled by noise_scale and by any regime volatility multipliers (each break
    sets the multiplier from its day onward). Prices compound from 100.
    Deterministic given the spec.
    """
    from .features import FeatureTensor  # local import avoids module cycle

    rng = np.random.Generator(np.random.PCG64(spec.seed))
    beta = np.array(spec.signal_coefficients, dtype=float)
    n, t_total, d = spec.n_assets, spec.n_days, beta.size

    x = rng.standard_normal((t_total, n, d))
    mult = np.ones(t_total)
    for day, m in spec.regime_breaks:
        mult[day:] = m
    eps = rng.standard_normal((t_total, n)) * spec.noise_scale
    # Return on day j is generated from features of day j-1 and the day-j regime.
    returns = np.empty((t_total, n))
    returns[0] = 0.0
    returns[1:] = x[:-1] @ beta + eps[1:] * mult[1:, None]
    returns = np.maximum(returns, -0.99)

    prices = 100.0 * np.cumprod(1.0 + returns, axis=0)
    volume = np.exp(rng.normal(np.log(1e6), 0.1, size=(t_total, n)))

    dates = business_days(date(2015, 1, 5), t_total)
    tickers = tuple(f"SYN{i:02d}" for i in range(n))
    frame = MarketFrame(dates=dates, tickers=tickers, adj_close=prices, volume=volume)
    tensor = FeatureTensor(
        dates=dates,
        tickers=tickers,
        features=x,
        feature_names=tuple(f"f{k}" for k in range(d)),
    )
    return frame, tensor, beta
