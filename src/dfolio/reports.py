"""Writers for every emitted artifact, and the readers of a run directory that `compare` uses.

Every float is written as its shortest round-trip repr, so identical runs
produce identical bytes. The backtest writers hand csv Python floats;
panel.csv goes through util.write_long_csv, which quotes each ticker by
csv's rule and formats a whole date block with one `%r` format.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import fields
from datetime import date
from pathlib import Path

import numpy as np

from .backtest import BacktestLedger
from .market_data import MarketFrame
from .metrics import MetricsRow, restrict_nav
from .util import UsageError, write_long_csv


def _ok(ledgers: dict[str, BacktestLedger]) -> dict[str, BacktestLedger]:
    return {k: v for k, v in ledgers.items() if v.error is None}


def nav_series(ledgers: dict[str, BacktestLedger]) -> dict[str, tuple[list[date], list[float]]]:
    return {k: (list(v.nav_dates), list(v.nav)) for k, v in _ok(ledgers).items()}


def write_nav_csv(ledgers: dict[str, BacktestLedger], path) -> Path:
    path = Path(path)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["date", "strategy", "nav"])
        for name, led in _ok(ledgers).items():
            for d, v in zip(led.nav_dates, led.nav):
                w.writerow([d.isoformat(), name, float(v)])
    return path


def write_weights_csv(ledgers: dict[str, BacktestLedger], tickers, path) -> Path:
    path = Path(path)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["rebalance_date", "strategy", "ticker", "weight", "turnover", "fee"])
        for name, led in _ok(ledgers).items():
            for rec in led.rebalances:
                day, turnover, fee = rec.day.isoformat(), float(rec.turnover), float(rec.fee)
                for ticker, weight in zip(tickers, rec.target.tolist()):
                    w.writerow([day, name, ticker, weight, turnover, fee])
    return path


def write_hparams_csv(ledgers: dict[str, BacktestLedger], path) -> Path:
    path = Path(path)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["rebalance_date", "strategy", "lr", "epochs", "score"])
        for name, led in _ok(ledgers).items():
            for rec in led.rebalances:
                if (trial := rec.trial) is not None:
                    w.writerow([rec.day.isoformat(), name, float(trial.learning_rate), trial.epochs, float(trial.score)])
    return path


def write_metrics_json(report: dict[str, dict[str, MetricsRow]], path) -> Path:
    path = Path(path)
    payload = {
        strategy: {span: row.as_dict() for span, row in spans.items()}
        for strategy, spans in report.items()
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def read_metrics_json(path) -> dict[str, dict[str, MetricsRow]]:
    """Read a metrics.json report.

    A file that cannot be read, or a payload of any other shape, is a
    UsageError `cannot read metrics (<path>: <reason>)`.
    """

    def unreadable(reason: str) -> UsageError:
        return UsageError(f"cannot read metrics ({path}: {reason})")

    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise unreadable(exc.strerror) from None
    try:
        payload = json.loads(data)
    except ValueError as exc:  # bad JSON or UTF-8, or an integer over the digit limit
        raise unreadable(f"not valid JSON ({exc})") from None
    if not isinstance(payload, dict):
        raise unreadable(f"expected an object of strategy -> span -> metrics, got {type(payload).__name__}")
    names = [f.name for f in fields(MetricsRow)]
    out: dict[str, dict[str, MetricsRow]] = {}
    for strategy, spans in payload.items():
        if not isinstance(spans, dict):
            raise unreadable(f"{strategy}: expected an object of span -> metrics")
        out[strategy] = {}
        for span, row in spans.items():
            if not (isinstance(row, dict) and sorted(row) == sorted(names) and all(map(_is_metric, row.values()))):
                raise unreadable(f"{strategy}.{span}: expected numbers or null for exactly {', '.join(names)}")
            out[strategy][span] = MetricsRow(**row)
    return out


def _is_metric(value) -> bool:
    """None, a float, or an int that converts to one (`compare` subtracts them as floats)."""
    return value is None or isinstance(value, float) or (type(value) is int and abs(value) <= sys.float_info.max)


# Per run file: the columns that name a row (the strategy is the second), and
# the column that `run_drift` reads as numbers.
RUN_FILES = {
    "weights.csv": (("rebalance_date", "strategy", "ticker"), "weight"),
    "nav.csv": (("date", "strategy"), "nav"),
    "hparams.csv": (("rebalance_date", "strategy"), "lr"),
}


def _read_run_file(path: Path, key: tuple[str, ...], number: str) -> dict[tuple[str, ...], dict[str, str]]:
    """The rows of one run CSV by their key cells; a fault is a UsageError `cannot read run (<path>[:<line>]: ...)`."""

    def unreadable(reason: str, line: int | None = None) -> UsageError:
        return UsageError(f"cannot read run ({path}{'' if line is None else f':{line}'}: {reason})")

    rows = {}
    try:
        with path.open(newline="") as fh:
            reader = csv.DictReader(fh)
            missing = [c for c in (*key, number) if c not in (reader.fieldnames or ())]
            if missing:
                raise unreadable(f"no {', '.join(missing)} column")
            for row in reader:
                if None in row or None in row.values():
                    raise unreadable(f"expected {len(reader.fieldnames)} cells", reader.line_num)
                try:
                    finite = math.isfinite(float(row[number]))
                except ValueError:
                    finite = False
                if not finite:
                    raise unreadable(f"{number} {row[number]!r} is not a finite number", reader.line_num)
                k = tuple(row[c] for c in key)
                if k in rows:
                    raise unreadable(f"repeated row {','.join(k)}", reader.line_num)
                rows[k] = row
    except OSError as exc:
        raise unreadable(exc.strerror) from None
    except (UnicodeDecodeError, csv.Error) as exc:  # not UTF-8, or a cell over csv's field size limit
        raise unreadable(str(exc)) from None
    return rows


def run_drift(dir_a, dir_b) -> dict[str, dict]:
    """{strategy: {"weight", "nav", "moved", "rebalances", "identical"}} of run B against run A.

    The largest |weight difference|, the largest relative NAV difference
    |nav_b - nav_a| / |nav_a|, the hparams.csv winners (lr, epochs) that moved
    out of the rebalances, and whether the strategy's rows of all three files
    are identical. A row that only one run has is an infinite drift and a move.
    """
    out = {}
    for name, (key, number) in RUN_FILES.items():
        a, b = (_read_run_file(Path(d) / name, key, number) for d in (dir_a, dir_b))
        for k in [*a, *(k for k in b if k not in a)]:
            s = out.setdefault(k[1], {"weight": 0.0, "nav": 0.0, "moved": 0, "rebalances": 0, "identical": True})
            ra, rb = a.get(k), b.get(k)
            s["identical"] &= ra == rb
            if name == "hparams.csv":
                s["rebalances"] += 1
                s["moved"] += ra is None or rb is None or (ra["lr"], ra["epochs"]) != (rb["lr"], rb["epochs"])
            elif ra is None or rb is None:
                s[number] = math.inf
            else:
                va, vb = float(ra[number]), float(rb[number])
                if name == "weights.csv":
                    s["weight"] = max(s["weight"], abs(vb - va))
                else:  # a zero NAV drifts infinitely unless both are zero
                    s["nav"] = max(s["nav"], abs(vb - va) / abs(va) if va else math.inf if vb else 0.0)
    return out


def write_metrics_csv(report: dict[str, dict[str, MetricsRow]], path) -> Path:
    path = Path(path)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["strategy", "span", *(f.name for f in fields(MetricsRow))])
        for strategy, spans in report.items():
            for span, row in spans.items():
                w.writerow([strategy, span, *("" if v is None else float(v) for v in row.as_dict().values())])
    return path


def write_plotdata(
    nav_by_strategy: dict[str, tuple[list[date], list[float]]],
    spans: dict[str, tuple[date | None, date | None]],
    out_dir,
) -> list[Path]:
    """Plot-ready wide CSVs: full cumulative NAV plus one renormalized file per span."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []

    def write_wide(name: str, series: dict[str, tuple[list[date], np.ndarray]]):
        p = out_dir / f"nav_{name}.csv"
        strategies = list(series)
        dates = series[strategies[0]][0]
        with p.open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["date", *strategies])
            columns = [series[s][1].tolist() for s in strategies]
            w.writerows([d.isoformat(), *cells] for d, *cells in zip(dates, *columns))
        written.append(p)

    if nav_by_strategy:
        write_wide("full", {s: (d, np.asarray(v)) for s, (d, v) in nav_by_strategy.items()})
        for span_name, (start, end) in spans.items():
            if span_name == "full":
                continue
            sliced = {}
            for s, (d, v) in nav_by_strategy.items():
                sd, sv = restrict_nav(d, v, start, end)
                sliced[s] = (sd, sv)
            write_wide(span_name, sliced)
    return written


def write_panel_csv(frame: MarketFrame, path) -> Path:
    """Aligned long-format cache of the ingested universe, one date block at a time."""
    blocks = map(np.column_stack, zip(frame.adj_close, frame.volume))
    return write_long_csv(path, ["date", "ticker", "adj_close", "volume"], frame.dates, frame.tickers, blocks)
