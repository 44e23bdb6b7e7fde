"""Writers for every emitted artifact, and the metrics.json reader.

Every float is written as its shortest round-trip repr, so identical runs
produce identical bytes. The backtest writers hand csv Python floats;
panel.csv goes through util.write_long_csv, which quotes each ticker by
csv's rule and formats a whole date block with one `%r` format.
"""

from __future__ import annotations

import csv
import json
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
                diag = rec.diagnostics
                if diag is None or diag.learning_rate is None:
                    continue
                w.writerow(
                    [rec.day.isoformat(), name, float(diag.learning_rate), diag.epochs, float(diag.score)]
                )
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


METRICS_CSV_HEADER = [
    "strategy",
    "span",
    "annualized_return",
    "annualized_volatility",
    "sharpe",
    "sortino",
    "max_drawdown",
]


def write_metrics_csv(report: dict[str, dict[str, MetricsRow]], path) -> Path:
    path = Path(path)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(METRICS_CSV_HEADER)
        for strategy, spans in report.items():
            for span, row in spans.items():
                w.writerow(
                    [
                        strategy,
                        span,
                        float(row.annualized_return),
                        float(row.annualized_volatility),
                        "" if row.sharpe is None else float(row.sharpe),
                        "" if row.sortino is None else float(row.sortino),
                        float(row.max_drawdown),
                    ]
                )
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
