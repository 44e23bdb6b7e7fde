"""Writers for every emitted artifact, and readers for the backtest ones.

Each backtest artifact round-trips through the reader next to it; floats are
serialized with shortest round-trip repr so identical runs produce identical
bytes.
"""

from __future__ import annotations

import csv
import json
from datetime import date
from itertools import repeat
from pathlib import Path

import numpy as np

from .backtest import BacktestLedger
from .market_data import MarketFrame
from .metrics import MetricsRow
from .util import fmt


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
                w.writerow([d.isoformat(), name, fmt(v)])
    return path


def read_nav_csv(path) -> dict[str, tuple[list[date], list[float]]]:
    out: dict[str, tuple[list[date], list[float]]] = {}
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["date", "strategy", "nav"]:
            raise ValueError(f"unexpected nav.csv header {header}")
        for row in reader:
            d, name, v = date.fromisoformat(row[0]), row[1], float(row[2])
            out.setdefault(name, ([], []))
            out[name][0].append(d)
            out[name][1].append(v)
    return out


def write_weights_csv(ledgers: dict[str, BacktestLedger], tickers, path) -> Path:
    path = Path(path)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["rebalance_date", "strategy", "ticker", "weight", "turnover", "fee"])
        for name, led in _ok(ledgers).items():
            for rec in led.rebalances:
                for j, ticker in enumerate(tickers):
                    w.writerow(
                        [
                            rec.day.isoformat(),
                            name,
                            ticker,
                            fmt(rec.target[j]),
                            fmt(rec.turnover),
                            fmt(rec.fee),
                        ]
                    )
    return path


def read_weights_csv(path) -> list[dict]:
    rows = []
    with Path(path).open(newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            rows.append(
                {
                    "rebalance_date": date.fromisoformat(row["rebalance_date"]),
                    "strategy": row["strategy"],
                    "ticker": row["ticker"],
                    "weight": float(row["weight"]),
                    "turnover": float(row["turnover"]),
                    "fee": float(row["fee"]),
                }
            )
    return rows


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
                    [rec.day.isoformat(), name, fmt(diag.learning_rate), diag.epochs, fmt(diag.score)]
                )
    return path


def read_hparams_csv(path) -> list[dict]:
    rows = []
    with Path(path).open(newline="") as fh:
        for row in csv.DictReader(fh):
            rows.append(
                {
                    "rebalance_date": date.fromisoformat(row["rebalance_date"]),
                    "strategy": row["strategy"],
                    "lr": float(row["lr"]),
                    "epochs": int(row["epochs"]),
                    "score": float(row["score"]),
                }
            )
    return rows


def write_metrics_json(report: dict[str, dict[str, MetricsRow]], path) -> Path:
    path = Path(path)
    payload = {
        strategy: {span: row.as_dict() for span, row in spans.items()}
        for strategy, spans in report.items()
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def read_metrics_json(path) -> dict[str, dict[str, MetricsRow]]:
    payload = json.loads(Path(path).read_text())
    out: dict[str, dict[str, MetricsRow]] = {}
    for strategy, spans in payload.items():
        out[strategy] = {}
        for span, row in spans.items():
            out[strategy][span] = MetricsRow(**row)
    return out


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
                        fmt(row.annualized_return),
                        fmt(row.annualized_volatility),
                        "" if row.sharpe is None else fmt(row.sharpe),
                        "" if row.sortino is None else fmt(row.sortino),
                        fmt(row.max_drawdown),
                    ]
                )
    return path


def read_metrics_csv(path) -> dict[str, dict[str, MetricsRow]]:
    out: dict[str, dict[str, MetricsRow]] = {}
    with Path(path).open(newline="") as fh:
        for row in csv.DictReader(fh):
            out.setdefault(row["strategy"], {})[row["span"]] = MetricsRow(
                annualized_return=float(row["annualized_return"]),
                annualized_volatility=float(row["annualized_volatility"]),
                sharpe=float(row["sharpe"]) if row["sharpe"] else None,
                sortino=float(row["sortino"]) if row["sortino"] else None,
                max_drawdown=float(row["max_drawdown"]),
            )
    return out


def write_plotdata(
    nav_by_strategy: dict[str, tuple[list[date], list[float]]],
    spans: dict[str, tuple[date | None, date | None]],
    out_dir,
) -> list[Path]:
    """Plot-ready wide CSVs: full cumulative NAV plus one renormalized file per span."""
    from .metrics import restrict_nav

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
            for i, d in enumerate(dates):
                w.writerow([d.isoformat(), *(fmt(series[s][1][i]) for s in strategies)])
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


def read_plotdata_csv(path) -> dict[str, tuple[list[date], list[float]]]:
    """Inverse of one write_plotdata file: wide date x strategy NAV curves."""
    out: dict[str, tuple[list[date], list[float]]] = {}
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        strategies = header[1:]
        for name in strategies:
            out[name] = ([], [])
        for row in reader:
            d = date.fromisoformat(row[0])
            for name, cell in zip(strategies, row[1:]):
                out[name][0].append(d)
                out[name][1].append(float(cell))
    return out


def write_panel_csv(frame: MarketFrame, path) -> Path:
    """Aligned long-format cache of the ingested universe, one date block at a time."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["date", "ticker", "adj_close", "volume"])
        for d, adj, vol in zip(frame.dates, frame.adj_close, frame.volume):
            w.writerows(zip(repeat(d.isoformat()), frame.tickers, adj.tolist(), vol.tolist()))
    return path
