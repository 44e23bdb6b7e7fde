import csv
import importlib.util
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from dfolio.market_data import CSV_HEADER, MarketFrame, business_days


def make_frame(prices: np.ndarray, volume: np.ndarray | None = None,
               start: date = date(2015, 1, 5), tickers=None) -> MarketFrame:
    """Frame from a (n_dates, n_assets) price matrix on a weekday calendar."""
    prices = np.atleast_2d(np.asarray(prices, dtype=float))
    n_dates, n_assets = prices.shape
    if volume is None:
        volume = np.full_like(prices, 1e6)
    if tickers is None:
        tickers = tuple(f"T{j:02d}" for j in range(n_assets))
    return MarketFrame(
        dates=business_days(start, n_dates),
        tickers=tuple(tickers),
        adj_close=prices,
        volume=volume,
    )


def write_ticker_csv(path: Path, rows):
    """rows: iterable of (date, open, high, low, close, adj_close, volume)."""
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_HEADER)
        for row in rows:
            w.writerow([row[0].isoformat(), *row[1:]])


def flat_bars(days, price=100.0, volume=1000.0):
    return [(d, price, price, price, price, price, volume) for d in days]


@pytest.fixture
def tmp_csv_dir(tmp_path):
    d = tmp_path / "csvs"
    d.mkdir()
    return d


def weekdays(start: date, n: int):
    return list(business_days(start, n))


def load_script(name: str):
    """scripts/<name>.py imported as a module, so a test can call its functions."""
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
