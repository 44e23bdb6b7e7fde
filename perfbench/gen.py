"""Seeded input generator for the benchmark workloads.

Writes one OHLCV CSV per ticker (the program's input schema) and, for the
backtest workloads, the JSON run config. The same (workload, seed) always
gives byte-identical files. Nothing here imports dfolio: the program sees only
the files written.

Usage: python3 perfbench/gen.py --workload roster_quick --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path

import numpy as np

CSV_HEADER = "date,open,high,low,close,adj_close,volume\n"
FIRST_DAY = date(2015, 1, 5)
FEE_RATE = 0.005
# The search seed stays fixed so that every --seed draws the same learning
# rates and epoch counts: the work per run does not depend on the seed.
SEARCH_SEED = 7


DEFAULT_ROSTER = (
    "softmax_max_return",
    "softmax_max_sharpe",
    "robust_spo_rho0.01",
    "robust_spo_rho0.1",
    "pto_markowitz",
    "spo_plus_fee",
    "spo_plus_fee_l2",
    "spo_plus",
    "max_sharpe",
)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "backtest" or "ingest"
    n_assets: int
    n_days: int
    start: str = ""
    end: str = ""
    strategies: object = "default"
    search: dict | None = None
    drop_max: float = 0.0  # per-ticker share of dates dropped, drawn in [0, drop_max]

    @property
    def roster(self) -> list[str]:
        return list(DEFAULT_ROSTER if self.strategies == "default" else self.strategies)


# The backtest spans are shorter than the 35-rebalance runs they stand for
# (2016-02..2018-12) so that one command fits several times into a run; every
# window does the same work as in the full span.
WORKLOADS = {
    "roster_quick": Workload(
        name="roster_quick",
        command="backtest",
        n_assets=10,
        n_days=1071,
        start="2016-01-01",
        end="2016-03-31",
        strategies="default",
        search={"n_trials": 4, "epochs_min": 10, "epochs_max": 20},
    ),
    "wide_decisions": Workload(
        name="wide_decisions",
        command="backtest",
        n_assets=200,
        n_days=1071,
        start="2016-01-01",
        end="2016-03-31",
        strategies=["spo_plus_fee", "spo_plus_fee_l2", "max_sharpe"],
        search={"n_trials": 1, "epochs_min": 1, "epochs_max": 1},
    ),
    "ingest_decade": Workload(
        name="ingest_decade",
        command="ingest",
        n_assets=100,
        n_days=2700,
        drop_max=0.001,
    ),
}


def business_days(start: date, n: int) -> list[date]:
    out, d = [], start
    while len(out) < n:
        if d.weekday() < 5:
            out.append(d)
        d += timedelta(days=1)
    return out


def ticker_name(i: int, n: int) -> str:
    return f"T{i:0{len(str(n - 1))}d}"


def market(workload: Workload, seed: int):
    """Seeded OHLCV bars: geometric random walks with per-asset drift and volatility.

    Returns (dates, tickers, {ticker: (kept date indices, open, high, low, close, volume)}).
    """
    rng = np.random.Generator(np.random.PCG64([seed, workload.n_assets, workload.n_days]))
    n, t = workload.n_assets, workload.n_days
    dates = business_days(FIRST_DAY, t)
    mu = rng.normal(3e-4, 3e-4, n)
    sigma = rng.uniform(0.008, 0.025, n)
    log_ret = mu + sigma * rng.standard_normal((t, n))
    log_ret[0] = 0.0
    close = 100.0 * np.exp(np.cumsum(log_ret, axis=0))
    prev = np.vstack([close[:1], close[:-1]])
    open_ = prev * np.exp(0.3 * sigma * rng.standard_normal((t, n)))
    high = np.maximum(open_, close) * (1.0 + np.abs(0.5 * sigma * rng.standard_normal((t, n))))
    low = np.minimum(open_, close) * (1.0 - np.abs(0.5 * sigma * rng.standard_normal((t, n))))
    volume = np.round(np.exp(rng.normal(13.8, 0.3, (t, n))))
    tickers = [ticker_name(j, n) for j in range(n)]
    bars = {}
    for j, tk in enumerate(tickers):
        keep = np.arange(t)
        if workload.drop_max > 0:
            share = rng.uniform(0.0, workload.drop_max)
            keep = keep[rng.uniform(size=t) >= share]
        bars[tk] = (keep, open_[:, j], high[:, j], low[:, j], close[:, j], volume[:, j])
    return dates, tickers, bars


def write_inputs(workload: Workload, seed: int, out: Path) -> dict:
    """Write the workload's CSVs (and config) under `out`; returns a description."""
    data_dir = out / "market"
    data_dir.mkdir(parents=True, exist_ok=True)
    dates, tickers, bars = market(workload, seed)
    iso = [d.isoformat() for d in dates]
    for tk in tickers:
        keep, o, h, lo, c, v = bars[tk]
        lines = [CSV_HEADER]
        for i in keep:
            ci = repr(float(c[i]))
            lines.append(
                f"{iso[i]},{float(o[i])!r},{float(h[i])!r},{float(lo[i])!r},{ci},{ci},{float(v[i])!r}\n"
            )
        (data_dir / f"{tk}.csv").write_text("".join(lines))
    desc = {"workload": workload.name, "seed": seed, "data_dir": str(data_dir), "tickers": tickers}
    if workload.command == "backtest":
        config = {
            "data_dir": str(data_dir),
            "output_dir": str(out / "results"),
            "seed": SEARCH_SEED,
            "backtest": {"start": workload.start, "end": workload.end, "fee_rate": FEE_RATE},
            "search": workload.search,
            "strategies": workload.strategies,
        }
        cfg_path = out / "config.json"
        cfg_path.write_text(json.dumps(config, indent=2) + "\n")
        desc["config"] = str(cfg_path)
    return desc


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    desc = write_inputs(WORKLOADS[args.workload], args.seed, Path(args.out))
    print(json.dumps({k: v for k, v in desc.items() if k != "tickers"}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
