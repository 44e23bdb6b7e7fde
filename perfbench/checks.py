"""Output checks, computed from the inputs apart from the program.

Nothing here imports dfolio. Every check returns a list of failure messages
(empty when the artifact passes), so a run can report all of them at once.
"""

from __future__ import annotations

from bisect import bisect_left
import calendar
import csv
import hashlib
import json
from datetime import date
from pathlib import Path

import numpy as np

TRADING_DAYS = 252
LOOKBACK_MONTHS = 12  # train 9 + validation 3, the program's defaults
# First frame row at which every default indicator is defined: the MACD
# signal line needs slow (26) + signal (9) - 2 rows.
INDICATOR_WARMUP = 33
REL_TOL = 1e-9


def digest(out_dir, names) -> dict[str, str]:
    return {name: hashlib.sha256((Path(out_dir) / name).read_bytes()).hexdigest() for name in names}


def check_identical(digests: list[dict[str, str]]) -> list[str]:
    """Artifacts of every round (traced or not) must be byte-identical to the first's."""
    return [
        f"identical: {name} of round {k} differs from round 0"
        for k, d in enumerate(digests[1:], start=1)
        for name in d
        if d[name] != digests[0][name]
    ]


def read_inputs(data_dir) -> dict[str, tuple[list[date], np.ndarray]]:
    """ticker -> (dates, rows of open, high, low, close, adj_close, volume)."""
    out = {}
    for path in sorted(Path(data_dir).glob("*.csv")):
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            rows = list(reader)
        out[path.stem] = (
            [date.fromisoformat(r[0]) for r in rows],
            np.array([[float(v) for v in r[1:]] for r in rows]),
        )
    return out


class Market:
    """Common calendar of the inputs with aligned adjusted closes and volumes."""

    def __init__(self, inputs):
        self.tickers = sorted(inputs)
        union: set[date] = set()
        common: set[date] | None = None
        for dates, _ in inputs.values():
            union.update(dates)
            common = set(dates) if common is None else common & set(dates)
        self.dates = sorted(common)
        self.n_union = len(union)
        self.adj_close = np.empty((len(self.dates), len(self.tickers)))
        self.volume = np.empty_like(self.adj_close)
        for j, t in enumerate(self.tickers):
            dates, rows = inputs[t]
            index = {d: i for i, d in enumerate(dates)}
            pick = [index[d] for d in self.dates]
            self.adj_close[:, j] = rows[pick, 4]
            self.volume[:, j] = rows[pick, 5]
        self.returns = self.adj_close[1:] / self.adj_close[:-1] - 1.0  # row i: into dates[i + 1]


def months_back(day: date, months: int) -> date:
    y, m = divmod(day.year * 12 + day.month - 1 - months, 12)
    m += 1
    return date(y, m, min(day.day, calendar.monthrange(y, m)[1]))


def expected_rebalances(dates: list[date], start: date, end: date) -> list[date]:
    """First trading day of each month in [start, end] whose lookback fits."""
    firsts: dict[tuple[int, int], date] = {}
    for d in dates:
        firsts.setdefault((d.year, d.month), d)
    return [
        d
        for d in sorted(firsts.values())
        if start <= d <= end and months_back(d, LOOKBACK_MONTHS) >= dates[0]
    ]


def read_weights(path, tickers) -> dict[str, dict[date, tuple[np.ndarray, set]]]:
    """strategy -> rebalance date -> (weights in ticker order, {(turnover, fee)} over its rows)."""
    cells: dict[str, dict[date, tuple[dict, set]]] = {}
    with Path(path).open(newline="") as fh:
        for row in csv.DictReader(fh):
            d = date.fromisoformat(row["rebalance_date"])
            w, trades = cells.setdefault(row["strategy"], {}).setdefault(d, ({}, set()))
            w[row["ticker"]] = float(row["weight"])
            trades.add((float(row["turnover"]), float(row["fee"])))
    return {
        s: {d: (np.array([w[t] for t in tickers]), trades) for d, (w, trades) in recs.items()}
        for s, recs in cells.items()
    }


def read_nav(path) -> dict[str, tuple[list[date], np.ndarray]]:
    raw: dict[str, tuple[list, list]] = {}
    with Path(path).open(newline="") as fh:
        for row in csv.DictReader(fh):
            dates, values = raw.setdefault(row["strategy"], ([], []))
            dates.append(date.fromisoformat(row["date"]))
            values.append(float(row["nav"]))
    return {s: (d, np.array(v)) for s, (d, v) in raw.items()}


def close(a, b, tol=REL_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def check_calendar(weights, market: Market, start: date, end: date) -> list[str]:
    want = expected_rebalances(market.dates, start, end)
    return [
        f"calendar: {s} rebalances on {len(recs)} dates, expected {len(want)} ({want[0]}..{want[-1]})"
        for s, recs in weights.items()
        if sorted(recs) != want
    ]


def check_simplex(weights) -> list[str]:
    bad = []
    for s, recs in weights.items():
        for d, (w, _) in recs.items():
            if w.min() < 0.0 or abs(w.sum() - 1.0) > 1e-8 or not np.all(np.isfinite(w)):
                bad.append(f"simplex: {s} at {d}: min {w.min()}, sum {w.sum()}")
    return bad


def check_vertex(weights) -> list[str]:
    bad = []
    for s, recs in weights.items():
        if not (s in ("spo_plus", "pto_markowitz") or s.startswith("robust_spo")):
            continue
        for d, (w, _) in recs.items():
            if np.count_nonzero(w == 1.0) != 1 or np.count_nonzero(w) != 1:
                bad.append(f"vertex: {s} at {d} is not one-hot")
    return bad


def rebuild(recs, market: Market, fee_rate: float):
    """Replay one strategy from its target weights: buy-and-hold drift between
    rebalances, fee_rate * ||target - drifted||_1 * nav charged at each.

    Returns (nav dates, nav values, {date: (drifted, turnover, fee)}).
    """
    days = sorted(recs)
    index = [market.dates.index(d) for d in days] + [len(market.dates)]
    n = len(market.tickers)
    live = np.full(n, 1.0 / n)
    nav = 1.0
    dates, navs, trades = [market.dates[index[0] - 1]], [1.0], {}
    for k, d in enumerate(days):
        target = recs[d][0]
        turnover = float(np.abs(target - live).sum())
        trades[d] = (live, turnover, fee_rate * turnover * nav)
        nav *= 1.0 - fee_rate * turnover
        w = target.copy()
        for i in range(index[k], index[k + 1]):
            r = market.returns[i - 1]
            day_ret = float(w @ r)
            nav *= 1.0 + day_ret
            w = w * (1.0 + r) / (1.0 + day_ret)
            dates.append(market.dates[i])
            navs.append(nav)
        live = w
    return dates, np.array(navs), trades


def check_accounting(weights, navs, market: Market, fee_rate: float) -> list[str]:
    bad = []
    for s, recs in weights.items():
        if s not in navs:
            bad.append(f"accounting: {s} has weights but no NAV")
            continue
        dates, values, trades = rebuild(recs, market, fee_rate)
        got_dates, got = navs[s]
        if got_dates != dates:
            bad.append(f"accounting: {s} NAV dates differ from the rebuilt calendar")
            continue
        worst = int(np.argmax(np.abs(got - values) / values))
        if not close(got[worst], values[worst]):
            bad.append(f"accounting: {s} NAV {got[worst]} != rebuilt {values[worst]} on {dates[worst]}")
        for d, (_, turnover, fee) in trades.items():
            for got_turnover, got_fee in recs[d][1]:
                if not (close(got_turnover, turnover) and close(got_fee, fee)):
                    bad.append(f"accounting: {s} at {d}: turnover/fee {got_turnover, got_fee} != rebuilt {turnover, fee}")
    return bad


def check_fee_prior(weights, market: Market, fee_rate: float) -> list[str]:
    """The fee-only oracle buys at most one asset above its drifted holding."""
    bad = []
    for s, recs in weights.items():
        if s != "spo_plus_fee":
            continue
        _, _, trades = rebuild(recs, market, fee_rate)
        for d, (drifted, _, _) in trades.items():
            bought = int((recs[d][0] > drifted + 1e-12).sum())
            if bought > 1:
                bad.append(f"fee prior: {s} at {d} raises {bought} assets above their drifted weights")
    return bad


def check_max_sharpe(weights, market: Market) -> list[str]:
    """Max-Sharpe weights score no lower than the uniform and max-mean vertex starts."""
    bad = []
    returns_dates = market.dates[1:]
    for d, (w, _) in weights.get("max_sharpe", {}).items():
        lo = bisect_left(returns_dates, months_back(d, LOOKBACK_MONTHS))
        hi = bisect_left(returns_dates, d)
        x = market.returns[lo:hi]
        mean = x.mean(axis=0)
        xc = x - mean
        sigma = xc.T @ xc / (len(x) - 1)
        n = mean.size
        loaded = sigma + max(1e-6 * np.trace(sigma) / n, 1e-12) * np.eye(n)
        if mean.max() > 0:
            def score(v):
                return float(mean @ v) / np.sqrt(float(v @ loaded @ v))
        else:
            def score(v):
                return -float(v @ loaded @ v)
        got = score(w)
        for name, start in (("uniform", np.full(n, 1.0 / n)), ("max-mean vertex", np.eye(n)[int(np.argmax(mean))])):
            ref = score(start)
            if got < ref - 1e-10 * max(1.0, abs(ref)):
                bad.append(f"max_sharpe at {d}: score {got} below the {name} start {ref}")
    return bad


def metrics_row(values: np.ndarray) -> dict:
    values = values / values[0]
    rets = values[1:] / values[:-1] - 1.0
    t = rets.size
    std = float(rets.std(ddof=1)) if t > 1 else 0.0
    downside = np.minimum(rets, 0.0)
    n_down = int((rets < 0).sum())
    dstd = np.sqrt((downside * downside).sum() / t)
    return {
        "annualized_return": ((values[-1] / values[0]) ** (TRADING_DAYS / t) - 1.0) * 100.0,
        "annualized_volatility": std * np.sqrt(TRADING_DAYS) * 100.0,
        "sharpe": float(rets.mean() / std * np.sqrt(TRADING_DAYS)) if std > 0 else None,
        "sortino": float(rets.mean() / dstd * np.sqrt(TRADING_DAYS)) if n_down and dstd > 0 else None,
        "max_drawdown": float((values / np.maximum.accumulate(values) - 1.0).min()) * 100.0,
    }


def check_metrics(metrics_path, navs) -> list[str]:
    report = json.loads(Path(metrics_path).read_text())
    bad = []
    if sorted(report) != sorted(navs):
        bad.append(f"metrics: strategies {sorted(report)} != NAV strategies {sorted(navs)}")
    for s, (_, values) in navs.items():
        want = metrics_row(values)
        got = report.get(s, {}).get("full", {})
        for key, ref in want.items():
            val = got.get(key, "missing")
            if val == "missing" or (ref is None) != (val is None) or (ref is not None and not close(val, ref)):
                bad.append(f"metrics: {s}.full.{key} = {val}, recomputed {ref}")
    return bad


def check_backtest(out_dir, market: Market, roster, start: date, end: date, fee_rate: float) -> list[str]:
    out_dir = Path(out_dir)
    weights = read_weights(out_dir / "weights.csv", market.tickers)
    navs = read_nav(out_dir / "nav.csv")
    bad = []
    if sorted(weights) != sorted(roster):
        bad.append(f"roster: weights.csv has {sorted(weights)}, expected {sorted(roster)}")
    bad += check_calendar(weights, market, start, end)
    bad += check_simplex(weights)
    bad += check_vertex(weights)
    bad += check_fee_prior(weights, market, fee_rate)
    bad += check_max_sharpe(weights, market)
    bad += check_accounting(weights, navs, market, fee_rate)
    bad += check_metrics(out_dir / "metrics.json", navs)
    return bad


def check_panel(path, market: Market) -> list[str]:
    want = [
        (d.isoformat(), t, market.adj_close[i, j], market.volume[i, j])
        for i, d in enumerate(market.dates)
        for j, t in enumerate(market.tickers)
    ]
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        if next(reader) != ["date", "ticker", "adj_close", "volume"]:
            return ["panel: bad header"]
        got = [(r[0], r[1], float(r[2]), float(r[3])) for r in reader]
    if got == want:
        return []
    if len(got) != len(want):
        return [f"panel: {len(got)} rows, expected {len(want)} from the calendar intersection"]
    k = next(k for k, (a, b) in enumerate(zip(got, want)) if a != b)
    return [f"panel: row {k + 2} is {got[k]}, expected {want[k]}"]


def check_dropped(stdout: str, market: Market) -> list[str]:
    want = market.n_union - len(market.dates)
    for line in stdout.splitlines():
        if line.startswith("dropped non-common dates:"):
            got = int(line.split(":")[1])
            return [] if got == want else [f"dropped dates: printed {got}, expected {want}"]
    return ["dropped dates: no count printed"]


def check_features(path, market: Market, seed: int, n_spot: int = 40) -> list[str]:
    """Row count, then log-return and SMA-ratio cells at seeded (date, ticker) spots."""
    with Path(path).open() as fh:
        header = fh.readline().rstrip("\n").split(",")
        lines = fh.readlines()
    n = len(market.tickers)
    want_rows = (len(market.dates) - INDICATOR_WARMUP) * n
    if len(lines) != want_rows:
        return [f"features: {len(lines)} rows, expected {want_rows}"]
    col = {name: k for k, name in enumerate(header)}
    px = market.adj_close
    rng = np.random.Generator(np.random.PCG64(seed))
    bad = []
    for _ in range(n_spot):
        i = int(rng.integers(INDICATOR_WARMUP, len(market.dates)))
        j = int(rng.integers(n))
        cells = lines[(i - INDICATOR_WARMUP) * n + j].rstrip("\n").split(",")
        if cells[:2] != [market.dates[i].isoformat(), market.tickers[j]]:
            bad.append(f"features: row for {market.dates[i]} {market.tickers[j]} is {cells[:2]}")
            continue
        want = {
            "log_ret_1d": float(np.log(px[i, j] / px[i - 1, j])),
            "sma5_ratio": float(px[i - 4 : i + 1, j].mean() / px[i, j]),
            "sma20_ratio": float(px[i - 19 : i + 1, j].mean() / px[i, j]),
        }
        for name, ref in want.items():
            got = float(cells[col[name]])
            if not close(got, ref, 1e-8):
                bad.append(f"features: {name} at {market.dates[i]} {market.tickers[j]} = {got}, recomputed {ref}")
    return bad


def check_ingest(out_dir, market: Market, stdout: str, seed: int) -> list[str]:
    out_dir = Path(out_dir)
    return (
        check_panel(out_dir / "panel.csv", market)
        + check_dropped(stdout, market)
        + check_features(out_dir / "features.csv", market, seed)
    )
