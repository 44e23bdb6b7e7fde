"""Performance metrics over NAV series: return, volatility, Sharpe, Sortino, MaxDD.

Conventions: 252 trading days per year, zero risk-free rate, geometric
annualization of returns. Return, volatility, and drawdown are reported in
percent; Sharpe and Sortino are dimensionless and None when undefined (zero
volatility / no downside days).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import asdict, dataclass
from datetime import date
from typing import Sequence

import numpy as np

TRADING_DAYS = 252


@dataclass(frozen=True)
class MetricsRow:
    annualized_return: float
    annualized_volatility: float
    sharpe: float | None
    sortino: float | None
    max_drawdown: float

    def as_dict(self) -> dict:
        return asdict(self)


def compute_metrics(dates: Sequence[date], nav: Sequence[float]) -> MetricsRow:
    """Metrics over a NAV series with one date per point; restrict_nav selects a sub-period.

    The Sortino denominator divides the downside sum of squares by all
    observations, not only the negative days.
    """
    values = np.asarray(nav, dtype=float)
    if len(dates) != values.size:
        raise ValueError(f"{len(dates)} dates for {values.size} NAV points")
    if values.size < 2:
        raise ValueError("need at least 2 NAV points")
    if np.any(values <= 0):
        raise ValueError("NAV must be positive")

    rets = values[1:] / values[:-1] - 1.0
    t = rets.size
    ann_return = (values[-1] / values[0]) ** (TRADING_DAYS / t) - 1.0
    std = float(rets.std(ddof=1)) if t > 1 else 0.0
    ann_vol = std * np.sqrt(TRADING_DAYS)

    sharpe = None
    if std > 0:
        sharpe = float(rets.mean() / std * np.sqrt(TRADING_DAYS))

    downside = np.minimum(rets, 0.0)
    n_down = int((rets < 0).sum())
    sortino = None
    if n_down > 0:
        dstd = np.sqrt((downside * downside).sum() / t)
        if dstd > 0:
            sortino = float(rets.mean() / dstd * np.sqrt(TRADING_DAYS))

    running_max = np.maximum.accumulate(values)
    max_dd = float((values / running_max - 1.0).min())

    return MetricsRow(
        annualized_return=float(ann_return) * 100.0,
        annualized_volatility=float(ann_vol) * 100.0,
        sharpe=sharpe,
        sortino=sortino,
        max_drawdown=max_dd * 100.0,
    )


def span_bounds(dates: Sequence[date], start: date | None, end: date | None) -> tuple[int, int]:
    """Index bounds [lo, hi) of the NAV dates within [start, end]; at least 2 points."""
    lo = 0 if start is None else bisect_left(dates, start)
    hi = len(dates) if end is None else bisect_right(dates, end)
    if hi - lo < 2:
        raise ValueError(f"span [{start}, {end}] covers fewer than 2 NAV points")
    return lo, hi


def restrict_nav(dates: Sequence[date], nav: Sequence[float], start: date | None, end: date | None):
    """NAV slice within [start, end], renormalized to 1.0 at the span start."""
    dates = list(dates)
    lo, hi = span_bounds(dates, start, end)
    sliced = np.asarray(nav, dtype=float)[lo:hi]
    return dates[lo:hi], sliced / sliced[0]


def subperiod_report(
    nav_by_strategy: dict,
    spans: dict[str, tuple[date | None, date | None]],
) -> dict[str, dict[str, MetricsRow]]:
    """MetricsRow per strategy per named span (NAV renormalized at span start).

    nav_by_strategy maps strategy -> (dates, nav values).
    """
    report: dict[str, dict[str, MetricsRow]] = {}
    for name, (dates, nav) in nav_by_strategy.items():
        rows = {}
        for span_name, (start, end) in spans.items():
            sub_dates, sub_nav = restrict_nav(dates, nav, start, end)
            rows[span_name] = compute_metrics(sub_dates, sub_nav)
        report[name] = rows
    return report
