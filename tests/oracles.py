"""Independent reference oracles used to verify the solvers and the SPO+ bound.

These deliberately avoid the production algorithms: decision problems are
checked against exhaustive evaluation over simplex grids (augmented with the
kink values implied by the prior weights, so piecewise-linear optima land on
the grid), one-asset-wins problems against direct vertex enumeration, and the
fee-penalized problems at any size against a dense two-phase simplex LP over
the epigraph polytope. `reference_indicators` is the full-width indicator
formula that `features.compute_indicators` computes one asset block at a time.
The CSV readers at the end parse every CSV artifact
(`panel.csv`, `features.csv`, `nav.csv`, `weights.csv`, `hparams.csv`,
`metrics.csv` and the plot data) back, cell by cell, for round-trip tests of
their writers.
"""

from __future__ import annotations

import csv
from datetime import date
from itertools import combinations
from pathlib import Path

import numpy as np

from dfolio.features import (
    BOLL_SIGMA,
    BOLL_WINDOW,
    MACD_FAST,
    MACD_SIGNAL,
    MACD_SLOW,
    RSI_PERIOD,
    SMA_LONG,
    SMA_SHORT,
    VOL_WINDOW,
    WARMUP,
    FeatureTensor,
)
from dfolio.market_data import MarketFrame
from dfolio.metrics import MetricsRow
from dfolio.solvers import MAX_RETURN, DecisionProblem


def kink_values(w_prev: np.ndarray) -> np.ndarray:
    """Coordinate values where fee-penalized optima can sit: priors and leftovers."""
    p = np.asarray(w_prev, dtype=float)
    vals = set(p.tolist()) | {0.0, 1.0}
    idx = range(p.size)
    for k in range(p.size + 1):
        for subset in combinations(idx, k):
            vals.add(float(np.clip(1.0 - p[list(subset)].sum(), 0.0, 1.0)))
    return np.array(sorted(vals))


_BASE_GRID_CACHE: dict = {}


def _axis_points(step: float, extras=()) -> np.ndarray:
    axis = np.concatenate([np.arange(0.0, 1.0 + step / 2, step), np.asarray(extras, dtype=float)])
    return np.unique(np.clip(axis, 0.0, 1.0))


def _grid_from_axes(n: int, ax1: np.ndarray, ax2: np.ndarray | None) -> np.ndarray:
    if n == 2:
        return np.stack([ax1, 1.0 - ax1], axis=1)
    a, b = np.meshgrid(ax1, ax2, indexing="ij")
    w1, w2 = a.ravel(), b.ravel()
    w3 = 1.0 - w1 - w2
    keep = w3 >= -1e-12
    return np.stack([w1[keep], w2[keep], np.maximum(w3[keep], 0.0)], axis=1)


def simplex_grid(n: int, step: float, extras=()) -> np.ndarray:
    """All simplex points whose free coordinates lie on the augmented axis.

    The uniform (extras-free) part is cached per (n, step); augmented rows
    cross each extra value with the full uniform axis so kink-structured
    optima land exactly on the grid.
    """
    if n not in (2, 3):
        raise ValueError("grid oracle supports n in {2, 3}")
    key = (n, step)
    if key not in _BASE_GRID_CACHE:
        base_axis = _axis_points(step)
        _BASE_GRID_CACHE[key] = _grid_from_axes(n, base_axis, base_axis if n == 3 else None)
    parts = [_BASE_GRID_CACHE[key]]
    extras = np.asarray([e for e in np.atleast_1d(np.asarray(extras, dtype=float))], dtype=float)
    if extras.size:
        extras = np.unique(np.clip(extras, 0.0, 1.0))
        if n == 2:
            parts.append(_grid_from_axes(2, extras, None))
        else:
            base_axis = _axis_points(step)
            full = np.unique(np.concatenate([base_axis, extras]))
            parts.append(_grid_from_axes(3, extras, full))
            parts.append(_grid_from_axes(3, full, extras))
    return np.concatenate(parts, axis=0)


def local_grid(center: np.ndarray, radius: float, step: float) -> np.ndarray:
    """Fine simplex grid in a box around `center` (first n-1 coordinates)."""
    n = center.size
    axes = [
        np.clip(np.arange(c - radius, c + radius + step / 2, step), 0.0, 1.0)
        for c in center[: n - 1]
    ]
    if n == 2:
        w1 = np.unique(axes[0])
        return np.stack([w1, 1.0 - w1], axis=1)
    a, b = np.meshgrid(np.unique(axes[0]), np.unique(axes[1]), indexing="ij")
    w1, w2 = a.ravel(), b.ravel()
    w3 = 1.0 - w1 - w2
    keep = w3 >= -1e-12
    return np.stack([w1[keep], w2[keep], np.maximum(w3[keep], 0.0)], axis=1)


def penalty_values(W: np.ndarray, prob: DecisionProblem) -> np.ndarray:
    pen = np.zeros(W.shape[0])
    if prob.gamma > 0:
        pen -= prob.gamma * np.abs(W - prob.w_prev.weights).sum(axis=1)
    if prob.lam > 0:
        pen -= prob.lam * (W * W).sum(axis=1)
    return pen


def objective_values(W: np.ndarray, coeff: np.ndarray, prob: DecisionProblem) -> np.ndarray:
    return W @ coeff + penalty_values(W, prob)


def grid_argmax(coeff: np.ndarray, prob: DecisionProblem, step: float = 1e-3, refine: bool = False):
    """Brute-force argmax of coeff.w + penalty(w) over the (augmented) simplex grid.

    refine=True adds a fine local pass, needed for smooth (ridge) objectives
    whose optima sit between coarse grid points.
    """
    coeff = np.asarray(coeff, dtype=float)
    n = coeff.size
    if prob.kind == MAX_RETURN:
        i = int(np.argmax(coeff))
        w = np.zeros(n)
        w[i] = 1.0
        return w, float(coeff[i])
    extras = kink_values(prob.w_prev.weights)
    W = simplex_grid(n, step, extras)
    vals = objective_values(W, coeff, prob)
    best = int(np.argmax(vals))
    w_best, v_best = W[best], float(vals[best])
    if refine:
        W2 = local_grid(w_best, radius=2 * step, step=step / 50)
        vals2 = objective_values(W2, coeff, prob)
        b2 = int(np.argmax(vals2))
        if vals2[b2] > v_best:
            w_best, v_best = W2[b2], float(vals2[b2])
    return w_best, v_best


def grid_regret(r_hat: np.ndarray, r_true: np.ndarray, prob: DecisionProblem,
                step: float = 1e-3, refine: bool = False) -> float:
    """Regret with both the oracle decision and the induced decision taken on the grid.

    The shared grid and its penalty column are evaluated once and reused for
    both argmaxes.
    """
    n = r_true.size
    if prob.kind == MAX_RETURN:
        return float(r_true.max() - r_true[int(np.argmax(r_hat))])
    W = simplex_grid(n, step, kink_values(prob.w_prev.weights))
    pen = penalty_values(W, prob)

    def argmax_for(coeff):
        vals = W @ coeff + pen
        best = int(np.argmax(vals))
        w_best, v_best = W[best], float(vals[best])
        if refine:
            W2 = local_grid(w_best, radius=2 * step, step=step / 50)
            vals2 = objective_values(W2, coeff, prob)
            b2 = int(np.argmax(vals2))
            if vals2[b2] > v_best:
                w_best, v_best = W2[b2], float(vals2[b2])
        return w_best, v_best

    _, star_val = argmax_for(r_true)
    w_hat, _ = argmax_for(r_hat)
    hat_val = float(objective_values(w_hat[None, :], r_true, prob)[0])
    return star_val - hat_val


def sharpe_grid_best(mean: np.ndarray, sigma: np.ndarray, step: float = 2e-3) -> float:
    """Best mean/sqrt(variance) over a two-stage simplex grid (n in {2, 3})."""
    n = mean.size
    W = simplex_grid(n, step)
    vals = (W @ mean) / np.sqrt(np.einsum("bi,ij,bj->b", W, sigma, W))
    best = int(np.argmax(vals))
    W2 = local_grid(W[best], radius=2 * step, step=step / 100)
    vals2 = (W2 @ mean) / np.sqrt(np.einsum("bi,ij,bj->b", W2, sigma, W2))
    return float(max(vals.max(), vals2.max()))


# ---------------------------------------------------------------------------
# Dense tableau primal simplex with Bland's anti-cycling rule (LP reference).
# ---------------------------------------------------------------------------

_LP_TOL = 1e-9
_LP_MAX_PIVOTS = 200_000


class InfeasibleError(RuntimeError):
    pass


class UnboundedError(RuntimeError):
    pass


def _pivot(tab: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    tab[row] /= tab[row, col]
    factors = tab[:, col].copy()
    factors[row] = 0.0
    tab -= np.outer(factors, tab[row])
    basis[row] = col


def solve_lp(
    objective: np.ndarray,
    a_ub: np.ndarray | None = None,
    b_ub: np.ndarray | None = None,
    a_eq: np.ndarray | None = None,
    b_eq: np.ndarray | None = None,
    maximize: bool = True,
):
    """Solve max/min objective . x subject to a_ub x <= b_ub, a_eq x = b_eq, x >= 0.

    Two-phase dense tableau primal simplex with Bland's rule; returns
    (solution, objective value) at an optimal basic solution.
    """
    c = np.asarray(objective, dtype=float).reshape(-1)
    n = c.size
    a_ub = np.zeros((0, n)) if a_ub is None else np.atleast_2d(np.asarray(a_ub, dtype=float))
    b_ub = np.zeros(0) if b_ub is None else np.asarray(b_ub, dtype=float).reshape(-1)
    a_eq = np.zeros((0, n)) if a_eq is None else np.atleast_2d(np.asarray(a_eq, dtype=float))
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float).reshape(-1)
    mu, me = a_ub.shape[0], a_eq.shape[0]
    m = mu + me

    cost = -c if maximize else c.copy()

    # Columns: structural | slack (one per <= row) | artificial (added as needed).
    a = np.zeros((m, n + mu))
    a[:mu, :n] = a_ub
    a[:mu, n : n + mu] = np.eye(mu)
    a[mu:, :n] = a_eq
    b = np.concatenate([b_ub, b_eq])
    flip = b < 0
    a[flip] *= -1.0
    b[flip] *= -1.0

    basis = np.full(m, -1, dtype=int)
    for i in range(mu):
        if not flip[i]:
            basis[i] = n + i
    need_art = np.nonzero(basis < 0)[0]
    n_art = need_art.size
    tab = np.zeros((m, n + mu + n_art + 1))
    tab[:, : n + mu] = a
    tab[:, -1] = b
    for k, i in enumerate(need_art):
        tab[i, n + mu + k] = 1.0
        basis[i] = n + mu + k

    if n_art:
        phase1 = np.zeros(n + mu + n_art)
        phase1[n + mu :] = 1.0
        red = phase1 - tab[:, :-1].T @ phase1[basis]
        _run_simplex(tab, basis, red)
        if phase1[basis] @ tab[:, -1] > 1e-7:
            raise InfeasibleError("LP is infeasible")
        # Pivot any degenerate artificials out of the basis; drop redundant rows.
        keep = np.ones(m, dtype=bool)
        for i in range(m):
            if basis[i] >= n + mu:
                cols = np.nonzero(np.abs(tab[i, : n + mu]) > _LP_TOL)[0]
                if cols.size:
                    _pivot(tab, basis, i, int(cols[0]))
                else:
                    keep[i] = False
        tab = tab[keep]
        basis = basis[keep]
        tab = np.delete(tab, np.s_[n + mu : n + mu + n_art], axis=1)

    cost_full = np.zeros(tab.shape[1] - 1)
    cost_full[:n] = cost
    red = cost_full - tab[:, :-1].T @ cost_full[basis]
    _run_simplex(tab, basis, red)

    x = np.zeros(tab.shape[1] - 1)
    x[basis] = tab[:, -1]
    x = x[:n]
    return x, float(c @ x)


def _run_simplex(tab: np.ndarray, basis: np.ndarray, red: np.ndarray) -> None:
    m = tab.shape[0]
    for _ in range(_LP_MAX_PIVOTS):
        neg = np.nonzero(red < -_LP_TOL)[0]
        if neg.size == 0:
            return
        col = int(neg[0])
        column = tab[:, col]
        pos = column > _LP_TOL
        if not np.any(pos):
            raise UnboundedError("LP is unbounded")
        ratios = np.full(m, np.inf)
        ratios[pos] = tab[pos, -1] / column[pos]
        best = ratios.min()
        candidates = np.nonzero(ratios <= best + _LP_TOL)[0]
        row = int(candidates[np.argmin(basis[candidates])])
        mult = red[col]
        _pivot(tab, basis, row, col)
        red -= mult * tab[row, :-1]
        red[basis[row]] = 0.0
    raise RuntimeError("simplex pivot limit exceeded")


def _fee_polytope(n: int, w_prev: np.ndarray, cap_u: bool):
    """Inequality/equality system for {w in simplex, |w - w_prev| <= u (<= 1)} over (w, u)."""
    rows = 2 * n + (n if cap_u else 0)
    a_ub = np.zeros((rows, 2 * n))
    b_ub = np.zeros(rows)
    eye = np.eye(n)
    a_ub[:n, :n] = eye
    a_ub[:n, n:] = -eye
    b_ub[:n] = w_prev
    a_ub[n : 2 * n, :n] = -eye
    a_ub[n : 2 * n, n:] = -eye
    b_ub[n : 2 * n] = -w_prev
    if cap_u:
        a_ub[2 * n :, n:] = eye
        b_ub[2 * n :] = 1.0
    a_eq = np.zeros((1, 2 * n))
    a_eq[0, :n] = 1.0
    b_eq = np.array([1.0])
    return a_ub, b_ub, a_eq, b_eq


def lp_fee_argmax(coeff: np.ndarray, prob: DecisionProblem):
    """(w, value) maximizing coeff.w - gamma*||w - w_prev||_1, by the epigraph LP."""
    coeff = np.asarray(coeff, dtype=float)
    n = coeff.size
    c = np.concatenate([coeff, -prob.gamma * np.ones(n)])
    x, value = solve_lp(c, *_fee_polytope(n, prob.w_prev.weights, cap_u=False), maximize=True)
    return x[:n], value


def lp_fee_l2_gap(r_hat: np.ndarray, prob: DecisionProblem, w: np.ndarray) -> float:
    """Frank-Wolfe duality gap of w for the fee+ridge problem, with the LP as the oracle.

    The linear model of the objective at w over the lifted polytope
    {w in simplex, |w - w_prev| <= u <= 1} has gradient (r_hat - 2 lam w, -gamma);
    the gap is the model's LP maximum minus its value at (w, |w - w_prev|).
    """
    n = r_hat.size
    p = prob.w_prev.weights
    grad = np.concatenate([r_hat - 2.0 * prob.lam * w, -prob.gamma * np.ones(n)])
    _, best = solve_lp(grad, *_fee_polytope(n, p, cap_u=True), maximize=True)
    return best - float(grad @ np.concatenate([w, np.abs(w - p)]))


def lp_fee_min_turnover(coeff: np.ndarray, prob: DecisionProblem, value: float, slack: float = 1e-9) -> float:
    """Least ||w - w_prev||_1 over decisions whose fee objective is within slack of value."""
    coeff = np.asarray(coeff, dtype=float)
    n = coeff.size
    a_ub, b_ub, a_eq, b_eq = _fee_polytope(n, prob.w_prev.weights, cap_u=False)
    floor = np.concatenate([-coeff, prob.gamma * np.ones(n)])
    a_ub = np.vstack([a_ub, floor])
    b_ub = np.append(b_ub, slack - value)
    _, turnover = solve_lp(np.concatenate([np.zeros(n), np.ones(n)]), a_ub, b_ub, a_eq, b_eq, maximize=False)
    return turnover


def _ref_rolling_mean(x: np.ndarray, window: int) -> np.ndarray:
    out = np.full_like(x, np.nan)
    csum = np.cumsum(x, axis=0)
    out[window - 1 :] = csum[window - 1 :].copy()
    out[window:] -= csum[:-window]
    out[window - 1 :] /= window
    return out


def _ref_rolling_std(x: np.ndarray, window: int) -> np.ndarray:
    mean = _ref_rolling_mean(x, window)
    mean_sq = _ref_rolling_mean(x * x, window)
    var = np.maximum(mean_sq - mean * mean, 0.0)
    return np.sqrt(var)


def _ref_ema(x: np.ndarray, span: int) -> np.ndarray:
    alpha = 2.0 / (span + 1.0)
    out = np.empty_like(x)
    out[0] = x[0]
    for t in range(1, x.shape[0]):
        out[t] = alpha * x[t] + (1.0 - alpha) * out[t - 1]
    return out


def _ref_wilder_rsi(prices: np.ndarray, period: int) -> np.ndarray:
    delta = np.diff(prices, axis=0)
    gain = np.maximum(delta, 0.0)
    loss = np.maximum(-delta, 0.0)
    t_total, n = prices.shape
    avg_gain = np.full((t_total, n), np.nan)
    avg_loss = np.full((t_total, n), np.nan)
    if t_total <= period:
        return np.full((t_total, n), np.nan)
    avg_gain[period] = gain[:period].mean(axis=0)
    avg_loss[period] = loss[:period].mean(axis=0)
    for t in range(period + 1, t_total):
        avg_gain[t] = (avg_gain[t - 1] * (period - 1) + gain[t - 1]) / period
        avg_loss[t] = (avg_loss[t - 1] * (period - 1) + loss[t - 1]) / period
    rsi = np.full((t_total, n), np.nan)
    valid = ~np.isnan(avg_gain)
    g, l = avg_gain[valid], avg_loss[valid]
    vals = np.where(
        l > 0,
        100.0 - 100.0 / (1.0 + g / np.where(l > 0, l, 1.0)),
        np.where(g > 0, 100.0, 50.0),
    )
    rsi[valid] = vals
    return rsi


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def reference_indicators(frame: MarketFrame) -> FeatureTensor:
    """compute_indicators as one full-width pass: eight (dates, assets) arrays, stacked, warm-up rows cut."""
    warmup = WARMUP
    px = frame.adj_close
    vol = frame.volume

    log_ret = np.full_like(px, np.nan)
    log_ret[1:] = np.log(px[1:] / px[:-1])

    sma_s = _ref_rolling_mean(px, SMA_SHORT)
    sma_l = _ref_rolling_mean(px, SMA_LONG)
    bias = (px - sma_l) / sma_l

    rsi = (_ref_wilder_rsi(px, RSI_PERIOD) - 50.0) / 50.0

    macd_line = _ref_ema(px, MACD_FAST) - _ref_ema(px, MACD_SLOW)
    macd_hist = (macd_line - _ref_ema(macd_line, MACD_SIGNAL)) / px

    boll_mid = _ref_rolling_mean(px, BOLL_WINDOW)
    boll_width = 2.0 * BOLL_SIGMA * _ref_rolling_std(px, BOLL_WINDOW) / boll_mid

    vol_ratio = vol / np.maximum(_ref_rolling_mean(vol, VOL_WINDOW), 1e-12) - 1.0

    names = (
        "log_ret_1d",
        f"sma{SMA_SHORT}_ratio",
        f"sma{SMA_LONG}_ratio",
        "bias",
        f"rsi{RSI_PERIOD}",
        "macd_hist",
        "boll_width",
        "vol_ratio",
    )
    stacked = np.stack(
        [log_ret, sma_s / px, sma_l / px, bias, rsi, macd_hist, boll_width, vol_ratio],
        axis=-1,
    )
    return FeatureTensor(
        dates=frame.dates[warmup:],
        tickers=frame.tickers,
        features=stacked[warmup:],
        feature_names=names,
    )


def read_features_csv(path) -> FeatureTensor:
    """Inverse of features.write_features_csv."""
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        names = tuple(header[2:])
        cells: dict[date, dict[str, list[float]]] = {}
        for row in reader:
            d = date.fromisoformat(row[0])
            cells.setdefault(d, {})[row[1]] = [float(v) for v in row[2:]]
    dates = tuple(sorted(cells))
    tickers = tuple(sorted(cells[dates[0]]))
    feats = np.array([[cells[d][t] for t in tickers] for d in dates])
    return FeatureTensor(dates=dates, tickers=tickers, features=feats, feature_names=names)


def read_panel_csv(path) -> MarketFrame:
    """Inverse of reports.write_panel_csv."""
    cells: dict[date, dict[str, tuple[float, float]]] = {}
    with Path(path).open(newline="") as fh:
        for row in csv.DictReader(fh):
            d = date.fromisoformat(row["date"])
            cells.setdefault(d, {})[row["ticker"]] = (float(row["adj_close"]), float(row["volume"]))
    dates = tuple(sorted(cells))
    tickers = tuple(sorted(cells[dates[0]]))
    adj = np.array([[cells[d][t][0] for t in tickers] for d in dates])
    vol = np.array([[cells[d][t][1] for t in tickers] for d in dates])
    return MarketFrame(dates=dates, tickers=tickers, adj_close=adj, volume=vol)


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
