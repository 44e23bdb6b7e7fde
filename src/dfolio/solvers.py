"""Portfolio decision solvers over the long-only full-investment simplex.

Every oracle or baseline decision used anywhere in the project lives here:
vertex argmax, the exact closed-form oracles for the fee-penalized LP (keep
the prior or sell it to the best buy) and the fee+ridge QP (breakpoint root,
certified by a closed-form duality gap), mean-variance max-Sharpe (one
nonnegative QP, solved exactly by an active set), and covariance estimation.
The fee and fee+ridge oracles are batched over coefficient rows for the
training loops; the single-decision solvers wrap them. All solvers are pure,
deterministic, and tie-break by lowest asset index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .market_data import _adopt
from .util import DfolioError

MAX_RETURN = "max_return"
MAX_RETURN_FEE = "max_return_fee"
MAX_RETURN_FEE_L2 = "max_return_fee_l2"
PROBLEM_KINDS = (MAX_RETURN, MAX_RETURN_FEE, MAX_RETURN_FEE_L2)


class SolverError(DfolioError, RuntimeError):
    pass


@dataclass(frozen=True)
class Portfolio:
    """Long-only weights summing to one; tiny negative round-off is clamped."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if w.min(initial=0.0) < -1e-10:
            raise ValueError(f"negative weight {w.min()} below tolerance")
        w = np.maximum(w, 0.0)
        if abs(w.sum() - 1.0) > 1e-8:
            raise ValueError(f"weights sum to {w.sum()}, expected 1")
        object.__setattr__(self, "weights", _adopt(w))

    @property
    def n_assets(self) -> int:
        return self.weights.size

    @staticmethod
    def uniform(n: int) -> "Portfolio":
        return Portfolio(np.full(n, 1.0 / n))


@dataclass(frozen=True)
class DecisionProblem:
    """Oracle specification: objective kind, fee and ridge strengths, prior holdings."""

    kind: str = MAX_RETURN
    gamma: float = 0.0
    lam: float = 0.0
    w_prev: Portfolio | None = None

    def __post_init__(self):
        if self.kind not in PROBLEM_KINDS:
            raise ValueError(f"unknown problem kind {self.kind!r}")
        if self.gamma < 0 or self.lam < 0:
            raise ValueError("gamma and lam must be >= 0")
        if self.kind == MAX_RETURN and (self.gamma != 0 or self.lam != 0):
            raise ValueError("max_return requires gamma = lam = 0")
        if self.kind == MAX_RETURN_FEE and self.lam != 0:
            raise ValueError("max_return_fee requires lam = 0")
        if self.kind == MAX_RETURN_FEE_L2 and self.lam <= 0:
            raise ValueError("max_return_fee_l2 requires lam > 0")
        if self.kind != MAX_RETURN and self.w_prev is None:
            raise ValueError(f"{self.kind} requires w_prev")


@dataclass(frozen=True)
class CovarianceEstimate:
    """Sample mean/covariance with explicit diagonal loading."""

    mean: np.ndarray
    sigma: np.ndarray
    ridge: float = 0.0

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).reshape(-1)
        sigma = np.asarray(self.sigma, dtype=float)
        n = mean.size
        if sigma.shape != (n, n):
            raise ValueError("sigma shape must match mean")
        if not np.allclose(sigma, sigma.T, atol=1e-10):
            raise ValueError("sigma must be symmetric")
        try:
            np.linalg.cholesky(sigma + self.ridge * np.eye(n))
        except np.linalg.LinAlgError:
            raise SolverError("covariance not positive definite after ridge loading") from None
        object.__setattr__(self, "mean", _adopt(mean))
        object.__setattr__(self, "sigma", _adopt(sigma))

    @property
    def loaded(self) -> np.ndarray:
        return self.sigma + self.ridge * np.eye(self.mean.size)


def estimate_covariance(returns: np.ndarray) -> CovarianceEstimate:
    """Sample mean and covariance (N-1 denominator) plus ridge loading.

    The ridge is 1e-6 * trace(sigma) / n, floored at 1e-12 so a flat
    (zero-variance) window still yields a positive-definite estimate.
    """
    x = np.asarray(returns, dtype=float)
    t, n = x.shape
    if t < n + 2:
        raise ValueError(f"covariance window of {t} rows too short for {n} assets (need >= {n + 2})")
    mean = x.mean(axis=0)
    xc = x - mean
    sigma = (xc.T @ xc) / (t - 1)
    ridge = max(1e-6 * np.trace(sigma) / n, 1e-12)
    return CovarianceEstimate(mean=mean, sigma=sigma, ridge=float(ridge))


def solve_max_return(coeff: np.ndarray) -> Portfolio:
    """Vertex argmax of a linear objective; ties go to the lowest index."""
    coeff = np.asarray(coeff, dtype=float).reshape(-1)
    if not np.all(np.isfinite(coeff)):
        raise ValueError("objective coefficients must be finite")
    return Portfolio(argmax_batch(coeff[None], DecisionProblem())[0])


# ---------------------------------------------------------------------------
# Fee-penalized and fee+ridge decisions: thin wrappers over the exact batch
# oracles below, the fee+ridge one certified by a closed-form duality gap.
# ---------------------------------------------------------------------------

# A certified fee+ridge decision is within this much of the optimal objective.
_GAP_TOL = 1e-9


def solve_fee(r_hat: np.ndarray, prob: DecisionProblem) -> Portfolio:
    """Maximize r_hat . w - gamma * ||w - w_prev||_1 over the simplex (exact, closed form)."""
    if prob.kind != MAX_RETURN_FEE:
        raise ValueError(f"solve_fee requires kind={MAX_RETURN_FEE}, got {prob.kind}")
    r_hat = np.asarray(r_hat, dtype=float).reshape(-1)
    return Portfolio(_fee_argmax_batch(r_hat[None, :], prob.gamma, prob.w_prev.weights)[0])


def solve_fee_l2(r_hat: np.ndarray, prob: DecisionProblem) -> Portfolio:
    """Maximize r_hat . w - gamma * ||w - w_prev||_1 - lam * ||w||_2^2 over the simplex.

    Solved exactly by the breakpoint-root oracle, then certified: raises
    SolverError if the duality gap (fee_l2_gap) exceeds 1e-9.
    """
    if prob.kind != MAX_RETURN_FEE_L2:
        raise ValueError(f"solve_fee_l2 requires kind={MAX_RETURN_FEE_L2}, got {prob.kind}")
    r_hat = np.asarray(r_hat, dtype=float).reshape(-1)
    w = _fee_l2_argmax_batch(r_hat[None, :], prob.gamma, prob.lam, prob.w_prev.weights)[0]
    gap = fee_l2_gap(r_hat, prob, w)
    if not gap <= _GAP_TOL:
        raise SolverError(f"fee+ridge decision not certified: duality gap {gap:.3g} > {_GAP_TOL:g}")
    return Portfolio(w)


def fee_l2_gap(r_hat: np.ndarray, prob: DecisionProblem, w: np.ndarray) -> float:
    """Frank-Wolfe duality gap of w for the fee+ridge problem: a bound on its suboptimality.

    The objective is concave, so it lies below its model at w,
    v . x - gamma * ||x - w_prev||_1 (plus a constant) with v = r_hat - 2 lam w,
    whose maximizer s over the simplex is the fee oracle's answer for v. The
    gap is the model's value at s minus its value at w.
    """
    p = prob.w_prev.weights
    v = np.asarray(r_hat, dtype=float).reshape(-1) - 2.0 * prob.lam * np.asarray(w, dtype=float)
    s = _fee_argmax_batch(v[None, :], prob.gamma, p)[0]

    def model(x):
        return float(v @ x) - prob.gamma * float(np.abs(x - p).sum())

    return model(s) - model(w)


# ---------------------------------------------------------------------------
# Max-Sharpe baseline: one nonnegative QP, solved exactly by an active set.
# ---------------------------------------------------------------------------


def solve_max_sharpe(est: CovarianceEstimate) -> Portfolio:
    """Maximize mean/sqrt(variance) over the simplex, exactly.

    The maximizer is y / sum(y) for y = argmin 1/2 y'Sy - c'y over y >= 0, with
    S the loaded covariance and c the mean. When no mean is positive, c = 1
    gives the minimum-variance portfolio instead.
    """
    c = est.mean if est.mean.max() > 0.0 else np.ones(est.mean.size)
    y = _nonneg_qp(est.loaded, c)
    return Portfolio(y / y.sum())


def _nonneg_qp(q: np.ndarray, c: np.ndarray) -> np.ndarray:
    """argmin 1/2 y'Qy - c'y over y >= 0 for positive-definite Q (Lawson-Hanson active set).

    Each pass frees the bound coordinate with the largest descent c - Qy and
    solves the free block exactly, stepping back to the boundary when a free
    coordinate would go non-positive. It stops once every bound coordinate has
    descent <= 1e-12 * max|c| (the KKT certificate) and raises SolverError if
    that takes more than 3n + 3 passes.
    """
    n = c.size
    tol = 1e-12 * np.abs(c).max()
    y = np.zeros(n)
    free = np.zeros(n, dtype=bool)
    for _ in range(3 * n + 3):
        descent = np.where(free, -np.inf, c - q @ y)
        j = int(np.argmax(descent))
        if descent[j] <= tol:
            return y
        free[j] = True
        while True:
            idx = np.flatnonzero(free)
            z = np.linalg.solve(q[np.ix_(idx, idx)], c[idx])
            if np.all(z > 0.0):
                y[idx] = z
                break
            yf = y[idx]
            cut = z <= 0.0
            step = yf[cut] / (yf[cut] - z[cut])
            k = int(np.argmin(step))
            y[idx] = yf + step[k] * (z - yf)
            y[idx[np.flatnonzero(cut)[k]]] = 0.0
            free &= y > 0.0
            y[~free] = 0.0
    raise SolverError(f"nonnegative QP not solved in {3 * n + 3} active-set passes")


# ---------------------------------------------------------------------------
# Exact closed-form batch oracles, vectorized across coefficient rows.
#
# The fee problem keeps each asset's prior or sells it to the first argmax, in
# closed form; the fee+ridge problem has a one-dimensional dual root on a
# piecewise-linear curve, found exactly from its sorted breakpoints. Tests pin
# them to a dense-simplex LP reference and to brute-force grids.
# ---------------------------------------------------------------------------


def argmax_batch(v_rows: np.ndarray, prob: DecisionProblem) -> np.ndarray:
    """Argmax_w of v . w + penalty(w) over the simplex, one row of w per row of v."""
    v = np.atleast_2d(np.asarray(v_rows, dtype=float))
    if prob.kind == MAX_RETURN:
        out = np.zeros_like(v)
        out[np.arange(v.shape[0]), np.argmax(v, axis=1)] = 1.0
        return out
    if prob.kind == MAX_RETURN_FEE:
        return _fee_argmax_batch(v, prob.gamma, prob.w_prev.weights)
    return _fee_l2_argmax_batch(v, prob.gamma, prob.lam, prob.w_prev.weights)


def penalty_batch(w_rows: np.ndarray, prob: DecisionProblem) -> np.ndarray:
    """Prediction-independent concave part of the objective, one value per row of w."""
    w = np.atleast_2d(w_rows)
    out = np.zeros(w.shape[0])
    if prob.gamma > 0:
        out -= prob.gamma * np.abs(w - prob.w_prev.weights).sum(axis=1)
    if prob.lam > 0:
        out -= prob.lam * (w * w).sum(axis=1)
    return out


def _fee_argmax_batch(v: np.ndarray, gamma: float, p: np.ndarray) -> np.ndarray:
    """Exact maximizer of v.w - gamma * ||w - p||_1 over the simplex: keep or sell.

    Holding a unit of asset i that is already held is worth v_i + gamma (the
    sell fee it saves); buying a unit of asset j is worth v_j - gamma, best at
    j, the first argmax of v. The prior p fills all of the simplex, so every
    asset keeps its prior unless v_i + gamma < v_j - gamma, and then its mass
    moves to j. Slope ties keep the prior.
    """
    rows = np.arange(v.shape[0])
    j = np.argmax(v, axis=1)
    sell = v + gamma < (v[rows, j] - gamma)[:, None]
    w = np.where(sell, 0.0, p)
    w[rows, j] += np.where(sell, p, 0.0).sum(axis=1)
    return w


def _fee_l2_argmax_batch(v: np.ndarray, gamma: float, lam: float, p: np.ndarray) -> np.ndarray:
    """Exact maximizer of v.w - gamma*||w - p||_1 - lam*||w||^2 over the simplex.

    Coordinatewise KKT gives w_i(mu) as a clipped soft shift around the kink at
    p_i, where mu is the simplex multiplier. Each w_i(mu) is piecewise linear
    and nondecreasing, with breakpoints -v_i - gamma (leaves 0),
    2 lam p_i - v_i - gamma (reaches p_i) and 2 lam p_i - v_i + gamma (leaves
    p_i), where its slope changes by +1, -1 and +1 times 1/(2 lam). Sorting the
    3n breakpoints and accumulating those changes gives sum_i w_i at every
    breakpoint; the root of sum_i w_i(mu) = 1 is interpolated on its piece.
    """
    b, n = v.shape
    half_gap = gamma / (2.0 * lam)
    inv = 1.0 / (2.0 * lam)
    kink = 2.0 * lam * p - v
    points = np.concatenate([-v - gamma, kink - gamma, kink + gamma], axis=1)
    order = np.argsort(points, axis=1)
    points = np.take_along_axis(points, order, axis=1)
    step = np.repeat([1.0, -1.0, 1.0], n)[order]
    # Between breakpoints k and k+1, sum_i w_i(mu) = (slope_k * mu - offset_k) / (2 lam).
    slope = np.cumsum(step, axis=1)
    offset = np.cumsum(step * points, axis=1)
    total = (slope * points - offset) * inv
    # The root lies on the piece after the last breakpoint with total <= 1, so
    # the interpolation weight stays in [0, 1) even where round-off makes a
    # flat piece (every coordinate at its kink or at 0) wobble around 1. Past
    # the last breakpoint every coordinate is linear: slope n / (2 lam).
    rows = np.arange(b)
    k = 3 * n - 1 - np.argmax(total[:, ::-1] <= 1.0, axis=1)
    k1 = np.minimum(k + 1, 3 * n - 1)
    inner = k1 > k
    rise = np.where(inner, total[rows, k1] - total[rows, k], n * inv)
    run = np.where(inner, points[rows, k1] - points[rows, k], 1.0)
    mu = points[rows, k] + (1.0 - total[rows, k]) * run / rise
    z = (v + mu[:, None]) * inv
    lo = z - half_gap
    hi = z + half_gap
    w = np.where(lo > p, lo, np.where(hi < p, hi, p))
    return np.maximum(w, 0.0)
