"""SPO+ surrogate loss, its subgradient, and the worst-case robust variant.

The loss generalizes the canonical SPO+ construction to decision objectives
with a prediction-independent concave term (fee and ridge penalties): with
psi(v) = max_w v.w + penalty(w) over the simplex,

    loss(r_hat, r) = psi(2 r_hat - r) - 2 r_hat.w* + r.w* - penalty(w*),

where w* maximizes r.w + penalty(w). The loss is convex in r_hat, vanishes at
r_hat = r, upper-bounds the true decision regret, and 2 (w_tilde - w*) is a
subgradient, where w_tilde solves the (2 r_hat - r)-shifted problem.

The robust variant perturbs predictions multiplicatively inside the box
||zeta||_inf <= rho and takes the worst loss over it. For max-return (w* = e_j,
j = argmax r) the worst case is exact and O(n) per row: coordinates separate,
so

    loss = max(0, max_{k != j} [2 r_hat_k (1 + rho sign r_hat_k) - r_k]
                  - [2 r_hat_j (1 - rho sign r_hat_j) - r_j]),

with subgradient 2 (1 + zeta_k) at the maximizing k and -2 (1 + zeta_j) at j
(robust_max_return_batch). Rows it cannot certify to equal the sampled answer
bit for bit, and every fee or fee+ridge problem, keep the worst loss over a
seeded sample of the box (perturbation_set, robust_spo_batch).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .solvers import DecisionProblem, argmax_batch, penalty_batch
from .util import derived_rng


@dataclass(frozen=True)
class RobustConfig:
    """Multiplicative uncertainty box and its Monte Carlo sampling plan."""

    rho: float
    n_samples: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.rho <= 0:
            raise ValueError("rho must be > 0")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")


def spo_plus_batch(
    r_hat_rows: np.ndarray,
    r_rows: np.ndarray,
    prob: DecisionProblem,
    w_star_rows: np.ndarray | None = None,
):
    """Vectorized loss/subgradient over rows of (r_hat, r) sharing one problem.

    Returns (losses, subgradients, w_tilde_rows, w_star_rows). Passing
    precomputed w_star_rows skips re-solving the realized-return problems.
    """
    r_hat = np.atleast_2d(np.asarray(r_hat_rows, dtype=float))
    r = np.atleast_2d(np.asarray(r_rows, dtype=float))
    if w_star_rows is None:
        w_star_rows = argmax_batch(r, prob)
    shifted = 2.0 * r_hat - r
    w_tilde = argmax_batch(shifted, prob)
    psi = (shifted * w_tilde).sum(axis=1) + penalty_batch(w_tilde, prob)
    losses = psi - 2.0 * (r_hat * w_star_rows).sum(axis=1) + (r * w_star_rows).sum(axis=1) - penalty_batch(w_star_rows, prob)
    grads = 2.0 * (w_tilde - w_star_rows)
    return losses, grads, w_tilde, w_star_rows


@lru_cache(maxsize=1024)
def _unit_draws(seed: int, n: int, n_samples: int) -> np.ndarray:
    """The seeded [-1, 1] variates behind perturbation_set's uniform rows.

    Cached, read-only: every search trial of a window redraws the same sets.
    """
    draws = derived_rng(seed, "robust-box", n).uniform(-1.0, 1.0, size=(n_samples, n))
    draws.flags.writeable = False
    return draws


def perturbation_set(rho: float, n: int, config: RobustConfig) -> np.ndarray:
    """Seeded perturbation sample: uniform box draws plus sign-pattern corners.

    The uniform draws are rho times fixed [-1, 1] variates, so sample sets are
    nested across rho for a fixed seed. Corners start with +/- rho * ones and
    continue with single-coordinate sign flips, capped at 2n rows.
    """
    uniform = rho * _unit_draws(config.seed, n, config.n_samples)
    flips = np.ones(n) - 2.0 * np.eye(n)
    corners = np.concatenate([np.ones((1, n)), -np.ones((1, n)), flips, -flips])[: max(2, 2 * n)]
    return np.concatenate([uniform, rho * corners], axis=0)


def robust_spo_batch(
    r_hat_rows: np.ndarray,
    r_rows: np.ndarray,
    prob: DecisionProblem,
    zetas: np.ndarray,
    w_star_rows: np.ndarray | None = None,
):
    """Worst-scenario loss and r_hat-subgradient for a batch sharing one zeta set.

    The subgradient chains through the multiplicative perturbation:
    d loss / d r_hat = (1 + zeta*) * 2 (w_tilde* - w*).
    """
    r_hat = np.atleast_2d(r_hat_rows)
    r = np.atleast_2d(r_rows)
    b, n = r_hat.shape
    s = zetas.shape[0]
    if w_star_rows is None:
        w_star_rows = argmax_batch(r, prob)
    perturbed = r_hat[:, None, :] * (1.0 + zetas[None, :, :])  # (b, s, n)
    flat_pred = perturbed.reshape(b * s, n)
    flat_r = np.repeat(r, s, axis=0)
    flat_star = np.repeat(w_star_rows, s, axis=0)
    losses, grads, _, _ = spo_plus_batch(flat_pred, flat_r, prob, w_star_rows=flat_star)
    losses = losses.reshape(b, s)
    grads = grads.reshape(b, s, n)
    worst = np.argmax(losses, axis=1)
    rows = np.arange(b)
    worst_loss = losses[rows, worst]
    worst_grad = grads[rows, worst] * (1.0 + zetas[worst])
    return worst_loss, worst_grad


def robust_max_return_batch(r_hat_rows: np.ndarray, r_rows: np.ndarray, w_star_rows: np.ndarray, config: RobustConfig):
    """Exact worst case of SPO+ over the box ||zeta||_inf <= rho for max-return rows.

    Returns (losses, subgradients, settled). Every term repeats the float
    operations spo_plus_batch performs on the sample row that attains it, and
    a row is settled when that makes it bit-equal to robust_spo_batch on
    perturbation_set(config.rho, n, config):
      - a row whose rival k beats j even at the worst corner, when every sample
        row whose subgradient differs provably scores strictly lower: rows
        with a factor 1 + zeta at k or j other than the extreme one (the
        uniform draws are scored exactly; rounding is monotone, so the opposite
        corners bound the rest), rows maximized by a third asset, and rows
        with w_tilde = w*;
      - a row whose j wins for every zeta: its subgradient is zero and its
        loss is the largest round-off over the sample's factors at j.
    Ties, zero predictions at k or j and rho >= 1 (where 1 + zeta <= 0 flips
    the sign of the sampled subgradient's zero entries) stay unsettled.
    """
    r_hat = np.atleast_2d(np.asarray(r_hat_rows, dtype=float))
    r = np.atleast_2d(np.asarray(r_rows, dtype=float))
    b, n = r_hat.shape
    rows = np.arange(b)
    j = np.argmax(w_star_rows, axis=1)
    rho = config.rho
    up, down = 1.0 + rho, 1.0 - rho
    cand = 2.0 * (r_hat * np.where(r_hat > 0, up, down)) - r
    cand[rows, j] = -np.inf
    k = np.argmax(cand, axis=1)
    psi = cand[rows, k]  # -inf for a single asset
    cand[rows, k] = -np.inf
    h_k, r_k, h_j, r_j = (x[:, None] for x in (r_hat[rows, k], r[rows, k], r_hat[rows, j], r[rows, j]))
    pos_k, pos_j = h_k > 0, h_j > 0
    fav_k, unfav_k = np.where(pos_k, up, down), np.where(pos_k, down, up)
    fav_j, unfav_j = np.where(pos_j, up, down), np.where(pos_j, down, up)
    # Factors 1 + zeta at k and j of the two corners off the worst one, then
    # of the uniform draws; together they hold every factor the sample puts at j.
    g = 1.0 + rho * _unit_draws(config.seed, n, config.n_samples)
    g_k = np.concatenate([unfav_k, fav_k, g[:, k].T], axis=1)
    g_j = np.concatenate([unfav_j, fav_j, g[:, j].T], axis=1)
    p = 2.0 * (h_j * g_j)
    roundoff = (((p - r_j) - p) + r_j).max(axis=1)  # loss of a sample row with w_tilde = w*
    scores = ((2.0 * (h_k * g_k) - r_k) - p) + r_j  # loss of a sample row maximized by k
    moved = (g_k != fav_k) | (g_j != unfav_j)
    a = p[:, 0]
    worst = (psi - a) + r_j[:, 0]
    third = (cand.max(axis=1) - a) + r_j[:, 0]
    rival = np.maximum(np.maximum(np.where(moved, scores, -np.inf).max(axis=1), third), roundoff)
    kept = psi < a - r_j[:, 0]
    settled = ((worst > rival) | kept) & (rho < 1.0)
    live = worst > roundoff
    grads = np.zeros_like(r_hat)
    grads[rows, k] = np.where(live, 2.0 * fav_k[:, 0], 0.0)
    grads[rows, j] = np.where(live, -2.0 * unfav_j[:, 0], 0.0)
    return np.where(live, worst, roundoff), grads, settled
