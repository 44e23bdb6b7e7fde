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
(robust_max_return_batch). A zero prediction takes zeta = 0, so at r_hat = 0
the robust loss and subgradient are plain SPO+'s. Fee and fee+ridge problems
take the worst loss over a seeded sample of the box instead (perturbation_set,
robust_spo_batch).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .solvers import DecisionProblem, argmax_batch, penalty_batch
from .util import derived_rng


@dataclass(frozen=True)
class RobustConfig:
    """Multiplicative uncertainty box, and the Monte Carlo sampling plan of fee problems."""

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


def perturbation_set(rho: float, n: int, config: RobustConfig) -> np.ndarray:
    """Seeded perturbation sample: uniform box draws plus sign-pattern corners.

    The uniform draws are rho times fixed [-1, 1] variates, so sample sets are
    nested across rho for a fixed seed. Corners start with +/- rho * ones and
    continue with single-coordinate sign flips, capped at 2n rows.
    """
    uniform = rho * derived_rng(config.seed, "robust-box", n).uniform(-1.0, 1.0, size=(config.n_samples, n))
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


def robust_max_return_batch(r_hat_rows: np.ndarray, r_rows: np.ndarray, w_star_rows: np.ndarray, rho: float):
    """Exact worst case of SPO+ over the box ||zeta||_inf <= rho for max-return rows.

    Returns (losses, subgradients). Each rival k takes the factor
    1 + rho sign(r_hat_k) and the realized best asset j the factor
    1 - rho sign(r_hat_j), so a zero prediction takes zeta = 0, the centre of
    its subdifferential: on an all-zero row the result equals spo_plus_batch's.
    A NaN prediction gives a NaN loss.
    """
    r_hat = np.atleast_2d(np.asarray(r_hat_rows, dtype=float))
    r = np.atleast_2d(np.asarray(r_rows, dtype=float))
    rows = np.arange(r_hat.shape[0])
    j = np.argmax(w_star_rows, axis=1)
    up = 1.0 + rho * np.sign(r_hat)
    cand = 2.0 * (r_hat * up) - r
    cand[rows, j] = -np.inf
    k = np.argmax(cand, axis=1)  # k = j, scoring -inf, for a single asset
    down_j = 1.0 - rho * np.sign(r_hat[rows, j])
    worst = (cand[rows, k] - 2.0 * (r_hat[rows, j] * down_j)) + r[rows, j]
    live = worst > 0
    grads = np.zeros_like(r_hat)
    grads[rows, k] = np.where(live, 2.0 * up[rows, k], 0.0)
    grads[rows, j] = np.where(live, -2.0 * down_j, 0.0)
    return np.maximum(worst, 0.0), grads
