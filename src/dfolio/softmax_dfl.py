"""End-to-end softmax allocator: linear inferencer -> small relu net -> softmax weights.

Trained directly on realized portfolio performance (negative return, or a
negative Sharpe surrogate with the covariance estimated once per training
window), with hand-written backpropagation; no optimization layer in the
forward pass, so the output is a valid portfolio by construction.

The forward and backward passes run on a stack of allocators (a leading
trial axis on every parameter), so a search trains all its trials in one
pass of the shared Adam loop; a single allocator is a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .solvers import Portfolio, estimate_covariance
from .training import LinearPredictor, TrainConfig, TrainingError, check_samples, fit_adam
from .util import derived_rng

MAX_RETURN_LOSS = "max_return"
MAX_SHARPE_LOSS = "max_sharpe"
DFL_LOSS_KINDS = (MAX_RETURN_LOSS, MAX_SHARPE_LOSS)


@dataclass
class SoftmaxAllocator:
    """Inferencer producing per-asset return estimates plus a one-hidden-layer head."""

    inferencer: LinearPredictor
    w1: np.ndarray  # (hidden, n_assets)
    b1: np.ndarray
    w2: np.ndarray  # (n_assets, hidden)
    b2: np.ndarray

    @property
    def n_assets(self) -> int:
        return self.w1.shape[1]


def init_allocator(n_assets: int, n_features: int, hidden: int = 32, seed: int = 0) -> SoftmaxAllocator:
    """Seeded uniform +-1/sqrt(fan_in) init for the head; zero inferencer."""
    rng = derived_rng(seed, "softmax-init", n_assets, n_features, hidden)
    bound1 = 1.0 / np.sqrt(n_assets)
    bound2 = 1.0 / np.sqrt(hidden)
    return SoftmaxAllocator(
        inferencer=LinearPredictor(theta=np.zeros(n_features)),
        w1=rng.uniform(-bound1, bound1, size=(hidden, n_assets)),
        b1=rng.uniform(-bound1, bound1, size=hidden),
        w2=rng.uniform(-bound2, bound2, size=(n_assets, hidden)),
        b2=rng.uniform(-bound2, bound2, size=n_assets),
    )


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _stack(model: SoftmaxAllocator) -> dict:
    """The allocator's parameters as a one-trial stack (leading trial axis of 1)."""
    theta, intercept = model.inferencer.theta, model.inferencer.intercept
    return {
        "theta": theta[None],
        "intercept": np.array([[intercept]]),
        "w1": model.w1[None],
        "b1": model.b1[None],
        "w2": model.w2[None],
        "b2": model.b2[None],
    }


def _allocator(params: dict) -> SoftmaxAllocator:
    """The allocator whose parameters are one trial's arrays (no copies)."""
    if not all(np.isfinite(v).all() for v in params.values()):
        raise TrainingError("non-finite parameters after training")
    inferencer = LinearPredictor(theta=params["theta"], intercept=float(params["intercept"][0]))
    return SoftmaxAllocator(inferencer, params["w1"], params["b1"], params["w2"], params["b2"])


def _forward(params: dict, x: np.ndarray):
    """Forward pass of a stack of allocators; x is (batch, n_assets, n_features).

    Every output has a leading trial axis. The trial axis stays a batch axis
    of every matmul, so each trial's rows equal its one-trial pass bit for bit.
    """
    r_hat = (x[None] @ params["theta"][:, None, :, None])[..., 0] + params["intercept"][:, :, None]
    pre1 = r_hat @ params["w1"].transpose(0, 2, 1) + params["b1"][:, None, :]
    h = np.maximum(pre1, 0.0)
    logits = h @ params["w2"].transpose(0, 2, 1) + params["b2"][:, None, :]
    return r_hat, pre1, h, logits, _softmax(logits)


def allocate_batch(model: SoftmaxAllocator, features: np.ndarray) -> np.ndarray:
    """Softmax weights for each (n_assets, n_features) slice of a (batch, ...) stack."""
    *_, w = _forward(_stack(model), np.asarray(features, dtype=float))
    return w[0]


def allocate(model: SoftmaxAllocator, features: np.ndarray) -> Portfolio:
    """Map one day's asset x feature slice to softmax portfolio weights."""
    x = np.asarray(features, dtype=float)
    if x.ndim != 2 or x.shape[0] != model.n_assets:
        raise ValueError(f"expected ({model.n_assets}, n_features) slice, got {x.shape}")
    return Portfolio(allocate_batch(model, x[None, :, :])[0])


def _loss_and_weight_grad(z: np.ndarray, y: np.ndarray, kind: str, sigma: np.ndarray | None):
    """Per-sample loss and dLoss/dWeights for softmax outputs z (..., batch, n_assets)."""
    if kind == MAX_RETURN_LOSS:
        losses = -(y * z).sum(axis=-1)
        dz = -y
        return losses, dz
    a = (y * z).sum(axis=-1)
    sz = z @ sigma
    q = (z * sz).sum(axis=-1)
    if np.any(q <= 0):
        raise ValueError("zero portfolio variance: degenerate covariance")
    losses = -a / np.sqrt(q)
    dz = -y / np.sqrt(q)[..., None] + (a / q**1.5)[..., None] * sz
    return losses, dz


def batch_gradients(params: dict, xb: np.ndarray, yb: np.ndarray, kind: str, sigma):
    """Per-sample losses (trials, batch) and the batch-mean gradient of every parameter group.

    params is a stack of allocators (leading trial axis); so is every gradient.
    """
    finite = np.logical_and.reduce([np.isfinite(v).reshape(len(v), -1).all(axis=1) for v in params.values()])
    if not finite.all():  # a diverged trial's loss is nan; fit_adam stops at this batch, so no gradients
        losses = np.full((finite.size, xb.shape[0]), np.nan)
        z = _forward({k: v[finite] for k, v in params.items()}, xb)[-1]
        losses[finite] = _loss_and_weight_grad(z, yb, kind, sigma)[0]
        return losses, {}
    r_hat, pre1, h, _, z = _forward(params, xb)
    losses, dz = _loss_and_weight_grad(z, yb, kind, sigma)
    b = xb.shape[0]
    # softmax Jacobian: diag(z) - z z^T applied to dz
    dlogits = z * (dz - (z * dz).sum(axis=-1, keepdims=True))
    grads = {
        "w2": dlogits.transpose(0, 2, 1) @ h / b,
        "b2": dlogits.mean(axis=1),
    }
    dh = dlogits @ params["w2"]
    dpre1 = dh * (pre1 > 0)
    grads["w1"] = dpre1.transpose(0, 2, 1) @ r_hat / b
    grads["b1"] = dpre1.mean(axis=1)
    dr_hat = dpre1 @ params["w1"]
    grads["theta"] = np.einsum("tbi,bid->td", dr_hat, xb) / b
    grads["intercept"] = dr_hat.sum(axis=2).mean(axis=1)[:, None]
    return losses, grads


def train_dfl(
    features: np.ndarray,
    returns: np.ndarray,
    kind: str,
    config: TrainConfig,
    learning_rates,
    epochs,
    hidden: int = 32,
):
    """Adam training of the allocator on realized-performance losses, one trial per (learning rate, epochs) pair.

    For the Sharpe loss, Sigma is estimated once from the training-window
    returns and held fixed. Returns one stacked pass's SoftmaxAllocators in
    trial order, all from the same seeded init (fit_adam).
    """
    if kind not in DFL_LOSS_KINDS:
        raise ValueError(f"unknown loss kind {kind!r}")
    x, y = check_samples(features, returns, config.batch_size)
    t_total, n, d = x.shape
    sigma = estimate_covariance(y).loaded if kind == MAX_SHARPE_LOSS else None

    def batch_grads(params, rows, epoch, batch):
        return batch_gradients(params, x[rows], y[rows], kind, sigma)

    init = {k: v[0] for k, v in _stack(init_allocator(n, d, hidden=hidden, seed=config.seed)).items()}
    return fit_adam(init, batch_grads, _allocator, t_total, config, kind, learning_rates, epochs)
