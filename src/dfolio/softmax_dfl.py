"""End-to-end softmax allocator: linear inferencer -> small relu net -> softmax weights.

Trained directly on realized portfolio performance (negative return, or a
negative Sharpe surrogate with the covariance estimated once per training
window), with hand-written backpropagation; no optimization layer in the
forward pass, so the output is a valid portfolio by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .solvers import CovarianceEstimate, Portfolio, estimate_covariance
from .training import LinearPredictor, TrainConfig, check_samples, fit_adam, predict
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


def _forward(model: SoftmaxAllocator, x: np.ndarray):
    """Batched forward pass; x is (batch, n_assets, n_features)."""
    r_hat = predict(model.inferencer, x)
    pre1 = r_hat @ model.w1.T + model.b1
    h = np.maximum(pre1, 0.0)
    logits = h @ model.w2.T + model.b2
    return r_hat, pre1, h, logits, _softmax(logits)


def allocate(model: SoftmaxAllocator, features: np.ndarray) -> Portfolio:
    """Map one day's asset x feature slice to softmax portfolio weights."""
    x = np.asarray(features, dtype=float)
    if x.ndim != 2 or x.shape[0] != model.n_assets:
        raise ValueError(f"expected ({model.n_assets}, n_features) slice, got {x.shape}")
    *_, w = _forward(model, x[None, :, :])
    return Portfolio(w[0])


def _loss_and_weight_grad(z: np.ndarray, y: np.ndarray, kind: str, sigma: np.ndarray | None):
    """Per-sample loss and dLoss/dWeights for a batch of softmax outputs."""
    if kind == MAX_RETURN_LOSS:
        losses = -(y * z).sum(axis=1)
        dz = -y
        return losses, dz
    a = (y * z).sum(axis=1)
    sz = z @ sigma
    q = (z * sz).sum(axis=1)
    if np.any(q <= 0):
        raise ValueError("zero portfolio variance: degenerate covariance")
    losses = -a / np.sqrt(q)
    dz = -y / np.sqrt(q)[:, None] + (a / q**1.5)[:, None] * sz
    return losses, dz


def batch_gradients(model: SoftmaxAllocator, xb: np.ndarray, yb: np.ndarray, kind: str, sigma):
    """Per-sample losses over the batch and the batch-mean gradient of every parameter group."""
    r_hat, pre1, h, _, z = _forward(model, xb)
    losses, dz = _loss_and_weight_grad(z, yb, kind, sigma)
    b = xb.shape[0]
    # softmax Jacobian: diag(z) - z z^T applied to dz
    dlogits = z * (dz - (z * dz).sum(axis=1, keepdims=True))
    grads = {
        "w2": np.einsum("bi,bh->ih", dlogits, h) / b,
        "b2": dlogits.mean(axis=0),
    }
    dh = dlogits @ model.w2
    dpre1 = dh * (pre1 > 0)
    grads["w1"] = np.einsum("bh,bi->hi", dpre1, r_hat) / b
    grads["b1"] = dpre1.mean(axis=0)
    dr_hat = dpre1 @ model.w1
    grads["theta"] = np.einsum("bi,bid->d", dr_hat, xb) / b
    grads["intercept"] = np.array([dr_hat.sum(axis=1).mean()])
    return losses, grads


def _allocator(params: dict) -> SoftmaxAllocator:
    """The allocator whose parameters are the given arrays (no copies)."""
    inferencer = LinearPredictor(theta=params["theta"], intercept=float(params["intercept"][0]))
    return SoftmaxAllocator(inferencer, params["w1"], params["b1"], params["w2"], params["b2"])


def train_dfl(
    features: np.ndarray,
    returns: np.ndarray,
    kind: str,
    config: TrainConfig,
    hidden: int = 32,
    est: CovarianceEstimate | None = None,
):
    """Adam training of the allocator on realized-performance losses.

    For the Sharpe loss, Sigma is estimated once from the training-window
    returns (unless an estimate is supplied) and held fixed.
    """
    if kind not in DFL_LOSS_KINDS:
        raise ValueError(f"unknown loss kind {kind!r}")
    x, y = check_samples(features, returns, config.batch_size)
    t_total, n, d = x.shape
    sigma = None
    if kind == MAX_SHARPE_LOSS:
        if est is None:
            est = estimate_covariance(y)
        sigma = est.loaded

    def batch_grads(params, rows, epoch, batch):
        return batch_gradients(_allocator(params), x[rows], y[rows], kind, sigma)

    model = init_allocator(n, d, hidden=hidden, seed=config.seed)
    params = {
        "theta": model.inferencer.theta,
        "intercept": np.array([model.inferencer.intercept]),
        "w1": model.w1,
        "b1": model.b1,
        "w2": model.w2,
        "b2": model.b2,
    }
    trace = fit_adam(params, batch_grads, t_total, config, kind)
    return _allocator(params), trace
