"""Linear predictor training (MSE / SPO+ / robust SPO+), and the mini-batch Adam
loop and random search shared by both model families.

The predictor is a single coefficient vector shared across assets: for one
day's feature slice x (assets x features), predictions are x @ theta + b.
Batches are chronological contiguous slices, never shuffled, so training is
deterministic given the config.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .solvers import MAX_RETURN, DecisionProblem, argmax_batch
from .spo import RobustConfig, perturbation_set, robust_max_return_batch, robust_spo_batch, spo_plus_batch
from .util import derived_rng, stable_seed

MSE = "mse"
SPO_PLUS = "spo_plus"
ROBUST_SPO = "robust_spo"
LOSS_KINDS = (MSE, SPO_PLUS, ROBUST_SPO)


class TrainingError(RuntimeError):
    pass


@dataclass
class LinearPredictor:
    theta: np.ndarray
    intercept: float = 0.0

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=float).reshape(-1)
        if not (np.all(np.isfinite(self.theta)) and np.isfinite(self.intercept)):
            raise ValueError("predictor parameters must be finite")


def predict(model: LinearPredictor, features: np.ndarray) -> np.ndarray:
    """Predicted returns for one day's asset x feature slice (or a stack of them)."""
    x = np.asarray(features, dtype=float)
    if x.shape[-1] != model.theta.size:
        raise ValueError(f"feature count {x.shape[-1]} != theta size {model.theta.size}")
    return x @ model.theta + model.intercept


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    count: int = 0

    @staticmethod
    def like(params: np.ndarray) -> "AdamState":
        return AdamState(m=np.zeros_like(params), v=np.zeros_like(params))


# Adam's moment decay rates and denominator floor.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


def adam_step(params: np.ndarray, grad: np.ndarray, state: AdamState, lr: float) -> np.ndarray:
    """One Adam update; mutates state, returns the new parameters."""
    state.count += 1
    state.m = BETA1 * state.m + (1.0 - BETA1) * grad
    state.v = BETA2 * state.v + (1.0 - BETA2) * grad * grad
    m_hat = state.m / (1.0 - BETA1**state.count)
    v_hat = state.v / (1.0 - BETA2**state.count)
    return params - lr * m_hat / (np.sqrt(v_hat) + EPS)


@dataclass(frozen=True)
class TrainConfig:
    loss_kind: str = MSE
    epochs: int = 30
    learning_rate: float = 0.01
    batch_size: int = 63
    seed: int = 0
    fit_intercept: bool = True
    robust: RobustConfig | None = None
    problem: DecisionProblem = field(default_factory=DecisionProblem)

    def __post_init__(self):
        if self.loss_kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.loss_kind!r}")
        if not 1 <= self.epochs <= 1000:
            raise ValueError("epochs must be in [1, 1000]")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.loss_kind == ROBUST_SPO and self.robust is None:
            raise ValueError("robust loss requires a RobustConfig")


def check_samples(features, targets, batch_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Float (T, n_assets, n_features) features and (T, n_assets) targets with T >= batch_size."""
    x = np.asarray(features, dtype=float)
    y = np.asarray(targets, dtype=float)
    if x.ndim != 3 or y.ndim != 2 or x.shape[:2] != y.shape:
        raise ValueError(f"misaligned features {x.shape} / targets {y.shape}")
    if x.shape[0] < batch_size:
        raise ValueError(f"{x.shape[0]} samples < batch size {batch_size}")
    return x, y


def fit_adam(params: dict, batch_grads, t_total: int, config: TrainConfig, label: str) -> list[float]:
    """Mini-batch Adam over chronological batches, shared by both model families.

    batch_grads(params, rows, epoch, batch) returns the per-sample losses of
    the rows slice and a dict of gradients; a parameter without a gradient
    stays fixed. params is updated in place. Returns the per-epoch mean loss.
    """
    states = {k: AdamState.like(v) for k, v in params.items()}
    trace: list[float] = []
    for epoch in range(config.epochs):
        loss_sum = 0.0
        for bi, s in enumerate(range(0, t_total, config.batch_size)):
            losses, grads = batch_grads(params, slice(s, s + config.batch_size), epoch, bi)
            batch_loss = float(losses.mean())
            if not np.isfinite(batch_loss):
                raise TrainingError(f"non-finite loss {batch_loss} at epoch {epoch}, batch {bi} ({label})")
            loss_sum += float(losses.sum())
            for k, g in grads.items():
                params[k] = adam_step(params[k], g, states[k], config.learning_rate)
        trace.append(loss_sum / t_total)
    return trace


def train(features: np.ndarray, targets: np.ndarray, config: TrainConfig):
    """Mini-batch Adam on the configured per-sample loss.

    features: (T, n_assets, n_features); targets: (T, n_assets) next-day simple
    returns. Returns (LinearPredictor, per-epoch mean loss trace).
    """
    x, y = check_samples(features, targets, config.batch_size)
    t_total, n, d = x.shape
    prob = config.problem
    w_star = argmax_batch(y, prob) if config.loss_kind in (SPO_PLUS, ROBUST_SPO) else None

    def batch_grads(params, rows, epoch, batch):
        xb, yb = x[rows], y[rows]
        r_hat = xb @ params["theta"] + params["intercept"][0]
        if config.loss_kind == MSE:
            resid = r_hat - yb
            losses = (resid * resid).sum(axis=1)
            g_rhat = 2.0 * resid
        elif config.loss_kind == SPO_PLUS:
            losses, g_rhat, _, _ = spo_plus_batch(r_hat, yb, prob, w_star_rows=w_star[rows])
        else:
            rc = replace(config.robust, seed=stable_seed(config.seed, "robust", epoch, batch))
            ws = w_star[rows]
            if prob.kind != MAX_RETURN:
                losses, g_rhat = robust_spo_batch(r_hat, yb, prob, perturbation_set(rc.rho, n, rc), w_star_rows=ws)
            else:
                # Rows the closed form cannot certify bit-equal to the sampled
                # worst case (all of them at theta = 0) are sampled.
                losses, g_rhat, settled = robust_max_return_batch(r_hat, yb, ws, rc)
                if not settled.all():
                    todo = ~settled
                    zetas = perturbation_set(rc.rho, n, rc)
                    losses[todo], g_rhat[todo] = robust_spo_batch(r_hat[todo], yb[todo], prob, zetas, w_star_rows=ws[todo])
        scale = 1.0 / xb.shape[0]
        grads = {"theta": np.einsum("bi,bid->d", g_rhat, xb) * scale}
        if config.fit_intercept:
            grads["intercept"] = np.array([g_rhat.sum() * scale])
        return losses, grads

    params = {"theta": np.zeros(d), "intercept": np.zeros(1)}
    trace = fit_adam(params, batch_grads, t_total, config, config.loss_kind)
    theta, intercept = params["theta"], params["intercept"][0]
    if not np.all(np.isfinite(theta)) or not np.isfinite(intercept):
        raise TrainingError("non-finite parameters after training")
    return LinearPredictor(theta=theta, intercept=float(intercept)), trace


@dataclass(frozen=True)
class SearchSpace:
    lr_min: float = 1e-4
    lr_max: float = 5e-2
    epochs_min: int = 20
    epochs_max: int = 40
    n_trials: int = 20
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.lr_min <= self.lr_max:
            raise ValueError("need 0 < lr_min <= lr_max")
        if not 1 <= self.epochs_min <= self.epochs_max:
            raise ValueError("need 1 <= epochs_min <= epochs_max")
        if self.n_trials < 1:
            raise ValueError("n_trials must be >= 1")


@dataclass(frozen=True)
class TrialResult:
    learning_rate: float
    epochs: int
    score: float


@dataclass(frozen=True)
class SearchResult:
    best: TrialResult
    model: object  # the winning trial's trained model
    trials: tuple[TrialResult, ...]
    traces: tuple[tuple[float, ...], ...]  # per-trial epoch loss traces


def decision_value(y_rows: np.ndarray, w_rows: np.ndarray, prob: DecisionProblem) -> np.ndarray:
    """Realized value of decisions: r.w minus the problem's own fee on turnover."""
    value = (y_rows * w_rows).sum(axis=1)
    if prob.gamma > 0:
        value = value - prob.gamma * np.abs(w_rows - prob.w_prev.weights).sum(axis=1)
    return value


def validation_score(model: LinearPredictor, x_val, y_val, config: TrainConfig) -> float:
    """Trial score on held-out days: net decision value, or negated MSE for PtO."""
    r_hat = predict(model, x_val)
    if config.loss_kind == MSE:
        resid = r_hat - y_val
        return -float((resid * resid).sum(axis=1).mean())
    w_rows = argmax_batch(r_hat, config.problem)
    return float(decision_value(np.asarray(y_val), w_rows, config.problem).mean())


def hyperparameter_search(space: SearchSpace, fit, score) -> SearchResult:
    """Seeded random search over (learning rate, epochs) that keeps the winning model.

    fit(learning_rate, epochs) trains one trial and returns (model, per-epoch
    loss trace); score(model) rates it on the validation span, higher is
    better. The earliest trial wins ties. Callers are responsible for the
    validation span lying strictly after the training span; the backtest
    enforces that ordering by construction.
    """
    rng = derived_rng(space.seed, "hparam-search")
    lrs = np.exp(rng.uniform(np.log(space.lr_min), np.log(space.lr_max), space.n_trials))
    epoch_draws = rng.integers(space.epochs_min, space.epochs_max + 1, space.n_trials)
    trials = []
    models = []
    traces = []
    for lr, ep in zip(lrs, epoch_draws):
        model, trace = fit(float(lr), int(ep))
        trials.append(TrialResult(learning_rate=float(lr), epochs=int(ep), score=score(model)))
        models.append(model)
        traces.append(tuple(trace))
    best = int(np.argmax([t.score for t in trials]))
    return SearchResult(best=trials[best], model=models[best], trials=tuple(trials), traces=tuple(traces))
