"""Linear predictor training (MSE / SPO+ / robust SPO+), and the mini-batch Adam
loop and random search shared by both model families.

The predictor is a single coefficient vector shared across assets: for one
day's feature slice x (assets x features), predictions are x @ theta + b.
Batches are chronological contiguous slices, never shuffled, so training is
deterministic given the config.

A search trains all its trials in one stacked pass: parameters carry a
leading trial axis, each trial has its own learning rate and epoch count, and
every batch makes one oracle call on all trials' rows. The trial axis stays a
batch axis of every matmul and einsum (flattening trials into rows before a
BLAS call changes the rounding), so each trial of a stacked pass equals its
one-trial run bit for bit. The stacked pass is the only training path: a
failing pass raises the first fault it meets in training order (by epoch,
then batch, then a trial's end-of-training check), which is the one-trial
error of a failing trial.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .solvers import MAX_RETURN, DecisionProblem, argmax_batch
from .spo import RobustConfig, perturbation_set, robust_max_return_batch, robust_spo_batch, spo_plus_batch
from .util import DfolioError, at_least, at_most, check_fields, derived_rng, stable_seed

MSE = "mse"
SPO_PLUS = "spo_plus"
ROBUST_SPO = "robust_spo"
LOSS_KINDS = (MSE, SPO_PLUS, ROBUST_SPO)

# A search score within SCORE_TIE_TOL * max(1, |best|) of the best ties with it.
SCORE_TIE_TOL = 1e-12
# The most epochs a trial may train; fit_adam and SearchSpace check it.
MAX_EPOCHS = 1000


class TrainingError(DfolioError, RuntimeError):
    pass


@dataclass
class LinearPredictor:
    theta: np.ndarray
    intercept: float = 0.0

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=float).reshape(-1)
        if not (np.all(np.isfinite(self.theta)) and np.all(np.isfinite(self.intercept))):
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
    epochs: int = 30  # unread by training; the backtest puts a pass length here for perfbench's tracer
    batch_size: int = 63
    seed: int = 0
    fit_intercept: bool = True
    robust: RobustConfig | None = None
    problem: DecisionProblem = field(default_factory=DecisionProblem)

    def __post_init__(self):
        if self.loss_kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.loss_kind!r}")
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


def fit_adam(init: dict, batch_grads, build, t_total: int, config: TrainConfig, label: str, learning_rates, epochs):
    """Mini-batch Adam over chronological batches for a stack of trials, shared by both model families.

    Trains one trial per (learning rate, epochs) pair and returns the models
    in trial order; config's own epochs are not used. Every trial starts from
    the one-trial parameters init. batch_grads(params, rows, epoch, batch)
    returns the (trials, rows) losses of the rows slice and a dict of
    (trials, ...) gradients; a parameter without a gradient stays fixed.
    build(parameters) makes a trial's model after its last epoch, and a
    non-finite batch loss raises TrainingError. Epochs that are not whole
    numbers in [1, MAX_EPOCHS] and learning rates that are not finite and >= 0 raise
    ValueError before any epoch runs.

    Parameters carry a leading trial axis, and the trials sit in descending
    order of epochs, so those still training are always a prefix of the stack.
    Until the first Adam step every trial holds init, so that batch is
    evaluated for one trial only. A failing pass raises the first fault it
    meets by epoch, then batch, then a trial's build; among trials whose
    losses turn non-finite in the same batch, the lowest trial index's loss is
    reported. The error is that trial's own one-trial error.
    """
    lrs = np.asarray(learning_rates, dtype=float).reshape(-1)
    counts = np.asarray(epochs, dtype=float).reshape(-1)
    if lrs.size == 0 or lrs.size != counts.size:
        raise ValueError(f"need matching learning rates and epochs, got {lrs.size} and {counts.size}")
    whole = (counts >= 1) & (counts <= MAX_EPOCHS) & (np.floor(counts) == counts)
    bad_ends = np.asarray(epochs, dtype=object).reshape(-1)[~whole]  # the counts as given
    if bad_ends.size:
        raise ValueError(f"epochs must be whole numbers in [1, {MAX_EPOCHS}], got {bad_ends.tolist()}")
    ends = counts.astype(int)
    bad_lrs = lrs[~(np.isfinite(lrs) & (lrs >= 0))]
    if bad_lrs.size:
        raise ValueError(f"learning rates must be finite and >= 0, got {bad_lrs.tolist()}")
    order = np.argsort(-ends, kind="stable")
    lrs, ends = lrs[order], ends[order]
    params = {k: np.repeat(np.asarray(v, dtype=float)[None], order.size, axis=0) for k, v in init.items()}
    states = {k: AdamState.like(v) for k, v in params.items()}
    models: list = [None] * order.size
    live, epoch = order.size, 0
    while live:
        for bi, start in enumerate(range(0, t_total, config.batch_size)):
            rows = slice(start, start + config.batch_size)
            # The first batch's one-trial losses and gradients broadcast over the stack.
            stack = params if epoch or bi else {k: v[:1] for k, v in params.items()}
            losses, grads = batch_grads(stack, rows, epoch, bi)
            batch_loss = losses.mean(axis=1)
            bad = np.flatnonzero(~np.isfinite(batch_loss))
            if bad.size:
                loss = float(batch_loss[bad[np.argmin(order[bad])]])
                raise TrainingError(f"non-finite loss {loss} at epoch {epoch}, batch {bi} ({label})")
            for k, g in grads.items():
                params[k] = adam_step(params[k], g, states[k], lrs[:live].reshape(-1, *[1] * (g.ndim - 1)))
        epoch += 1
        for s in np.flatnonzero(ends[:live] == epoch):
            models[order[s]] = build({k: v[s].copy() for k, v in params.items()})
        live = int(np.count_nonzero(ends > epoch))
        params = {k: v[:live] for k, v in params.items()}
        for st in states.values():
            st.m, st.v = st.m[:live], st.v[:live]
    return models


def train(features: np.ndarray, targets: np.ndarray, config: TrainConfig, learning_rates, epochs):
    """Mini-batch Adam on the configured per-sample loss, one trial per (learning rate, epochs) pair.

    features: (T, n_assets, n_features); targets: (T, n_assets) next-day simple
    returns. Returns one stacked pass's LinearPredictors in trial order
    (fit_adam); one model is a stack of one: train(x, y, config, [lr], [ep])[0].
    """
    x, y = check_samples(features, targets, config.batch_size)
    t_total, n, d = x.shape
    prob = config.problem
    w_star = argmax_batch(y, prob) if config.loss_kind in (SPO_PLUS, ROBUST_SPO) else None

    def batch_grads(params, rows, epoch, batch):
        xb, yb = x[rows], y[rows]
        theta = params["theta"]
        k, b = theta.shape[0], xb.shape[0]
        r_hat = (xb[None] @ theta[:, None, :, None])[..., 0] + params["intercept"][:, :, None]
        if config.loss_kind == MSE:
            resid = r_hat - yb
            losses = (resid * resid).sum(axis=2)
            g_rhat = 2.0 * resid
        else:
            # The oracles are row-wise: every trial's rows go in one call.
            r_rows, y_rows, ws = r_hat.reshape(k * b, n), _repeat_rows(yb, k), _repeat_rows(w_star[rows], k)
            if config.loss_kind == SPO_PLUS:
                losses, g_rhat, _, _ = spo_plus_batch(r_rows, y_rows, prob, w_star_rows=ws)
            elif prob.kind == MAX_RETURN:
                losses, g_rhat = robust_max_return_batch(r_rows, y_rows, ws, config.robust.rho)
            else:
                rc = replace(config.robust, seed=stable_seed(config.seed, "robust", epoch, batch))
                losses, g_rhat = robust_spo_batch(r_rows, y_rows, prob, perturbation_set(rc.rho, n, rc), w_star_rows=ws)
            losses, g_rhat = losses.reshape(k, b), g_rhat.reshape(k, b, n)
        scale = 1.0 / b
        grads = {"theta": np.einsum("tbi,bid->td", g_rhat, xb) * scale}
        if config.fit_intercept:
            grads["intercept"] = g_rhat.reshape(k, -1).sum(axis=1, keepdims=True) * scale
        return losses, grads

    def build(params):
        theta, intercept = params["theta"], params["intercept"][0]
        if not np.all(np.isfinite(theta)) or not np.isfinite(intercept):
            raise TrainingError("non-finite parameters after training")
        return LinearPredictor(theta=theta, intercept=float(intercept))

    init = {"theta": np.zeros(d), "intercept": np.zeros(1)}
    return fit_adam(init, batch_grads, build, t_total, config, config.loss_kind, learning_rates, epochs)


def _repeat_rows(a: np.ndarray, k: int) -> np.ndarray:
    """The rows of a once per trial, trial after trial (no copy for one trial)."""
    return np.broadcast_to(a, (k, *a.shape)).reshape(k * a.shape[0], -1)


@dataclass(frozen=True)
class SearchSpace:
    lr_min: float = 1e-4
    lr_max: float = 5e-2
    epochs_min: int = 20
    epochs_max: int = 40
    n_trials: int = 20

    CHECKS = (
        ("lr_min", lambda v: 0 < v["lr_min"] <= v["lr_max"], "need 0 < lr_min <= lr_max"),
        *at_least(1, "epochs_min", "epochs_max", "n_trials"),
        *at_most(MAX_EPOCHS, "epochs_min", "epochs_max"),
        ("epochs_min", lambda v: v["epochs_min"] <= v["epochs_max"], "must be <= epochs_max"),
    )

    def __post_init__(self):
        check_fields(vars(self), self.CHECKS)


@dataclass(frozen=True)
class TrialResult:
    learning_rate: float
    epochs: int
    score: float


@dataclass(frozen=True)
class SearchResult:
    """A search's winning trial and its model, and every trial's settings and score in draw order."""

    best: TrialResult
    model: object  # the winning trial's trained model
    trials: tuple[TrialResult, ...]


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


def hyperparameter_search(space: SearchSpace, seed: int, fit, score) -> SearchResult:
    """Random search over (learning rate, epochs), drawn from seed, that keeps the winning model.

    fit(learning_rates, epochs) trains every drawn trial, in one stacked pass
    for both model families, and returns their models in trial order;
    score(model) rates one on the validation span, higher is better. The
    earliest trial whose score is within SCORE_TIE_TOL * max(1, |best|) of the
    best score wins, so scores that tie in exact arithmetic but differ by
    round-off go to the earliest trial.
    Callers are responsible for the validation span lying strictly after the
    training span; the backtest enforces that ordering by construction.
    """
    rng = derived_rng(seed, "hparam-search")
    lrs = np.exp(rng.uniform(np.log(space.lr_min), np.log(space.lr_max), space.n_trials))
    epoch_draws = rng.integers(space.epochs_min, space.epochs_max + 1, space.n_trials)
    models = fit(lrs, epoch_draws)
    trials = tuple(
        TrialResult(learning_rate=float(lr), epochs=int(ep), score=score(model))
        for lr, ep, model in zip(lrs, epoch_draws, models)
    )
    scores = np.array([t.score for t in trials])
    top = scores.max()
    best = int(np.argmax(scores >= top - SCORE_TIE_TOL * max(1.0, abs(top))))
    return SearchResult(best=trials[best], model=models[best], trials=trials)
