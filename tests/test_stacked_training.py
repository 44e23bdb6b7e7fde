"""A stacked pass trains every search trial at once; each trial must equal its one-trial stack.

train and train_dfl run all trials through one mini-batch loop with a
leading trial axis. The search keeps the winning trial's model, so the
stacked result has to be the one-trial result bit for bit: parameters and
intercept. A failing pass raises the first fault it meets by epoch, then
batch, then a trial's end-of-training check, and that error is the
one-trial error of a failing trial.
"""

import re
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dfolio.backtest as bt
import dfolio.training as training
from dfolio.backtest import BacktestConfig, StrategySpec, run_backtest
from dfolio.market_data import SyntheticSpec, generate_synthetic
from dfolio.solvers import MAX_RETURN, MAX_RETURN_FEE, MAX_RETURN_FEE_L2, DecisionProblem, Portfolio
from dfolio.softmax_dfl import MAX_RETURN_LOSS, MAX_SHARPE_LOSS, train_dfl
from dfolio.spo import RobustConfig
from dfolio.training import (
    MAX_EPOCHS,
    MSE,
    ROBUST_SPO,
    SPO_PLUS,
    LinearPredictor,
    SearchSpace,
    TrainConfig,
    TrainingError,
    fit_adam,
    train,
)

KINDS = (
    "mse",
    "spo_plus",
    "spo_plus_fee",
    "spo_plus_fee_l2",
    "robust_spo",
    "robust_spo_fee",
    "softmax_max_return",
    "softmax_max_sharpe",
)


def make_data(seed: int, t: int, n: int, d: int):
    """Features with some all-zero days (zero predictions while the intercept is 0) and returns."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(t, n, d))
    x[rng.random(t) < 0.2] = 0.0
    y = rng.normal(0.0005, 0.01, size=(t, n))
    return x, y


def problem(kind: str, n: int, rng) -> DecisionProblem:
    if kind in ("spo_plus_fee", "robust_spo_fee", "spo_plus_fee_l2"):
        prior = rng.dirichlet(np.ones(n))
        prior[rng.random(n) < 0.3] = 0.0  # vertex-like priors, p_i = 0
        prior = Portfolio(prior / prior.sum() if prior.sum() > 0 else np.full(n, 1.0 / n))
        if kind == "spo_plus_fee_l2":
            return DecisionProblem(kind=MAX_RETURN_FEE_L2, gamma=0.005, lam=0.42, w_prev=prior)
        return DecisionProblem(kind=MAX_RETURN_FEE, gamma=0.005, w_prev=prior)
    return DecisionProblem(kind=MAX_RETURN)


def trainer(kind: str, x, y, batch_size: int, seed: int, rho: float = 0.1, fit_intercept: bool = True):
    """fit(learning_rates, epochs): one stacked call of the kind's training."""
    rng = np.random.default_rng(seed)
    n = y.shape[1]
    if kind.startswith("softmax"):
        loss = MAX_RETURN_LOSS if kind == "softmax_max_return" else MAX_SHARPE_LOSS
        return partial(train_dfl, x, y, loss, TrainConfig(batch_size=batch_size, seed=seed), hidden=5)
    loss_kind = MSE if kind == "mse" else ROBUST_SPO if kind.startswith("robust") else SPO_PLUS
    robust = RobustConfig(rho=rho, n_samples=int(rng.integers(1, 9)), seed=seed) if loss_kind == ROBUST_SPO else None
    cfg = TrainConfig(
        loss_kind=loss_kind,
        batch_size=batch_size,
        seed=seed,
        fit_intercept=fit_intercept,
        robust=robust,
        problem=problem(kind, n, rng),
    )
    return partial(train, x, y, cfg)


def one(fit, lr, epochs):
    """The model of a one-trial stack."""
    return fit([lr], [epochs])[0]


def bits(model) -> dict:
    """Every parameter of a trained model as bytes."""
    if isinstance(model, LinearPredictor):
        return {"theta": model.theta.tobytes(), "intercept": model.intercept.hex()}
    return {
        "theta": model.inferencer.theta.tobytes(),
        "intercept": model.inferencer.intercept.hex(),
        **{k: getattr(model, k).tobytes() for k in ("w1", "b1", "w2", "b2")},
    }


def error_of(call, *args):
    """The exception call(*args) raises, or None."""
    try:
        call(*args)
    except Exception as exc:  # noqa: BLE001
        return exc
    return None


def assert_trials_match(fit, lrs, epochs):
    """The stacked call gives each trial's one-trial stack, or one failing trial's one-trial error."""
    errors = [error_of(one, fit, lr, ep) for lr, ep in zip(lrs, epochs)]
    errors = {(type(e), str(e)) for e in errors if e is not None}
    if errors:
        with pytest.raises(Exception) as info:
            fit(np.array(lrs), np.array(epochs))
        assert (type(info.value), str(info.value)) in errors
        return
    models = fit(np.array(lrs), np.array(epochs))
    assert len(models) == len(lrs)
    for i, (lr, ep) in enumerate(zip(lrs, epochs)):
        assert bits(models[i]) == bits(one(fit, lr, ep)), f"trial {i} (lr {lr}, {ep} epochs)"


LEARNING_RATES = st.one_of(st.sampled_from([0.0, 1e-4, 0.05, 0.3]), st.floats(1e-4, 0.1))
# The largest float. As a learning rate, Adam's first step takes every moved
# parameter to about +-HUGE, so the next batch's predictions overflow.
HUGE = np.finfo(float).max


def overflow_first_step(x, y):
    """Day 0 with feature 0 at HUGE and returns 1e4x: theta starts at 0, so
    every first-batch loss stays finite, but the first theta gradient
    overflows and the first Adam step leaves NaN parameters in every trial."""
    x[0, :, 0] = HUGE
    y[0] *= 1e4


TRIAL = st.tuples(LEARNING_RATES, st.integers(1, 4))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=240, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    trials=st.lists(TRIAL, min_size=1, max_size=20),
    diverging=st.sets(st.integers(0, 19), max_size=3),
    poison=st.one_of(st.none(), st.integers(0, 2**16)),
    n=st.integers(2, 24),
    d=st.integers(1, 4),
    batch_size=st.integers(4, 20),
    full_batches=st.integers(1, 3),
    short=st.integers(0, 19),
    rho=st.sampled_from([0.01, 0.1, 1.0, 1.5]),
    fit_intercept=st.booleans(),
    seed=st.integers(0, 2**16),
)
# A shape where (trials * batch, n) @ sigma rounds differently from a batched matmul.
@example("softmax_max_sharpe", [(0.01, 2), (0.03, 2), (0.002, 1), (0.05, 2)], set(), None, 17, 3, 13, 2, 0, 0.1, True, 1)
def test_every_trial_equals_its_one_trial_call(
    kind, trials, diverging, poison, n, d, batch_size, full_batches, short, rho, fit_intercept, seed
):
    # short > 0 leaves a short last batch; rho >= 1 makes a robust factor
    # 1 - rho sign(r_hat) zero or negative, and the all-zero days take zeta = 0.
    # Trials listed in diverging get a learning rate of HUGE, and poison puts
    # a NaN feature on one training day, so some calls fail.
    t = batch_size * full_batches + short % batch_size
    if kind == "softmax_max_sharpe":
        t = max(t, n + 2)
    x, y = make_data(seed, t, n, d)
    if poison is not None:
        x[poison % t, poison % n, poison % d] = np.nan
    lrs = [HUGE if i in diverging else lr for i, (lr, _) in enumerate(trials)]
    fit = trainer(kind, x, y, batch_size, seed, rho=rho, fit_intercept=fit_intercept)
    assert_trials_match(fit, lrs, [ep for _, ep in trials])


@pytest.mark.parametrize("kind", ["spo_plus_fee_l2", "robust_spo", "softmax_max_sharpe"])
def test_two_hundred_assets(kind):
    x, y = make_data(5, 210, 200, 7)
    assert_trials_match(trainer(kind, x, y, 63, 5), [0.02, 0.001, 0.04], [2, 3, 1])


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    probe=TRIAL,
    first=st.lists(TRIAL, max_size=8),
    second=st.lists(TRIAL, max_size=8),
    at=st.integers(0, 8),
    seed=st.integers(0, 2**16),
)
def test_trial_does_not_depend_on_its_companions(kind, probe, first, second, at, seed):
    x, y = make_data(seed, 45, 4, 3)
    fit = trainer(kind, x, y, 16, seed)
    results = []
    for others in (first, second):
        trials = list(others)
        k = min(at, len(trials))
        trials.insert(k, probe)
        models = fit(np.array([lr for lr, _ in trials]), np.array([ep for _, ep in trials]))
        results.append(bits(models[k]))
    assert results[0] == results[1]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kind", ["spo_plus", "robust_spo", "softmax_max_return"])
def test_earliest_failing_trial_decides_the_error(kind):
    # Day 40 (batch 2 of 16-day batches) is poisoned, so trial 0 fails there.
    # Trials 1 and 2 step to non-finite parameters at once and fail at batch
    # 1, earlier in the pass, so the stacked pass raises trial 1's error.
    x, y = make_data(3, 60, 4, 3)
    x[40, 0, 0] = np.nan
    fit = trainer(kind, x, y, 16, 3)
    lrs, epochs = [0.01, HUGE, HUGE], [2, 3, 1]
    errors = [error_of(one, fit, lr, ep) for lr, ep in zip(lrs, epochs)]
    label = MAX_RETURN_LOSS if kind.startswith("softmax") else kind
    assert str(errors[0]) == f"non-finite loss nan at epoch 0, batch 2 ({label})"
    with pytest.raises(type(errors[1])) as info:
        fit(np.array(lrs), np.array(epochs))
    assert str(info.value) == str(errors[1]) != str(errors[0])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_failure_after_training_ranks_by_trial():
    # Trial 1 ends with non-finite parameters after its only batch, at the end
    # of epoch 0; trial 0 fails later in the pass, at its second epoch's loss.
    x, y = make_data(4, 16, 3, 2)
    overflow_first_step(x, y)
    fit = trainer("spo_plus", x, y, 16, 4)
    lrs, epochs = [0.01, 0.01], [2, 1]
    assert str(error_of(one, fit, lrs[0], epochs[0])) == "non-finite loss nan at epoch 1, batch 0 (spo_plus)"
    assert str(error_of(one, fit, lrs[1], epochs[1])) == "non-finite parameters after training"
    with pytest.raises(TrainingError, match="^non-finite parameters after training$"):
        fit(np.array(lrs), np.array(epochs))


def test_same_batch_failures_report_the_lowest_trial():
    # After one Adam step theta equals the learning rate: trial 2 then has an
    # infinite loss, trial 1 a negative infinite one, trial 0 a finite one.
    # Trial 2 trains longest, so it leads the stack, yet trial 1 is reported.
    def batch_grads(params, rows, epoch, batch):
        theta = params["theta"]
        losses = np.where(theta > 0.5, np.inf, np.where(theta > 0.2, -np.inf, theta))
        return losses, {"theta": -np.ones_like(theta)}

    config = TrainConfig(batch_size=1)
    with pytest.raises(TrainingError) as info:
        fit_adam({"theta": np.zeros(1)}, batch_grads, lambda p: p, 2, config, "toy", [0.1, 0.3, 0.7], [1, 2, 3])
    assert str(info.value) == "non-finite loss -inf at epoch 0, batch 1 (toy)"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kind,name", [("spo_plus", "train"), ("softmax_max_return", "train_dfl")])
def test_diverging_search_fails_the_strategy_like_a_trial_loop(monkeypatch, kind, name):
    # The backtest's ledger line for a search whose trial 1 diverges at once
    # while trial 0 meets a poisoned training day later: trial 1 fails first.
    frame, _, _ = generate_synthetic(SyntheticSpec(n_assets=4, n_days=480, seed=11))
    config = BacktestConfig(
        start=frame.dates[260], end=frame.dates[280], search=SearchSpace(n_trials=3, epochs_min=2, epochs_max=3)
    )
    real = getattr(bt, name)

    def poisoned(*args, learning_rates, **kwargs):
        x = args[0].copy()
        x[140, 0, 0] = np.nan  # batch 2 of 63-day batches
        lrs = np.array(learning_rates)
        lrs[1] = HUGE
        return real(x, *args[1:], **kwargs, learning_rates=lrs)

    monkeypatch.setattr(bt, name, poisoned)
    error = run_backtest(frame, (StrategySpec(kind, kind),), config)[kind].error
    first = bt.rebalance_dates(frame, config)[0]
    label = MAX_RETURN_LOSS if kind.startswith("softmax") else kind
    assert error == f"rebalance {first} (decide): TrainingError: non-finite loss nan at epoch 0, batch 1 ({label})"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("family", ["train", "train_dfl"])
def test_parameters_that_diverge_at_the_last_step_fail_alike(family):
    # One batch of 16 days and one epoch: the overflowing step leaves non-finite
    # parameters that no later batch's loss sees, so only the build reports them.
    x, y = make_data(6, 16, 3, 2)
    overflow_first_step(x, y)
    config = TrainConfig(batch_size=16)
    fit = partial(train_dfl, kind=MAX_RETURN_LOSS) if family == "train_dfl" else train
    with pytest.raises(TrainingError, match="^non-finite parameters after training$"):
        fit(x, y, config=config, learning_rates=[0.01], epochs=[1])


@pytest.mark.parametrize("kind", ["spo_plus", "softmax_max_return"])
@pytest.mark.parametrize(
    "lrs,epochs,message",
    [
        ([0.01], [MAX_EPOCHS + 1], "epochs must be in [1, 1000], got [1001]"),
        ([0.01], [0], "epochs must be in [1, 1000], got [0]"),
        ([-0.01], [2], "learning rates must be finite and >= 0, got [-0.01]"),
        ([np.nan], [2], "learning rates must be finite and >= 0, got [nan]"),
        ([0.01, -0.01, np.inf, 0.02], [2, 3, 1, 2], "learning rates must be finite and >= 0, got [-0.01, inf]"),
    ],
    ids=["too_many_epochs", "zero_epochs", "negative_rate", "nan_rate", "two_bad_rates"],
)
def test_trial_settings_are_checked_before_any_epoch(monkeypatch, kind, lrs, epochs, message):
    def no_step(*args):
        raise AssertionError("an Adam step ran")

    monkeypatch.setattr(training, "adam_step", no_step)
    x, y = make_data(7, 32, 3, 2)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        trainer(kind, x, y, 16, 7)(lrs, epochs)
