from dataclasses import replace

import numpy as np
import pytest

from dfolio.market_data import SyntheticSpec, compute_returns, generate_synthetic
from dfolio.solvers import DecisionProblem, Portfolio, MAX_RETURN_FEE, MAX_RETURN_FEE_L2
from dfolio.spo import RobustConfig
from dfolio.training import (
    MAX_EPOCHS,
    MSE,
    ROBUST_SPO,
    SCORE_TIE_TOL,
    SPO_PLUS,
    AdamState,
    LinearPredictor,
    SearchSpace,
    TrainConfig,
    TrainingError,
    adam_step,
    hyperparameter_search,
    predict,
    train,
    validation_score,
)


def planted_data(seed=3, n_assets=5, n_days=400, beta=(0.02, -0.01, 0.005), noise=1e-13):
    spec = SyntheticSpec(
        n_assets=n_assets, n_days=n_days, seed=seed, signal_coefficients=beta, noise_scale=noise
    )
    frame, tensor, _ = generate_synthetic(spec)
    rets = compute_returns(frame).simple_returns
    return tensor.features[:-1], rets


def linear_search(xtr, ytr, xv, yv, space, seed, base):
    """The search as the backtest runs it for a linear strategy."""
    return hyperparameter_search(
        space,
        seed,
        lambda lrs, epochs: train(xtr, ytr, base, lrs, epochs),
        lambda model: validation_score(model, xv, yv, base),
    )


class TestPredict:
    def test_intercept_only(self):
        model = LinearPredictor(theta=np.zeros(3), intercept=0.01)
        out = predict(model, np.random.default_rng(0).normal(size=(4, 3)))
        np.testing.assert_allclose(out, 0.01, atol=1e-15)

    def test_coordinate_pick(self):
        model = LinearPredictor(theta=np.array([1.0, 0.0]), intercept=0.5)
        x = np.array([[0.0, 9.0], [1.0, 9.0], [2.0, 9.0]])
        np.testing.assert_allclose(predict(model, x), [0.5, 1.5, 2.5], atol=1e-15)

    def test_matches_manual_dot(self):
        rng = np.random.default_rng(1)
        theta = rng.normal(size=6)
        model = LinearPredictor(theta=theta, intercept=0.2)
        x = rng.normal(size=(7, 6))
        manual = np.array([float(np.dot(theta, row)) + 0.2 for row in x])
        np.testing.assert_allclose(predict(model, x), manual, atol=1e-12)

    def test_dimension_mismatch(self):
        model = LinearPredictor(theta=np.zeros(3))
        with pytest.raises(ValueError):
            predict(model, np.zeros((2, 4)))


class TestAdam:
    def test_zero_gradient_no_move(self):
        p = np.array([1.0, -2.0])
        st = AdamState.like(p)
        for _ in range(5):
            p = adam_step(p, np.zeros(2), st, lr=0.1)
        np.testing.assert_array_equal(p, [1.0, -2.0])

    def test_single_step_magnitude(self):
        p = np.array([0.0])
        st = AdamState.like(p)
        p = adam_step(p, np.array([1.0]), st, lr=0.1)
        assert p[0] == pytest.approx(-0.1 * (1.0 / (1.0 + 1e-8)), abs=1e-12)

    def test_deterministic(self):
        p1, p2 = np.array([0.3]), np.array([0.3])
        s1, s2 = AdamState.like(p1), AdamState.like(p2)
        g = np.array([0.7])
        for _ in range(3):
            p1 = adam_step(p1, g, s1, lr=0.01)
            p2 = adam_step(p2, g, s2, lr=0.01)
        np.testing.assert_array_equal(p1, p2)


class TestTrain:
    def test_mse_recovers_planted_beta(self):
        x, y = planted_data()
        cfg = TrainConfig(loss_kind=MSE, batch_size=63, seed=0)
        model = train(x, y, cfg, [0.01], [40])[0]
        np.testing.assert_allclose(model.theta, [0.02, -0.01, 0.005], atol=1e-3)
        assert validation_score(model, x, y, cfg) > validation_score(LinearPredictor(np.zeros(3)), x, y, cfg)

    def test_spo_ranks_dominant_asset_first(self):
        rng = np.random.default_rng(0)
        t, n, d = 252, 4, 3
        x = rng.normal(size=(t, n, d))
        y = rng.normal(0.0, 0.005, size=(t, n))
        x[:, 0, 0] = 1.0
        x[:, 1:, 0] = -1.0
        y[:, 0] = np.abs(y[:, 0]) + 0.02
        cfg = TrainConfig(loss_kind=SPO_PLUS, batch_size=63, seed=0)
        model = train(x, y, cfg, [0.01], [40])[0]
        picks = np.argmax(predict(model, x), axis=1)
        assert (picks == 0).mean() >= 0.95

    def test_zero_learning_rate_keeps_parameters(self):
        x, y = planted_data(n_days=100)
        cfg = TrainConfig(loss_kind=MSE, batch_size=63, seed=0)
        model = train(x, y, cfg, [0.0], [3])[0]
        assert np.all(model.theta == 0.0)
        assert model.intercept == 0.0

    def test_deterministic(self):
        x, y = planted_data(n_days=150, noise=0.01)
        cfg = TrainConfig(loss_kind=SPO_PLUS, batch_size=63, seed=1)
        m1 = train(x, y, cfg, [0.01], [5])[0]
        m2 = train(x, y, cfg, [0.01], [5])[0]
        assert m1.theta.tobytes() == m2.theta.tobytes()
        assert m1.intercept == m2.intercept

    def test_mse_trace_non_increasing_full_batch(self):
        # Trial k of one stack takes k + 1 full-batch steps, so the full-batch
        # MSE of the models, in trial order, is the loss after each step.
        x, y = planted_data(n_days=101, noise=0.01)
        cfg = TrainConfig(loss_kind=MSE, batch_size=len(x), seed=0)
        models = train(x, y, cfg, [1e-4] * 10, range(1, 11))
        mse = [-validation_score(m, x, y, cfg) for m in models]
        assert all(a >= b - 1e-12 for a, b in zip(mse, mse[1:]))
        assert mse[-1] < mse[0]

    def test_robust_loss_trains(self):
        x, y = planted_data(n_days=150, noise=0.01)
        robust = RobustConfig(rho=0.1, n_samples=4, seed=2)
        cfg = TrainConfig(loss_kind=ROBUST_SPO, batch_size=63, seed=2, robust=robust)
        model = train(x, y, cfg, [0.01], [3])[0]
        assert np.all(np.isfinite(model.theta)) and np.any(model.theta != 0.0)

    @pytest.mark.parametrize("rho", [0.01, 0.1])
    def test_robust_first_step_equals_spo_plus(self, rho):
        # At theta = 0 every prediction is 0 and takes zeta = 0, so the first
        # Adam step is plain SPO+'s; the second step tells them apart.
        x, y = planted_data(n_assets=8, n_days=260, noise=0.01)
        robust = TrainConfig(loss_kind=ROBUST_SPO, batch_size=len(y), robust=RobustConfig(rho=rho))
        plain = replace(robust, loss_kind=SPO_PLUS, robust=None)
        model, model2 = train(x, y, robust, [0.02, 0.02], [1, 2])
        spo, spo2 = train(x, y, plain, [0.02, 0.02], [1, 2])
        assert model.theta.tobytes() == spo.theta.tobytes() and model.intercept == spo.intercept
        assert model2.theta.tobytes() != spo2.theta.tobytes()

    def test_fixed_intercept_stays_zero(self):
        x, y = planted_data(n_days=150, noise=0.01)
        cfg = TrainConfig(loss_kind=SPO_PLUS, batch_size=63, seed=0, fit_intercept=False)
        model = train(x, y, cfg, [0.05], [3])[0]
        assert model.intercept == 0.0
        assert np.any(model.theta != 0.0)

    def test_non_finite_aborts(self):
        x, y = planted_data(n_days=100)
        x = x.copy()
        x[10, 0, 0] = np.nan
        cfg = TrainConfig(loss_kind=MSE, batch_size=63, seed=0)
        with pytest.raises(TrainingError, match=r"^non-finite loss nan at epoch 0, batch 0 \(mse\)$"):
            train(x, y, cfg, [0.01], [2])

    def test_spo_gradient_through_linear_map(self):
        # finite differences on theta at margin-safe samples
        rng = np.random.default_rng(4)
        t, n, d = 63, 3, 2
        x = rng.normal(size=(t, n, d))
        y = rng.normal(0, 0.05, size=(t, n))
        theta = rng.normal(0, 0.02, d)
        prob = DecisionProblem()
        from dfolio.spo import spo_plus_batch

        def batch_loss(th):
            r_hat = x @ th
            losses, *_ = spo_plus_batch(r_hat, y, prob)
            return losses.mean()

        r_hat = x @ theta
        losses, g_rhat, _, _ = spo_plus_batch(r_hat, y, prob)
        shifted = 2 * r_hat - y
        part = np.partition(shifted, n - 2, axis=1)
        margins = part[:, -1] - part[:, -2]
        if margins.min() < 1e-3:
            keep = margins >= 1e-3
            x, y = x[keep], y[keep]
            r_hat = x @ theta
            losses, g_rhat, _, _ = spo_plus_batch(r_hat, y, prob)

        g_theta = np.einsum("bi,bid->d", g_rhat, x) / x.shape[0]
        h = 1e-7
        for k in range(d):
            e = np.zeros(d)
            e[k] = h
            fd = (batch_loss(theta + e) - batch_loss(theta - e)) / (2 * h)
            denom = max(abs(fd), abs(g_theta[k]), 1e-8)
            assert abs(fd - g_theta[k]) / denom <= 1e-5

    def test_requires_enough_samples(self):
        x, y = planted_data(n_days=40)
        with pytest.raises(ValueError, match="batch size"):
            train(x, y, TrainConfig(loss_kind=MSE, batch_size=63), [0.01], [2])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(loss_kind="nope")
        with pytest.raises(ValueError):
            TrainConfig(loss_kind=ROBUST_SPO)  # missing robust config
        with pytest.raises(ValueError, match="^epochs_max: must be <= 1000, got 1001$"):
            SearchSpace(epochs_max=MAX_EPOCHS + 1)
        assert SearchSpace(epochs_max=MAX_EPOCHS).epochs_max == MAX_EPOCHS


class TestSearch:
    def _data(self):
        x, y = planted_data(seed=5, n_days=260, noise=0.005)
        return x[:130], y[:130], x[130:], y[130:]

    def test_single_trial_returned(self):
        xtr, ytr, xv, yv = self._data()
        space = SearchSpace(n_trials=1, epochs_min=2, epochs_max=3)
        base = TrainConfig(loss_kind=MSE, batch_size=63)
        res = linear_search(xtr, ytr, xv, yv, space, 0, base)
        assert len(res.trials) == 1
        assert res.best == res.trials[0]

    def test_best_is_max_score(self):
        xtr, ytr, xv, yv = self._data()
        space = SearchSpace(n_trials=6, epochs_min=2, epochs_max=5)
        base = TrainConfig(loss_kind=SPO_PLUS, batch_size=63)
        res = linear_search(xtr, ytr, xv, yv, space, 1, base)
        scores = [t.score for t in res.trials]
        top = max(scores)
        tied = [s >= top - SCORE_TIE_TOL * max(1.0, abs(top)) for s in scores]
        assert res.best == res.trials[tied.index(True)]
        assert res.best.score >= float(np.median(scores))

    def test_same_seed_same_choice(self):
        xtr, ytr, xv, yv = self._data()
        space = SearchSpace(n_trials=4, epochs_min=2, epochs_max=4)
        base = TrainConfig(loss_kind=MSE, batch_size=63)
        r1 = linear_search(xtr, ytr, xv, yv, space, 7, base)
        r2 = linear_search(xtr, ytr, xv, yv, space, 7, base)
        assert r1.best == r2.best
        assert r1.trials == r2.trials

    def test_draws_respect_ranges(self):
        xtr, ytr, xv, yv = self._data()
        space = SearchSpace(lr_min=1e-4, lr_max=5e-2, epochs_min=2, epochs_max=6, n_trials=8)
        res = linear_search(xtr, ytr, xv, yv, space, 3, TrainConfig(loss_kind=MSE, batch_size=63))
        for t in res.trials:
            assert 1e-4 <= t.learning_rate <= 5e-2
            assert 2 <= t.epochs <= 6

    def test_mse_score_is_negated_error(self):
        model = LinearPredictor(theta=np.zeros(2), intercept=0.0)
        x = np.zeros((4, 3, 2))
        y = np.full((4, 3), 0.1)
        cfg = TrainConfig(loss_kind=MSE, batch_size=2)
        score = validation_score(model, x, y, cfg)
        assert score == pytest.approx(-3 * 0.01, abs=1e-12)

    def test_decision_score_subtracts_fee(self):
        model = LinearPredictor(theta=np.array([1.0]), intercept=0.0)
        x = np.zeros((2, 2, 1))
        x[:, 0, 0] = 1.0  # asset 0 predicted best both days
        y = np.array([[0.05, 0.0], [0.03, 0.0]])
        prob = DecisionProblem(kind=MAX_RETURN_FEE, gamma=0.01, w_prev=Portfolio(np.array([0.0, 1.0])))
        cfg = TrainConfig(loss_kind=SPO_PLUS, batch_size=1, problem=prob)
        score = validation_score(model, x, y, cfg)
        # moves fully to asset 0: value r[0] - gamma * 2 each day
        assert score == pytest.approx(np.mean([0.05 - 0.02, 0.03 - 0.02]), abs=1e-12)

    def test_earliest_trial_wins_ties(self):
        # Scores within SCORE_TIE_TOL of the best tie with it; beyond it, the best wins.
        for scores, winner in [([0.25] * 5, 0), ([0.25, 0.25 + 1e-15], 0), ([0.25, 0.25 + 1e-9], 1)]:
            space = SearchSpace(n_trials=len(scores), epochs_min=2, epochs_max=6)
            fitted = []

            def fit(lrs, epochs):
                models = [object() for _ in lrs]
                fitted.extend(models)
                return models

            res = hyperparameter_search(space, 4, fit, lambda model: scores[fitted.index(model)])
            assert len(fitted) == len(scores)
            assert res.best == res.trials[winner]
            assert res.model is fitted[winner]

    @pytest.mark.parametrize("loss", ["mse", "spo_plus", "spo_plus_fee", "spo_plus_fee_l2", "robust_spo"])
    def test_kept_model_equals_retrained_winner(self, loss):
        # the search keeps the winning trial's model instead of training it again,
        # which is sound only because a retrain reproduces it bit for bit
        xtr, ytr, xv, yv = self._data()
        prior = Portfolio(np.full(ytr.shape[1], 1.0 / ytr.shape[1]))
        base = {
            "mse": TrainConfig(loss_kind=MSE, batch_size=63),
            "spo_plus": TrainConfig(loss_kind=SPO_PLUS, batch_size=63),
            "spo_plus_fee": TrainConfig(
                loss_kind=SPO_PLUS, batch_size=63,
                problem=DecisionProblem(kind=MAX_RETURN_FEE, gamma=0.005, w_prev=prior),
            ),
            "spo_plus_fee_l2": TrainConfig(
                loss_kind=SPO_PLUS, batch_size=63,
                problem=DecisionProblem(kind=MAX_RETURN_FEE_L2, gamma=0.005, lam=0.42, w_prev=prior),
            ),
            "robust_spo": TrainConfig(
                loss_kind=ROBUST_SPO, batch_size=63, seed=9,
                robust=RobustConfig(rho=0.1, n_samples=4, seed=3),
            ),
        }[loss]
        space = SearchSpace(n_trials=3, epochs_min=2, epochs_max=4)
        res = linear_search(xtr, ytr, xv, yv, space, 6, base)
        model = train(xtr, ytr, base, [res.best.learning_rate], [res.best.epochs])[0]
        assert res.model.theta.tobytes() == model.theta.tobytes()
        assert res.model.intercept == model.intercept

    def test_validation_unaffected_by_training_poison(self):
        # the trained model is a pure function of the train split
        xtr, ytr, xv, yv = self._data()
        base = TrainConfig(loss_kind=MSE, batch_size=63)
        space = SearchSpace(n_trials=2, epochs_min=2, epochs_max=3)
        res1 = linear_search(xtr, ytr, xv, yv, space, 5, base)
        res2 = linear_search(xtr, ytr, xv * 100.0, yv * 100.0, space, 5, base)
        # same configs drawn; scores differ, but train-side artifacts identical
        assert [
            (t.learning_rate, t.epochs) for t in res1.trials
        ] == [(t.learning_rate, t.epochs) for t in res2.trials]
