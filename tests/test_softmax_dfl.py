import numpy as np
import pytest

from dfolio.solvers import CovarianceEstimate, Portfolio, estimate_covariance
from dfolio.softmax_dfl import (
    MAX_RETURN_LOSS,
    MAX_SHARPE_LOSS,
    _loss_and_weight_grad,
    _stack,
    allocate,
    allocate_batch,
    batch_gradients,
    init_allocator,
    train_dfl,
)
from dfolio.training import SearchSpace, TrainConfig, TrainingError, hyperparameter_search


def zero_head_allocator(n=3, d=2, hidden=8):
    model = init_allocator(n, d, hidden=hidden, seed=0)
    model.w2 = np.zeros_like(model.w2)
    model.b2 = np.zeros_like(model.b2)
    return model


class TestAllocate:
    def test_uniform_at_zero_output_layer(self):
        model = zero_head_allocator(n=4)
        w = allocate(model, np.zeros((4, 2)))
        np.testing.assert_allclose(w.weights, 0.25, atol=1e-12)

    def test_saturation(self):
        model = zero_head_allocator(n=3)
        model.b2 = np.array([20.0, 0.0, 0.0])
        w = allocate(model, np.zeros((3, 2)))
        assert w.weights[0] >= 1.0 - 1e-8

    def test_always_a_portfolio(self):
        rng = np.random.default_rng(0)
        for seed in range(10):
            model = init_allocator(5, 3, hidden=16, seed=seed)
            w = allocate(model, rng.normal(size=(5, 3)))
            assert np.all(w.weights > 0)
            assert abs(w.weights.sum() - 1.0) <= 1e-9

    def test_shape_check(self):
        model = init_allocator(3, 2, seed=0)
        with pytest.raises(ValueError):
            allocate(model, np.zeros((4, 2)))


def loss_rows(weights, realized, kind, sigma=None):
    """Per-sample realized-performance losses of weight rows."""
    return _loss_and_weight_grad(np.atleast_2d(weights), np.atleast_2d(realized), kind, sigma)[0]


class TestDflLoss:
    def test_zero_returns(self):
        assert loss_rows(Portfolio.uniform(3).weights, np.zeros(3), MAX_RETURN_LOSS)[0] == 0.0

    def test_max_sharpe_zero_numerator(self):
        est = CovarianceEstimate(mean=np.zeros(2), sigma=np.eye(2))
        loss = loss_rows(np.array([0.5, 0.5]), np.array([0.1, -0.1]), MAX_SHARPE_LOSS, est.loaded)[0]
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_constant_returns_loss(self):
        rng = np.random.default_rng(1)
        w = rng.dirichlet(np.ones(4))
        loss = loss_rows(w, np.full(4, 0.02), MAX_RETURN_LOSS)[0]
        assert loss == pytest.approx(-0.02, abs=1e-12)

    def test_shift_identity(self):
        rng = np.random.default_rng(2)
        w = rng.dirichlet(np.ones(3))
        r = rng.normal(0, 0.05, 3)
        c = 0.013
        base = loss_rows(w, r, MAX_RETURN_LOSS)[0]
        shifted = loss_rows(w, r + c, MAX_RETURN_LOSS)[0]
        assert shifted == pytest.approx(base - c, abs=1e-12)

    def test_degenerate_covariance_rejected(self):
        from dfolio.solvers import SolverError

        # a singular estimate cannot even be constructed ...
        with pytest.raises(SolverError):
            CovarianceEstimate(mean=np.zeros(2), sigma=np.zeros((2, 2)), ridge=0.0)
        # ... and the loss itself guards against a degenerate raw sigma
        with pytest.raises(ValueError, match="variance"):
            _loss_and_weight_grad(
                np.array([[0.5, 0.5]]), np.array([[0.1, 0.0]]), MAX_SHARPE_LOSS, np.zeros((2, 2))
            )

    def test_sharpe_requires_estimate(self):
        # without a supplied estimate, the Sharpe loss estimates Sigma from the training returns
        rng = np.random.default_rng(6)
        x = rng.normal(size=(70, 3, 2))
        y = rng.normal(0, 0.01, size=(70, 3))
        cfg = TrainConfig(epochs=2, learning_rate=0.01, batch_size=63, seed=4)
        m1, t1 = train_dfl(x, y, MAX_SHARPE_LOSS, cfg)
        m2, t2 = train_dfl(x, y, MAX_SHARPE_LOSS, cfg, est=estimate_covariance(y))
        assert m1.w1.tobytes() == m2.w1.tobytes()
        assert t1 == t2


def flatten_params(model):
    return {
        "theta": model.inferencer.theta,
        "intercept": np.array([model.inferencer.intercept]),
        "w1": model.w1,
        "b1": model.b1,
        "w2": model.w2,
        "b2": model.b2,
    }


def set_param(model, name, value):
    if name == "theta":
        model.inferencer.theta = value
    elif name == "intercept":
        model.inferencer.intercept = float(value[0])
    else:
        setattr(model, name, value)


class TestGradients:
    @pytest.mark.parametrize("kind", [MAX_RETURN_LOSS, MAX_SHARPE_LOSS])
    def test_full_network_finite_differences(self, kind):
        rng = np.random.default_rng(3)
        n, d, hidden, batch = 4, 3, 32, 6
        model = init_allocator(n, d, hidden=hidden, seed=1)
        model.inferencer.theta = rng.normal(0, 0.3, d)
        model.inferencer.intercept = 0.05
        xb = rng.normal(size=(batch, n, d))
        yb = rng.normal(0, 0.05, size=(batch, n))
        sigma = None
        if kind == MAX_SHARPE_LOSS:
            a = rng.normal(size=(n, n))
            sigma = a @ a.T + 0.5 * np.eye(n)
        _, grads = batch_gradients(_stack(model), xb, yb, kind, sigma)

        def loss_at():
            z = allocate_batch(model, xb)
            if kind == MAX_RETURN_LOSS:
                return float(-(yb * z).sum(axis=1).mean())
            a_ = (yb * z).sum(axis=1)
            q = np.einsum("bi,ij,bj->b", z, sigma, z)
            return float((-a_ / np.sqrt(q)).mean())

        h = 1e-6
        for name, value in flatten_params(model).items():
            g = grads[name][0]
            flat = value.reshape(-1)
            g_flat = np.asarray(g).reshape(-1)
            fd = np.zeros_like(flat)
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + h
                set_param(model, name, value)
                up = loss_at()
                flat[k] = orig - h
                set_param(model, name, value)
                down = loss_at()
                flat[k] = orig
                set_param(model, name, value)
                fd[k] = (up - down) / (2 * h)
            denom = max(np.linalg.norm(fd), np.linalg.norm(g_flat), 1e-8)
            assert np.linalg.norm(fd - g_flat) / denom <= 1e-5

    def test_null_gradient_at_uniform_constant_returns(self):
        model = zero_head_allocator(n=3)
        xb = np.zeros((2, 3, 2))
        yb = np.full((2, 3), 0.02)
        _, grads = batch_gradients(_stack(model), xb, yb, MAX_RETURN_LOSS, None)
        np.testing.assert_allclose(grads["b2"], 0.0, atol=1e-15)
        np.testing.assert_allclose(grads["w2"], 0.0, atol=1e-15)


class TestTrainDfl:
    def test_dominant_asset_gets_weight(self):
        rng = np.random.default_rng(0)
        t, n, d = 252, 4, 3
        x = rng.normal(size=(t, n, d))
        y = rng.normal(0.0, 0.005, size=(t, n))
        x[:, 0, 0] = 1.0
        x[:, 1:, 0] = -1.0
        y[:, 0] = np.abs(y[:, 0]) + 0.02
        cfg = TrainConfig(epochs=40, learning_rate=0.02, batch_size=63, seed=0)
        model, trace = train_dfl(x, y, MAX_RETURN_LOSS, cfg)
        w = allocate_batch(model, x)
        assert w[:, 0].mean() >= 0.9
        assert trace[-1] <= trace[0]

    def test_zero_learning_rate_keeps_parameters(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(70, 3, 2))
        y = rng.normal(0, 0.01, size=(70, 3))
        cfg = TrainConfig(epochs=2, learning_rate=0.0, batch_size=63, seed=5)
        model, _ = train_dfl(x, y, MAX_RETURN_LOSS, cfg)
        init = init_allocator(3, 2, hidden=32, seed=5)
        np.testing.assert_array_equal(model.w1, init.w1)
        np.testing.assert_array_equal(model.w2, init.w2)
        assert np.all(model.inferencer.theta == 0.0)

    def test_sharpe_kind_estimates_covariance_from_window(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(70, 3, 2))
        y = rng.normal(0, 0.01, size=(70, 3))
        cfg = TrainConfig(epochs=2, learning_rate=0.01, batch_size=63, seed=0)
        model, trace = train_dfl(x, y, MAX_SHARPE_LOSS, cfg)
        assert np.all(np.isfinite(model.w1))
        assert len(trace) == 2

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(70, 3, 2))
        y = rng.normal(0, 0.01, size=(70, 3))
        cfg = TrainConfig(epochs=3, learning_rate=0.01, batch_size=63, seed=9)
        m1, t1 = train_dfl(x, y, MAX_RETURN_LOSS, cfg)
        m2, t2 = train_dfl(x, y, MAX_RETURN_LOSS, cfg)
        assert m1.w1.tobytes() == m2.w1.tobytes()
        assert t1 == t2

    def test_non_finite_loss_names_epoch_and_batch(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(130, 3, 2))
        y = rng.normal(0, 0.01, size=(130, 3))
        x[70, 0, 0] = np.nan  # rows 63..125 form batch 1
        cfg = TrainConfig(epochs=2, learning_rate=0.01, batch_size=63, seed=0)
        with pytest.raises(TrainingError, match=r"^non-finite loss nan at epoch 0, batch 1 \(max_return\)$"):
            train_dfl(x, y, MAX_RETURN_LOSS, cfg)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            train_dfl(np.zeros((70, 2, 2)), np.zeros((70, 2)), "nope", TrainConfig(batch_size=63))

    @pytest.mark.parametrize("kind", [MAX_RETURN_LOSS, MAX_SHARPE_LOSS])
    def test_search_keeps_model_equal_to_retrained_winner(self, kind):
        # the backtest decides from the search's winning allocator without
        # training it again, which is sound only because a retrain is bit-identical
        rng = np.random.default_rng(4)
        x = rng.normal(size=(130, 4, 3))
        y = rng.normal(0.0005, 0.01, size=(130, 4))
        xtr, ytr, xv, yv = x[:90], y[:90], x[90:], y[90:]
        est = estimate_covariance(ytr) if kind == MAX_SHARPE_LOSS else None

        def config(lr, epochs):
            return TrainConfig(learning_rate=lr, epochs=epochs, batch_size=63, seed=11)

        def score(model):
            return float((yv * allocate_batch(model, xv)).sum(axis=1).mean())

        space = SearchSpace(n_trials=3, seed=8, epochs_min=2, epochs_max=4)
        res = hyperparameter_search(
            space,
            lambda lrs, epochs: train_dfl(
                xtr, ytr, kind, config(0.0, 1), hidden=8, est=est, learning_rates=lrs, epochs=epochs
            ),
            score,
        )
        model, trace = train_dfl(xtr, ytr, kind, config(res.best.learning_rate, res.best.epochs), hidden=8, est=est)
        kept, again = flatten_params(res.model), flatten_params(model)
        assert {k: v.tobytes() for k, v in kept.items()} == {k: v.tobytes() for k, v in again.items()}
        assert res.traces[res.trials.index(res.best)] == tuple(trace)
