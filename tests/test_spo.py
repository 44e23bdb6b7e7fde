import numpy as np
import pytest

from dfolio.solvers import (
    MAX_RETURN,
    MAX_RETURN_FEE,
    MAX_RETURN_FEE_L2,
    DecisionProblem,
    Portfolio,
    argmax_batch,
)
from dfolio.spo import (
    RobustConfig,
    perturbation_set,
    robust_spo_batch,
    spo_plus_batch,
)

from oracles import grid_regret, objective_values


def random_problem(rng, n, kind):
    if kind == MAX_RETURN:
        return DecisionProblem()
    p = Portfolio(rng.dirichlet(np.ones(n)))
    if kind == MAX_RETURN_FEE:
        return DecisionProblem(kind=kind, gamma=float(rng.uniform(0, 0.05)), w_prev=p)
    return DecisionProblem(
        kind=kind, gamma=float(rng.uniform(0, 0.05)), lam=float(rng.uniform(0.01, 1.0)), w_prev=p
    )


ALL_KINDS = (MAX_RETURN, MAX_RETURN_FEE, MAX_RETURN_FEE_L2)


def spo_row(r_hat, r, prob):
    """SPO+ at one (r_hat, r) pair: (loss, subgradient, w_tilde, w_star)."""
    losses, grads, w_tilde, w_star = spo_plus_batch(r_hat[None, :], r[None, :], prob)
    return float(losses[0]), grads[0], w_tilde[0], w_star[0]


def true_regret(r_hat, r, prob):
    """Realized loss of deciding on r_hat instead of r, valued by the reference objective."""
    star, hat = objective_values(argmax_batch(np.stack([r, r_hat]), prob), r, prob)
    return float(star - hat)


def robust_row(r_hat, r, prob, cfg):
    """Worst sampled SPO+ at one pair: (loss, r_hat-subgradient)."""
    losses, grads = robust_spo_batch(r_hat[None, :], r[None, :], prob, perturbation_set(cfg.rho, r.size, cfg))
    return float(losses[0]), grads[0]


class TestSpoPlus:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_perfect_prediction_zero_loss(self, kind):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            prob = random_problem(rng, n, kind)
            r = rng.normal(0, 0.05, n)
            loss, grad, _, _ = spo_row(r, r, prob)
            assert abs(loss) <= 1e-9
            np.testing.assert_allclose(grad, 0.0, atol=1e-9)
            assert abs(true_regret(r, r, prob)) <= 1e-9

    def test_hand_vertex_example(self):
        # r = (0.1, 0), r_hat = (-0.1, 0.05): w* = e1, shifted = (-0.3, 0.1),
        # w~ = e2, loss = 0.1 + 0.2 + 0.1 = 0.4, subgradient (-2, 2), regret 0.1
        r_hat, r = np.array([-0.1, 0.05]), np.array([0.1, 0.0])
        loss, grad, w_tilde, w_star = spo_row(r_hat, r, DecisionProblem())
        assert loss == pytest.approx(0.4, abs=1e-12)
        np.testing.assert_allclose(grad, [-2.0, 2.0], atol=1e-12)
        np.testing.assert_allclose(w_star, [1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(w_tilde, [0.0, 1.0], atol=1e-12)
        regret = true_regret(r_hat, r, DecisionProblem())
        assert regret == pytest.approx(0.1, abs=1e-12)
        assert loss >= regret

    def test_huge_fee_pins_to_prior(self):
        rng = np.random.default_rng(1)
        p = Portfolio(np.array([0.25, 0.35, 0.40]))
        prob = DecisionProblem(kind=MAX_RETURN_FEE, gamma=50.0, w_prev=p)
        r = rng.normal(0, 0.05, 3)
        for _ in range(5):
            r_hat = rng.normal(0, 0.5, 3)
            loss, _, w_tilde, w_star = spo_row(r_hat, r, prob)
            np.testing.assert_allclose(w_star, p.weights, atol=1e-9)
            np.testing.assert_allclose(w_tilde, p.weights, atol=1e-9)
            assert abs(loss) <= 1e-9

    def test_subgradient_is_two_w_diff(self):
        rng = np.random.default_rng(2)
        for kind in ALL_KINDS:
            n = 4
            prob = random_problem(rng, n, kind)
            _, grad, w_tilde, w_star = spo_row(rng.normal(0, 0.05, n), rng.normal(0, 0.05, n), prob)
            np.testing.assert_allclose(grad, 2.0 * (w_tilde - w_star), atol=1e-9)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_upper_bound_vs_grid_oracle(self, kind):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(2, 4)) if kind != MAX_RETURN else int(rng.integers(2, 8))
            prob = random_problem(rng, n, kind)
            r_hat = rng.normal(0, 0.05, n)
            r = rng.normal(0, 0.05, n)
            loss = spo_row(r_hat, r, prob)[0]
            regret = true_regret(r_hat, r, prob)
            refine = kind == MAX_RETURN_FEE_L2
            oracle_regret = grid_regret(r_hat, r, prob, refine=refine)
            assert oracle_regret >= -1e-9
            assert loss >= oracle_regret - 1e-9
            assert loss >= regret - 1e-9
            assert regret >= -1e-9

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_convexity_in_predictions(self, kind):
        rng = np.random.default_rng(4)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            prob = random_problem(rng, n, kind)
            r = rng.normal(0, 0.05, n)
            a = rng.normal(0, 0.08, n)
            b = rng.normal(0, 0.08, n)
            la = spo_row(a, r, prob)[0]
            lb = spo_row(b, r, prob)[0]
            for t in (0.25, 0.5, 0.75):
                mid = spo_row(t * a + (1 - t) * b, r, prob)[0]
                assert mid <= t * la + (1 - t) * lb + 1e-9

    def test_subgradient_finite_differences(self):
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 40:
            n = int(rng.integers(2, 6))
            kind = (MAX_RETURN, MAX_RETURN_FEE_L2)[checked % 2]
            prob = random_problem(rng, n, kind)
            r_hat = rng.normal(0, 0.05, n)
            r = rng.normal(0, 0.05, n)
            if kind == MAX_RETURN:
                shifted = np.sort(2 * r_hat - r)
                if shifted[-1] - shifted[-2] < 1e-3:
                    continue
            _, grad, _, _ = spo_row(r_hat, r, prob)
            h = 1e-6
            for _ in range(5):
                u = rng.normal(size=n)
                u /= np.linalg.norm(u)
                lp = spo_row(r_hat + h * u, r, prob)[0]
                lm = spo_row(r_hat - h * u, r, prob)[0]
                fd = (lp - lm) / (2 * h)
                analytic = float(grad @ u)
                denom = max(abs(fd), abs(analytic), 1e-8)
                assert abs(fd - analytic) / denom <= 1e-5
            checked += 1

    def test_batch_matches_scalar_path(self):
        # a batch of rows gives what each row gives alone, with or without precomputed w*
        rng = np.random.default_rng(6)
        for kind in ALL_KINDS:
            n = 5
            prob = random_problem(rng, n, kind)
            r_hat = rng.normal(0, 0.05, (8, n))
            r = rng.normal(0, 0.05, (8, n))
            losses, grads, _, w_star = spo_plus_batch(r_hat, r, prob)
            again, _, _, _ = spo_plus_batch(r_hat, r, prob, w_star_rows=w_star)
            np.testing.assert_array_equal(again, losses)
            for i in range(8):
                loss, grad, _, _ = spo_row(r_hat[i], r[i], prob)
                assert losses[i] == pytest.approx(loss, abs=1e-9)
                np.testing.assert_allclose(grads[i], grad, atol=1e-9)


class TestRobust:
    def test_tiny_radius_matches_plain(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            r_hat, r = rng.normal(0, 0.05, n), rng.normal(0, 0.05, n)
            loss, _ = robust_row(r_hat, r, DecisionProblem(), RobustConfig(rho=1e-12, n_samples=4, seed=0))
            assert loss == pytest.approx(spo_row(r_hat, r, DecisionProblem())[0], abs=1e-9)

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        r_hat, r = rng.normal(0, 0.05, 4), rng.normal(0, 0.05, 4)
        cfg = RobustConfig(rho=0.1, n_samples=1, seed=42)
        loss1, grad1 = robust_row(r_hat, r, DecisionProblem(), cfg)
        loss2, grad2 = robust_row(r_hat, r, DecisionProblem(), cfg)
        assert loss1 == loss2
        np.testing.assert_array_equal(grad1, grad2)

    def test_worst_sample_by_enumeration(self):
        rng = np.random.default_rng(9)
        r_hat, r = rng.normal(0, 0.05, 3), rng.normal(0, 0.05, 3)
        cfg = RobustConfig(rho=0.1, n_samples=6, seed=7)
        loss, grad = robust_row(r_hat, r, DecisionProblem(), cfg)
        zetas = perturbation_set(cfg.rho, 3, cfg)
        per = [spo_row(r_hat * (1 + z), r, DecisionProblem()) for z in zetas]
        k = int(np.argmax([e[0] for e in per]))
        assert loss == pytest.approx(per[k][0], abs=1e-12)
        np.testing.assert_allclose(grad, per[k][1] * (1 + zetas[k]), atol=1e-12)

    def test_worst_is_at_least_unperturbed_and_nonneg(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            r = rng.normal(0, 0.05, n)
            loss, _ = robust_row(r, r, DecisionProblem(), RobustConfig(rho=0.1, n_samples=4, seed=1))
            assert loss >= -1e-12

    def test_monotone_in_rho(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            r_hat, r = rng.normal(0, 0.05, n), rng.normal(0, 0.05, n)
            losses = [
                robust_row(r_hat, r, DecisionProblem(), RobustConfig(rho=rho, n_samples=8, seed=3))[0]
                for rho in (0.01, 0.05, 0.1, 0.2, 0.4)
            ]
            assert all(a <= b + 1e-9 for a, b in zip(losses, losses[1:]))

    def test_nested_sampling(self):
        cfg1 = RobustConfig(rho=0.05, n_samples=6, seed=5)
        cfg2 = RobustConfig(rho=0.2, n_samples=6, seed=5)
        z1 = perturbation_set(cfg1.rho, 4, cfg1)
        z2 = perturbation_set(cfg2.rho, 4, cfg2)
        np.testing.assert_allclose(z1 / 0.05, z2 / 0.2, atol=1e-12)

    def test_corner_cap(self):
        for n in (1, 2, 5):
            cfg = RobustConfig(rho=0.1, n_samples=3, seed=0)
            zetas = perturbation_set(cfg.rho, n, cfg)
            assert zetas.shape == (3 + max(2, 2 * n), n)
            assert np.all(np.abs(zetas) <= 0.1 + 1e-15)
            # +rho and -rho on every coordinate, then single-coordinate sign flips
            np.testing.assert_array_equal(np.abs(zetas[3:]), 0.1)
            np.testing.assert_array_equal(zetas[3], np.full(n, 0.1))
            np.testing.assert_array_equal(zetas[4], np.full(n, -0.1))

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(12)
        prob = DecisionProblem()
        cfg = RobustConfig(rho=0.1, n_samples=5, seed=9)
        r_hat = rng.normal(0, 0.05, (6, 4))
        r = rng.normal(0, 0.05, (6, 4))
        zetas = perturbation_set(cfg.rho, 4, cfg)
        losses, grads = robust_spo_batch(r_hat, r, prob, zetas)
        for i in range(6):
            per = [spo_row(r_hat[i] * (1 + z), r[i], prob) for z in zetas]
            k = int(np.argmax([e[0] for e in per]))
            assert losses[i] == pytest.approx(per[k][0], abs=1e-9)
            np.testing.assert_allclose(grads[i], per[k][1] * (1 + zetas[k]), atol=1e-9)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RobustConfig(rho=0.0)
        with pytest.raises(ValueError):
            RobustConfig(rho=0.1, n_samples=0)
