import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    robust_max_return_batch,
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


RHOS = (1e-12, 0.01, 0.1, 0.5, 0.99)
# Cells with exact ties, signed zeros and values small enough to be absorbed
# by a return of ordinary size, mixed with arbitrary finite floats.
CELLS = st.one_of(
    st.sampled_from([0.0, -0.0, 0.01, -0.01, 0.02, 1e-20, -1e-20, 0.5]),
    st.floats(-0.2, 0.2, allow_nan=False),
)


@st.composite
def max_return_rows(draw):
    n = draw(st.integers(2, 8))
    b = draw(st.integers(1, 6))
    r_hat = np.array(draw(st.lists(CELLS, min_size=b * n, max_size=b * n))).reshape(b, n)
    r = np.array(draw(st.lists(CELLS, min_size=b * n, max_size=b * n))).reshape(b, n)
    if draw(st.booleans()):  # a duplicated asset
        src, dst = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        r_hat[:, dst], r[:, dst] = r_hat[:, src], r[:, src]
    if draw(st.booleans()):  # an all-zero prediction row, as at theta = 0
        r_hat[draw(st.integers(0, b - 1))] = 0.0
    rho = draw(st.sampled_from(RHOS))
    return r_hat, r, RobustConfig(rho=rho, seed=draw(st.integers(0, 2**32)))


class TestRobustMaxReturn:
    """The closed-form worst case over the box for the max-return oracle."""

    @staticmethod
    def both(r_hat, r, cfg):
        w_star = argmax_batch(r, DecisionProblem())
        exact = robust_max_return_batch(r_hat, r, w_star, cfg)
        zetas = perturbation_set(cfg.rho, r.shape[1], cfg)
        sampled = robust_spo_batch(r_hat, r, DecisionProblem(), zetas, w_star_rows=w_star)
        return exact, sampled

    @settings(max_examples=400, deadline=None)
    @given(max_return_rows())
    @example((np.array([[1e-20, 2e-20]]), np.array([[0.5, 0.1]]), RobustConfig(rho=0.1)))
    # Two rivals tie exactly; the +rho corner, which precedes the worst one,
    # is maximized by the later rival.
    @example((np.array([[-0.25, 0.25, -0.25]]), np.array([[0.0, 1.0, 2.0]]), RobustConfig(rho=0.5)))
    # Near-ties between the best rival and j's least value, found by search.
    @example((
        np.array([[0.0023414322103364133, -0.009684709695817622, 0.004614726014996658]]),
        np.array([[-0.007461040028548929, -0.03004466834376076, -0.004305684064295051]]),
        RobustConfig(rho=0.1, seed=755),
    ))
    @example((
        np.array([[-0.006416411029827086, -0.0035885404197639617, 0.008044844211335517]]),
        np.array([[-0.014535664346015859, -0.01427017951056787, 0.0066699128254111935]]),
        RobustConfig(rho=0.1, seed=755),
    ))
    @example((
        np.array([[-0.005253876604737516, 0.001656766762667388]]),
        np.array([[-0.01346909201402247, -0.0010299339526936408]]),
        RobustConfig(rho=0.1, seed=712),
    ))
    def test_settled_rows_equal_sampled_bit_for_bit(self, case):
        r_hat, r, cfg = case
        (losses, grads, settled), (s_losses, s_grads) = self.both(r_hat, r, cfg)
        for i in np.flatnonzero(settled):
            assert losses[i].tobytes() == s_losses[i].tobytes()
            assert grads[i].tobytes() == s_grads[i].tobytes()
        # The sample lies inside the box, so it never beats the exact worst case.
        assert np.all(losses >= s_losses - 1e-15)

    def test_absorbed_predictions_stay_unsettled(self):
        # Every sample scores 0.4 in float, so the sampled argmax keeps the
        # first uniform draw and its factor, not the worst corner's.
        (_, grads, settled), (_, s_grads) = self.both(np.array([[1e-20, 2e-20]]), np.array([[0.5, 0.1]]), RobustConfig(rho=0.1))
        assert not settled[0]
        assert grads[0].tobytes() != s_grads[0].tobytes()

    def test_uniform_draw_beside_the_corner_stays_unsettled(self, monkeypatch):
        # A draw one float inside the worst corner at k scores the same once
        # r_j absorbs the difference, and it precedes the corners in the set.
        import dfolio.spo

        monkeypatch.setattr(dfolio.spo, "_unit_draws", lambda seed, n, n_samples: np.array([[-1.0, 1.0 - 1e-15]]))
        cfg = RobustConfig(rho=0.1, n_samples=1)
        (_, grads, settled), (_, s_grads) = self.both(np.array([[1e-3, 1e-3]]), np.array([[1.0, 0.0]]), cfg)
        assert not settled[0]
        assert grads[0].tobytes() != s_grads[0].tobytes()

    @pytest.mark.parametrize("rho", [0.01, 0.1, 0.5])
    def test_ordinary_rows_all_settle(self, rho):
        rng = np.random.default_rng(5)
        r_hat, r = rng.normal(0, 0.005, (200, 10)), rng.normal(0, 0.02, (200, 10))
        (losses, grads, settled), (s_losses, s_grads) = self.both(r_hat, r, RobustConfig(rho=rho, seed=11))
        assert settled.all()
        assert losses.tobytes() == s_losses.tobytes() and grads.tobytes() == s_grads.tobytes()

    def test_zero_predictions_unsettled(self):
        rng = np.random.default_rng(6)
        r = rng.normal(0, 0.02, (4, 5))
        _, _, settled = robust_max_return_batch(np.zeros((4, 5)), r, argmax_batch(r, DecisionProblem()), RobustConfig(rho=0.1))
        assert not settled.any()

    def test_rho_at_least_one_unsettled(self):
        rng = np.random.default_rng(7)
        r_hat, r = rng.normal(0, 0.005, (20, 4)), rng.normal(0, 0.02, (20, 4))
        _, _, settled = robust_max_return_batch(r_hat, r, argmax_batch(r, DecisionProblem()), RobustConfig(rho=1.5))
        assert not settled.any()

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_box_vertex_maximum(self, n):
        rng = np.random.default_rng(100 + n)
        signs = np.array(list(itertools.product((-1.0, 1.0), repeat=n)))
        prob = DecisionProblem()
        for _ in range(12):
            rho = float(rng.choice([0.01, 0.1, 0.5, 0.99]))
            r_hat, r = rng.normal(0, 0.05, n), rng.normal(0, 0.05, n)
            if n > 2:
                r_hat[rng.integers(n)] = 0.0
            vertices = r_hat * (1.0 + rho * signs)
            vertex_losses = spo_plus_batch(vertices, np.tile(r, (len(signs), 1)), prob)[0]
            loss = robust_max_return_batch(r_hat[None], r[None], argmax_batch(r[None], prob), RobustConfig(rho=rho))[0]
            assert abs(loss[0] - max(vertex_losses.max(), 0.0)) <= 1e-15
