from dataclasses import replace

import numpy as np
import pytest

from dfolio.solvers import (
    MAX_RETURN,
    MAX_RETURN_FEE,
    MAX_RETURN_FEE_L2,
    CovarianceEstimate,
    DecisionProblem,
    Portfolio,
    SolverError,
    argmax_batch,
    estimate_covariance,
    fee_l2_gap,
    solve_fee,
    solve_fee_l2,
    solve_max_return,
    solve_max_sharpe,
)

import dfolio.solvers as solvers
from oracles import (
    InfeasibleError,
    UnboundedError,
    grid_argmax,
    lp_fee_argmax,
    lp_fee_l2_gap,
    lp_fee_min_turnover,
    objective_values,
    sharpe_grid_best,
    solve_lp,
)


def fee_problem(p, gamma):
    return DecisionProblem(kind=MAX_RETURN_FEE, gamma=gamma, w_prev=Portfolio(p))


def l2_problem(p, gamma, lam):
    return DecisionProblem(kind=MAX_RETURN_FEE_L2, gamma=gamma, lam=lam, w_prev=Portfolio(p))


def tie_heavy(rng, n, units=1000):
    """Predictions, prior and fee on a 1/units lattice, so kinks and slopes tie.

    With units = 1000 the ties are exact only before float rounding; with a
    power of two the oracles' float arithmetic is exact and so are the ties.
    """
    r = rng.integers(-20, 21, n) / units
    p = rng.multinomial(units, rng.dirichlet(np.ones(n))) / units
    gamma = int(rng.integers(0, 11)) / units
    return r, p, gamma


def vertex_prior(rng, n):
    """A prior with zero weights: a vertex, or a few assets held."""
    if rng.random() < 0.5:
        return np.eye(n)[int(rng.integers(n))]
    return rng.multinomial(3, np.ones(n) / n) / 3


class TestPortfolio:
    def test_clamps_tiny_negative(self):
        w = Portfolio(np.array([1.0 + 5e-11, -5e-11]))
        assert w.weights[1] == 0.0

    def test_rejects_real_negative(self):
        with pytest.raises(ValueError):
            Portfolio(np.array([1.1, -0.1]))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            Portfolio(np.array([0.6, 0.6]))


class TestDecisionProblem:
    def test_kind_consistency(self):
        with pytest.raises(ValueError):
            DecisionProblem(kind=MAX_RETURN, gamma=0.1)
        with pytest.raises(ValueError):
            DecisionProblem(kind=MAX_RETURN_FEE, gamma=0.1, lam=0.1, w_prev=Portfolio.uniform(2))
        with pytest.raises(ValueError):
            DecisionProblem(kind=MAX_RETURN_FEE_L2, lam=0.0, w_prev=Portfolio.uniform(2))
        with pytest.raises(ValueError):
            DecisionProblem(kind=MAX_RETURN_FEE, gamma=0.1)  # missing w_prev


class TestMaxReturn:
    def test_basic(self):
        assert np.array_equal(solve_max_return([0.1, 0.0]).weights, [1.0, 0.0])

    def test_tie_breaks_low_index(self):
        assert np.array_equal(solve_max_return([0.3, 0.3]).weights, [1.0, 0.0])

    def test_all_negative(self):
        assert np.array_equal(solve_max_return([-1.0, -2.0, -0.5]).weights, [0.0, 0.0, 1.0])


class TestSolveLp:
    def test_simplex_vertex(self):
        x, v = solve_lp([0.0, 1.0], a_eq=[[1.0, 1.0]], b_eq=[1.0])
        assert v == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(x, [0.0, 1.0], atol=1e-9)

    def test_box_with_coupling(self):
        x, v = solve_lp(
            [1.0, 1.0],
            a_ub=[[1.0, 0.0], [0.0, 1.0], [1.0, 2.0]],
            b_ub=[1.0, 1.0, 1.0],
        )
        assert v == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(x, [1.0, 0.0], atol=1e-9)

    def test_infeasible(self):
        with pytest.raises(InfeasibleError):
            solve_lp([1.0], a_ub=[[-1.0], [1.0]], b_ub=[-2.0, 1.0])

    def test_unbounded(self):
        with pytest.raises(UnboundedError):
            solve_lp([1.0])

    def test_minimize_sense(self):
        x, v = solve_lp([1.0, 2.0], a_eq=[[1.0, 1.0]], b_eq=[1.0], maximize=False)
        assert v == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(x, [1.0, 0.0], atol=1e-9)

    def test_random_simplex_lps_match_argmax(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            c = rng.normal(size=n)
            x, v = solve_lp(c, a_eq=[np.ones(n)], b_eq=[1.0])
            assert v == pytest.approx(c.max(), abs=1e-9)

    def test_equality_with_negative_rhs(self):
        x, v = solve_lp([-1.0, -1.0], a_eq=[[-1.0, -1.0]], b_eq=[-1.0])
        assert v == pytest.approx(-1.0, abs=1e-9)


class TestSolveFee:
    def test_fee_blocks_small_edge(self):
        prob = fee_problem(np.array([1.0, 0.0]), gamma=0.05)
        np.testing.assert_allclose(solve_fee([0.01, 0.02], prob).weights, [1.0, 0.0], atol=1e-9)

    def test_cheap_fee_allows_switch(self):
        prob = fee_problem(np.array([1.0, 0.0]), gamma=0.002)
        np.testing.assert_allclose(solve_fee([0.01, 0.02], prob).weights, [0.0, 1.0], atol=1e-9)

    def test_zero_fee_reduces_to_max_return(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            n = int(rng.integers(2, 6))
            r = rng.normal(0, 0.05, n)
            prob = fee_problem(rng.dirichlet(np.ones(n)), gamma=0.0)
            np.testing.assert_allclose(
                solve_fee(r, prob).weights, solve_max_return(r).weights, atol=1e-9
            )
        # On a prior that sums to 1 exactly in floats, and with no tie for the
        # best prediction, it is argmax_batch's MAX_RETURN one-hot bit for bit.
        for _ in range(200):
            n = int(rng.integers(2, 12))
            v = rng.normal(0, 0.05, (4, n))
            p = rng.multinomial(1024, rng.dirichlet(np.ones(n))) / 1024
            np.testing.assert_array_equal(argmax_batch(v, fee_problem(p, 0.0)), argmax_batch(v, DecisionProblem()))

    def test_turnover_monotone_in_gamma(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            r = rng.normal(0, 0.05, n)
            p = rng.dirichlet(np.ones(n))
            turnovers = []
            for gamma in (0.0, 0.002, 0.005, 0.01, 0.02, 0.05):
                w = solve_fee(r, fee_problem(p, gamma)).weights
                turnovers.append(np.abs(w - p).sum())
            assert all(a >= b - 1e-9 for a, b in zip(turnovers, turnovers[1:]))

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            r = rng.normal(0, 0.05, 3)
            prob = fee_problem(rng.dirichlet(np.ones(3)), gamma=float(rng.uniform(0, 0.05)))
            w = solve_fee(r, prob).weights
            obj = float(objective_values(w[None, :], r, prob)[0])
            _, grid_val = grid_argmax(r, prob)
            assert abs(obj - grid_val) <= 1e-5

    def test_batch_oracle_agrees(self):
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(100):
            n = int(rng.integers(2, 8))
            r = rng.normal(0, 0.05, n)
            prob = fee_problem(rng.dirichlet(np.ones(n)), gamma=float(rng.uniform(0, 0.05)))
            w_lp, v_lp = lp_fee_argmax(r, prob)
            w_fast = argmax_batch(r[None, :], prob)[0]
            np.testing.assert_array_equal(solve_fee(r, prob).weights, w_fast)
            v_fast = objective_values(w_fast[None, :], r, prob)[0]
            assert abs(v_lp - v_fast) <= 1e-9
            # Where the LP optimum is unique (no tie for the best buy, none
            # between keeping an asset and buying the best), every other asset
            # keeps its prior bit for bit or is sold to exactly 0.0.
            p, j = prob.w_prev.weights, int(np.argmax(r))
            others = np.delete(r, j)
            if r[j] - others.max() > 1e-9 and np.abs(others + 2 * prob.gamma - r[j]).min() > 1e-9:
                kept = np.delete(w_lp, j) > 1e-9
                np.testing.assert_allclose(np.delete(w_lp, j)[kept], np.delete(p, j)[kept], atol=1e-9)
                assert np.array_equal(np.delete(w_fast, j), np.where(kept, np.delete(p, j), 0.0))
                checked += 1
        assert checked >= 90

    def test_tie_heavy_inputs_match_lp(self):
        # Ties between keeping one asset and buying another leave several
        # optima. Every decision must reach the LP optimum; where the ties are
        # exact in floating point, the oracle keeps the prior, so it trades no
        # more than any optimal decision does. Exact ties for the best
        # prediction buy the first one, and the tied rival keeps its prior.
        prob = fee_problem(np.array([0.5, 0.0, 0.5, 0.0]), gamma=0.001)
        assert solve_fee([0.01, 0.03, 0.03, 0.03], prob).weights.tolist() == [0.0, 0.5, 0.5, 0.0]
        rng = np.random.default_rng(14)
        for units in (1000, 1024):
            for _ in range(100):
                n = int(rng.integers(2, 8))
                r, p, gamma = tie_heavy(rng, n, units)
                prob = fee_problem(p, gamma)
                w = solve_fee(r, prob).weights
                _, v_lp = lp_fee_argmax(r, prob)
                assert abs(objective_values(w[None, :], r, prob)[0] - v_lp) <= 1e-9
                if units == 1024:
                    assert np.abs(w - p).sum() <= lp_fee_min_turnover(r, prob, v_lp) + 1e-5
                # At most one asset ends above its prior (perfbench's
                # check_fee_prior relies on this), and only the first argmax.
                assert np.flatnonzero(w > p).tolist() in ([], [int(np.argmax(r))])

    def test_vertex_priors_match_lp(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            n = int(rng.integers(2, 8))
            r = rng.normal(0, 0.02, n) if rng.random() < 0.5 else tie_heavy(rng, n)[0]
            prob = fee_problem(vertex_prior(rng, n), gamma=float(rng.choice([0.0, 0.005, 0.02])))
            w = solve_fee(r, prob).weights
            _, v_lp = lp_fee_argmax(r, prob)
            assert abs(objective_values(w[None, :], r, prob)[0] - v_lp) <= 1e-9
            # A vertex prior e_i (p_i = 1, p_j = 0 elsewhere) is kept, or sold whole to j.
            p, j = prob.w_prev.weights, int(np.argmax(r))
            if p.max() == 1.0:
                i = int(np.argmax(p))
                sell = r[i] + prob.gamma < r[j] - prob.gamma
                assert np.array_equal(w, np.eye(n)[j if sell else i])

    def test_prior_off_one_by_an_ulp(self):
        # These priors sum to 1 + 2^-52 and 1 - 2^-53, and both rivals are sold
        # to asset 2. In the first, w_2 - p_2 passes 1 - p_2 by an ulp.
        # Portfolio accepts each result, and it sums to what the prior sums to.
        for p, over in (([0.33, 0.56, 0.11], True), ([0.06, 0.57, 0.37], False)):
            p = np.array(p)
            assert p.sum() != 1.0
            w = solve_fee([0.0, 0.0, 0.1], fee_problem(p, 0.01)).weights
            assert w[:2].tolist() == [0.0, 0.0]
            assert (w[2] - p[2] > 1.0 - p[2]) == over
            assert abs(w.sum() - p.sum()) <= np.spacing(1.0)

    def test_wide_universe_matches_lp(self):
        rng = np.random.default_rng(16)
        for gamma in (0.001, 0.005, 0.05):
            r = rng.normal(0, 0.02, 200)
            prob = fee_problem(rng.dirichlet(np.ones(200)), gamma=gamma)
            w = solve_fee(r, prob).weights
            _, v_lp = lp_fee_argmax(r, prob)
            assert abs(objective_values(w[None, :], r, prob)[0] - v_lp) <= 1e-9


class TestSolveFeeL2:
    def test_ridge_dominates_to_uniform(self):
        prob = l2_problem(np.full(3, 1 / 3), gamma=0.0, lam=1e4)
        w = solve_fee_l2(np.array([0.3, 0.1, -0.2]), prob).weights
        np.testing.assert_allclose(w, 1 / 3, atol=1e-4)

    def test_two_asset_kkt_closed_form(self):
        prob = l2_problem(np.array([0.5, 0.5]), gamma=0.0, lam=0.5)
        w = solve_fee_l2(np.array([0.1, 0.0]), prob).weights
        np.testing.assert_allclose(w, [0.55, 0.45], atol=1e-7)

    def test_gap_certificate_bounds_suboptimality(self):
        rng = np.random.default_rng(6)
        for n in (2, 3):
            for _ in range(10):
                r = rng.normal(0, 0.05, n)
                prob = l2_problem(
                    rng.dirichlet(np.ones(n)),
                    gamma=float(rng.uniform(0, 0.05)),
                    lam=float(rng.uniform(0.05, 1.0)),
                )
                port = solve_fee_l2(r, prob)
                obj = float(objective_values(port.weights[None, :], r, prob)[0])
                _, grid_val = grid_argmax(r, prob, refine=True)
                assert grid_val - obj <= fee_l2_gap(r, prob, port.weights) + 1e-9
                assert abs(grid_val - obj) <= 1e-5

    def test_batch_oracle_agrees(self):
        rng = np.random.default_rng(8)
        for _ in range(60):
            n = int(rng.integers(2, 9))
            r = rng.normal(0, 0.05, n)
            prob = l2_problem(rng.dirichlet(np.ones(n)), gamma=float(rng.uniform(0, 0.05)),
                              lam=float(rng.uniform(0.001, 1.0)))
            w_fast = argmax_batch(r[None, :], prob)[0]
            port = solve_fee_l2(r, prob)
            np.testing.assert_array_equal(port.weights, w_fast)
            lp_gap = lp_fee_l2_gap(r, prob, w_fast)
            assert lp_gap <= 1e-9
            assert abs(fee_l2_gap(r, prob, w_fast) - lp_gap) <= 1e-9

    def test_tie_heavy_and_vertex_priors(self):
        rng = np.random.default_rng(17)
        for k in range(120):
            n = 3 if k < 40 else int(rng.integers(2, 9))
            r, p, gamma = tie_heavy(rng, n)
            if k % 2:
                p = vertex_prior(rng, n)
            prob = l2_problem(p, gamma, lam=float(rng.choice([0.05, 0.42, 1.0])))
            port = solve_fee_l2(r, prob)
            assert lp_fee_l2_gap(r, prob, port.weights) <= 1e-9
            if n == 3:
                _, grid_val = grid_argmax(r, prob, refine=True)
                assert grid_val - objective_values(port.weights[None, :], r, prob)[0] <= 1e-9

    def test_gap_certifies_suboptimal_point(self):
        # At the prior (no trade) the gap must be positive and bound the
        # suboptimality that the grid measures.
        rng = np.random.default_rng(18)
        for n in (2, 3):
            for _ in range(10):
                r = rng.normal(0, 0.05, n)
                p = rng.dirichlet(np.ones(n))
                prob = l2_problem(p, gamma=0.001, lam=float(rng.uniform(0.05, 0.5)))
                _, grid_val = grid_argmax(r, prob, refine=True)
                subopt = grid_val - objective_values(p[None, :], r, prob)[0]
                gap = fee_l2_gap(r, prob, p)
                assert subopt > 0
                assert gap >= subopt
                assert gap == pytest.approx(lp_fee_l2_gap(r, prob, p), abs=1e-12)

    def test_uncertified_decision_raises(self, monkeypatch):
        prob = l2_problem(np.array([0.5, 0.5]), gamma=0.001, lam=0.1)
        monkeypatch.setattr(solvers, "_fee_l2_argmax_batch", lambda v, gamma, lam, p: p[None, :].copy())
        with pytest.raises(SolverError, match="duality gap"):
            solve_fee_l2(np.array([0.2, 0.0]), prob)

    def test_requires_positive_lam(self):
        with pytest.raises(ValueError):
            solve_fee_l2(np.array([0.1, 0.0]), fee_problem(np.array([1.0, 0.0]), 0.01))


class TestMaxSharpe:
    def test_symmetric(self):
        est = CovarianceEstimate(mean=np.array([0.1, 0.1]), sigma=np.eye(2))
        np.testing.assert_allclose(solve_max_sharpe(est).weights, [0.5, 0.5], atol=1e-6)

    def test_diagonal_closed_form(self):
        est = CovarianceEstimate(mean=np.array([0.1, 0.1]), sigma=np.diag([1.0, 4.0]))
        np.testing.assert_allclose(solve_max_sharpe(est).weights, [0.8, 0.2], atol=1e-4)

    def test_min_variance_fallback(self):
        est = CovarianceEstimate(mean=np.array([-0.1, -0.2]), sigma=np.eye(2))
        np.testing.assert_allclose(solve_max_sharpe(est).weights, [0.5, 0.5], atol=1e-6)

    def test_matches_grid(self):
        rng = np.random.default_rng(9)
        for n in (2, 3):
            for _ in range(8):
                mean = rng.normal(0.05, 0.05, n)
                if mean.max() <= 0:
                    continue
                a = rng.normal(size=(n, n))
                sigma = a @ a.T + 0.1 * np.eye(n)
                est = CovarianceEstimate(mean=mean, sigma=sigma)
                w = solve_max_sharpe(est).weights
                val = mean @ w / np.sqrt(w @ sigma @ w)
                assert sharpe_grid_best(mean, sigma) - val <= 1e-4

    @staticmethod
    def assert_kkt(est, w, rtol=1e-9):
        """w is y / sum(y) for y >= 0 with Sy = c on the support and Sy >= c off it."""
        c = est.mean if est.mean.max() > 0 else np.ones(est.mean.size)
        assert np.all(w >= 0)
        support = w > 0
        s = est.loaded
        # scale w back to y: c'y = y'Sy at the optimum
        y = w * float(c @ w) / float(w @ s @ w)
        slack = s @ y - c
        scale = np.abs(c).max()
        assert np.all(np.abs(slack[support]) <= rtol * scale)
        assert np.all(slack[~support] >= -rtol * scale)

    def test_kkt_random(self):
        rng = np.random.default_rng(14)
        negative = 0
        for case in range(120):
            n = int(rng.integers(1, 41))
            t = n + 2 + int(rng.integers(0, 3 * n))
            x = rng.normal(rng.normal(0.0, 0.001, n), rng.uniform(0.005, 0.03, n), (t, n))
            if case % 4 == 0:
                x = -np.abs(x)  # every mean negative: the minimum-variance portfolio
            est = estimate_covariance(x)
            negative += est.mean.max() <= 0
            self.assert_kkt(est, solve_max_sharpe(est).weights)
        assert negative >= 30

    def test_scale_invariant(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            n = int(rng.integers(2, 20))
            est = estimate_covariance(rng.normal(0.001, 0.02, (3 * n, n)))
            scaled = CovarianceEstimate(mean=est.mean * 37.0, sigma=est.sigma, ridge=est.ridge)
            np.testing.assert_allclose(
                solve_max_sharpe(scaled).weights, solve_max_sharpe(est).weights, rtol=0, atol=1e-12
            )

    def test_wide_universe(self):
        rng = np.random.default_rng(16)
        n = 200
        x = rng.normal(rng.normal(0.0003, 0.001, n), rng.uniform(0.005, 0.03, n), (260, n))
        est = estimate_covariance(x)
        w = solve_max_sharpe(est).weights
        assert 1 < np.count_nonzero(w) < n
        self.assert_kkt(est, w)

    def test_pass_cap_raises(self):
        # a negative-definite Q makes every freed coordinate step straight back
        with pytest.raises(SolverError, match="active-set passes"):
            solvers._nonneg_qp(-np.eye(3), np.ones(3))

    def test_non_psd_rejected(self):
        with pytest.raises(SolverError):
            CovarianceEstimate(mean=np.zeros(2), sigma=np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestEstimateCovariance:
    def test_perfect_correlation(self):
        rng = np.random.default_rng(10)
        base = rng.normal(0, 0.02, 100)
        returns = np.stack([base, 2.0 * base], axis=1)
        est = estimate_covariance(returns)  # default ridge keeps the estimate PD
        s = est.sigma  # raw sample covariance, before loading
        assert s[0, 1] == pytest.approx(np.sqrt(s[0, 0] * s[1, 1]), rel=1e-9)

    def test_statistical_recovery(self):
        rng = np.random.default_rng(11)
        truth = np.array([[4.0, 1.0], [1.0, 2.0]]) * 1e-4
        chol = np.linalg.cholesky(truth)
        x = rng.standard_normal((10000, 2)) @ chol.T
        est = replace(estimate_covariance(x), ridge=0.0)
        scale = truth.max()
        assert np.all(np.abs(est.sigma - truth) <= 0.05 * scale)

    def test_ridge_restores_pd(self):
        rng = np.random.default_rng(12)
        base = rng.normal(0, 0.02, 50)
        returns = np.stack([base, base], axis=1)  # singular
        est = replace(estimate_covariance(returns), ridge=1e-6)
        np.linalg.cholesky(est.loaded)

    def test_short_window_rejected(self):
        with pytest.raises(ValueError):
            estimate_covariance(np.zeros((4, 3)))

    def test_sample_denominator(self):
        x = np.array([[0.0, 0.1], [2.0, 4.0], [1.0, -3.0], [0.5, 0.5]])
        est = replace(estimate_covariance(x), ridge=0.0)
        xc = x - x.mean(axis=0)
        np.testing.assert_allclose(est.sigma, xc.T @ xc / 3.0, atol=1e-12)


class TestSolverInvariants:
    def test_outputs_satisfy_portfolio_invariants(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            r = rng.normal(0, 0.05, n)
            p = rng.dirichlet(np.ones(n))
            for w in (
                solve_max_return(r),
                solve_fee(r, fee_problem(p, 0.01)),
                solve_fee_l2(r, l2_problem(p, 0.01, 0.3)),
            ):
                assert np.all(w.weights >= 0)
                assert abs(w.weights.sum() - 1.0) <= 1e-8
