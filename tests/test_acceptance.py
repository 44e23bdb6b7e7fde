"""Acceptance suite: every release criterion at its stated scale and tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line per
criterion. The end-to-end criteria run full backtests and take several
minutes; the whole module is sized to finish within its documented budgets.
"""

import json
import time
from datetime import date

import numpy as np

from dfolio import cli
from dfolio.backtest import (
    BacktestConfig,
    BacktestLedger,
    accrue,
    default_roster,
    rebalance_dates,
    run_backtest,
)
from dfolio.market_data import MarketFrame, SyntheticSpec, business_days, compute_returns, generate_synthetic
from dfolio.metrics import compute_metrics
from dfolio.solvers import (
    MAX_RETURN,
    MAX_RETURN_FEE,
    MAX_RETURN_FEE_L2,
    CovarianceEstimate,
    DecisionProblem,
    Portfolio,
    argmax_batch,
    solve_fee,
    solve_fee_l2,
    solve_max_sharpe,
)
from dfolio.softmax_dfl import MAX_RETURN_LOSS, MAX_SHARPE_LOSS, _stack, allocate_batch, batch_gradients, init_allocator
from dfolio.spo import RobustConfig, spo_plus_batch
from dfolio.training import MSE, ROBUST_SPO, SPO_PLUS, TrainConfig, predict, train
from dfolio.util import derived_rng

from oracles import grid_argmax, grid_regret, objective_values, sharpe_grid_best


def _report(num: int, ok: bool, detail: str):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# 1. SPO+ bound suite: loss >= regret >= 0 on 10,000 seeded instances.
# ---------------------------------------------------------------------------


def test_criterion_1_spo_bound_suite():
    rng = np.random.default_rng(20250808)
    t0 = time.perf_counter()
    worst_slack = np.inf  # min of loss - regret
    worst_regret = np.inf
    count = 0

    def check(r_hat, r, prob, oracle_regret):
        nonlocal worst_slack, worst_regret, count
        loss = float(spo_plus_batch(r_hat[None, :], r[None, :], prob)[0][0])
        # true regret of the production decisions, valued by the reference objective
        star, hat = objective_values(argmax_batch(np.stack([r, r_hat]), prob), r, prob)
        regret = star - hat
        worst_slack = min(worst_slack, loss - oracle_regret)
        worst_regret = min(worst_regret, oracle_regret)
        count += 1
        assert loss >= oracle_regret - 1e-9
        assert oracle_regret >= -1e-9
        assert loss >= regret - 1e-9 and regret >= -1e-9

    # 7,100 vertex-enumerated MaxReturn instances, n in {2..8}
    for _ in range(7100):
        n = int(rng.integers(2, 9))
        r_hat = rng.normal(0, 0.05, n)
        r = rng.normal(0, 0.05, n)
        oracle = float(r.max() - r[int(np.argmax(r_hat))])
        check(r_hat, r, DecisionProblem(), oracle)

    # 1,750 fee instances (n in {2, 3}), gamma in [0, 0.05], grid-oracle regret
    for i in range(1750):
        n = 2 if i < 1500 else 3
        prob = DecisionProblem(
            kind=MAX_RETURN_FEE,
            gamma=float(rng.uniform(0, 0.05)),
            w_prev=Portfolio(rng.dirichlet(np.ones(n))),
        )
        r_hat = rng.normal(0, 0.05, n)
        r = rng.normal(0, 0.05, n)
        check(r_hat, r, prob, grid_regret(r_hat, r, prob))

    # 1,150 fee+ridge instances (n in {2, 3}), lam in (0, 1], refined grid
    for i in range(1150):
        n = 2 if i < 1000 else 3
        prob = DecisionProblem(
            kind=MAX_RETURN_FEE_L2,
            gamma=float(rng.uniform(0, 0.05)),
            lam=float(1.0 - rng.uniform(0.0, 1.0) * (1 - 1e-6)),
            w_prev=Portfolio(rng.dirichlet(np.ones(n))),
        )
        r_hat = rng.normal(0, 0.05, n)
        r = rng.normal(0, 0.05, n)
        check(r_hat, r, prob, grid_regret(r_hat, r, prob, refine=True))

    elapsed = time.perf_counter() - t0
    ok = count == 10000 and elapsed < 60.0
    _report(
        1,
        ok,
        f"{count} instances, min(loss - regret) = {worst_slack:.3e}, "
        f"min regret = {worst_regret:.3e}, {elapsed:.1f}s (< 60s)",
    )


# ---------------------------------------------------------------------------
# 2. Subgradient / gradient finite-difference checks.
# ---------------------------------------------------------------------------


def test_criterion_2_gradient_checks():
    rng = np.random.default_rng(8)
    worst = 0.0

    checked = 0
    while checked < 100:
        n = int(rng.integers(2, 6))
        if checked % 2 == 0:
            prob = DecisionProblem()
        else:
            prob = DecisionProblem(
                kind=MAX_RETURN_FEE_L2,
                gamma=float(rng.uniform(0, 0.05)),
                lam=float(rng.uniform(0.05, 1.0)),
                w_prev=Portfolio(rng.dirichlet(np.ones(n))),
            )
        r_hat = rng.normal(0, 0.05, n)
        r = rng.normal(0, 0.05, n)
        if prob.kind == MAX_RETURN:
            shifted = np.sort(2 * r_hat - r)
            if shifted[-1] - shifted[-2] < 1e-3:  # margin-safety gate
                continue
        h = 1e-6
        u = rng.normal(size=n)
        u /= np.linalg.norm(u)
        losses, grads, _, _ = spo_plus_batch(np.stack([r_hat, r_hat + h * u, r_hat - h * u]), np.tile(r, (3, 1)), prob)
        fd = (losses[1] - losses[2]) / (2 * h)
        analytic = float(grads[0] @ u)
        rel = abs(fd - analytic) / max(abs(fd), abs(analytic), 1e-8)
        worst = max(worst, rel)
        assert rel <= 1e-5
        checked += 1

    n, d, hidden, batch = 4, 3, 32, 5
    worst_net = 0.0
    for i in range(100):
        kind = MAX_RETURN_LOSS if i % 2 == 0 else MAX_SHARPE_LOSS
        model = init_allocator(n, d, hidden=hidden, seed=100 + i)
        model.inferencer.theta = rng.normal(0, 0.3, d)
        model.inferencer.intercept = float(rng.normal(0, 0.05))
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
            aa = (yb * z).sum(axis=1)
            q = np.einsum("bi,ij,bj->b", z, sigma, z)
            return float((-aa / np.sqrt(q)).mean())

        h = 1e-6
        params = {
            "theta": model.inferencer.theta,
            "w1": model.w1,
            "b1": model.b1,
            "w2": model.w2,
            "b2": model.b2,
        }
        for name, value in params.items():
            flat = value.reshape(-1)
            g_flat = grads[name][0].reshape(-1)
            fd = np.empty_like(flat)
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + h
                up = loss_at()
                flat[k] = orig - h
                down = loss_at()
                flat[k] = orig
                fd[k] = (up - down) / (2 * h)
            rel = np.linalg.norm(fd - g_flat) / max(np.linalg.norm(fd), np.linalg.norm(g_flat), 1e-8)
            worst_net = max(worst_net, rel)
            assert rel <= 1e-5, (name, kind, rel)

    _report(2, True, f"SPO+ worst rel err {worst:.2e}; SoftmaxDFL worst rel err {worst_net:.2e} (<= 1e-5)")


# ---------------------------------------------------------------------------
# 3. Solver oracles: fee LP, Frank-Wolfe QP, max-Sharpe, simplex projection.
# ---------------------------------------------------------------------------


def test_criterion_3_solver_oracles():
    rng = np.random.default_rng(33)

    worst_fee = 0.0
    for _ in range(500):
        prob = DecisionProblem(
            kind=MAX_RETURN_FEE,
            gamma=float(rng.uniform(0, 0.05)),
            w_prev=Portfolio(rng.dirichlet(np.ones(3))),
        )
        r = rng.normal(0, 0.05, 3)
        w = solve_fee(r, prob).weights
        obj = float(objective_values(w[None, :], r, prob)[0])
        _, grid_val = grid_argmax(r, prob)
        worst_fee = max(worst_fee, abs(obj - grid_val))
        assert abs(obj - grid_val) <= 1e-5

    worst_gap = 0.0
    worst_l2 = 0.0
    for _ in range(150):
        prob = DecisionProblem(
            kind=MAX_RETURN_FEE_L2,
            gamma=float(rng.uniform(0, 0.05)),
            lam=float(rng.uniform(0.01, 1.0)),
            w_prev=Portfolio(rng.dirichlet(np.ones(3))),
        )
        r = rng.normal(0, 0.05, 3)
        port, info = solve_fee_l2(r, prob, full_output=True)
        assert info["gap"] <= 1e-7
        worst_gap = max(worst_gap, info["gap"])
        obj = float(objective_values(port.weights[None, :], r, prob)[0])
        _, grid_val = grid_argmax(r, prob, refine=True)
        worst_l2 = max(worst_l2, abs(obj - grid_val))
        assert abs(obj - grid_val) <= 1e-5

    worst_sharpe = 0.0
    done = 0
    while done < 60:
        n = 2 if done % 2 == 0 else 3
        mean = rng.normal(0.05, 0.05, n)
        if mean.max() <= 0:
            continue
        a = rng.normal(size=(n, n))
        sigma = a @ a.T + 0.1 * np.eye(n)
        est = CovarianceEstimate(mean=mean, sigma=sigma)
        w = solve_max_sharpe(est).weights
        val = float(mean @ w / np.sqrt(w @ sigma @ w))
        deficit = sharpe_grid_best(mean, sigma) - val
        worst_sharpe = max(worst_sharpe, deficit)
        assert deficit <= 1e-4
        done += 1

    _report(
        3,
        True,
        f"fee-vs-grid worst {worst_fee:.2e} (<=1e-5); FW worst gap {worst_gap:.2e} (<=1e-7), "
        f"grid worst {worst_l2:.2e} (<=1e-5); sharpe worst deficit {worst_sharpe:.2e} (<=1e-4)",
    )


# ---------------------------------------------------------------------------
# 4. Fee arithmetic: full switch multiplies NAV by exactly 0.99.
# ---------------------------------------------------------------------------


def test_criterion_4_fee_arithmetic():
    led = BacktestLedger(
        strategy="x",
        nav_dates=[date(2020, 1, 3)],
        nav=[1.0],
        live_weights=np.array([1.0, 0.0]),
    )
    days = business_days(date(2020, 1, 6), 1)
    accrue(led, Portfolio(np.array([0.0, 1.0])), days, np.zeros((1, 2)), fee_rate=0.005)
    rec = led.rebalances[0]
    ok = (
        rec.turnover == 2.0
        and rec.nav_after_fee == 0.99
        and rec.nav_after_fee == 1.0 * (1.0 - 0.005 * 2.0)
        and led.nav[-1] == 0.99
    )
    _report(4, ok, f"turnover {rec.turnover}, NAV factor {rec.nav_after_fee!r} == 0.99 bit-exact")


# ---------------------------------------------------------------------------
# 5. No-leakage: poisoning data at dates >= t leaves decisions <= t unchanged.
# ---------------------------------------------------------------------------


def test_criterion_5_no_leakage_all_strategies():
    frame, _, _ = generate_synthetic(SyntheticSpec(n_assets=6, n_days=520, seed=77))
    config = BacktestConfig(
        start=frame.dates[270],
        end=frame.dates[-1],
        seed=5,
        n_trials=2,
        epochs_min=2,
        epochs_max=3,
    )
    roster = default_roster()
    rebs = rebalance_dates(frame, config)
    t = rebs[len(rebs) // 2]
    it = frame.index_of(t)

    clean = run_backtest(frame, roster, config)

    rng = np.random.default_rng(123)
    prices = frame.adj_close.copy()
    prices[it:] *= np.exp(rng.normal(0.0, 0.5, prices[it:].shape))
    volume = frame.volume.copy()
    volume[it:] *= rng.uniform(0.5, 5.0, volume[it:].shape)
    poisoned_frame = MarketFrame(
        dates=frame.dates, tickers=frame.tickers, adj_close=prices, volume=volume
    )
    poisoned = run_backtest(poisoned_frame, roster, config)

    checked = 0
    for spec in roster:
        led_a, led_b = clean[spec.name], poisoned[spec.name]
        assert led_a.error is None and led_b.error is None, (spec.name, led_a.error, led_b.error)
        for rec_a, rec_b in zip(led_a.rebalances, led_b.rebalances):
            if rec_a.day > t:
                continue
            assert rec_a.day == rec_b.day
            assert rec_a.target.tobytes() == rec_b.target.tobytes(), (spec.name, rec_a.day)
            assert rec_a.drifted.tobytes() == rec_b.drifted.tobytes(), (spec.name, rec_a.day)
            checked += 1
    ok = checked >= len(roster) * 2
    _report(5, ok, f"{checked} decisions dated <= {t} byte-identical across all {len(roster)} strategies")


# ---------------------------------------------------------------------------
# 6. Decision-quality synthetic benchmark (planted signal, burst noise).
# ---------------------------------------------------------------------------


def _burst_breaks(seed, lo, hi, mult, width, gap, start=20):
    rng = derived_rng(seed, "bursts", lo)
    breaks, day = [], lo + start
    while True:
        day += int(rng.integers(*gap))
        if day >= hi - width:
            break
        breaks.append((day, mult))
        breaks.append((day + width, 1.0))
        day += width
    return breaks


def _benchmark_seed(seed: int):
    """Train MSE / SPO+ / RobustSPO on a burst-contaminated span; return OOS regrets.

    The decision problem is fee-aware (gamma = 0.005 against uniform prior
    holdings), so prediction scale matters and the robust hedge can act; the
    test span carries moderate volatility bursts (adverse regimes).
    """
    n_assets, n_train, n_test = 6, 378, 600
    n_days = n_train + n_test
    breaks = _burst_breaks(seed, 0, n_train, 120.0, 3, (6, 28))
    breaks += _burst_breaks(seed + 999, n_train, n_days, 6.0, 5, (10, 30), start=5)
    spec = SyntheticSpec(
        n_assets=n_assets,
        n_days=n_days,
        seed=seed,
        signal_coefficients=(0.012, -0.008, 0.005),
        noise_scale=0.003,
        regime_breaks=tuple(breaks),
    )
    frame, tensor, _ = generate_synthetic(spec)
    x = tensor.features[:-1]
    y = compute_returns(frame).simple_returns
    xtr, ytr, xte, yte = x[:n_train], y[:n_train], x[n_train:], y[n_train:]
    prob = DecisionProblem(kind=MAX_RETURN_FEE, gamma=0.005, w_prev=Portfolio.uniform(n_assets))
    base = dict(epochs=40, learning_rate=0.01, batch_size=63, seed=seed, fit_intercept=False)

    w_star = argmax_batch(yte, prob)
    fee = lambda W: prob.gamma * np.abs(W - prob.w_prev.weights).sum(axis=1)
    best_val = (yte * w_star).sum(axis=1) - fee(w_star)

    regrets = {}
    for key, kind, extra in (
        ("mse", MSE, {}),
        ("spo", SPO_PLUS, {}),
        ("rob", ROBUST_SPO, {"robust": RobustConfig(rho=0.1, n_samples=8, seed=seed)}),
    ):
        model, _ = train(xtr, ytr, TrainConfig(loss_kind=kind, problem=prob, **extra, **base))
        W = argmax_batch(predict(model, xte), prob)
        regrets[key] = best_val - ((yte * W).sum(axis=1) - fee(W))
    return regrets


def test_criterion_6_decision_quality_benchmark():
    t0 = time.perf_counter()
    tail = lambda v: float(v[v >= np.quantile(v, 0.9)].mean())
    spo_wins = 0
    robust_wins = 0
    for s in range(20):
        r = _benchmark_seed(1000 + s)
        spo_wins += r["spo"].mean() <= r["mse"].mean()
        robust_wins += tail(r["rob"]) <= tail(r["spo"])
    elapsed = time.perf_counter() - t0
    ok = spo_wins >= 15 and robust_wins >= 12 and elapsed < 600.0
    _report(
        6,
        ok,
        f"SPO+ mean regret <= MSE in {spo_wins}/20 (need >= 15); "
        f"RobustSPO(rho=0.1) worst-decile <= SPO+ in {robust_wins}/20 (need >= 12); "
        f"{elapsed:.0f}s (< 600s)",
    )


# ---------------------------------------------------------------------------
# 7. End-to-end determinism and runtime of the full 9-strategy backtest.
# ---------------------------------------------------------------------------


def test_criterion_7_end_to_end_determinism(tmp_path):
    data_dir = tmp_path / "market"
    assert cli.main(["synth", "--out", str(data_dir), "--assets", "10", "--days", "1071", "--seed", "2024"]) == 0

    cfg = {
        "data_dir": str(data_dir),
        "output_dir": str(tmp_path / "run1"),
        "seed": 7,
        "backtest": {"start": "2016-01-01", "end": "2018-12-31"},
        "strategies": "default",
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))

    t0 = time.perf_counter()
    rc1 = cli.main(["backtest", "--config", str(cfg_path)])
    run1 = time.perf_counter() - t0
    assert rc1 == 0

    t0 = time.perf_counter()
    rc2 = cli.main(["backtest", "--config", str(cfg_path), "--out", str(tmp_path / "run2")])
    run2 = time.perf_counter() - t0
    assert rc2 == 0

    nav_same = (tmp_path / "run1" / "nav.csv").read_bytes() == (tmp_path / "run2" / "nav.csv").read_bytes()
    metrics_same = (
        (tmp_path / "run1" / "metrics.json").read_bytes()
        == (tmp_path / "run2" / "metrics.json").read_bytes()
    )
    nav = (tmp_path / "run1" / "nav.csv").read_text().splitlines()
    strategies = {line.split(",")[1] for line in nav[1:]}
    ok = nav_same and metrics_same and len(strategies) == 9 and max(run1, run2) < 900.0
    _report(
        7,
        ok,
        f"byte-identical nav.csv/metrics.json across reruns ({len(strategies)} strategies); "
        f"runs {run1:.0f}s / {run2:.0f}s (< 900s each)",
    )


# ---------------------------------------------------------------------------
# 8. Metrics spot values.
# ---------------------------------------------------------------------------


def test_criterion_8_metrics_spot_values():
    dates = list(business_days(date(2019, 1, 7), 253))
    nav = np.exp(np.linspace(0.0, np.log(2.0), 253))
    doubling = compute_metrics(dates, nav)

    path_dates = list(business_days(date(2019, 1, 7), 4))
    path = compute_metrics(path_dates, np.array([1.0, 1.2, 0.9, 1.1]))

    mono = compute_metrics(path_dates, np.array([1.0, 1.1, 1.2, 1.3]))

    ok = (
        abs(doubling.annualized_return - 100.0) <= 1e-9
        and path.max_drawdown == -25.0
        and mono.max_drawdown == 0.0
        and mono.sortino is None
    )
    _report(
        8,
        ok,
        f"doubling ann. return {doubling.annualized_return!r}%; path MaxDD {path.max_drawdown}%; "
        f"monotone MaxDD {mono.max_drawdown}% with Sortino undefined",
    )
