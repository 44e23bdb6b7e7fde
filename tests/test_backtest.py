import calendar
import csv
from datetime import date, timedelta

import numpy as np
import pytest

from dfolio.backtest import (
    KINDS,
    AccountingError,
    BacktestConfig,
    BacktestLedger,
    StrategySpec,
    accrue,
    default_roster,
    months_back,
    prepare_data,
    rebalance_dates,
    run_backtest,
    run_window,
)
from dfolio.features import standardize
from dfolio.market_data import MarketFrame, SyntheticSpec, business_days, generate_synthetic
from dfolio.reports import write_hparams_csv
from dfolio.solvers import (
    MAX_RETURN,
    MAX_RETURN_FEE,
    MAX_RETURN_FEE_L2,
    DecisionProblem,
    Portfolio,
    solve_fee,
    solve_fee_l2,
    solve_max_return,
)
from dfolio.training import SearchSpace
from dfolio.util import ConfigError

FAST = dict(search=SearchSpace(n_trials=2, epochs_min=2, epochs_max=3))
# Every linear kind and one softmax kind, with the fields each reads.
TRAINED_KINDS = [
    ("spo_plus", {}),
    ("spo_plus_fee", {"gamma": 0.005}),
    ("spo_plus_fee_l2", {"gamma": 0.005, "lam": 0.42}),
    ("robust_spo", {"rho": 0.1}),
    ("softmax_max_return", {}),
    ("pto_markowitz", {}),
]


def synthetic_frame(n_assets=4, n_days=480, seed=11, **kw):
    frame, _, _ = generate_synthetic(SyntheticSpec(n_assets=n_assets, n_days=n_days, seed=seed, **kw))
    return frame


def fast_config(frame, seed=0, **kw):
    # backtest over the last year of the frame, keeping a full lookback before it
    start = frame.dates[260]
    base = dict(start=start, end=frame.dates[-1], seed=seed, **FAST)
    base.update(kw)
    return BacktestConfig(**base)


def monthly_frame(n_months=300, drop=()):
    """A frame of month-start dates from 2000-01-01, without the dates in drop."""
    frame = synthetic_frame(n_days=n_months)
    dates = [date(2000 + k // 12, k % 12 + 1, 1) for k in range(n_months)]
    keep = np.array([d not in drop for d in dates])
    return MarketFrame(
        dates=tuple(d for d, k in zip(dates, keep) if k), tickers=frame.tickers,
        adj_close=frame.adj_close[keep], volume=frame.volume[keep],
    )


def months_back_loop(day, months):
    """The former months_back, one year per iteration: the reference for the closed form."""
    y, m = day.year, day.month - months
    while m <= 0:
        m += 12
        y -= 1
    return date(y, m, min(day.day, calendar.monthrange(y, m)[1]))


class TestMonthsBack:
    def test_equals_loop_version(self):
        # Every day of 2015-2025 for lookbacks up to two years, and up to 1200
        # months for the 1st and the 29th-31st of each month. A day up to the
        # 28th is never clamped, so it takes the 1st's year and month; the full
        # grid of 4.8M pairs takes about 30 s.
        days = [date(2015, 1, 1) + timedelta(k) for k in range((date(2026, 1, 1) - date(2015, 1, 1)).days)]
        for day in days:
            months = range(1201) if day.day == 1 or day.day > 28 else range(25)
            assert [months_back(day, k) for k in months] == [months_back_loop(day, k) for k in months], day

    def test_lookback_before_year_one_raises_at_once(self):
        # The loop took about 10^11 iterations here; date() itself would raise
        # OverflowError, not ValueError, this far below year 1.
        with pytest.raises(ValueError, match=r"^year -83333331318 is out of range$"):
            months_back(date(2016, 2, 1), 10**12)

    def test_simple(self):
        assert months_back(date(2020, 6, 15), 3) == date(2020, 3, 15)

    def test_year_wrap(self):
        assert months_back(date(2020, 2, 10), 12) == date(2019, 2, 10)

    def test_day_clamped(self):
        assert months_back(date(2020, 3, 31), 1) == date(2020, 2, 29)


class TestRebalanceDates:
    def test_two_years_with_lookback(self):
        dates = business_days(date(2015, 1, 1), 780)  # through late December 2017
        assert dates[-1].year == 2017 and dates[-1].month == 12
        frame = MarketFrame(
            dates=dates,
            tickers=("A", "B"),
            adj_close=np.full((780, 2), 10.0),
            volume=np.full((780, 2), 1e6),
        )
        cfg = BacktestConfig(start=date(2016, 1, 1), end=date(2017, 12, 31), **FAST)
        rebs = rebalance_dates(frame, cfg)
        assert len(rebs) == 24
        assert rebs[0] == date(2016, 1, 1)
        assert all(r.weekday() < 5 for r in rebs)

    def test_first_trading_day_of_month(self):
        dates = business_days(date(2015, 1, 1), 600)
        frame = MarketFrame(
            dates=dates, tickers=("A",), adj_close=np.full((600, 1), 5.0),
            volume=np.zeros((600, 1)),
        )
        cfg = BacktestConfig(start=date(2016, 5, 1), end=date(2016, 5, 31), **FAST)
        rebs = rebalance_dates(frame, cfg)
        assert rebs == [date(2016, 5, 2)]  # May 1st 2016 is a Sunday

    def test_insufficient_lookback_skips_months(self):
        dates = business_days(date(2015, 6, 1), 500)
        frame = MarketFrame(
            dates=dates, tickers=("A",), adj_close=np.full((500, 1), 5.0),
            volume=np.zeros((500, 1)),
        )
        cfg = BacktestConfig(start=date(2016, 1, 1), end=date(2016, 12, 31), **FAST)
        rebs = rebalance_dates(frame, cfg)
        assert rebs[0] == date(2016, 6, 1)

    def test_empty_raises(self):
        frame = synthetic_frame(n_days=300)
        cfg = BacktestConfig(start=frame.dates[0], end=frame.dates[30], **FAST)
        with pytest.raises(ValueError, match="no rebalance dates"):
            rebalance_dates(frame, cfg)


def fresh_ledger(n, base_date):
    return BacktestLedger(
        strategy="x",
        nav_dates=[base_date],
        nav=[1.0],
        live_weights=np.full(n, 1.0 / n),
    )


class TestAccrue:
    def test_full_switch_fee_is_exact(self):
        led = fresh_ledger(2, date(2020, 1, 3))
        led.live_weights = np.array([1.0, 0.0])
        days = business_days(date(2020, 1, 6), 3)
        accrue(led, Portfolio(np.array([0.0, 1.0])), days, np.zeros((3, 2)), fee_rate=0.005)
        rec = led.rebalances[0]
        assert rec.turnover == 2.0
        assert rec.nav_after_fee == 0.99  # bit-exact
        assert rec.nav_after_fee == rec.nav_before * (1.0 - 0.005 * rec.turnover)
        assert led.nav[-1] == 0.99

    def test_no_trade_no_fee(self):
        led = fresh_ledger(2, date(2020, 1, 3))
        days = business_days(date(2020, 1, 6), 2)
        accrue(led, Portfolio(led.live_weights), days, np.zeros((2, 2)), fee_rate=0.005)
        rec = led.rebalances[0]
        assert rec.turnover == 0.0
        assert rec.fee == 0.0
        assert led.nav[-1] == 1.0

    def test_flat_returns_only_fee_moves_nav(self):
        led = fresh_ledger(2, date(2020, 1, 3))
        days = business_days(date(2020, 1, 6), 21)
        accrue(led, Portfolio(np.array([0.8, 0.2])), days, np.zeros((21, 2)), fee_rate=0.005)
        fee_factor = 1.0 - 0.005 * led.rebalances[0].turnover
        assert all(v == fee_factor for v in led.nav[1:])

    def test_buy_and_hold_drift(self):
        led = fresh_ledger(2, date(2020, 1, 3))
        days = business_days(date(2020, 1, 6), 1)
        rets = np.array([[0.1, -0.1]])
        accrue(led, Portfolio(np.array([0.5, 0.5])), days, rets, fee_rate=0.0)
        # day return 0; weights drift to (0.55, 0.45)
        assert led.nav[-1] == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(led.live_weights, [0.55, 0.45], atol=1e-15)

    def test_nav_compounds_daily(self):
        led = fresh_ledger(1, date(2020, 1, 3))
        days = business_days(date(2020, 1, 6), 2)
        rets = np.array([[0.01], [0.02]])
        accrue(led, Portfolio(np.array([1.0])), days, rets, fee_rate=0.0)
        assert led.nav[-1] == pytest.approx(1.01 * 1.02, abs=1e-15)

    @pytest.mark.parametrize("bad, nav", [(np.nan, "nan"), (-1.0, "0.0")], ids=["nan-return", "total-loss"])
    def test_invalid_nav_names_its_day(self, bad, nav):
        led = fresh_ledger(2, date(2020, 1, 3))
        days = business_days(date(2020, 1, 6), 3)
        rets = np.array([[0.01, 0.02], [bad, 0.0], [0.0, 0.0]])
        with pytest.raises(AccountingError) as err:
            accrue(led, Portfolio(np.array([1.0, 0.0])), days, rets, fee_rate=0.0)
        assert str(err.value) == f"NAV {nav} invalid on 2020-01-07"


class TestRunWindow:
    def test_max_sharpe_needs_no_training(self):
        frame = synthetic_frame()
        cfg = fast_config(frame)
        data = prepare_data(frame)
        t = rebalance_dates(frame, cfg)[0]
        strat = StrategySpec("max_sharpe", "max_sharpe")
        w, trial = run_window(strat, t, data, cfg, Portfolio.uniform(4))
        assert trial is None
        assert abs(w.weights.sum() - 1.0) <= 1e-8

    def test_window_arithmetic(self, monkeypatch):
        """Training sees the z-scored rows of [t - 12m, t - 3m); validation those of [t - 3m, t) with targets before t.

        On the full calendar and on one with random dates dropped, for every
        linear kind and a softmax one; the decision reads the z-scored row of
        the last frame date before t.
        """
        import dfolio.backtest as bt

        full = synthetic_frame()
        keep = np.random.default_rng(4).random(full.n_dates) > 0.25
        thinned = MarketFrame(
            dates=tuple(d for d, k in zip(full.dates, keep) if k), tickers=full.tickers,
            adj_close=full.adj_close[keep], volume=full.volume[keep],
        )
        seen = {}

        def spy(name, arrays):
            real = getattr(bt, name)

            def wrapper(*args, **kwargs):
                seen.setdefault(name, []).append(tuple(a.tobytes() for a in args[arrays]))
                return real(*args, **kwargs)

            monkeypatch.setattr(bt, name, wrapper)

        # (name, its array arguments): the samples, a model's validation inputs, the decision slice
        for name, arrays in (("train", slice(0, 2)), ("train_dfl", slice(0, 2)), ("validation_score", slice(1, 3)),
                             ("allocate_batch", slice(1, 2)), ("predict", slice(1, 2)), ("allocate", slice(1, 2))):
            spy(name, arrays)
        for frame in (full, thinned):
            cfg = fast_config(frame)
            data = prepare_data(frame)
            t = rebalance_dates(frame, cfg)[2]
            train_start, val_start = months_back(t, 12), months_back(t, 3)
            z = standardize(data.features, train_start, val_start).features
            dates = data.features.dates
            # The target of the feature row dated d is the return into the next frame date: panel row index_of(d).
            target_day = {data.panel.simple_returns[i].tobytes(): day for i, day in enumerate(data.panel.dates)}
            train_rows = [k for k, d in enumerate(dates) if train_start <= d < val_start]
            val_rows = [k for k, d in enumerate(dates) if val_start <= d < t and frame.dates[frame.index_of(d) + 1] < t]
            assert train_rows and 0 < len(val_rows) < sum(val_start <= d < t for d in dates)

            def samples(rows):
                return z[rows].tobytes(), data.panel.simple_returns[[frame.index_of(dates[k]) for k in rows]].tobytes()

            decision = z[dates.index(frame.dates[frame.index_of(t) - 1])].tobytes()
            for kind, params in TRAINED_KINDS:
                seen.clear()
                run_window(StrategySpec(kind, kind, **params), t, data, cfg, Portfolio.uniform(4))
                softmax = kind.startswith("softmax")
                (x, y), = seen["train_dfl" if softmax else "train"]
                assert (x, y) == samples(train_rows)
                ys = [y] + [y_val for _, y_val in seen.get("validation_score", [])]
                assert all(target_day[row.tobytes()] < t for b in ys for row in np.frombuffer(b).reshape(-1, 4))
                if softmax:
                    assert seen["allocate_batch"] == [samples(val_rows)[:1]] * cfg.search.n_trials
                else:
                    assert seen["validation_score"] == [samples(val_rows)] * cfg.search.n_trials
                assert seen["allocate" if softmax else "predict"] == [(decision,)]

    @pytest.mark.parametrize("months,drop,error", [
        ({"validation_months": 1}, None, "no validation day in [val_start, t) with a return before t"),
        ({"train_months": 1}, 4, "no training day in [train_start, val_start)"),
    ], ids=["validation", "training"])
    def test_empty_sample_set_raises(self, months, drop, error):
        # On month-start bars the one row of a 1-month validation span is the
        # decision row: every trial was scored on no day, as nan, and trial 0
        # silently won. A 1-month train span, [t - 4m, t - 3m), holds no bar
        # once the bar 4 months back is dropped.
        t = date(2020, 1, 1)
        cfg = BacktestConfig(start=t, end=t, batch_size=1, **months, **FAST)
        data = prepare_data(monthly_frame(drop={months_back(t, drop)} if drop else ()))
        with pytest.raises(ValueError) as exc:
            run_window(StrategySpec("spo_plus", "spo_plus"), t, data, cfg, Portfolio.uniform(4))
        assert str(exc.value) == error

    @pytest.mark.parametrize("kind,params", TRAINED_KINDS)
    def test_decision_ignores_future_data(self, kind, params):
        frame = synthetic_frame()
        cfg = fast_config(frame)
        data = prepare_data(frame)
        t = rebalance_dates(frame, cfg)[2]
        it = frame.index_of(t)
        strat = StrategySpec(f"s_{kind}", kind, **params)
        w1, _ = run_window(strat, t, data, cfg, Portfolio.uniform(4))

        poisoned_prices = frame.adj_close.copy()
        poisoned_prices[it:] *= np.exp(np.random.default_rng(5).normal(0, 0.3, poisoned_prices[it:].shape))
        poisoned_vol = frame.volume.copy()
        poisoned_vol[it:] *= 2.0
        frame_p = MarketFrame(
            dates=frame.dates, tickers=frame.tickers,
            adj_close=poisoned_prices, volume=poisoned_vol,
        )
        data_p = prepare_data(frame_p)
        w2, _ = run_window(strat, t, data_p, cfg, Portfolio.uniform(4))
        assert w1.weights.tobytes() == w2.weights.tobytes()


class TestRunBacktest:
    def test_deterministic_ledgers(self):
        frame = synthetic_frame()
        cfg = fast_config(frame, seed=9)
        roster = (
            StrategySpec("spo_plus", "spo_plus"),
            StrategySpec("max_sharpe", "max_sharpe"),
            StrategySpec("softmax_max_return", "softmax_max_return"),
        )
        l1 = run_backtest(frame, roster, cfg)
        l2 = run_backtest(frame, roster, cfg)
        for name in l1:
            assert l1[name].error is None
            assert np.array(l1[name].nav).tobytes() == np.array(l2[name].nav).tobytes()
            for r1, r2 in zip(l1[name].rebalances, l2[name].rebalances):
                assert r1.target.tobytes() == r2.target.tobytes()
                assert r1.trial == r2.trial

    def test_records_keep_each_window_search_winner(self, monkeypatch, tmp_path):
        import dfolio.backtest as bt

        frame = synthetic_frame()
        cfg = fast_config(frame, seed=3)
        roster = (
            StrategySpec("spo_plus", "spo_plus"),
            StrategySpec("softmax_max_return", "softmax_max_return"),
            StrategySpec("max_sharpe", "max_sharpe"),
        )
        current, searches = {}, {}  # the (strategy, rebalance) in progress; each one's SearchResult

        def spy_window(strategy, t, *args, **kwargs):
            current["window"] = strategy.name, t
            return real_window(strategy, t, *args, **kwargs)

        def spy_search(*args):
            result = searches[current["window"]] = real_search(*args)
            return result

        real_window, real_search = bt.run_window, bt.hyperparameter_search
        monkeypatch.setattr(bt, "run_window", spy_window)
        monkeypatch.setattr(bt, "hyperparameter_search", spy_search)
        ledgers = bt.run_backtest(frame, roster, cfg)

        trained = []
        for name, led in ledgers.items():
            assert led.error is None and led.rebalances
            for rec in led.rebalances:
                if name == "max_sharpe":
                    assert rec.trial is None and (name, rec.day) not in searches
                else:
                    assert rec.trial is searches[name, rec.day].best
                    trained.append((rec.day.isoformat(), name, rec.trial))
        assert len(searches) == len(trained)

        with write_hparams_csv(ledgers, tmp_path / "hparams.csv").open(newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["rebalance_date", "strategy", "lr", "epochs", "score"]
        assert [(day, name, float(lr), int(ep), float(score)) for day, name, lr, ep, score in rows] == [
            (day, name, trial.learning_rate, trial.epochs, trial.score) for day, name, trial in trained
        ]

    def test_decisions_replay_from_predictions_and_drifted_priors(self, monkeypatch):
        # Each linear decision is its kind's oracle applied to the decision
        # row's prediction, with the strategy's gamma and lam and with the
        # record's own drifted weights as the prior.
        import dfolio.backtest as bt

        frame = synthetic_frame()
        cfg = fast_config(frame, seed=5)
        roster = tuple(StrategySpec(k, k, **fields) for k, fields in TRAINED_KINDS if KINDS[k][2] is not None)
        current, predictions = {}, {}  # the (strategy, rebalance) in progress; each one's decision-row prediction

        def spy_window(strategy, t, *args, **kwargs):
            current["window"] = strategy.name, t
            return real_window(strategy, t, *args, **kwargs)

        def spy_predict(*args):
            result = predictions[current["window"]] = real_predict(*args)
            return result

        real_window, real_predict = bt.run_window, bt.predict
        monkeypatch.setattr(bt, "run_window", spy_window)
        monkeypatch.setattr(bt, "predict", spy_predict)
        ledgers = bt.run_backtest(frame, roster, cfg)

        oracles = {MAX_RETURN: lambda r_hat, _: solve_max_return(r_hat), MAX_RETURN_FEE: solve_fee,
                   MAX_RETURN_FEE_L2: solve_fee_l2}
        uniform = Portfolio.uniform(frame.n_assets).weights
        drifted_fee_priors = 0
        for spec in roster:
            led, problem_kind = ledgers[spec.name], KINDS[spec.kind][2]
            assert led.error is None and led.rebalances
            for rec in led.rebalances:
                problem = DecisionProblem(problem_kind, gamma=spec.gamma, lam=spec.lam, w_prev=Portfolio(rec.drifted))
                expected = oracles[problem_kind](predictions[spec.name, rec.day], problem)
                assert rec.target.tobytes() == expected.weights.tobytes(), (spec.name, rec.day)
                drifted_fee_priors += problem_kind != MAX_RETURN and not np.array_equal(rec.drifted, uniform)
        assert len(predictions) == sum(len(led.rebalances) for led in ledgers.values())
        assert drifted_fee_priors > 10  # fee decisions ran on drifted priors, not only on the uniform start

    def test_fee_identity_and_uniform_regime(self):
        frame = synthetic_frame()
        cfg = fast_config(frame, fee_rate=0.005)
        roster = (
            StrategySpec("spo_plus", "spo_plus"),
            StrategySpec("pto_markowitz", "pto_markowitz"),
            StrategySpec("max_sharpe", "max_sharpe"),
        )
        ledgers = run_backtest(frame, roster, cfg)
        for led in ledgers.values():
            assert led.error is None
            for rec in led.rebalances:
                assert rec.nav_after_fee == rec.nav_before * (1.0 - 0.005 * rec.turnover)
                assert 0.0 <= rec.turnover <= 2.0
                if rec.turnover > 0:
                    assert rec.fee / (rec.turnover * rec.nav_before) == pytest.approx(0.005, abs=1e-15)

    def test_identical_rebalance_calendar(self):
        frame = synthetic_frame()
        cfg = fast_config(frame)
        roster = (
            StrategySpec("spo_plus", "spo_plus"),
            StrategySpec("max_sharpe", "max_sharpe"),
        )
        ledgers = run_backtest(frame, roster, cfg)
        days = [tuple(r.day for r in led.rebalances) for led in ledgers.values()]
        assert days[0] == days[1]
        navs = [tuple(led.nav_dates) for led in ledgers.values()]
        assert navs[0] == navs[1]

    def test_failure_isolation(self, monkeypatch):
        import dfolio.backtest as bt

        frame = synthetic_frame()
        cfg = fast_config(frame)

        original = bt.run_window
        original_accrue = bt.accrue
        rebs = bt.rebalance_dates(frame, cfg)

        def sabotage(strategy, t, data, config, w_prev):
            if strategy.name == "broken" and t == rebs[1]:
                raise RuntimeError("synthetic failure")
            return original(strategy, t, data, config, w_prev)

        def sabotage_accrue(ledger, target, day_dates, *args, **kwargs):
            if ledger.strategy == "unpaid":
                raise RuntimeError("synthetic accrual failure")
            return original_accrue(ledger, target, day_dates, *args, **kwargs)

        monkeypatch.setattr(bt, "run_window", sabotage)
        monkeypatch.setattr(bt, "accrue", sabotage_accrue)
        roster = (
            StrategySpec("broken", "spo_plus"),
            StrategySpec("unpaid", "max_sharpe"),
            StrategySpec("max_sharpe", "max_sharpe"),
        )
        ledgers = bt.run_backtest(frame, roster, cfg)
        assert ledgers["broken"].error is not None
        assert "synthetic failure" in ledgers["broken"].error
        assert f"rebalance {rebs[1]} (decide)" in ledgers["broken"].error
        assert "synthetic accrual failure" in ledgers["unpaid"].error
        assert f"rebalance {rebs[0]} (accrue)" in ledgers["unpaid"].error
        assert ledgers["max_sharpe"].error is None
        assert len(ledgers["max_sharpe"].nav) > 1

    def test_train_span_shorter_than_batch_is_located(self):
        frame = synthetic_frame()
        cfg = fast_config(frame, batch_size=400)
        roster = (
            StrategySpec("spo_plus", "spo_plus"),
            StrategySpec("softmax_max_sharpe", "softmax_max_sharpe"),
            StrategySpec("max_sharpe", "max_sharpe"),
        )
        ledgers = run_backtest(frame, roster, cfg)
        for name in ("spo_plus", "softmax_max_sharpe"):
            assert ledgers[name].error == "rebalance 2016-02-01 (decide): ValueError: 182 samples < batch size 400"
        assert ledgers["max_sharpe"].error is None
        assert len(ledgers["max_sharpe"].nav) > 1

    def test_empty_validation_span_is_located(self):
        frame = monthly_frame()
        cfg = BacktestConfig(start=date(2022, 1, 1), end=frame.dates[-1], validation_months=1, batch_size=1, **FAST)
        ledgers = run_backtest(frame, default_roster(), cfg)
        for name, led in ledgers.items():
            if name == "max_sharpe":
                assert led.error is None and len(led.rebalances) == 36
            else:
                assert led.error == (
                    "rebalance 2022-01-01 (decide): ValueError: no validation day in [val_start, t) with a return before t"
                )

    def test_universe_wider_than_lookback_is_located(self):
        frame = synthetic_frame(n_assets=50, n_days=400, seed=3)
        cfg = BacktestConfig(
            start=date(2015, 6, 1), end=frame.dates[-1], train_months=1, validation_months=1,
            batch_size=10, search=SearchSpace(n_trials=1, epochs_min=1, epochs_max=1),
        )
        roster = (
            StrategySpec("max_sharpe", "max_sharpe"),
            StrategySpec("softmax_max_sharpe", "softmax_max_sharpe"),
            StrategySpec("spo_plus", "spo_plus"),
        )
        ledgers = run_backtest(frame, roster, cfg)
        for name, rows in (("max_sharpe", 43), ("softmax_max_sharpe", 22)):
            assert ledgers[name].error == (
                f"rebalance 2015-06-01 (decide): ValueError: covariance window of {rows} rows "
                "too short for 50 assets (need >= 52)"
            )
        assert ledgers["spo_plus"].error is None
        assert len(ledgers["spo_plus"].nav) > 1

    def test_flat_price_zero_volume_ticker(self):
        frame = synthetic_frame()
        prices = frame.adj_close.copy()
        volume = frame.volume.copy()
        prices[:, 0] = 40.0
        volume[:, 0] = 0.0
        frame = MarketFrame(dates=frame.dates, tickers=frame.tickers, adj_close=prices, volume=volume)
        ledgers = run_backtest(frame, default_roster(), fast_config(frame))
        assert len(ledgers) == 9
        for led in ledgers.values():
            assert led.error is None, led.error
            assert led.rebalances
            for rec in led.rebalances:
                assert np.all(rec.target >= 0)
                assert abs(rec.target.sum() - 1.0) <= 1e-9

    def test_prior_weights_chain(self):
        frame = synthetic_frame()
        cfg = fast_config(frame, fee_rate=0.0)
        roster = (StrategySpec("spo_plus", "spo_plus"),)
        led = run_backtest(frame, roster, cfg)["spo_plus"]
        # drifted weights at rebalance k equal previous target drifted through the month
        data = prepare_data(frame)
        for k in range(1, len(led.rebalances)):
            prev, cur = led.rebalances[k - 1], led.rebalances[k]
            i0, i1 = frame.index_of(prev.day), frame.index_of(cur.day)
            w = prev.target.copy()
            for g in range(i0, i1):
                r = data.panel.simple_returns[g - 1]
                w = w * (1.0 + r) / (1.0 + float(w @ r))
            np.testing.assert_allclose(w, cur.drifted, atol=1e-12)

    def test_flat_market_nav_moves_only_by_fees(self):
        dates = business_days(date(2015, 1, 1), 400)
        frame = MarketFrame(
            dates=dates,
            tickers=("A", "B", "C"),
            adj_close=np.full((400, 3), 25.0),
            volume=np.full((400, 3), 1e6),
        )
        cfg = BacktestConfig(start=dates[270], end=dates[-1], fee_rate=0.005, **FAST)
        led = run_backtest(frame, (StrategySpec("max_sharpe", "max_sharpe"),), cfg)["max_sharpe"]
        assert led.error is None
        expected = 1.0
        for rec in led.rebalances:
            expected *= 1.0 - 0.005 * rec.turnover
        assert led.nav[-1] == expected  # flat returns: NAV is exactly the fee product

    def test_duplicate_names_rejected(self):
        frame = synthetic_frame()
        cfg = fast_config(frame)
        roster = (StrategySpec("a", "spo_plus"), StrategySpec("a", "max_sharpe"))
        with pytest.raises(ValueError, match="duplicate"):
            run_backtest(frame, roster, cfg)

    def test_config_validation(self):
        day = date(2016, 1, 4)
        with pytest.raises(ValueError, match="^batch_size: must be >= 1, got 0$"):
            BacktestConfig(start=day, end=day, batch_size=0)

    @pytest.mark.parametrize(
        "build, faults",
        [
            (lambda: BacktestConfig(start=date(2016, 1, 4), end=date(2015, 1, 2), validation_months=0, fee_rate=-1.0),
             ["start: must be <= end", "validation_months: must be >= 1, got 0", "fee_rate: must be >= 0.0, got -1.0"]),
            (lambda: SearchSpace(lr_min=0.1, lr_max=0.01, epochs_min=9, epochs_max=8, n_trials=0),
             ["lr_min: need 0 < lr_min <= lr_max", "n_trials: must be >= 1, got 0", "epochs_min: must be <= epochs_max"]),
            (lambda: StrategySpec("lin", "spo_plus", gamma=-0.5, rho=0.1),
             ["gamma: spo_plus does not read it", "rho: spo_plus does not read it", "gamma: must be >= 0.0, got -0.5"]),
            (lambda: StrategySpec("rob", "robust_spo", hidden=0),
             ["hidden: robust_spo does not read it", "rho: robust_spo requires rho > 0", "hidden: must be >= 1, got 0"]),
            (lambda: StrategySpec("x", "nope"), ["kind: unknown strategy kind 'nope'"]),
        ],
        ids=["backtest", "search", "strategy", "robust", "kind"],
    )
    def test_config_dataclass_reports_every_fault_by_field(self, build, faults):
        with pytest.raises(ConfigError) as info:
            build()
        assert list(info.value.args) == faults

    def test_default_roster_has_nine(self):
        roster = default_roster()
        assert len(roster) == 9
        kinds = {s.kind for s in roster}
        assert "robust_spo" in kinds and "max_sharpe" in kinds
        rhos = sorted(s.rho for s in roster if s.kind == "robust_spo")
        assert rhos == [0.01, 0.1]
        fee = [s for s in roster if s.kind == "spo_plus_fee"][0]
        assert fee.gamma == 0.005
        l2 = [s for s in roster if s.kind == "spo_plus_fee_l2"][0]
        assert (l2.gamma, l2.lam) == (0.005, 0.42)
