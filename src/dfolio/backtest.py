"""Rolling-window, monthly-rebalanced backtest over a roster of strategies.

Protocol per rebalance date t: train each search trial on [t - 12m, t - 3m),
score it on the time-ordered validation span [t - 3m, t), keep the winning
trial's model, and trade at t using only features dated strictly before t. The
trade is priced before day t's return accrues, so every decision is a pure
function of data strictly before t. A proportional fee of fee_rate * turnover
(turnover = l1 distance from the drifted pre-trade weights) is charged at
every rebalance, uniformly across strategies.
"""

from __future__ import annotations

import calendar
import math
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from datetime import MINYEAR, date

import numpy as np

from .features import FeatureTensor, compute_indicators, standardize
from .market_data import MarketFrame, ReturnPanel, compute_returns
from .solvers import (
    MAX_RETURN,
    MAX_RETURN_FEE,
    MAX_RETURN_FEE_L2,
    DecisionProblem,
    Portfolio,
    estimate_covariance,
    solve_fee,
    solve_fee_l2,
    solve_max_return,
    solve_max_sharpe,
)
from .softmax_dfl import MAX_RETURN_LOSS, MAX_SHARPE_LOSS, allocate, allocate_batch, train_dfl
from .spo import RobustConfig
from .training import (
    MSE,
    ROBUST_SPO,
    SPO_PLUS,
    SearchSpace,
    TrainConfig,
    TrialResult,
    hyperparameter_search,
    predict,
    train,
    validation_score,
)
from .util import ConfigError, DfolioError, at_least, check_fields, span_indices, stable_seed

STRAT_SPO_PLUS = "spo_plus"
STRAT_SPO_FEE = "spo_plus_fee"
STRAT_SPO_FEE_L2 = "spo_plus_fee_l2"
STRAT_ROBUST = "robust_spo"
STRAT_SOFTMAX_RETURN = "softmax_max_return"
STRAT_SOFTMAX_SHARPE = "softmax_max_sharpe"
STRAT_PTO = "pto_markowitz"
STRAT_MAX_SHARPE = "max_sharpe"
# Per kind: the StrategySpec fields it reads (every other field must keep its
# default), its training loss, and the decision problem its linear predictor
# trains and decides on (None for the softmax allocators and max_sharpe).
KINDS = {
    STRAT_SPO_PLUS: ((), SPO_PLUS, MAX_RETURN),
    STRAT_SPO_FEE: (("gamma",), SPO_PLUS, MAX_RETURN_FEE),
    STRAT_SPO_FEE_L2: (("gamma", "lam"), SPO_PLUS, MAX_RETURN_FEE_L2),
    STRAT_ROBUST: (("rho",), ROBUST_SPO, MAX_RETURN),
    STRAT_SOFTMAX_RETURN: (("hidden",), MAX_RETURN_LOSS, None),
    STRAT_SOFTMAX_SHARPE: (("hidden",), MAX_SHARPE_LOSS, None),
    STRAT_PTO: ((), MSE, MAX_RETURN),
    STRAT_MAX_SHARPE: ((), None, None),
}


class AccountingError(DfolioError, RuntimeError):
    pass


@dataclass(frozen=True)
class StrategySpec:
    name: str
    kind: str
    gamma: float = 0.0
    lam: float = 0.0
    rho: float = 0.0
    hidden: int = 32
    # (field, holds, reason) rules, all checked at once by util.check_fields. A
    # field the kind does not read keeps its default (an unknown kind reads all).
    CHECKS = (
        ("kind", lambda v: v["kind"] in KINDS, "unknown strategy kind {kind!r}"),
        *((f, lambda v, f=f, d=d: v[f] == d or v["kind"] not in KINDS or f in KINDS[v["kind"]][0],
           "{kind} does not read it")
          for f, d in (("gamma", gamma), ("lam", lam), ("rho", rho), ("hidden", hidden))),
        *at_least(0.0, "gamma", "lam"),
        ("lam", lambda v: v["kind"] != STRAT_SPO_FEE_L2 or v["lam"] > 0, "spo_plus_fee_l2 requires lam > 0"),
        ("rho", lambda v: v["kind"] != STRAT_ROBUST or v["rho"] > 0, "robust_spo requires rho > 0"),
        *at_least(1, "hidden"),
    )

    def __post_init__(self):
        check_fields(vars(self), self.CHECKS)


def default_roster() -> tuple[StrategySpec, ...]:
    """The nine compared strategies with their stock parameter values."""
    return (
        StrategySpec("softmax_max_return", STRAT_SOFTMAX_RETURN),
        StrategySpec("softmax_max_sharpe", STRAT_SOFTMAX_SHARPE),
        StrategySpec("robust_spo_rho0.01", STRAT_ROBUST, rho=0.01),
        StrategySpec("robust_spo_rho0.1", STRAT_ROBUST, rho=0.1),
        StrategySpec("pto_markowitz", STRAT_PTO),
        StrategySpec("spo_plus_fee", STRAT_SPO_FEE, gamma=0.005),
        StrategySpec("spo_plus_fee_l2", STRAT_SPO_FEE_L2, gamma=0.005, lam=0.42),
        StrategySpec("spo_plus", STRAT_SPO_PLUS),
        StrategySpec("max_sharpe", STRAT_MAX_SHARPE),
    )


@dataclass(frozen=True)
class BacktestConfig:
    start: date
    end: date
    train_months: int = 9
    validation_months: int = 3
    fee_rate: float = 0.005
    seed: int = 0
    batch_size: int = 63
    search: SearchSpace = SearchSpace()  # each window draws from a seed of (seed, strategy, date)
    CHECKS = (
        ("start", lambda v: v["start"] <= v["end"], "must be <= end"),
        *at_least(1, "train_months", "validation_months", "batch_size"),
        *at_least(0.0, "fee_rate"),
    )

    def __post_init__(self):
        check_fields(vars(self), self.CHECKS)

    @property
    def lookback_months(self) -> int:
        return self.train_months + self.validation_months


def months_back(day: date, months: int) -> date:
    """Same day-of-month `months` earlier, clamped to the target month's length.

    Raises ValueError when that month lies before year 1.
    """
    y, m0 = divmod(day.year * 12 + day.month - 1 - months, 12)
    if y < MINYEAR:  # date() raises OverflowError, not ValueError, below the C int range
        raise ValueError(f"year {y} is out of range")
    return date(y, m0 + 1, min(day.day, calendar.monthrange(y, m0 + 1)[1]))


def rebalance_dates(frame: MarketFrame, config: BacktestConfig) -> list[date]:
    """First trading day of each month in [start, end] with a full lookback behind it.

    Raises ConfigError, under the `backtest` key, when no month qualifies or a
    lookback runs off the calendar.
    """
    first_of_month: dict[tuple[int, int], date] = {}
    for d in frame.dates:
        key = (d.year, d.month)
        if key not in first_of_month:
            first_of_month[key] = d
    out = []
    for key in sorted(first_of_month):
        c = first_of_month[key]
        if c < config.start or c > config.end:
            continue
        try:
            fits = months_back(c, config.lookback_months) >= frame.dates[0]
        except ValueError as exc:
            raise ConfigError(f"backtest: {exc}") from None
        if fits:
            out.append(c)
    if not out:
        raise ConfigError(
            f"backtest: no rebalance dates in [{config.start}, {config.end}] with a "
            f"{config.lookback_months}-month lookback inside the frame"
        )
    return out


@dataclass(frozen=True)
class BacktestData:
    """Frame plus derived panels computed once per backtest."""

    frame: MarketFrame
    panel: ReturnPanel
    features: FeatureTensor

    @property
    def warmup(self) -> int:
        return self.frame.n_dates - len(self.features.dates)


def prepare_data(frame: MarketFrame) -> BacktestData:
    return BacktestData(
        frame=frame,
        panel=compute_returns(frame),
        features=compute_indicators(frame),
    )


@dataclass
class RebalanceRecord:
    day: date
    target: np.ndarray
    drifted: np.ndarray
    turnover: float
    fee: float
    nav_before: float
    nav_after_fee: float
    trial: TrialResult | None = None  # the window search's winner; None when the strategy does not train


@dataclass
class BacktestLedger:
    strategy: str
    nav_dates: list = field(default_factory=list)
    nav: list = field(default_factory=list)
    rebalances: list = field(default_factory=list)
    live_weights: np.ndarray | None = None
    error: str | None = None


def run_window(
    strategy: StrategySpec,
    t: date,
    data: BacktestData,
    config: BacktestConfig,
    w_prev: Portfolio,
) -> tuple[Portfolio, TrialResult | None]:
    """Train (if the strategy trains), tune, and decide the portfolio held from t.

    Returns the portfolio and the winning trial of the window's search
    (`hyperparameter_search(...).best`), or None for max_sharpe, which does
    not train. Uses only data strictly before t. The window is the feature
    rows dated in [train_start, t), z-scored on the train span; its last row,
    the latest before t, is the decision row. The samples are the rows before
    it, each with the return into the next date as its target, so every
    target is dated before t: training takes the rows of [train_start,
    val_start), validation the rest. Raises ValueError when either sample
    set is empty.
    """
    train_start = months_back(t, config.lookback_months)
    val_start = months_back(t, config.validation_months)

    if strategy.kind == STRAT_MAX_SHARPE:
        rows = span_indices(data.panel.dates, train_start, t)
        est = estimate_covariance(data.panel.simple_returns[rows.start : rows.stop])
        return solve_max_sharpe(est), None

    feats = data.features
    lo, mid, hi = (bisect_left(feats.dates, d) for d in (train_start, val_start, t))
    cut = hi - lo - 1  # the decision row
    if mid == lo:
        raise ValueError("no training day in [train_start, val_start)")
    if mid - lo >= cut:
        raise ValueError("no validation day in [val_start, t) with a return before t")
    window = FeatureTensor(feats.dates[lo:hi], feats.tickers, feats.features[lo:hi], feats.feature_names)
    z = standardize(window, train_start, val_start).features
    y = data.panel.simple_returns[data.warmup + lo :]  # row k: the return into the date after window row k
    x_train, y_train = z[: mid - lo], y[: mid - lo]
    x_val, y_val = z[mid - lo : cut], y[mid - lo : cut]

    _, loss, problem_kind = KINDS[strategy.kind]
    seed = stable_seed(config.seed, strategy.name, t, "search")
    if problem_kind is None:
        base = TrainConfig(batch_size=config.batch_size, seed=stable_seed(seed, "softmax-train"))

        def score(model):
            # realized validation return of the allocator's weights
            return float((y_val * allocate_batch(model, x_val)).sum(axis=1).mean())

    else:
        problem = DecisionProblem(problem_kind, gamma=strategy.gamma, lam=strategy.lam, w_prev=w_prev)
        robust = RobustConfig(rho=strategy.rho) if loss == ROBUST_SPO else None
        base = TrainConfig(loss_kind=loss, batch_size=config.batch_size, robust=robust, problem=problem)

        def score(model):
            return validation_score(model, x_val, y_val, base)

    def fit(lrs, epochs):
        # Training does not read config.epochs; it records the pass length
        # (the longest trial's epochs), which perfbench's trace counts.
        cfg = replace(base, epochs=int(epochs.max()))
        if problem_kind is None:
            return train_dfl(x_train, y_train, loss, cfg, hidden=strategy.hidden, learning_rates=lrs, epochs=epochs)
        return train(x_train, y_train, cfg, learning_rates=lrs, epochs=epochs)

    result = hyperparameter_search(config.search, seed, fit, score)
    if problem_kind is None:
        return allocate(result.model, z[cut]), result.best
    r_hat = predict(result.model, z[cut])
    if problem_kind == MAX_RETURN_FEE:
        return solve_fee(r_hat, problem), result.best
    if problem_kind == MAX_RETURN_FEE_L2:
        return solve_fee_l2(r_hat, problem), result.best
    return solve_max_return(r_hat), result.best


def accrue(
    ledger: BacktestLedger,
    target: Portfolio,
    day_dates,
    day_returns: np.ndarray,
    fee_rate: float,
    trial: TrialResult | None = None,
) -> None:
    """Charge the rebalance fee against drifted holdings, then compound daily.

    day_returns rows cover the holding period (the rebalance day itself through
    the day before the next rebalance); weights drift buy-and-hold within it.
    The rebalance record keeps `trial`, the window search's winner (None when
    the strategy does not train), which `write_hparams_csv` reports.
    """
    drifted = ledger.live_weights
    turnover = float(np.abs(target.weights - drifted).sum())
    nav_before = ledger.nav[-1]
    nav = nav_before * (1.0 - fee_rate * turnover)
    fee = fee_rate * turnover * nav_before
    if nav <= 0:
        raise AccountingError(f"NAV {nav} <= 0 after fee at {day_dates[0] if len(day_dates) else '?'}")
    ledger.rebalances.append(
        RebalanceRecord(
            day=day_dates[0],
            target=target.weights.copy(),
            drifted=np.array(drifted, dtype=float),
            turnover=turnover,
            fee=fee,
            nav_before=nav_before,
            nav_after_fee=nav,
            trial=trial,
        )
    )
    w = target.weights.copy()
    for day, r, gross in zip(day_dates, day_returns, 1.0 + day_returns):
        day_ret = float(w @ r)
        nav *= 1.0 + day_ret
        if not 0.0 < nav < math.inf:  # also a nan NAV
            raise AccountingError(f"NAV {nav} invalid on {day}")
        w = w * gross / (1.0 + day_ret)
        ledger.nav.append(nav)
    ledger.nav_dates.extend(day_dates)
    ledger.live_weights = w


def _run_strategy(strategy, rebs, data, config) -> BacktestLedger:
    """One strategy's ledger over the rebalance dates.

    A failure is isolated to this strategy: the returned ledger carries only
    the error, located by rebalance date and stage (decide or accrue).
    """
    frame = data.frame
    n = frame.n_assets
    i0 = frame.index_of(rebs[0])
    ledger = BacktestLedger(
        strategy=strategy.name,
        nav_dates=[frame.dates[i0 - 1]],
        nav=[1.0],
        live_weights=np.full(n, 1.0 / n),
    )
    boundaries = [frame.index_of(t) for t in rebs] + [frame.n_dates]
    for k, t in enumerate(rebs):
        stage = "decide"
        try:
            target, trial = run_window(strategy, t, data, config, w_prev=Portfolio(ledger.live_weights))
            stage = "accrue"
            it, it_end = boundaries[k], boundaries[k + 1]
            accrue(
                ledger,
                target,
                frame.dates[it:it_end],
                data.panel.simple_returns[it - 1 : it_end - 1],
                config.fee_rate,
                trial=trial,
            )
        except Exception as exc:  # noqa: BLE001 - isolation contract
            return BacktestLedger(
                strategy=strategy.name,
                error=f"rebalance {t} ({stage}): {type(exc).__name__}: {exc}",
            )
    return ledger


def run_backtest(
    frame: MarketFrame, roster: tuple[StrategySpec, ...], config: BacktestConfig
) -> dict[str, BacktestLedger]:
    """Run every strategy over identical rebalance dates and fee regime.

    Per-strategy failures are isolated: the failing ledger carries the error
    message, located by rebalance date and stage, and the remaining strategies
    still complete.
    """
    names = [s.name for s in roster]
    if len(set(names)) != len(names):
        raise ValueError("duplicate strategy names in roster")
    frame.check_usable()
    data = prepare_data(frame)
    rebs = rebalance_dates(frame, config)
    return {s.name: _run_strategy(s, rebs, data, config) for s in roster}
