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
# The StrategySpec fields each kind reads; every other field must keep its default.
KIND_FIELDS = {
    STRAT_SPO_PLUS: (),
    STRAT_SPO_FEE: ("gamma",),
    STRAT_SPO_FEE_L2: ("gamma", "lam"),
    STRAT_ROBUST: ("rho",),
    STRAT_SOFTMAX_RETURN: ("hidden",),
    STRAT_SOFTMAX_SHARPE: ("hidden",),
    STRAT_PTO: (),
    STRAT_MAX_SHARPE: (),
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
        ("kind", lambda v: v["kind"] in KIND_FIELDS, "unknown strategy kind {kind!r}"),
        *((f, lambda v, f=f, d=d: v[f] == d or f in KIND_FIELDS.get(v["kind"], (f,)), "{kind} does not read it")
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


@dataclass(frozen=True)
class WindowDiagnostics:
    rebalance: date
    train_start: date
    val_start: date
    learning_rate: float | None = None
    epochs: int | None = None
    score: float | None = None


@dataclass
class RebalanceRecord:
    day: date
    target: np.ndarray
    drifted: np.ndarray
    turnover: float
    fee: float
    nav_before: float
    nav_after_fee: float
    diagnostics: WindowDiagnostics | None = None


@dataclass
class BacktestLedger:
    strategy: str
    nav_dates: list = field(default_factory=list)
    nav: list = field(default_factory=list)
    rebalances: list = field(default_factory=list)
    live_weights: np.ndarray | None = None
    error: str | None = None


def _strategy_problem(strategy: StrategySpec, w_prev: Portfolio) -> DecisionProblem:
    if strategy.kind == STRAT_SPO_FEE:
        return DecisionProblem(kind=MAX_RETURN_FEE, gamma=strategy.gamma, w_prev=w_prev)
    if strategy.kind == STRAT_SPO_FEE_L2:
        return DecisionProblem(
            kind=MAX_RETURN_FEE_L2, gamma=strategy.gamma, lam=strategy.lam, w_prev=w_prev
        )
    return DecisionProblem(kind=MAX_RETURN)


def _window_samples(data: BacktestData, tensor: FeatureTensor, first: int, start: date, end: date, it: int):
    """Feature/target rows with dates in [start, end) and targets strictly before t.

    first is the frame index of tensor's first row.
    """
    rows = span_indices(tensor.dates, start, end)
    keep = [k for k in rows if first + k + 1 < it]
    x = tensor.features[keep]
    y = data.panel.simple_returns[[first + k for k in keep]]
    return x, y


def run_window(
    strategy: StrategySpec,
    t: date,
    data: BacktestData,
    config: BacktestConfig,
    w_prev: Portfolio,
):
    """Train (if the strategy trains), tune, and decide the portfolio held from t.

    Uses only data strictly before t: features are standardized on the train
    span, validation targets stop at the last return before t, and the
    decision consumes the latest feature slice preceding t. Only the rows the
    window reads, [train_start, t), are standardized.
    """
    frame = data.frame
    it = frame.index_of(t)
    train_start = months_back(t, config.lookback_months)
    val_start = months_back(t, config.validation_months)
    diag = WindowDiagnostics(rebalance=t, train_start=train_start, val_start=val_start)

    if strategy.kind == STRAT_MAX_SHARPE:
        rows = span_indices(data.panel.dates, train_start, t)
        est = estimate_covariance(data.panel.simple_returns[rows.start : rows.stop])
        return solve_max_sharpe(est), diag

    feats = data.features
    span = span_indices(feats.dates, train_start, t)
    window = FeatureTensor(
        feats.dates[span.start : span.stop], feats.tickers, feats.features[span.start : span.stop], feats.feature_names
    )
    tensor = standardize(window, train_start, val_start)
    first = span.start + data.warmup
    x_train, y_train = _window_samples(data, tensor, first, train_start, val_start, it)
    x_val, y_val = _window_samples(data, tensor, first, val_start, t, it)
    if it - 1 < data.warmup:
        raise ValueError(f"no feature row available before {t} (warm-up too long)")
    decision_slice = tensor.features[it - 1 - first]

    seed = stable_seed(config.seed, strategy.name, t, "search")

    softmax = strategy.kind in (STRAT_SOFTMAX_RETURN, STRAT_SOFTMAX_SHARPE)
    if softmax:
        dfl_kind = MAX_RETURN_LOSS if strategy.kind == STRAT_SOFTMAX_RETURN else MAX_SHARPE_LOSS
        base = TrainConfig(batch_size=config.batch_size, seed=stable_seed(seed, "softmax-train"))

        def score(model):
            # realized validation return of the allocator's weights
            return float((y_val * allocate_batch(model, x_val)).sum(axis=1).mean())

    else:
        problem = _strategy_problem(strategy, w_prev)
        base = TrainConfig(
            loss_kind=_loss_kind(strategy),
            batch_size=config.batch_size,
            seed=stable_seed(config.seed, strategy.name, t, "train"),
            problem=problem,
            robust=RobustConfig(rho=strategy.rho) if strategy.kind == STRAT_ROBUST else None,
        )

        def score(model):
            return validation_score(model, x_val, y_val, base)

    def fit(lrs, epochs):
        # A stacked pass ignores config.epochs; it records the pass length
        # (the longest trial's epochs), which perfbench's trace counts.
        cfg = replace(base, epochs=int(epochs.max()))
        if softmax:
            return train_dfl(x_train, y_train, dfl_kind, cfg, hidden=strategy.hidden, learning_rates=lrs, epochs=epochs)
        return train(x_train, y_train, cfg, learning_rates=lrs, epochs=epochs)

    result = hyperparameter_search(config.search, seed, fit, score)
    best = result.best
    diag = replace(diag, learning_rate=best.learning_rate, epochs=best.epochs, score=best.score)
    if softmax:
        return allocate(result.model, decision_slice), diag
    r_hat = predict(result.model, decision_slice)
    if strategy.kind == STRAT_SPO_FEE:
        return solve_fee(r_hat, problem), diag
    if strategy.kind == STRAT_SPO_FEE_L2:
        return solve_fee_l2(r_hat, problem), diag
    return solve_max_return(r_hat), diag


def _loss_kind(strategy: StrategySpec) -> str:
    if strategy.kind == STRAT_PTO:
        return MSE
    if strategy.kind == STRAT_ROBUST:
        return ROBUST_SPO
    return SPO_PLUS


def accrue(
    ledger: BacktestLedger,
    target: Portfolio,
    day_dates,
    day_returns: np.ndarray,
    fee_rate: float,
    diagnostics: WindowDiagnostics | None = None,
) -> None:
    """Charge the rebalance fee against drifted holdings, then compound daily.

    day_returns rows cover the holding period (the rebalance day itself through
    the day before the next rebalance); weights drift buy-and-hold within it.
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
            diagnostics=diagnostics,
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
            target, diag = run_window(strategy, t, data, config, w_prev=Portfolio(ledger.live_weights))
            stage = "accrue"
            it, it_end = boundaries[k], boundaries[k + 1]
            accrue(
                ledger,
                target,
                frame.dates[it:it_end],
                data.panel.simple_returns[it - 1 : it_end - 1],
                config.fee_rate,
                diagnostics=diag,
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
