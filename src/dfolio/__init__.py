"""Decision-focused portfolio optimization toolkit."""

from .util import ConfigError, DfolioError, UsageError
from .market_data import (
    AssetBar,
    IngestionError,
    MarketFrame,
    ReturnPanel,
    SyntheticSpec,
    TickerBars,
    UniverseError,
    compute_returns,
    generate_synthetic,
)
from .features import FeatureTensor, WarmupError, compute_indicators, standardize
from .solvers import (
    CovarianceEstimate,
    DecisionProblem,
    Portfolio,
    SolverError,
    estimate_covariance,
    solve_fee,
    solve_fee_l2,
    solve_max_return,
    solve_max_sharpe,
)
from .spo import RobustConfig
from .training import LinearPredictor, SearchSpace, TrainConfig, TrainingError, hyperparameter_search, predict, train
from .softmax_dfl import SoftmaxAllocator, allocate, train_dfl
from .backtest import AccountingError, BacktestConfig, BacktestLedger, StrategySpec, default_roster, run_backtest
from .metrics import MetricsRow, compute_metrics, subperiod_report

__all__ = [name for name in dir() if not name.startswith("_")]
