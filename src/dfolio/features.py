"""Technical-indicator features per asset per day, plus windowed standardization.

All indicators are causal: the value at date t uses prices/volumes at dates <= t
only. Price-denominated indicators are divided by price so a single linear
predictor shared across assets sees comparable scales. The features.csv audit
dump goes through util.write_long_csv, the panel's block writer: csv quotes
each ticker, and each date block's floats are formatted by one `%r` format.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from pathlib import Path

import numpy as np

from .market_data import MarketFrame, UniverseError, _frozen
from .util import DfolioError, span_indices, write_long_csv

# Floor on a fit span's standard deviation, so a constant feature z-scores to 0.
STD_FLOOR = 1e-8


class WarmupError(DfolioError, ValueError):
    """The price history is shorter than the indicator warm-up window."""


@dataclass(frozen=True)
class IndicatorConfig:
    sma_short: int = 5
    sma_long: int = 20
    rsi_period: int = 14
    macd_fast: int = 12
    macd_slow: int = 26
    macd_signal: int = 9
    boll_window: int = 20
    boll_sigma: float = 2.0
    vol_window: int = 20

    @property
    def warmup(self) -> int:
        """First frame index at which every indicator is defined."""
        return max(
            self.sma_long - 1,
            self.rsi_period,
            self.macd_slow + self.macd_signal - 2,
            self.boll_window - 1,
            self.vol_window - 1,
            1,
        )


@dataclass(frozen=True)
class FeatureTensor:
    """date x asset x feature array with aligned axes labels."""

    dates: tuple[date, ...]
    tickers: tuple[str, ...]
    features: np.ndarray
    feature_names: tuple[str, ...]

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=float)
        if feats.shape != (len(self.dates), len(self.tickers), len(self.feature_names)):
            raise ValueError(
                f"feature shape {feats.shape} != "
                f"({len(self.dates)}, {len(self.tickers)}, {len(self.feature_names)})"
            )
        if not np.isfinite(feats).all():  # e.g. rolling sums of prices or volumes near the float limit
            t, i, k = np.argwhere(~np.isfinite(feats))[0]
            name, ticker, day = self.feature_names[k], self.tickers[i], self.dates[t]
            raise UniverseError(f"feature {name} of {ticker} is not finite on {day}")
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "tickers", tuple(self.tickers))
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        object.__setattr__(self, "features", _frozen(feats))

    @property
    def n_features(self) -> int:
        return len(self.feature_names)


def _rolling_mean(x: np.ndarray, window: int) -> np.ndarray:
    """Trailing mean over `window` rows; rows < window-1 are NaN."""
    out = np.full_like(x, np.nan)
    csum = np.cumsum(x, axis=0)
    out[window - 1 :] = csum[window - 1 :].copy()
    out[window:] -= csum[:-window]
    out[window - 1 :] /= window
    return out


def _rolling_std(x: np.ndarray, window: int) -> np.ndarray:
    """Trailing population std; NaN during warm-up."""
    mean = _rolling_mean(x, window)
    mean_sq = _rolling_mean(x * x, window)
    var = np.maximum(mean_sq - mean * mean, 0.0)
    return np.sqrt(var)


def _ema(x: np.ndarray, span: int) -> np.ndarray:
    """Exponential moving average seeded at the first row (alpha = 2/(span+1))."""
    alpha = 2.0 / (span + 1.0)
    out = np.empty_like(x)
    out[0] = x[0]
    for t in range(1, x.shape[0]):
        out[t] = alpha * x[t] + (1.0 - alpha) * out[t - 1]
    return out


def _wilder_rsi(prices: np.ndarray, period: int) -> np.ndarray:
    """RSI with Wilder smoothing; defined from row `period`, NaN before."""
    delta = np.diff(prices, axis=0)
    gain = np.maximum(delta, 0.0)
    loss = np.maximum(-delta, 0.0)
    t_total, n = prices.shape
    avg_gain = np.full((t_total, n), np.nan)
    avg_loss = np.full((t_total, n), np.nan)
    if t_total <= period:
        return np.full((t_total, n), np.nan)
    avg_gain[period] = gain[:period].mean(axis=0)
    avg_loss[period] = loss[:period].mean(axis=0)
    for t in range(period + 1, t_total):
        avg_gain[t] = (avg_gain[t - 1] * (period - 1) + gain[t - 1]) / period
        avg_loss[t] = (avg_loss[t - 1] * (period - 1) + loss[t - 1]) / period
    rsi = np.full((t_total, n), np.nan)
    valid = ~np.isnan(avg_gain)
    g, l = avg_gain[valid], avg_loss[valid]
    vals = np.where(
        l > 0,
        100.0 - 100.0 / (1.0 + g / np.where(l > 0, l, 1.0)),
        np.where(g > 0, 100.0, 50.0),
    )
    rsi[valid] = vals
    return rsi


# Overflow and NaN are left to FeatureTensor, which names the first non-finite
# cell, so numpy does not warn ahead of that error.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def compute_indicators(frame: MarketFrame, config: IndicatorConfig = IndicatorConfig()) -> FeatureTensor:
    """Per-asset indicator features with leading warm-up rows dropped uniformly.

    Columns: 1-day log return, SMA(short)/price, SMA(long)/price, price bias vs
    SMA(long), RSI rescaled to [-1, 1], MACD histogram / price, Bollinger band
    width, volume / SMA(volume) - 1.
    """
    warmup = config.warmup
    if frame.n_dates <= warmup:
        raise WarmupError(
            f"need at least {warmup + 1} dates for indicator warm-up, got {frame.n_dates}"
        )
    px = frame.adj_close
    vol = frame.volume

    log_ret = np.full_like(px, np.nan)
    log_ret[1:] = np.log(px[1:] / px[:-1])

    sma_s = _rolling_mean(px, config.sma_short)
    sma_l = _rolling_mean(px, config.sma_long)
    bias = (px - sma_l) / sma_l

    rsi = (_wilder_rsi(px, config.rsi_period) - 50.0) / 50.0

    macd_line = _ema(px, config.macd_fast) - _ema(px, config.macd_slow)
    macd_hist = (macd_line - _ema(macd_line, config.macd_signal)) / px

    boll_mid = _rolling_mean(px, config.boll_window)
    boll_width = 2.0 * config.boll_sigma * _rolling_std(px, config.boll_window) / boll_mid

    vol_ratio = vol / np.maximum(_rolling_mean(vol, config.vol_window), 1e-12) - 1.0

    names = (
        "log_ret_1d",
        f"sma{config.sma_short}_ratio",
        f"sma{config.sma_long}_ratio",
        "bias",
        f"rsi{config.rsi_period}",
        "macd_hist",
        "boll_width",
        "vol_ratio",
    )
    stacked = np.stack(
        [log_ret, sma_s / px, sma_l / px, bias, rsi, macd_hist, boll_width, vol_ratio],
        axis=-1,
    )
    return FeatureTensor(
        dates=frame.dates[warmup:],
        tickers=frame.tickers,
        features=stacked[warmup:],
        feature_names=names,
    )


def standardize(
    tensor: FeatureTensor,
    fit_start: date | None = None,
    fit_end: date | None = None,
) -> FeatureTensor:
    """Z-score each (asset, feature) using statistics from [fit_start, fit_end) only.

    The transform is applied to the whole tensor; callers must keep the fit span
    ahead of any evaluation span to avoid look-ahead.
    """
    rows = span_indices(tensor.dates, fit_start, fit_end)
    if len(rows) == 0:
        raise ValueError("empty standardization fit range")
    fit = tensor.features[rows.start : rows.stop]
    mean = fit.mean(axis=0)
    std = np.maximum(fit.std(axis=0), STD_FLOOR)
    return FeatureTensor(
        dates=tensor.dates,
        tickers=tensor.tickers,
        features=(tensor.features - mean) / std,
        feature_names=tensor.feature_names,
    )


def write_features_csv(tensor: FeatureTensor, path) -> Path:
    """Audit dump: one row per (date, ticker), written one date block at a time."""
    header = ["date", "ticker", *tensor.feature_names]
    return write_long_csv(path, header, tensor.dates, tensor.tickers, tensor.features)
