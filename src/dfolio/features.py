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
# Cells per temporary of compute_indicators: it fills its result a block of
# max(2, BLOCK_CELLS // dates) assets at a time, about 1 MB per temporary.
BLOCK_CELLS = 1 << 17


class WarmupError(DfolioError, ValueError):
    """The price history is shorter than the indicator warm-up window."""


# Indicator windows in trading days; the Bollinger band spans BOLL_SIGMA standard deviations each way.
SMA_SHORT, SMA_LONG = 5, 20
RSI_PERIOD = 14
MACD_FAST, MACD_SLOW, MACD_SIGNAL = 12, 26, 9
BOLL_WINDOW, BOLL_SIGMA = 20, 2.0
VOL_WINDOW = 20
# First frame index at which every indicator is defined: the MACD signal line's, 33.
WARMUP = max(SMA_LONG - 1, RSI_PERIOD, MACD_SLOW + MACD_SIGNAL - 2, BOLL_WINDOW - 1, VOL_WINDOW - 1)
FEATURE_NAMES = (
    "log_ret_1d",
    f"sma{SMA_SHORT}_ratio",
    f"sma{SMA_LONG}_ratio",
    "bias",
    f"rsi{RSI_PERIOD}",
    "macd_hist",
    "boll_width",
    "vol_ratio",
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
        # Adopt memory that a read-only array owns (the results of compute_indicators and
        # standardize, or a row window of another tensor's features); copy every other
        # array, which a caller could still write through.
        owner = feats if feats.base is None else feats.base
        adopt = (
            not feats.flags.writeable
            and isinstance(owner, np.ndarray)
            and owner.flags.owndata
            and not owner.flags.writeable
        )
        object.__setattr__(self, "features", feats if adopt else _frozen(feats))

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


def _macd_hist(px: np.ndarray) -> np.ndarray:
    """MACD line minus its signal line, not yet divided by price.

    The fast, slow and signal EMAs run in one time loop. Each is seeded at its
    input's first row and steps alpha * x[t] + (1 - alpha) * ema[t - 1], with
    alpha = 2/(span+1).
    """
    a_fast, a_slow, a_sig = (2.0 / (span + 1.0) for span in (MACD_FAST, MACD_SLOW, MACD_SIGNAL))
    fast_x, slow_x = a_fast * px, a_slow * px
    fast = slow = px[0]
    line = sig = fast - slow
    hist = np.empty_like(px)
    hist[0] = line - sig
    for t in range(1, px.shape[0]):
        fast = fast_x[t] + (1.0 - a_fast) * fast
        slow = slow_x[t] + (1.0 - a_slow) * slow
        line = fast - slow
        sig = a_sig * line + (1.0 - a_sig) * sig
        hist[t] = line - sig
    return hist


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
def compute_indicators(frame: MarketFrame) -> FeatureTensor:
    """Per-asset indicator features with the leading WARMUP rows dropped uniformly.

    Columns (FEATURE_NAMES): 1-day log return, SMA(5)/price, SMA(20)/price,
    price bias vs SMA(20), RSI(14) rescaled to [-1, 1], MACD(12, 26, 9)
    histogram / price, Bollinger(20, 2 sigma) band width, volume /
    SMA(volume, 20) - 1.

    The result is allocated once and filled one block of assets at a time, so
    every temporary is sized to the block. Each indicator is per-asset, so the
    values are the bits a full-width pass gives. The one reduction, the RSI's
    seed mean, sums a lone column pairwise but a wider block row by row, so no
    block holds a single asset unless the frame does.
    """
    if frame.n_dates <= WARMUP:
        raise WarmupError(
            f"need at least {WARMUP + 1} dates for indicator warm-up, got {frame.n_dates}"
        )
    n = frame.n_assets
    out = np.empty((frame.n_dates - WARMUP, n, len(FEATURE_NAMES)))
    step = max(2, BLOCK_CELLS // frame.n_dates)
    starts = range(0, max(n - 1, 1), step)  # a one-asset tail joins the block before it
    for a, b in zip(starts, [*starts[1:], n]):
        _indicator_block(out[:, a:b], frame.adj_close[:, a:b], frame.volume[:, a:b])
    out.setflags(write=False)
    return FeatureTensor(dates=frame.dates[WARMUP:], tickers=frame.tickers, features=out, feature_names=FEATURE_NAMES)


def _indicator_block(out: np.ndarray, px: np.ndarray, vol: np.ndarray) -> None:
    """Writes rows WARMUP: of one asset block's eight indicators into out, (dates - WARMUP, block, 8)."""
    w = WARMUP
    log_ret, sma_s, sma_l, bias, rsi, macd_hist, boll_width, vol_ratio = np.moveaxis(out, -1, 0)
    p = px[w:]
    mean_l = _rolling_mean(px, SMA_LONG)[w:]
    np.log(p / px[w - 1 : -1], out=log_ret)
    np.divide(_rolling_mean(px, SMA_SHORT)[w:], p, out=sma_s)
    np.divide(mean_l, p, out=sma_l)
    np.divide(p - mean_l, mean_l, out=bias)
    np.divide(_wilder_rsi(px, RSI_PERIOD)[w:] - 50.0, 50.0, out=rsi)
    np.divide(_macd_hist(px)[w:], p, out=macd_hist)
    boll_std = 2.0 * BOLL_SIGMA * _rolling_std(px, BOLL_WINDOW)[w:]
    np.divide(boll_std, _rolling_mean(px, BOLL_WINDOW)[w:], out=boll_width)
    np.subtract(vol[w:] / np.maximum(_rolling_mean(vol, VOL_WINDOW)[w:], 1e-12), 1.0, out=vol_ratio)


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
    z = tensor.features - mean  # the one array of the result: divided in place, frozen, adopted
    z /= std
    z.setflags(write=False)
    return FeatureTensor(dates=tensor.dates, tickers=tensor.tickers, features=z, feature_names=tensor.feature_names)


def write_features_csv(tensor: FeatureTensor, path) -> Path:
    """Audit dump: one row per (date, ticker), written one date block at a time."""
    header = ["date", "ticker", *tensor.feature_names]
    return write_long_csv(path, header, tensor.dates, tensor.tickers, tensor.features)
