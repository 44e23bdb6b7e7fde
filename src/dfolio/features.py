"""Technical-indicator features per asset per day, plus windowed standardization.

All indicators are causal: the value at date t uses prices/volumes at dates <= t
only. Price-denominated indicators are divided by price so a single linear
predictor shared across assets sees comparable scales. The features.csv audit
dump goes through util.write_long_csv, the panel's writer: csv quotes each
ticker, and each chunk of dates is formatted by one `%r` format.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from pathlib import Path

import numpy as np

from .market_data import MarketFrame, UniverseError, _adopt
from .util import DfolioError, span_indices, write_long_csv

# Floor on a fit span's standard deviation, so a constant feature z-scores to 0.
STD_FLOOR = 1e-8
# Cells of compute_indicators' one scratch allocation (256 KB). Its windowed
# pass splits it into SCRATCH_BUFFERS (dates, block) buffers, so a block is
# BLOCK_CELLS // (SCRATCH_BUFFERS * dates) assets, at least one.
BLOCK_CELLS = 1 << 15
SCRATCH_BUFFERS = 4


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
        # e.g. rolling sums of prices or volumes near the float limit. NaN
        # reaches min and max too, so no full-size mask is made unless one fails.
        if feats.size and not (np.isfinite(feats.min()) and np.isfinite(feats.max())):
            t, i, k = np.argwhere(~np.isfinite(feats))[0]
            name, ticker, day = self.feature_names[k], self.tickers[i], self.dates[t]
            raise UniverseError(f"feature {name} of {ticker} is not finite on {day}")
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "tickers", tuple(self.tickers))
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        # The results of compute_indicators and standardize, and row windows of
        # another tensor's features, are adopted without a copy (`_adopt`).
        object.__setattr__(self, "features", _adopt(feats))

    @property
    def n_features(self) -> int:
        return len(self.feature_names)


# The result slots that _recursions writes; the Wilder averages sit in the adjacent bias and rsi slots.
_BIAS, _RSI, _MACD = map(FEATURE_NAMES.index, ("bias", f"rsi{RSI_PERIOD}", "macd_hist"))


# Overflow and NaN are left to FeatureTensor, which names the first non-finite
# cell, so numpy does not warn ahead of that error.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def compute_indicators(frame: MarketFrame) -> FeatureTensor:
    """Per-asset indicator features with the leading WARMUP rows dropped uniformly.

    Columns (FEATURE_NAMES): 1-day log return, SMA(5)/price, SMA(20)/price,
    price bias vs SMA(20), RSI(14) rescaled to [-1, 1], MACD(12, 26, 9)
    histogram / price, Bollinger(20, 2 sigma) band width, volume /
    SMA(volume, 20) - 1.

    The result is allocated once and written in two passes. `_recursions`
    runs the MACD and Wilder time loops once, a row of every asset per step,
    into the result's own slots. `_windowed` then fills every slot one asset
    block at a time, through one scratch allocation of BLOCK_CELLS cells.
    Each step is the full-width formula's elementwise arithmetic or a running
    sum down a column, and the RSI seed mean is taken over all assets at
    once, so the values are the bits of one full-width pass
    (`tests/oracles.py::reference_indicators`), non-finite cells included.
    """
    if frame.n_dates <= WARMUP:
        raise WarmupError(
            f"need at least {WARMUP + 1} dates for indicator warm-up, got {frame.n_dates}"
        )
    t, n = frame.n_dates, frame.n_assets
    out = np.empty((t - WARMUP, n, len(FEATURE_NAMES)))
    _recursions(out, frame.adj_close)
    step = max(1, BLOCK_CELLS // (SCRATCH_BUFFERS * t))
    scratch = np.empty((SCRATCH_BUFFERS, t * min(step, n)))
    for a in range(0, n, step):
        b = min(a + step, n)
        block = scratch[:, : t * (b - a)].reshape(SCRATCH_BUFFERS, t, b - a)  # each buffer contiguous
        _windowed(out[:, a:b], frame.adj_close[:, a:b], frame.volume[:, a:b], block)
    out.setflags(write=False)
    return FeatureTensor(dates=frame.dates[WARMUP:], tickers=frame.tickers, features=out, feature_names=FEATURE_NAMES)


def _recursions(out: np.ndarray, px: np.ndarray) -> None:
    """The two time recursions, one row of every asset per step, into out's rows t - WARMUP.

    MACD: the fast, slow and signal EMAs are each seeded at their input's
    first row and step alpha * x[t] + (1 - alpha) * ema[t - 1], with alpha =
    2/(span+1); the histogram, not yet divided by price, goes to the
    macd_hist slot. RSI: Wilder's average gain and loss, seeded at row
    RSI_PERIOD (< WARMUP) by the mean of the first RSI_PERIOD moves, go to
    the bias and rsi slots, where `_windowed` reads them.
    """
    alpha = np.array([[2.0 / (MACD_FAST + 1.0)], [2.0 / (MACD_SLOW + 1.0)]])
    keep = 1.0 - alpha
    a_sig = 2.0 / (MACD_SIGNAL + 1.0)
    keep_sig = 1.0 - a_sig
    hist_at = out[..., _MACD]
    avg_at = out[..., _BIAS : _RSI + 1].transpose(0, 2, 1)  # (rows, 2, assets): gain, loss
    move = np.diff(px[: RSI_PERIOD + 1], axis=0)
    avg = np.stack((np.maximum(move, 0.0).mean(axis=0), np.maximum(-move, 0.0).mean(axis=0)))
    ema = np.stack((px[0], px[0]))  # fast, slow
    fast, slow = ema
    line = fast - slow
    sig = line.copy()
    scaled, moves = np.empty_like(ema), np.empty_like(ema)
    scaled_line, up, down = scaled[0], *moves
    prev = px[0]
    for t in range(1, px.shape[0]):
        now, row = px[t], t - WARMUP
        np.multiply(now, alpha, out=scaled)
        ema *= keep
        ema += scaled
        np.subtract(fast, slow, out=line)
        np.multiply(line, a_sig, out=scaled_line)
        sig *= keep_sig
        sig += scaled_line
        if row >= 0:
            np.subtract(line, sig, out=hist_at[row])
        if t > RSI_PERIOD:
            np.subtract(now, prev, out=up)
            np.negative(up, out=down)
            np.maximum(moves, 0.0, out=moves)
            new = avg_at[row] if row >= 0 else avg
            np.multiply(avg, RSI_PERIOD - 1, out=new)
            new += moves
            new /= RSI_PERIOD
            avg = new
        prev = now


def _windowed(out: np.ndarray, px: np.ndarray, vol: np.ndarray, scratch: np.ndarray) -> None:
    """Rows WARMUP: of one asset block, out (dates - WARMUP, block, 8): the RSI from
    `_recursions`' averages, the price-relative MACD, and every windowed indicator.

    `scratch` is four contiguous (dates, block) buffers: the block's prices,
    a running sum down each column, and two temporaries. A trailing mean at
    row t is (running[t] - running[t - window]) / window.
    """
    w = WARMUP
    log_ret, sma_s, sma_l, bias, rsi, macd_hist, boll, vol_ratio = np.moveaxis(out, -1, 0)
    price, running, mid, tmp = scratch
    p, mid, tmp = price[w:], mid[w:], tmp[w:]

    # RSI = 100 - 100 / (1 + gain / loss) where loss > 0, else 100 if gain > 0, else 50.
    gain, loss = bias, rsi
    np.copyto(tmp, loss)
    no_loss = ~(tmp > 0)
    np.copyto(tmp, 1.0, where=no_loss)
    np.divide(gain, tmp, out=tmp)
    tmp += 1.0
    np.divide(100.0, tmp, out=tmp)
    np.subtract(100.0, tmp, out=tmp)
    np.copyto(tmp, np.where(gain > 0, 100.0, 50.0), where=no_loss)
    tmp -= 50.0
    np.divide(tmp, 50.0, out=rsi)

    np.copyto(price, px)
    macd_hist /= p
    np.divide(p, price[w - 1 : -1], out=tmp)
    np.log(tmp, out=log_ret)

    np.cumsum(price, axis=0, out=running)
    _trailing_mean(running, SMA_SHORT, out=tmp)
    np.divide(tmp, p, out=sma_s)
    _trailing_mean(running, SMA_LONG, out=tmp)
    np.divide(tmp, p, out=sma_l)
    np.subtract(p, tmp, out=mid)
    np.divide(mid, tmp, out=bias)
    _trailing_mean(running, BOLL_WINDOW, out=mid)
    np.multiply(price, price, out=running)
    np.cumsum(running, axis=0, out=running)
    _trailing_mean(running, BOLL_WINDOW, out=tmp)  # the mean of squares
    np.multiply(mid, mid, out=running[w:])
    tmp -= running[w:]
    np.maximum(tmp, 0.0, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp *= 2.0 * BOLL_SIGMA
    np.divide(tmp, mid, out=boll)

    np.cumsum(vol, axis=0, out=running)
    _trailing_mean(running, VOL_WINDOW, out=tmp)
    np.maximum(tmp, 1e-12, out=tmp)
    np.divide(vol[w:], tmp, out=tmp)
    np.subtract(tmp, 1.0, out=vol_ratio)


def _trailing_mean(running: np.ndarray, window: int, out: np.ndarray) -> None:
    """Rows WARMUP: of the trailing `window`-row mean, from the running sum down each column."""
    np.subtract(running[WARMUP:], running[WARMUP - window : len(running) - window], out=out)
    out /= window


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
    """Audit dump: one row per (date, ticker), one column per feature."""
    header = ["date", "ticker", *tensor.feature_names]
    return write_long_csv(path, header, tensor.dates, tensor.tickers, np.moveaxis(tensor.features, 2, 0))
