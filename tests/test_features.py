from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfolio.features import (
    FeatureTensor,
    IndicatorConfig,
    WarmupError,
    compute_indicators,
    standardize,
    write_features_csv,
)
from dfolio.market_data import generate_synthetic, SyntheticSpec

from conftest import make_frame
from oracles import read_features_csv

SMALL = IndicatorConfig(sma_short=3, sma_long=5, rsi_period=4, macd_fast=3,
                        macd_slow=5, macd_signal=2, boll_window=5, vol_window=5)


def feature_index(tensor, name):
    return tensor.feature_names.index(name)


class TestIndicators:
    def test_rsi_saturates_on_rally(self):
        prices = np.linspace(100.0, 300.0, 60)[:, None]
        tensor = compute_indicators(make_frame(prices))
        col = feature_index(tensor, "rsi14")
        np.testing.assert_allclose(tensor.features[:, 0, col], 1.0, atol=1e-12)

    def test_constant_series_features_zero(self):
        tensor = compute_indicators(make_frame(np.full((60, 2), 50.0)))
        for name in ("bias", "macd_hist", "boll_width", "vol_ratio", "rsi14", "log_ret_1d"):
            col = feature_index(tensor, name)
            np.testing.assert_allclose(tensor.features[..., col], 0.0, atol=1e-12)

    def test_flat_price_zero_volume_ticker(self):
        frame, _, _ = generate_synthetic(SyntheticSpec(n_assets=3, n_days=300, seed=4))
        prices = frame.adj_close.copy()
        volume = frame.volume.copy()
        prices[:, 0] = 40.0
        volume[:, 0] = 0.0
        tensor = compute_indicators(make_frame(prices, volume))
        assert np.all(np.isfinite(tensor.features))
        col = feature_index(tensor, "vol_ratio")
        assert np.all(tensor.features[:, 0, col] == -1.0)  # 0 / the 1e-12 floor, minus one
        out = standardize(tensor, tensor.dates[0], tensor.dates[200])
        assert np.all(np.isfinite(out.features))
        assert np.all(out.features[:, 0, col] == 0.0)  # zero spread: the STD_FLOOR path

    def test_sma_ratio_on_linear_ramp(self):
        # prices 1..30; SMA(5) on day 30 = mean(26..30) = 28
        prices = np.arange(1.0, 31.0)[:, None]
        tensor = compute_indicators(make_frame(prices), SMALL)
        col = feature_index(tensor, "sma3_ratio")
        cfg5 = IndicatorConfig(sma_short=5, sma_long=10, rsi_period=4, macd_fast=3,
                               macd_slow=5, macd_signal=2, boll_window=10, vol_window=10)
        tensor5 = compute_indicators(make_frame(prices), cfg5)
        col5 = feature_index(tensor5, "sma5_ratio")
        assert tensor5.features[-1, 0, col5] == pytest.approx(28.0 / 30.0, abs=1e-12)
        assert tensor.dates[-1] == make_frame(prices).dates[-1]
        assert col >= 0

    def test_causality_bit_exact(self):
        rng = np.random.default_rng(0)
        prices = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.01, size=(80, 3)), axis=0))
        volume = np.exp(rng.normal(13, 0.3, size=(80, 3)))
        frame = make_frame(prices, volume)
        tensor = compute_indicators(frame)
        cut = 60
        poisoned = prices.copy()
        poisoned[cut:] *= 7.7
        vol_poisoned = volume.copy()
        vol_poisoned[cut:] *= 3.0
        tensor_p = compute_indicators(make_frame(poisoned, vol_poisoned))
        k = cut - (frame.n_dates - len(tensor.dates))
        assert tensor.features[:k].tobytes() == tensor_p.features[:k].tobytes()

    def test_warmup_error_states_requirement(self):
        with pytest.raises(WarmupError, match="at least 34"):
            compute_indicators(make_frame(np.full((10, 1), 5.0)))

    def test_warmup_truncation_aligns_axes(self):
        frame = make_frame(np.full((60, 2), 9.0))
        tensor = compute_indicators(frame)
        warm = IndicatorConfig().warmup
        assert tensor.dates == frame.dates[warm:]
        assert tensor.features.shape == (60 - warm, 2, 8)

    @given(st.integers(0, 2**31 - 1))
    @settings(deadline=None, max_examples=25)
    def test_bounded_indicators_on_random_walks(self, seed):
        rng = np.random.default_rng(seed)
        prices = 50.0 * np.exp(np.cumsum(rng.normal(0, 0.02, size=(50, 2)), axis=0))
        tensor = compute_indicators(make_frame(prices))
        rsi = tensor.features[..., feature_index(tensor, "rsi14")]
        boll = tensor.features[..., feature_index(tensor, "boll_width")]
        assert np.all(rsi >= -1.0 - 1e-12) and np.all(rsi <= 1.0 + 1e-12)
        assert np.all(boll >= 0.0)
        assert np.all(np.isfinite(tensor.features))


class TestStandardize:
    def _tensor(self, t=50, n=3, d=4, seed=1):
        rng = np.random.default_rng(seed)
        from dfolio.market_data import business_days

        return FeatureTensor(
            dates=business_days(date(2020, 1, 6), t),
            tickers=tuple(f"A{i}" for i in range(n)),
            features=rng.normal(2.0, 3.0, size=(t, n, d)),
            feature_names=tuple(f"f{i}" for i in range(d)),
        )

    def test_constant_feature_floors_to_zero(self):
        tensor = self._tensor()
        feats = tensor.features.copy()
        feats[:, :, 0] = 5.0
        tensor = FeatureTensor(tensor.dates, tensor.tickers, feats, tensor.feature_names)
        out = standardize(tensor)
        np.testing.assert_allclose(out.features[:, :, 0], 0.0, atol=1e-6)

    def test_full_range_stats(self):
        tensor = self._tensor(t=400)
        out = standardize(tensor)
        mean = out.features.mean(axis=0)
        std = out.features.std(axis=0)
        assert np.all(np.abs(mean) < 1e-9)
        np.testing.assert_allclose(std, 1.0, atol=1e-9)

    def test_idempotent(self):
        tensor = self._tensor()
        once = standardize(tensor)
        twice = standardize(once)
        np.testing.assert_allclose(twice.features, once.features, atol=1e-9)

    def test_fit_range_only(self):
        tensor = self._tensor(t=60)
        cut = tensor.dates[30]
        out = standardize(tensor, fit_end=cut)
        fit_part = out.features[:30]
        assert np.all(np.abs(fit_part.mean(axis=0)) < 1e-9)
        # later rows are transformed with the same stats, not re-fit
        assert not np.all(np.abs(out.features[30:].mean(axis=0)) < 1e-2)

    def test_empty_fit_range_rejected(self):
        tensor = self._tensor()
        with pytest.raises(ValueError):
            standardize(tensor, fit_start=tensor.dates[10], fit_end=tensor.dates[10])


class TestFeatureDump:
    def test_round_trip(self, tmp_path):
        spec = SyntheticSpec(n_assets=2, n_days=8, seed=0, signal_coefficients=(0.01, 0.02))
        _, tensor, _ = generate_synthetic(spec)
        path = write_features_csv(tensor, tmp_path / "features.csv")
        back = read_features_csv(path)
        assert back.dates == tensor.dates
        assert back.tickers == tensor.tickers
        assert back.feature_names == tensor.feature_names
        np.testing.assert_array_equal(back.features, tensor.features)
