import re
import tracemalloc
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfolio.features import (
    BLOCK_CELLS,
    SCRATCH_BUFFERS,
    WARMUP,
    FeatureTensor,
    WarmupError,
    compute_indicators,
    standardize,
    write_features_csv,
)
from dfolio.market_data import SyntheticSpec, UniverseError, generate_synthetic

from conftest import make_frame
from oracles import read_features_csv, reference_indicators

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

    def test_overflowing_indicator_is_located(self):
        # Volumes near the float limit overflow the rolling sums; the check named no ticker or date.
        frame, _, _ = generate_synthetic(SyntheticSpec(n_assets=2, n_days=120, seed=4))
        volume = frame.volume.copy()
        volume[50:, 1] = 1e308
        with pytest.raises(UniverseError, match=r"^feature vol_ratio of T01 is not finite on 2015-04-14$"):
            compute_indicators(make_frame(frame.adj_close, volume))

    def test_sma_ratio_on_linear_ramp(self):
        # prices 1..60; on day 60 SMA(5) = mean(56..60) = 58 and SMA(20) = mean(41..60) = 50.5
        prices = np.arange(1.0, 61.0)[:, None]
        tensor = compute_indicators(make_frame(prices))
        assert tensor.features[-1, 0, feature_index(tensor, "sma5_ratio")] == pytest.approx(58.0 / 60.0, abs=1e-12)
        assert tensor.features[-1, 0, feature_index(tensor, "sma20_ratio")] == pytest.approx(50.5 / 60.0, abs=1e-12)
        assert tensor.dates[-1] == make_frame(prices).dates[-1]

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
        assert WARMUP == 33
        assert tensor.dates == frame.dates[WARMUP:]
        assert tensor.features.shape == (60 - WARMUP, 2, 8)

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


def random_frame(t, n, seed):
    rng = np.random.default_rng(seed)
    prices = 50.0 * np.exp(np.cumsum(rng.normal(0, 0.02, size=(t, n)), axis=0))
    volume = np.exp(rng.normal(13, 0.5, size=(t, n)))
    return make_frame(prices, volume)


def spiked_frame(t, n, seed):
    """random_frame whose last asset jumps from 1 to 200 and back, then creeps up by 1e-8 a day.

    Its RSI seed mean of gains sums one large and many tiny terms, so numpy's
    pairwise sum of a lone column rounds differently from the row-by-row sum of
    a wider array. The creep is one at which the difference lasts to the first
    RSI row after the warm-up: at 1e-9 it rounds away.
    """
    frame = random_frame(t, n, seed)
    prices = frame.adj_close.copy()
    prices[:, -1] = 1.0 + 1e-8 * np.arange(t)
    prices[1, -1] = 200.0
    return make_frame(prices, frame.volume)


def block_step(t):
    """Assets per block of compute_indicators' windowed pass at t dates."""
    return max(1, BLOCK_CELLS // (SCRATCH_BUFFERS * t))


class TestBlockedIndicators:
    """compute_indicators runs its recursions at full width and fills the rest one asset
    block at a time; the bits are the full-width pass's."""

    T = 2600
    STEP = block_step(T)

    @pytest.mark.parametrize("width", [1, STEP - 1, STEP, STEP + 1, 2 * STEP + 1, 49, 50, 51, 101])
    def test_matches_full_width_reference(self, width):
        # The RSI seed mean is taken over all assets at once: taken per block,
        # a one-asset tail block's pairwise sum would show in every later RSI
        # row. 49 to 101 assets span many blocks, with tails of every width.
        frame = spiked_frame(self.T, width, seed=width)
        got = compute_indicators(frame)
        want = reference_indicators(frame)
        assert got.dates == want.dates and got.feature_names == want.feature_names
        assert got.features.tobytes() == want.features.tobytes()

    def test_shortest_history(self):
        frame = random_frame(WARMUP + 1, 3, seed=2)
        got = compute_indicators(frame)
        assert got.features.shape == (1, 3, 8)
        assert got.features.tobytes() == reference_indicators(frame).features.tobytes()

    def test_first_non_finite_cell_is_named_as_before(self):
        # Overflowing volumes in both blocks: the second block's asset turns
        # non-finite on an earlier date, so it is the one named.
        frame = random_frame(self.T, 2 * self.STEP + 1, seed=9)
        volume = frame.volume.copy()
        volume[900:, 3] = 1e308
        volume[700:, self.STEP + 2] = 1e308
        poisoned = make_frame(frame.adj_close, volume)
        with pytest.raises(UniverseError) as want:
            reference_indicators(poisoned)
        assert str(want.value).startswith(f"feature vol_ratio of T{self.STEP + 2:02d} is not finite on ")
        with pytest.raises(UniverseError, match=f"^{re.escape(str(want.value))}$"):
            compute_indicators(poisoned)

    def test_peak_memory_within_twice_the_result(self):
        # The full-width pass held eight indicator arrays, their stack and a
        # frozen copy at once: 3.3x the result.
        frame = random_frame(2552, 100, seed=5)
        tracemalloc.start()
        try:
            tensor = compute_indicators(frame)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * tensor.features.nbytes

    def test_temporaries_stay_under_a_quarter_of_the_result(self):
        # The recursions write into the result's own rows, the windowed pass
        # reuses one BLOCK_CELLS scratch allocation, and FeatureTensor checks
        # finiteness through min and max, with no full-size mask.
        frame = random_frame(2552, 100, seed=5)
        tracemalloc.start()
        try:
            tensor = compute_indicators(frame)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - tensor.features.nbytes <= 0.25 * tensor.features.nbytes

    def test_result_is_read_only_and_owned(self):
        tensor = compute_indicators(random_frame(300, 4, seed=1))
        assert not tensor.features.flags.writeable
        assert tensor.features.flags.owndata and tensor.features.flags.c_contiguous


HUGE = np.finfo(float).max


@st.composite
def hostile_frames(draw):
    """Frames of WARMUP + 1 dates and up, 1 to 3 blocks wide, some with an RSI seed
    spike, and some with prices or volumes whose rolling sums or squares overflow."""
    t = draw(st.integers(WARMUP + 1, 400))
    width = draw(st.integers(1, 3 * block_step(t)))
    seed = draw(st.integers(0, 2**16))
    frame = draw(st.sampled_from([random_frame, spiked_frame]))(t, width, seed)
    prices, volume = frame.adj_close.copy(), frame.volume.copy()
    for panel, cell in ((prices, 1e3), (volume, 1e7)):  # about a panel's largest cell
        if draw(st.booleans()):
            asset, start = draw(st.integers(0, width - 1)), draw(st.integers(0, t - 1))
            scale = draw(st.sampled_from([1e150, 1e155, 1e300, HUGE / 20 / cell, HUGE / cell]))
            panel[start:, asset] *= scale
    return make_frame(prices, volume)


def outcome(indicators, frame):
    """The tensor's bytes, or the text of the UniverseError that names its first non-finite cell."""
    try:
        return indicators(frame).features.tobytes()
    except UniverseError as exc:
        return str(exc)


@given(hostile_frames())
@settings(deadline=None, max_examples=150)
def test_hostile_frames_match_the_full_width_pass(frame):
    assert outcome(compute_indicators, frame) == outcome(reference_indicators, frame)


class TestFeatureTensorAdoption:
    def _labels(self, t=6, n=2, d=3):
        from dfolio.market_data import business_days

        return business_days(date(2020, 1, 6), t), tuple(f"A{i}" for i in range(n)), tuple(f"f{i}" for i in range(d))

    def test_writable_input_is_copied(self):
        dates, tickers, names = self._labels()
        feats = np.ones((6, 2, 3))
        tensor = FeatureTensor(dates, tickers, feats, names)
        feats[0, 0, 0] = 7.0
        assert tensor.features[0, 0, 0] == 1.0
        assert not tensor.features.flags.writeable

    def test_read_only_view_of_writable_array_is_copied(self):
        dates, tickers, names = self._labels()
        base = np.ones((8, 2, 3))
        view = base[1:7]
        view.setflags(write=False)
        tensor = FeatureTensor(dates, tickers, view, names)
        assert not np.shares_memory(tensor.features, base)
        base[1, 0, 0] = 7.0
        assert tensor.features[0, 0, 0] == 1.0

    def test_finiteness_check_allocates_no_mask(self):
        dates, tickers, names = self._labels(t=2000, n=50, d=8)
        feats = np.random.default_rng(0).normal(size=(2000, 50, 8))
        feats.setflags(write=False)
        tracemalloc.start()
        try:
            FeatureTensor(dates, tickers, feats, names)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.01 * feats.nbytes

    def test_read_only_owner_is_adopted(self):
        dates, tickers, names = self._labels()
        feats = np.ones((6, 2, 3))
        feats.setflags(write=False)
        tensor = FeatureTensor(dates, tickers, feats, names)
        assert tensor.features is feats

    def test_row_window_of_a_tensor_is_adopted(self):
        dates, tickers, names = self._labels(t=8)
        whole = FeatureTensor(dates, tickers, np.arange(48.0).reshape(8, 2, 3), names)
        window = FeatureTensor(dates[2:5], tickers, whole.features[2:5], names)
        assert np.shares_memory(window.features, whole.features)
        assert not window.features.flags.writeable

    def test_standardize_result_is_read_only(self):
        dates, tickers, names = self._labels(t=8)
        whole = FeatureTensor(dates, tickers, np.arange(48.0).reshape(8, 2, 3) ** 1.5, names)
        out = standardize(whole, dates[0], dates[5])
        assert not out.features.flags.writeable
        assert not np.shares_memory(out.features, whole.features)
        mean = whole.features[:5].mean(axis=0)
        std = np.maximum(whole.features[:5].std(axis=0), 1e-8)
        assert out.features.tobytes() == ((whole.features - mean) / std).tobytes()


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
