from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfolio.market_data import business_days
from dfolio.metrics import compute_metrics, restrict_nav, subperiod_report


def nav_series(values, start=date(2020, 1, 6)):
    values = np.asarray(values, dtype=float)
    return list(business_days(start, len(values))), values


class TestComputeMetrics:
    def test_doubling_in_252_days(self):
        dates, nav = nav_series(np.linspace(1.0, 2.0, 253) ** 0)  # placeholder
        nav = np.exp(np.linspace(0.0, np.log(2.0), 253))
        row = compute_metrics(dates, nav)
        assert abs(row.annualized_return - 100.0) <= 1e-9

    def test_peak_trough_drawdown(self):
        dates, nav = nav_series([1.0, 1.2, 0.9, 1.1])
        row = compute_metrics(dates, nav)
        assert row.max_drawdown == (0.9 / 1.2 - 1.0) * 100.0
        assert row.max_drawdown == -25.0

    def test_monotone_has_zero_drawdown_and_undefined_sortino(self):
        dates, nav = nav_series(np.linspace(1.0, 1.5, 30))
        row = compute_metrics(dates, nav)
        assert row.max_drawdown == 0.0
        assert row.sortino is None
        assert row.sharpe is not None and row.sharpe > 0

    def test_flat_nav_sharpe_undefined(self):
        dates, nav = nav_series(np.ones(10))
        row = compute_metrics(dates, nav)
        assert row.sharpe is None
        assert row.sortino is None
        assert row.annualized_return == 0.0

    def test_sharpe_sign_matches_mean_return(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            rets = rng.normal(0.0005, 0.01, 100)
            nav = np.cumprod(np.concatenate([[1.0], 1 + rets]))
            dates, _ = nav_series(nav)
            row = compute_metrics(dates, nav)
            if row.sharpe is not None:
                assert np.sign(row.sharpe) == np.sign(rets.mean())

    @given(st.floats(min_value=0.01, max_value=100.0), st.integers(0, 2**31 - 1))
    @settings(deadline=None, max_examples=40)
    def test_scale_invariance(self, scale, seed):
        rng = np.random.default_rng(seed)
        nav = np.cumprod(np.concatenate([[1.0], 1 + rng.normal(0, 0.01, 50)]))
        dates, _ = nav_series(nav)
        a = compute_metrics(dates, nav)
        b = compute_metrics(dates, nav * scale)
        assert a.annualized_return == pytest.approx(b.annualized_return, rel=1e-9, abs=1e-9)
        assert a.annualized_volatility == pytest.approx(b.annualized_volatility, rel=1e-9, abs=1e-9)
        assert a.max_drawdown == pytest.approx(b.max_drawdown, rel=1e-9, abs=1e-9)
        if a.sharpe is None:
            assert b.sharpe is None
        else:
            assert a.sharpe == pytest.approx(b.sharpe, rel=1e-9)

    def test_drawdown_monotone_under_append(self):
        rng = np.random.default_rng(1)
        nav = np.cumprod(np.concatenate([[1.0], 1 + rng.normal(0, 0.02, 120)]))
        dates, _ = nav_series(nav)
        prev = 0.0
        for cut in range(2, len(nav) + 1, 7):
            row = compute_metrics(dates[:cut], nav[:cut])
            assert row.max_drawdown <= prev + 1e-12
            prev = row.max_drawdown

    def test_span_selection_inclusive(self):
        dates, nav = nav_series(np.linspace(1.0, 2.0, 20))
        sub_dates, sub_nav = restrict_nav(dates, nav, dates[3], dates[7])
        assert sub_dates == dates[3:8]  # both ends inclusive
        assert list(sub_nav) == list(np.asarray(nav[3:8]) / nav[3])
        full = restrict_nav(dates, nav, dates[0], dates[-1])
        assert full[0] == dates and compute_metrics(*full) == compute_metrics(dates, nav)

    def test_needs_two_points(self):
        dates, nav = nav_series([1.0])
        with pytest.raises(ValueError):
            compute_metrics(dates, nav)

    def test_dates_must_match_nav(self):
        dates, nav = nav_series([1.0, 1.1, 1.2])
        with pytest.raises(ValueError, match="2 dates for 3 NAV points"):
            compute_metrics(dates[:2], nav)

    def test_downside_count_convention(self):
        # the downside sum of squares is divided by all 3 returns, not the 1 negative one
        dates, nav = nav_series([1.0, 0.9, 0.99, 1.05])
        rets = np.array([0.9, 0.99 / 0.9, 1.05 / 0.99]) - 1.0
        dstd = np.sqrt(rets[0] ** 2 / 3)
        sortino = compute_metrics(dates, nav).sortino
        assert sortino == pytest.approx(rets.mean() / dstd * np.sqrt(252), rel=1e-12)
        assert sortino != pytest.approx(rets.mean() / abs(rets[0]) * np.sqrt(252), rel=1e-3)


class TestSubperiodReport:
    def _ledgers(self):
        rng = np.random.default_rng(2)
        out = {}
        for name in ("alpha", "beta"):
            nav = np.cumprod(np.concatenate([[1.0], 1 + rng.normal(0.0005, 0.01, 252)]))
            dates, _ = nav_series(nav)
            out[name] = (dates, nav)
        return out

    def test_full_span_equals_direct(self):
        ledgers = self._ledgers()
        report = subperiod_report(ledgers, {"full": (None, None)})
        for name, (dates, nav) in ledgers.items():
            assert report[name]["full"] == compute_metrics(dates, nav)

    def test_disjoint_spans_independent(self):
        ledgers = self._ledgers()
        dates = ledgers["alpha"][0]
        spans = {
            "first": (dates[0], dates[100]),
            "second": (dates[101], dates[-1]),
        }
        report = subperiod_report(ledgers, spans)
        solo = subperiod_report(ledgers, {"first": spans["first"]})
        assert report["alpha"]["first"] == solo["alpha"]["first"]

    def test_constant_strategy(self):
        dates, _ = nav_series(np.ones(40))
        report = subperiod_report({"flat": (dates, np.ones(40))}, {"full": (None, None)})
        row = report["flat"]["full"]
        assert row.annualized_return == 0.0
        assert row.max_drawdown == 0.0

    def test_span_outside_data_errors(self):
        ledgers = self._ledgers()
        with pytest.raises(ValueError):
            subperiod_report(ledgers, {"nope": (date(1999, 1, 1), date(1999, 2, 1))})

    def test_restrict_renormalizes(self):
        dates, nav = nav_series(np.linspace(2.0, 4.0, 30))
        sub_dates, sub_nav = restrict_nav(dates, nav, dates[10], dates[20])
        assert sub_nav[0] == 1.0
        assert len(sub_dates) == 11
