"""Each output check passes on real artifacts and rejects a tampered copy.

Runs a tiny backtest and a tiny ingest through the dfolio CLI, then edits one
artifact at a time. Run with: python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
import sys
from bisect import bisect_left
from datetime import date
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
from dfolio import cli  # noqa: E402

ROSTER = ["spo_plus", "spo_plus_fee", "robust_spo_rho0.1", "max_sharpe"]
TINY_BACKTEST = gen.Workload(
    name="tiny_backtest",
    command="backtest",
    n_assets=4,
    n_days=330,
    start="2016-01-01",
    end="2016-03-31",
    strategies=ROSTER,
    search={"n_trials": 1, "epochs_min": 1, "epochs_max": 1},
)
TINY_INGEST = gen.Workload(name="tiny_ingest", command="ingest", n_assets=5, n_days=120, drop_max=0.05)
START, END = date(2016, 1, 1), date(2016, 3, 31)


def run_cli(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def backtest(tmp_path_factory):
    root = tmp_path_factory.mktemp("backtest")
    desc = gen.write_inputs(TINY_BACKTEST, 3, root)
    run_cli(["backtest", "--config", desc["config"], "--out", str(root / "out")])
    return root / "out", checks.Market(checks.read_inputs(desc["data_dir"]))


@pytest.fixture(scope="module")
def ingest(tmp_path_factory):
    root = tmp_path_factory.mktemp("ingest")
    desc = gen.write_inputs(TINY_INGEST, 3, root)
    stdout = run_cli(["ingest", "--data", desc["data_dir"], "--out", str(root / "out")])
    return root / "out", checks.Market(checks.read_inputs(desc["data_dir"])), stdout


def check_backtest(out, market):
    return checks.check_backtest(out, market, ROSTER, START, END, gen.FEE_RATE)


def edit_csv(path, edit):
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def weight_rows(rows, strategy, day=None):
    return [r for r in rows[1:] if r[1] == strategy and (day is None or r[0] == day)]


def drop_last_rebalance(rows):
    last = max(r[0] for r in weight_rows(rows, "spo_plus"))
    rows[:] = [r for r in rows if not (r[1] == "spo_plus" and r[0] == last)]


def overweight(rows):
    row = weight_rows(rows, "spo_plus_fee")[0]
    row[3] = repr(float(row[3]) + 0.5)


def split_vertex(rows):
    first = weight_rows(rows, "spo_plus")[0][0]
    for r in weight_rows(rows, "spo_plus", first):
        r[3] = "0.25"


def buy_two(rows):
    first = weight_rows(rows, "spo_plus_fee")[0][0]
    for k, r in enumerate(weight_rows(rows, "spo_plus_fee", first)):
        r[3] = "0.5" if k < 2 else "0.0"


def nudge_fee(rows):
    row = weight_rows(rows, "spo_plus_fee")[0]
    row[5] = repr(float(row[5]) * 1.01 + 1e-6)


def nudge_nav(rows):
    rows[-1][2] = repr(float(rows[-1][2]) * 1.001)


@pytest.mark.parametrize(
    "artifact, edit, expected",
    [
        ("weights.csv", drop_last_rebalance, "calendar"),
        ("weights.csv", overweight, "simplex"),
        ("weights.csv", split_vertex, "vertex"),
        ("weights.csv", buy_two, "fee prior"),
        ("weights.csv", nudge_fee, "accounting"),
        ("nav.csv", nudge_nav, "accounting"),
    ],
)
def test_backtest_check_rejects_tampered_csv(backtest, tmp_path, artifact, edit, expected):
    out, market = backtest
    assert check_backtest(out, market) == []
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    edit_csv(copy / artifact, edit)
    problems = check_backtest(copy, market)
    assert any(p.startswith(expected) for p in problems), problems


def test_max_sharpe_check_rejects_worst_vertex(backtest, tmp_path):
    out, market = backtest
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    day = min(checks.read_weights(out / "weights.csv", market.tickers)["max_sharpe"])
    returns_dates = market.dates[1:]
    lo = bisect_left(returns_dates, checks.months_back(day, checks.LOOKBACK_MONTHS))
    x = market.returns[lo : bisect_left(returns_dates, day)]
    worst = market.tickers[int(np.argmin(x.mean(axis=0) / x.std(axis=0, ddof=1)))]

    def to_worst(rows):
        for r in weight_rows(rows, "max_sharpe", day.isoformat()):
            r[3] = "1.0" if r[2] == worst else "0.0"

    edit_csv(copy / "weights.csv", to_worst)
    problems = checks.check_max_sharpe(checks.read_weights(copy / "weights.csv", market.tickers), market)
    assert any(p.startswith("max_sharpe") for p in problems), problems


def test_metrics_check_rejects_edited_sharpe(backtest, tmp_path):
    out, market = backtest
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    report = json.loads((copy / "metrics.json").read_text())
    report["spo_plus"]["full"]["sharpe"] += 1e-6
    (copy / "metrics.json").write_text(json.dumps(report))
    assert any(p.startswith("metrics") for p in check_backtest(copy, market))


def test_identity_check_rejects_changed_bytes(backtest, tmp_path):
    out, _ = backtest
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    names = ("nav.csv", "metrics.json")
    assert checks.check_identical([checks.digest(out, names), checks.digest(copy, names)]) == []
    with (copy / "metrics.json").open("a") as fh:
        fh.write(" ")
    assert checks.check_identical([checks.digest(out, names), checks.digest(copy, names)])


def test_ingest_checks_pass_and_drop_some_dates(ingest):
    out, market, stdout = ingest
    assert market.n_union > len(market.dates)
    assert checks.check_ingest(out, market, stdout, seed=3) == []


def test_ingest_check_rejects_wrong_dropped_count(ingest):
    out, market, stdout = ingest
    wrong = stdout.replace("dropped non-common dates: ", "dropped non-common dates: 1")
    assert any(p.startswith("dropped dates") for p in checks.check_ingest(out, market, wrong, seed=3))


def tamper_panel(rows):
    rows[5][2] = repr(float(rows[5][2]) * (1 + 1e-12))


def drop_feature_row(rows):
    rows.pop()


def scale_log_returns(rows):
    for r in rows[1:]:
        r[2] = repr(float(r[2]) * 1.01)


@pytest.mark.parametrize(
    "artifact, edit, expected",
    [
        ("panel.csv", tamper_panel, "panel"),
        ("features.csv", drop_feature_row, "features"),
        ("features.csv", scale_log_returns, "features"),
    ],
)
def test_ingest_check_rejects_tampered_csv(ingest, tmp_path, artifact, edit, expected):
    out, market, stdout = ingest
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    edit_csv(copy / artifact, edit)
    problems = checks.check_ingest(copy, market, stdout, seed=3)
    assert any(p.startswith(expected) for p in problems), problems
