import importlib
import inspect
import json
import os
import pkgutil
import re
import shutil
import subprocess
import sys
from dataclasses import asdict, fields
from datetime import date
from pathlib import Path

import pytest

import dfolio
from dfolio import backtest, cli
from dfolio.backtest import BacktestConfig, BacktestLedger, default_roster
from dfolio.metrics import MetricsRow
from dfolio.reports import read_metrics_json, run_drift
from dfolio.training import SearchSpace
from dfolio.util import ConfigError

from oracles import (
    read_hparams_csv,
    read_metrics_csv,
    read_nav_csv,
    read_panel_csv,
    read_plotdata_csv,
    read_weights_csv,
)


def run_cli(args):
    return cli.main(args)


def run_cli_process(args, timeout=300):
    """Run the CLI in a fresh interpreter: (exit code, stderr)."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "dfolio.cli", *args], capture_output=True, text=True, timeout=timeout, env=env
    )
    return proc.returncode, proc.stderr


@pytest.fixture
def synth_dir(tmp_path):
    data = tmp_path / "data"
    assert run_cli(["synth", "--out", str(data), "--assets", "4", "--days", "480", "--seed", "5"]) == 0
    return data


def write_config(tmp_path, data_dir, out_dir, **overrides):
    cfg = {
        "data_dir": str(data_dir),
        "output_dir": str(out_dir),
        "seed": 3,
        "backtest": {"start": "2016-02-01", "end": "2016-10-31"},
        "search": {"n_trials": 2, "epochs_min": 2, "epochs_max": 3},
        "strategies": ["max_sharpe", "spo_plus"],
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestSynthAndIngest:
    def test_synth_writes_ticker_csvs(self, synth_dir):
        files = sorted(p.name for p in synth_dir.iterdir())
        assert files == [f"SYN{i:02d}.csv" for i in range(4)]

    def test_ingest_summary_and_outputs(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "ingested"
        assert run_cli(["ingest", "--data", str(synth_dir), "--out", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "assets: 4" in captured
        assert "dropped non-common dates: 0" in captured
        frame = read_panel_csv(out / "panel.csv")
        assert frame.n_assets == 4 and frame.n_dates == 480
        assert (out / "features.csv").exists()

    def test_ingest_empty_dir(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert run_cli(["ingest", "--data", str(empty), "--out", str(tmp_path / "o")]) == 1
        assert "no input files" in capsys.readouterr().err

    def test_ingest_missing_dir(self, tmp_path, capsys):
        assert run_cli(["ingest", "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "o")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_backtest_missing_data_dir(self, tmp_path, capsys):
        cfg = write_config(tmp_path, tmp_path / "nope", tmp_path / "o", strategies=["max_sharpe"])
        assert run_cli(["backtest", "--config", str(cfg)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_ingest_malformed_row_cites_file(self, tmp_path, capsys):
        data = tmp_path / "bad"
        data.mkdir()
        (data / "XX.csv").write_text(
            "date,open,high,low,close,adj_close,volume\n2020-01-06,1,1,1,1,oops,5\n"
        )
        code = run_cli(["ingest", "--data", str(data), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "XX.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["ingest", "backtest"])
    @pytest.mark.parametrize("column,cell", [("adj_close", "nan"), ("volume", "inf")])
    def test_non_finite_cell_cites_file_and_line(self, synth_dir, tmp_path, capsys, command, column, cell):
        path = synth_dir / "SYN01.csv"
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        fields = lines[9].split(",")
        fields[header.index(column)] = cell
        lines[9] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        if command == "ingest":
            argv = ["ingest", "--data", str(synth_dir), "--out", str(tmp_path / "o")]
        else:
            argv = ["backtest", "--config", str(write_config(tmp_path, synth_dir, tmp_path / "o"))]
        assert run_cli(argv) == 1
        err = capsys.readouterr().err
        assert f"SYN01.csv:10: {column} must be finite" in err
        assert not (tmp_path / "o").exists()

    def backtest_nav(self, tmp_path, data, name):
        universe = ["SYN00", "SYN01", "SYN02", "SYN03"]
        cfg = write_config(tmp_path, data, tmp_path / name, universe=universe, strategies=["max_sharpe"])
        assert run_cli(["backtest", "--config", str(cfg)]) == 0
        return read_nav_csv(tmp_path / name / "nav.csv")

    def test_ticker_outside_universe_leaves_the_calendar(self, synth_dir, tmp_path):
        # LATE lists from 2015-09-01, after the first rebalance's lookback
        # starts; aligned with the universe, it moved the first NAV date.
        alone = self.backtest_nav(tmp_path, synth_dir, "alone")
        header, *lines = (synth_dir / "SYN00.csv").read_text().splitlines(keepends=True)
        (synth_dir / "LATE.csv").write_text(header + "".join(line for line in lines if line >= "2015-09-01"))
        with_late = self.backtest_nav(tmp_path, synth_dir, "late")
        assert with_late == alone
        assert with_late["max_sharpe"][0][0] == date(2016, 1, 29)

    def test_malformed_file_outside_universe_is_not_read(self, synth_dir, tmp_path):
        alone = self.backtest_nav(tmp_path, synth_dir, "alone")
        (synth_dir / "BAD.csv").write_text("date,open,high,low,close,adj_close,volume\n2016-01-04,1,1,1,1,oops,5\n")
        assert self.backtest_nav(tmp_path, synth_dir, "bad") == alone

    def test_universe_ticker_without_file(self, synth_dir, tmp_path, capsys):
        cfg = write_config(tmp_path, synth_dir, tmp_path / "o", universe=["SYN00", "ZZZ", "SYN01"])
        assert run_cli(["backtest", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == "error: unknown tickers: ZZZ\n"
        assert not (tmp_path / "o").exists()

    def test_single_asset_universe(self, synth_dir, tmp_path, capsys):
        cfg = write_config(tmp_path, synth_dir, tmp_path / "o", universe=["SYN01"])
        assert run_cli(["backtest", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err == "error: universe has 1 assets / 480 dates; need >= 2 assets and >= 252 dates\n"
        assert not (tmp_path / "o").exists()


class TestBacktestCommand:
    @pytest.mark.parametrize(
        "backtest, message",
        [
            ({"start": "2030-01-01", "end": "2030-12-31"}, "no rebalance dates in [2030-01-01, 2030-12-31] with a 12-month"),
            ({"start": "2016-02-01", "end": "2016-10-31", "train_months": 200}, "no rebalance dates in [2016-02-01, 2016-10-31] with a 203-month"),
        ],
    )
    def test_span_without_rebalance_date_is_config_error(self, synth_dir, tmp_path, backtest, message):
        cfg = write_config(tmp_path, synth_dir, tmp_path / "out", backtest=backtest)
        code, err = run_cli_process(["backtest", "--config", str(cfg)])
        assert code == 2
        assert f"config error: backtest: {message}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_uncreatable_output_dir_fails_before_training(self, synth_dir, tmp_path, monkeypatch, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        cfg = write_config(tmp_path, synth_dir, blocker / "x")
        code, err = run_cli_process(["backtest", "--config", str(cfg)])
        assert code == 2
        assert f"config error: output_dir: cannot create {blocker / 'x'}" in err
        assert "Traceback" not in err

        def no_training(*args):
            raise AssertionError("training started")

        monkeypatch.setattr(cli, "run_backtest", no_training)
        assert run_cli(["backtest", "--config", str(cfg)]) == 2
        assert "config error: output_dir" in capsys.readouterr().err

    @pytest.mark.parametrize("span", [["2030-01-01", "2030-12-31"], ["2016-03-05", "2016-03-06"]], ids=["after", "weekend"])
    def test_report_span_outside_nav_fails_before_training(self, synth_dir, tmp_path, monkeypatch, capsys, span):
        # The NAV runs from the day before the first rebalance (2016-02-01) to the
        # frame's end; a span that covers fewer than 2 of its dates used to fail
        # in restrict_nav only after every strategy had run.
        out = tmp_path / "out"
        cfg = write_config(tmp_path, synth_dir, out, report_spans={"late": span})
        code, err = run_cli_process(["backtest", "--config", str(cfg)])
        assert code == 2
        assert f"config error: report_spans.late: span [{span[0]}, {span[1]}] covers fewer than 2 NAV points" in err
        assert "Traceback" not in err
        assert not out.exists()

        def no_training(*args):
            raise AssertionError("training started")

        monkeypatch.setattr(cli, "run_backtest", no_training)
        assert run_cli(["backtest", "--config", str(cfg)]) == 2
        assert "config error: report_spans.late" in capsys.readouterr().err

    def test_single_strategy_run(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, synth_dir, out, strategies=["max_sharpe"])
        assert run_cli(["backtest", "--config", str(cfg)]) == 0
        for name in ("nav.csv", "weights.csv", "hparams.csv", "metrics.json", "metrics.csv"):
            assert (out / name).exists(), name
        assert (out / "plotdata" / "nav_full.csv").exists()
        assert "max_sharpe" in capsys.readouterr().out

    def test_outputs_round_trip(self, synth_dir, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, synth_dir, out)
        assert run_cli(["backtest", "--config", str(cfg)]) == 0
        nav = read_nav_csv(out / "nav.csv")
        assert set(nav) == {"max_sharpe", "spo_plus"}
        weights = read_weights_csv(out / "weights.csv")
        assert {w["strategy"] for w in weights} == {"max_sharpe", "spo_plus"}
        hparams = read_hparams_csv(out / "hparams.csv")
        assert {h["strategy"] for h in hparams} == {"spo_plus"}  # max_sharpe has no search
        mj = read_metrics_json(out / "metrics.json")
        mc = read_metrics_csv(out / "metrics.csv")
        assert mj.keys() == mc.keys()
        for s in mj:
            assert mj[s]["full"] == mc[s]["full"]
        plot = read_plotdata_csv(out / "plotdata" / "nav_full.csv")
        for name, (dates, values) in plot.items():
            assert dates == nav[name][0]
            assert values == nav[name][1]

    def test_negative_gamma_names_key(self, synth_dir, tmp_path, capsys):
        cfg = write_config(
            tmp_path, synth_dir, tmp_path / "o",
            strategies=[{"name": "fee", "kind": "spo_plus_fee", "gamma": -0.1}],
        )
        assert run_cli(["backtest", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "strategies[0]" in err and "gamma" in err

    @pytest.mark.parametrize(
        "strategy, key, detail",
        [
            ({"name": "lin", "kind": "spo_plus", "hidden": 2.5}, "hidden", "expected an integer, got 2.5"),
            ({"name": "rob", "kind": "robust_spo", "rho": 0.1, "robust_samples": 1.5}, "robust_samples", "unknown field"),
            ({"name": "rob", "kind": "robust_spo", "rho": True}, "rho", "expected a number, got True"),
            ({"name": 5, "kind": "spo_plus"}, "name", "expected a string, got 5"),
            ({"name": "fee", "kind": "spo_plus_fee", "gamma": True}, "gamma", "expected a number, got True"),
            ({"name": "fee", "kind": "spo_plus_fee", "gamma": "0.1"}, "gamma", "expected a number, got '0.1'"),
            ({"name": "fee", "kind": "spo_plus_fee", "gamma": float("nan")}, "gamma", "expected a finite number, got nan"),
            ({"name": "lin", "kind": "spo_plus", "hidden": float("inf")}, "hidden", "expected a finite number, got inf"),
            ({"name": "softmax_max_return", "hidden": 2.5}, "hidden", "expected an integer, got 2.5"),
            ({"name": "robust_spo_rho0.1", "robust_samples": False}, "robust_samples", "unknown field"),
            ({"name": "spo_plus_fee_l2", "lam": True}, "lam", "expected a number, got True"),
        ],
    )
    def test_strategy_field_types_fail_before_training(self, synth_dir, tmp_path, monkeypatch, capsys, strategy, key, detail):
        # Each of these was accepted: it failed at the first rebalance, or was
        # coerced silently (True as 1.0, 5 as a name).
        def no_training(*args):
            raise AssertionError("training started")

        monkeypatch.setattr(cli, "run_backtest", no_training)
        cfg = write_config(tmp_path, synth_dir, tmp_path / "o", strategies=[strategy])
        assert run_cli(["backtest", "--config", str(cfg)]) == 2
        assert f"config error: strategies[0].{key}: {detail}" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("train_months", float("inf")), ("fee_rate", float("nan"))])
    def test_non_finite_backtest_number_is_config_error(self, synth_dir, tmp_path, capsys, key, value):
        # Infinity ended in an OverflowError traceback; NaN was accepted.
        cfg = write_config(tmp_path, synth_dir, tmp_path / "o", backtest={"start": "2016-02-01", "end": "2016-10-31", key: value})
        assert run_cli(["backtest", "--config", str(cfg)]) == 2
        assert f"config error: backtest.{key}: expected a finite number, got {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value,fault", [
        ("seed", 3.0, None),
        ("seed", -1, "seed: must be >= 0, got -1"),
        ("seed", True, "seed: expected a number, got True"),
        ("seed", 1.5, "seed: expected an integer, got 1.5"),
        ("--seed", -1, "--seed: must be >= 0, got -1"),
    ], ids=["3.0", "-1", "true", "1.5", "--seed=-1"])
    def test_seed_reads_like_every_integer_field(self, tmp_path, key, value, fault):
        # "seed": 3.0 was rejected while "search": {"n_trials": 3.0} was accepted.
        cfg = write_config(tmp_path, tmp_path / "data", tmp_path / "o", **({"seed": value} if key == "seed" else {}))
        override = value if key == "--seed" else None
        if fault is None:
            seed = cli.load_run_config(cfg, seed_override=override).backtest.seed
            assert seed == 3 and type(seed) is int
        else:
            with pytest.raises(ConfigError) as exc:
                cli.load_run_config(cfg, seed_override=override)
            assert exc.value.args == (fault,)

    def test_errors_reported_exhaustively(self, synth_dir, tmp_path, capsys):
        cfg = write_config(
            tmp_path, synth_dir, tmp_path / "o",
            seed=-1,
            backtest={"start": "not-a-date", "end": "2016-10-31", "fee_rate": -2},
        )
        assert run_cli(["backtest", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "seed" in err
        assert "backtest.start" in err
        assert "backtest.fee_rate" in err

    @pytest.mark.parametrize("key,value", [("data_dir", 5), ("output_dir", ["x"])])
    def test_non_string_dir_is_config_error(self, synth_dir, tmp_path, capsys, key, value):
        # Path() of these raised a TypeError traceback (exit 1).
        cfg = write_config(tmp_path, synth_dir, tmp_path / "o")
        cfg.write_text(json.dumps({**json.loads(cfg.read_text()), key: value}))
        assert run_cli(["backtest", "--config", str(cfg)]) == 2
        assert f"config error: {key}: expected a non-empty string, got {value!r}" in capsys.readouterr().err

    def test_bad_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        assert run_cli(["backtest", "--config", str(path)]) == 2
        assert "valid JSON" in capsys.readouterr().err

    def test_strategy_filter_flag(self, synth_dir, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, synth_dir, out)
        assert run_cli(["backtest", "--config", str(cfg), "--strategies", "max_sharpe"]) == 0
        nav = read_nav_csv(out / "nav.csv")
        assert set(nav) == {"max_sharpe"}

    def test_unknown_strategy_filter(self, synth_dir, tmp_path, capsys):
        cfg = write_config(tmp_path, synth_dir, tmp_path / "o")
        assert run_cli(["backtest", "--config", str(cfg), "--strategies", "nope"]) == 2
        assert "not in the configured roster" in capsys.readouterr().err

    def test_deterministic_outputs(self, synth_dir, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        cfg = write_config(tmp_path, synth_dir, out1)
        assert run_cli(["backtest", "--config", str(cfg)]) == 0
        assert run_cli(["backtest", "--config", str(cfg), "--out", str(out2)]) == 0
        assert (out1 / "nav.csv").read_bytes() == (out2 / "nav.csv").read_bytes()
        assert (out1 / "metrics.json").read_bytes() == (out2 / "metrics.json").read_bytes()

    def test_partial_failure_exit_code(self, synth_dir, tmp_path, monkeypatch, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, synth_dir, out, strategies=["max_sharpe", "spo_plus"])

        import dfolio.cli as cli_mod

        real = cli_mod.run_backtest

        def partial(frame, roster, config):
            ledgers = real(frame, roster, config)
            ledgers["spo_plus"] = BacktestLedger(strategy="spo_plus", error="boom")
            return ledgers

        monkeypatch.setattr(cli_mod, "run_backtest", partial)
        assert run_cli(["backtest", "--config", str(cfg)]) == 1
        outtext = capsys.readouterr().out
        assert "FAILED: boom" in outtext

    def test_report_spans(self, synth_dir, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path, synth_dir, out,
            strategies=["max_sharpe"],
            report_spans={"late": ["2016-06-01", "2016-10-31"]},
        )
        assert run_cli(["backtest", "--config", str(cfg)]) == 0
        report = read_metrics_json(out / "metrics.json")
        assert set(report["max_sharpe"]) == {"full", "late"}
        assert (out / "plotdata" / "nav_late.csv").exists()


# A two-strategy run directory: its three run files and an empty metrics.json.
RUN_FILES = {
    "weights.csv": [
        "rebalance_date,strategy,ticker,weight,turnover,fee",
        "2016-02-01,a,X,0.25,0.5,0.001",
        "2016-02-01,a,Y,0.75,0.5,0.001",
        "2016-02-01,b,X,1.0,1.0,0.002",
        "2016-02-01,b,Y,0.0,1.0,0.002",
    ],
    "nav.csv": [
        "date,strategy,nav",
        "2016-01-29,a,1.0",
        "2016-02-01,a,0.998",
        "2016-01-29,b,1.0",
        "2016-02-01,b,0.996",
    ],
    "hparams.csv": [
        "rebalance_date,strategy,lr,epochs,score",
        "2016-02-01,a,0.01,20,0.5",
        "2016-02-01,b,0.02,30,0.25",
    ],
}


def write_run(path, metrics=None, files=RUN_FILES):
    path.mkdir()
    for name, lines in files.items():
        (path / name).write_text("\r\n".join(lines) + "\r\n")
    (path / "metrics.json").write_text(json.dumps(metrics or {}))
    return path


def drift_table(out: str) -> list[list[str]]:
    """The cells of `compare`'s drift rows, below its header."""
    lines = out.splitlines()
    start = next(i for i, line in enumerate(lines) if "winners moved" in line)
    return [line.split() for line in lines[start + 1 :]]


class TestCompareCommand:
    def _run(self, synth_dir, tmp_path):
        out = tmp_path / "m"
        cfg = write_config(tmp_path, synth_dir, out, strategies=["max_sharpe"])
        assert run_cli(["backtest", "--config", str(cfg)]) == 0
        return out

    def _with_metrics(self, run, path, payload):
        shutil.copytree(run, path)
        (path / "metrics.json").write_text(json.dumps(payload))
        return path

    def test_self_compare_zero_deltas(self, synth_dir, tmp_path, capsys):
        m = self._run(synth_dir, tmp_path)
        capsys.readouterr()
        assert run_cli(["compare", str(m), str(m)]) == 0
        out = capsys.readouterr().out
        row = next(l for l in out.splitlines() if l.startswith("max_sharpe "))
        assert row.split()[2:] == ["+0.0000"] * 5
        assert drift_table(out) == [["max_sharpe", "0", "0", "0/0", "yes"]]

    def test_unmatched_strategies_listed(self, synth_dir, tmp_path, capsys):
        m = self._run(synth_dir, tmp_path)
        payload = json.loads((m / "metrics.json").read_text())
        payload["ghost"] = payload["max_sharpe"]
        other = self._with_metrics(m, tmp_path / "other", payload)
        assert run_cli(["compare", str(m), str(other)]) == 0
        assert "unmatched strategies: ghost" in capsys.readouterr().out

    def test_unmatched_spans_listed(self, tmp_path, capsys):
        # A span that only one report had was skipped without a word.
        row = dict.fromkeys([f.name for f in fields(MetricsRow)], 1.0)
        a = write_run(tmp_path / "a", {"s": {"full": row, "early": row}})
        b = write_run(tmp_path / "b", {"s": {"full": row, "late": row}})
        assert run_cli(["compare", str(a), str(b)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert [l.split()[:2] for l in out if l.startswith("s ")] == [["s", "full"]]
        assert "unmatched spans: s.early, s.late" in out

    def test_sign_flip_marked(self, synth_dir, tmp_path, capsys):
        m = self._run(synth_dir, tmp_path)
        payload = json.loads((m / "metrics.json").read_text())
        row = payload["max_sharpe"]["full"]
        flipped = dict(row)
        flipped["annualized_return"] = 5.0 if row["annualized_return"] < 0 else -5.0
        other = self._with_metrics(m, tmp_path / "flip", {"max_sharpe": {"full": flipped}})
        assert run_cli(["compare", str(m), str(other)]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("max_sharpe ")]
        assert any("!" in l for l in lines)

    def test_one_changed_weight_cell(self, tmp_path, capsys):
        run_a = write_run(tmp_path / "a")
        run_b = tmp_path / "b"
        shutil.copytree(run_a, run_b)
        weights = run_b / "weights.csv"
        weights.write_text(weights.read_text().replace("a,Y,0.75,", "a,Y,0.7500000000000001,"))

        rows = run_drift(run_a, run_b)
        assert rows["a"] == {"weight": 0.7500000000000001 - 0.75, "nav": 0.0, "moved": 0, "rebalances": 1,
                             "identical": False}
        assert rows["b"] == {"weight": 0.0, "nav": 0.0, "moved": 0, "rebalances": 1, "identical": True}
        assert run_cli(["compare", str(run_a), str(run_b)]) == 0
        assert drift_table(capsys.readouterr().out) == [["a", "1.1e-16", "0", "0/1", "no"], ["b", "0", "0", "0/1", "yes"]]

    def test_rows_of_one_run_and_zero_nav(self, tmp_path, capsys):
        # A row that only one run has is an infinite drift and a moved winner;
        # a zero NAV in run A drifts infinitely unless run B's is zero too.
        nav = [*RUN_FILES["nav.csv"], "2016-02-02,b,0.0"]
        run_a = write_run(tmp_path / "a", files={**RUN_FILES, "nav.csv": nav})
        # Run B lacks strategy b's weights and hparams rows.
        run_b = write_run(tmp_path / "b", files={
            "weights.csv": RUN_FILES["weights.csv"][:3], "nav.csv": nav, "hparams.csv": RUN_FILES["hparams.csv"][:2]
        })
        assert run_drift(run_a, run_b)["b"] == {
            "weight": float("inf"), "nav": 0.0, "moved": 1, "rebalances": 1, "identical": False
        }
        (run_b / "nav.csv").write_text((run_b / "nav.csv").read_text().replace("b,0.0", "b,0.5"))
        assert run_drift(run_a, run_b)["b"]["nav"] == float("inf")
        assert run_cli(["compare", str(run_a), str(run_b)]) == 0
        assert drift_table(capsys.readouterr().out)[1] == ["b", "inf", "inf", "1/1", "no"]

    @pytest.mark.parametrize(
        "file, edit, detail",
        [
            ("nav.csv", None, "No such file or directory"),
            ("weights.csv", ("rebalance_date,strategy,ticker,", "rebalance_date,strategy,"), "no ticker column"),
            ("hparams.csv", ("lr,", "rate,"), "no lr column"),
            ("weights.csv", ("a,X,0.25,", "a,X,abc,"), "2: weight 'abc' is not a finite number"),
            ("nav.csv", ("a,0.998", "a,inf"), "3: nav 'inf' is not a finite number"),
            ("hparams.csv", ("b,0.02,", "b,nan,"), "3: lr 'nan' is not a finite number"),
            ("hparams.csv", ("b,0.02,", "b,,"), "3: lr '' is not a finite number"),
            ("nav.csv", ("2016-02-01,b,0.996", "2016-02-01,b"), "5: expected 3 cells"),
            ("weights.csv", ("b,Y,0.0,", "b,X,0.0,"), "5: repeated row 2016-02-01,b,X"),
        ],
        ids=["missing-file", "missing-key-column", "missing-number-column", "weight-not-number", "nav-inf",
             "lr-nan", "lr-empty", "short-row", "repeated-row"],
    )
    def test_unusable_run_file_names_file_and_line(self, tmp_path, file, edit, detail):
        good = write_run(tmp_path / "good")
        bad = tmp_path / "bad"
        shutil.copytree(good, bad)
        path = bad / file
        if edit is None:
            path.unlink()
        else:
            path.write_text(path.read_text().replace(*edit, 1))
        code, err = run_cli_process(["compare", str(good), str(bad)], timeout=60)
        assert code == 2
        sep = ":" if detail[0].isdigit() else ": "
        assert err == f"error: cannot read run ({path}{sep}{detail})\n"

    def test_schema_mismatch(self, tmp_path, capsys):
        bad = write_run(tmp_path / "bad", {"s": {"full": {"wrong": 1}}})
        good = write_run(tmp_path / "good")
        assert run_cli(["compare", str(bad), str(good)]) == 2
        assert f"cannot read metrics ({bad / 'metrics.json'}: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload, detail",
        [
            ([1, 2], "expected an object of strategy -> span -> metrics, got list"),
            ({"s": [1]}, "s: expected an object of span -> metrics"),
            ({"s": {"full": {"annualized_return": 1.0}}}, "s.full: expected numbers or null for exactly"),
            ({"s": {"full": dict.fromkeys(
                ["annualized_return", "annualized_volatility", "sharpe", "sortino", "max_drawdown"], "x"
            )}}, "s.full: expected numbers or null"),
        ],
    )
    def test_malformed_report_names_file(self, tmp_path, payload, detail):
        good = write_run(tmp_path / "good")
        bad = write_run(tmp_path / "bad")
        (bad / "metrics.json").write_text(json.dumps(payload))
        code, err = run_cli_process(["compare", str(good), str(bad)])
        assert code == 2
        assert err.startswith(f"error: cannot read metrics ({bad / 'metrics.json'}: {detail}")
        assert "Traceback" not in err

    def test_invalid_json_names_file(self, tmp_path, capsys):
        bad = write_run(tmp_path / "bad")
        (bad / "metrics.json").write_text("{")
        assert run_cli(["compare", str(bad), str(bad)]) == 2
        assert f"error: cannot read metrics ({bad / 'metrics.json'}: not valid JSON" in capsys.readouterr().err


class TestErrorPolicy:
    """`main` is the only place that maps errors to exit codes: 2 for config and usage, 1 for data and run."""

    @pytest.mark.parametrize(
        "argv, detail",
        [
            (["synth", "--out", "{file}/x", "--assets", "2"], "config error: --out: cannot create {file}/x"),
            (["synth", "--out", "{tmp}/s", "--assets", "0"], "config error: --assets: must be >= 1, got 0"),
            (["synth", "--out", "{tmp}/s", "--days", "1"], "config error: --days: must be >= 2, got 1"),
            (["synth", "--out", "{tmp}/s", "--seed", "-1"], "config error: --seed: must be >= 0, got -1"),
            (["ingest", "--data", "{tmp}", "--out", "{file}/x"], "config error: --out: cannot create {file}/x"),
            (["ingest", "--data", "{tmp}", "--out", "{file}"], "config error: --out: cannot create {file}"),
            (["synth", "--out", "{tmp}/" + "x" * 300 + "/y"], "config error: --out: cannot create {tmp}/xxx"),
            (["compare", "{tmp}/no", "{tmp}/no"], "error: cannot read metrics ({tmp}/no/metrics.json: No such file"),
            (["compare", "{file}", "{file}"], "error: cannot read metrics ({file}/metrics.json: Not a directory"),
            (["backtest", "--config", "{tmp}/no.json"], "config error: cannot read config {tmp}/no.json (No such file"),
        ],
        ids=["synth-out-under-file", "synth-assets", "synth-days", "synth-seed", "ingest-out-under-file",
             "ingest-out-is-file", "synth-out-name-too-long", "compare-missing", "compare-directory",
             "backtest-missing-config"],
    )
    def test_usage_errors_exit_2(self, tmp_path, capsys, argv, detail):
        # Each of the synth, ingest --out and compare directory cases ended in a traceback.
        (tmp_path / "file").write_text("")
        fill = {"tmp": str(tmp_path), "file": str(tmp_path / "file")}
        assert run_cli([a.format(**fill) for a in argv]) == 2
        assert capsys.readouterr().err.startswith(detail.format(**fill))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]

    def test_compare_integer_beyond_float_is_usage_error(self, tmp_path, capsys):
        # It passed the shape check and ended in an OverflowError traceback when subtracted.
        row = dict.fromkeys([f.name for f in fields(MetricsRow)], 1.0)
        good = write_run(tmp_path / "good", {"s": {"full": row}})
        bad = write_run(tmp_path / "bad", {"s": {"full": {**row, "sharpe": 10**400}}})
        assert run_cli(["compare", str(good), str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read metrics ({bad / 'metrics.json'}: s.full: expected numbers")

    @pytest.mark.parametrize(
        "argv, detail",
        [
            (["synth", "--assets", "0", "--out", "{tmp}/s"], "config error: --assets: must be >= 1, got 0\n"),
            (["ingest", "--data", "{tmp}", "--out", "{file}/x"], "config error: --out: cannot create {file}/x"),
        ],
        ids=["synth-assets", "ingest-out-under-file"],
    )
    def test_usage_errors_in_a_fresh_process(self, tmp_path, argv, detail):
        (tmp_path / "file").write_text("")
        fill = {"tmp": str(tmp_path), "file": str(tmp_path / "file")}
        code, err = run_cli_process([a.format(**fill) for a in argv], timeout=60)
        assert code == 2
        assert err.startswith(detail.format(**fill))
        assert "Traceback" not in err

    def test_ingest_checks_out_before_reading_data(self, tmp_path, monkeypatch, capsys):
        # The output directory was created only after parsing, aligning and
        # computing every indicator, and its failure was a traceback.
        def no_parsing(*args):
            raise AssertionError("input read")

        monkeypatch.setattr(cli, "load_series", no_parsing)
        (tmp_path / "file").write_text("")
        assert run_cli(["ingest", "--data", str(tmp_path), "--out", str(tmp_path / "file" / "x")]) == 2
        assert "config error: --out: cannot create" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["data-is-file", "csv-is-directory"])
    @pytest.mark.parametrize("command", ["ingest", "backtest"])
    def test_unreadable_data_names_path(self, tmp_path, capsys, kind, command):
        if kind == "data-is-file":
            data = tmp_path / "data"
            data.write_text("")
            detail = f"error: cannot read data directory {data} (Not a directory)"
        else:
            data = tmp_path / "data"
            (data / "X.csv").mkdir(parents=True)
            detail = f"error: cannot open {data / 'X.csv'} (Is a directory)"
        if command == "ingest":
            argv = ["ingest", "--data", str(data), "--out", str(tmp_path / "o")]
        else:
            argv = ["backtest", "--config", str(write_config(tmp_path, data, tmp_path / "o"))]
        assert run_cli(argv) == 1
        assert capsys.readouterr().err == detail + "\n"
        assert not (tmp_path / "o").exists()

    def test_huge_lookback_is_config_error_at_once(self, synth_dir, tmp_path):
        # months_back stepped back one year per loop iteration: about 10^11 of them here.
        backtest_cfg = {"start": "2016-02-01", "end": "2016-10-31", "train_months": 10**12}
        cfg = write_config(tmp_path, synth_dir, tmp_path / "out", backtest=backtest_cfg)
        code, err = run_cli_process(["backtest", "--config", str(cfg)], timeout=30)
        assert code == 2
        assert err == "config error: backtest: year -83333331318 is out of range\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "key, value, detail",
        [
            ("backtest", {"start": "2016-02-01", "end": "2016-10-31", "fee_rate": 10**400},
             "backtest.fee_rate: expected a finite number"),
            ("data_dir", "a\0b", "data_dir: a path cannot contain a NUL character"),
            ("strategies", [{"name": ["spo_plus"]}], "strategies[0].name: expected a string, got ['spo_plus']"),
            ("report_spans", {"a/b": ["2016-03-01", "2016-06-30"]},
             "report_spans.a/b: a span name is part of a file name"),
        ],
        ids=["integer-beyond-float", "nul-in-path", "unhashable-name", "span-name-with-slash"],
    )
    def test_hostile_config_values_are_config_errors(self, synth_dir, tmp_path, capsys, key, value, detail):
        # Found by tests/test_hostile_inputs.py: an OverflowError and a TypeError
        # traceback, a ValueError traceback, and a FileNotFoundError after training.
        cfg = write_config(tmp_path, synth_dir, tmp_path / "o")
        cfg.write_text(json.dumps({**json.loads(cfg.read_text()), key: value}))
        assert run_cli(["backtest", "--config", str(cfg)]) == 2
        assert f"config error: {detail}" in capsys.readouterr().err

    def test_unwritable_span_name_fails_before_reading_data(self, synth_dir, tmp_path, monkeypatch, capsys):
        # nav_<name>.csv over 255 bytes (here in 124 characters), or not
        # encodable, trained every strategy, then failed in write_plotdata with
        # a traceback and a partial output directory.
        def no_reading(*args):
            raise AssertionError("input read")

        monkeypatch.setattr(cli, "load_series", no_reading)
        cfg = write_config(tmp_path, synth_dir, tmp_path / "o")

        def with_span(name):
            cfg.write_text(json.dumps({**json.loads(cfg.read_text()), "report_spans": {name: ["2016-03-01", "2016-06-30"]}}))
            return str(cfg)

        detail = ": a span name is part of a file name, so nav_<name>.csv must encode to at most 255 bytes\n"
        fits = "x" * (255 - len("nav_.csv"))
        assert fits in cli.load_run_config(with_span(fits)).report_spans
        too_long = "é" * 124  # 248 bytes in UTF-8
        assert run_cli(["backtest", "--config", with_span(too_long)]) == 2
        assert capsys.readouterr().err == f"config error: report_spans.{too_long}" + detail
        # Real stderr escapes a lone surrogate; pytest's capture cannot take one.
        code, err = run_cli_process(["backtest", "--config", with_span("\ud800")], timeout=60)
        assert code == 2 and err == "config error: report_spans.\\ud800" + detail
        assert not (tmp_path / "o").exists()

    def test_strategy_name_not_utf8_fails_before_reading_data(self, tmp_path, monkeypatch, capsys):
        # A lone surrogate trained every strategy, then write_nav_csv ended in a
        # UnicodeEncodeError traceback and left a partial nav.csv.
        def no_reading(*args):
            raise AssertionError("input read")

        monkeypatch.setattr(cli, "load_series", no_reading)
        strategies = ["spo_plus", {"name": "\ud800", "kind": "max_sharpe"}]
        cfg = write_config(tmp_path, tmp_path / "data", tmp_path / "o", strategies=strategies)
        assert run_cli(["backtest", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "config error: strategies[1].name: expected UTF-8 text, got '\\ud800'\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "search, detail",
        [
            ({"epochs_min": 1001, "epochs_max": 1001},
             "search.epochs_min: must be <= 1000, got 1001\nconfig error: search.epochs_max: must be <= 1000, got 1001"),
            ({"epochs_min": 2, "epochs_max": 1001}, "search.epochs_max: must be <= 1000, got 1001"),
        ],
        ids=["both", "max-only"],
    )
    def test_epochs_beyond_training_bound_fail_before_reading_data(self, tmp_path, monkeypatch, capsys, search, detail):
        # The config took them, then every trained strategy failed at its first
        # rebalance with "epochs must be in [1, 1000]" and exit 1, or only the
        # seeds whose draw reached 1001 did.
        def no_reading(*args):
            raise AssertionError("input read")

        monkeypatch.setattr(cli, "load_series", no_reading)
        cfg = write_config(tmp_path, tmp_path / "data", tmp_path / "o", search={"n_trials": 2, **search})
        assert run_cli(["backtest", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"config error: {detail}\n"
        assert not (tmp_path / "o").exists()

    def test_empty_universe_fails_before_reading_data(self, tmp_path, monkeypatch, capsys):
        # An empty list ran every ticker in data_dir, as if the key were absent.
        def no_reading(*args):
            raise AssertionError("input read")

        monkeypatch.setattr(cli, "load_series", no_reading)
        cfg = write_config(tmp_path, tmp_path / "data", tmp_path / "o", universe=[])
        assert run_cli(["backtest", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            "config error: universe: empty list; leave the key out to use every ticker in data_dir\n"
        )

    def test_repeated_universe_ticker_fails_before_reading_data(self, tmp_path, monkeypatch, capsys):
        # MarketFrame.select kept one column per ticker, so the run went on with fewer assets than listed.
        def no_reading(*args):
            raise AssertionError("input read")

        monkeypatch.setattr(cli, "load_series", no_reading)
        cfg = write_config(tmp_path, tmp_path / "data", tmp_path / "o", universe=["SYN00", "SYN01", "SYN00"])
        assert run_cli(["backtest", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "config error: universe: repeated ticker 'SYN00'\n"

    @pytest.mark.parametrize(
        "strategy, detail",
        [
            ({"name": "lin", "kind": "spo_plus", "gamma": 0.5, "rho": 3.0, "lam": 2.0}, "spo_plus does not read gamma, lam, rho"),
            ({"name": "spo_plus_fee", "lam": 0.42}, "spo_plus_fee does not read lam"),
            ({"name": "rob", "kind": "robust_spo", "rho": 0.1, "gamma": 0.005}, "robust_spo does not read gamma"),
            ({"name": "spo_plus_fee_l2", "hidden": 8}, "spo_plus_fee_l2 does not read hidden"),
            ({"name": "softmax_max_sharpe", "rho": 0.1}, "softmax_max_sharpe does not read rho"),
            ({"name": "max_sharpe", "hidden": 4}, "max_sharpe does not read hidden"),
        ],
    )
    def test_field_the_kind_does_not_read_fails_before_reading_data(self, tmp_path, monkeypatch, capsys, strategy, detail):
        # These ran, with weights identical to the strategy's without the field.
        def no_reading(*args):
            raise AssertionError("input read")

        monkeypatch.setattr(cli, "load_series", no_reading)
        cfg = write_config(tmp_path, tmp_path / "data", tmp_path / "o", strategies=["max_sharpe", strategy])
        assert run_cli(["backtest", "--config", str(cfg)]) == 2
        kind, unread = detail.split(" does not read ")
        assert capsys.readouterr().err == "".join(
            f"config error: strategies[1].{name}: {kind} does not read it\n" for name in unread.split(", ")
        )

    @pytest.mark.parametrize(
        "section, key, value",
        [("backtest", "fee_rte", 0.5), ("search", "n_trails", 1), ("backtest", "seed", 3)],
        ids=["fee_rte", "n_trails", "backtest.seed"],
    )
    def test_unknown_section_key_fails_before_reading_data(self, tmp_path, monkeypatch, capsys, section, key, value):
        # A misspelt key ran on the default it meant to change; seed belongs at the top level.
        def no_reading(*args):
            raise AssertionError("input read")

        monkeypatch.setattr(cli, "load_series", no_reading)
        cfg = write_config(tmp_path, tmp_path / "data", tmp_path / "o")
        raw = json.loads(cfg.read_text())
        raw[section][key] = value
        cfg.write_text(json.dumps(raw))
        assert run_cli(["backtest", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"config error: {section}.{key}: unknown field\n"
        assert not (tmp_path / "o").exists()

    def test_repeated_json_key_fails_before_reading_data(self, tmp_path, monkeypatch, capsys):
        # json.loads kept the last of the two values without a word.
        def no_reading(*args):
            raise AssertionError("input read")

        monkeypatch.setattr(cli, "load_series", no_reading)
        cfg = write_config(tmp_path, tmp_path / "data", tmp_path / "o")
        cfg.write_text(cfg.read_text().replace('"end": "2016-10-31"', '"end": "2016-10-31", "fee_rate": 0.1, "fee_rate": 0.2'))
        assert run_cli(["backtest", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "config error: repeated key 'fee_rate'\n"

    def test_overflowing_indicator_error_comes_first(self, tmp_path):
        # numpy printed two RuntimeWarnings to stderr ahead of the located error.
        data = tmp_path / "data"
        assert run_cli(["synth", "--out", str(data), "--assets", "3", "--days", "120", "--seed", "4"]) == 0
        path = data / "SYN01.csv"
        lines = path.read_text().splitlines(keepends=True)
        lines[51:] = [line.rsplit(",", 1)[0] + ",1e308\n" for line in lines[51:]]
        path.write_text("".join(lines))
        code, err = run_cli_process(["ingest", "--data", str(data), "--out", str(tmp_path / "o")], timeout=60)
        assert code == 1
        assert err.splitlines()[0].startswith("error: feature vol_ratio of SYN01 is not finite on ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("target", ["cli.write_panel_csv", "backtest.run_window"])
    def test_base_exception_passes_through_main(self, synth_dir, tmp_path, monkeypatch, target):
        # perfbench's set-up probe raises a BaseException at these boundaries
        # and catches it around cli.main.
        class Probe(BaseException):
            pass

        probe = Probe()

        def boundary(*args, **kwargs):
            raise probe

        module, name = target.split(".")
        monkeypatch.setattr({"cli": cli, "backtest": backtest}[module], name, boundary)
        if module == "cli":
            argv = ["ingest", "--data", str(synth_dir), "--out", str(tmp_path / "o")]
        else:
            argv = ["backtest", "--config", str(write_config(tmp_path, synth_dir, tmp_path / "o"))]
        with pytest.raises(Probe) as info:
            run_cli(argv)
        assert info.value is probe


def test_every_error_class_derives_from_dfolio_error():
    found = []
    for info in pkgutil.iter_modules(dfolio.__path__):
        module = importlib.import_module(f"dfolio.{info.name}")
        for obj in vars(module).values():
            if inspect.isclass(obj) and issubclass(obj, Exception) and obj.__module__ == module.__name__:
                found.append(obj)
    names = sorted(cls.__name__ for cls in found)
    assert names == [
        "AccountingError", "ConfigError", "DfolioError", "IngestionError", "SolverError",
        "TrainingError", "UniverseError", "UsageError", "WarmupError",
    ]
    for cls in found:
        assert issubclass(cls, dfolio.DfolioError), cls
        assert getattr(dfolio, cls.__name__) is cls


def test_config_defaults_are_the_dataclass_defaults(tmp_path):
    # Every key left out takes its dataclass default, and every default-roster
    # entry written out in full is accepted as it is.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"data_dir": "data", "backtest": {"start": "2016-02-01", "end": "2016-10-31"}}))
    run = cli.load_run_config(path)
    want = BacktestConfig(start=date(2016, 2, 1), end=date(2016, 10, 31))
    for config, default in ((run.backtest.search, want.search), (run.backtest, want)):
        for f in fields(default):
            assert getattr(config, f.name) == getattr(default, f.name), f.name
    assert (run.universe, run.roster, run.report_spans) == (None, default_roster(), {})
    path.write_text(json.dumps({**json.loads(path.read_text()), "strategies": [asdict(s) for s in default_roster()]}))
    assert cli.load_run_config(path).roster == default_roster()


def test_readme_config_schema_loads(tmp_path):
    # The README's jsonc block, comments stripped, is a valid config, and the
    # numbers it shows under backtest and search are the dataclass defaults.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```jsonc\n", 1)[1].split("```", 1)[0]
    raw = json.loads(re.sub(r"//.*", "", block))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    cli.load_run_config(path)
    shown = {k: v for k, v in {**raw["backtest"], **raw["search"]}.items() if k not in ("start", "end")}
    defaults = {f.name: f.default for cls in (BacktestConfig, SearchSpace) for f in fields(cls)}
    assert shown == {k: defaults[k] for k in shown}
