import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import dfolio
from dfolio import backtest, cli
from dfolio.backtest import BacktestLedger
from dfolio.reports import read_metrics_json

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


class TestCompareCommand:
    def _metrics(self, synth_dir, tmp_path):
        out = tmp_path / "m"
        cfg = write_config(tmp_path, synth_dir, out, strategies=["max_sharpe"])
        assert run_cli(["backtest", "--config", str(cfg)]) == 0
        return out / "metrics.json"

    def test_self_compare_zero_deltas(self, synth_dir, tmp_path, capsys):
        m = self._metrics(synth_dir, tmp_path)
        assert run_cli(["compare", str(m), str(m)]) == 0
        out = capsys.readouterr().out
        assert "max_sharpe" in out
        assert "+0.0000" in out

    def test_unmatched_strategies_listed(self, synth_dir, tmp_path, capsys):
        m = self._metrics(synth_dir, tmp_path)
        other = tmp_path / "other.json"
        payload = json.loads(Path(m).read_text())
        payload["ghost"] = payload["max_sharpe"]
        other.write_text(json.dumps(payload))
        assert run_cli(["compare", str(m), str(other)]) == 0
        assert "unmatched strategies: ghost" in capsys.readouterr().out

    def test_sign_flip_marked(self, synth_dir, tmp_path, capsys):
        m = self._metrics(synth_dir, tmp_path)
        payload = json.loads(Path(m).read_text())
        row = payload["max_sharpe"]["full"]
        flipped = dict(row)
        flipped["annualized_return"] = 5.0 if row["annualized_return"] < 0 else -5.0
        other = tmp_path / "flip.json"
        other.write_text(json.dumps({"max_sharpe": {"full": flipped}}))
        assert run_cli(["compare", str(m), str(other)]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("max_sharpe")]
        assert any("!" in l for l in lines)

    def test_schema_mismatch(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"s": {"full": {"wrong": 1}}}')
        good = tmp_path / "good.json"
        good.write_text("{}")
        assert run_cli(["compare", str(bad), str(good)]) == 2
        assert "cannot read metrics" in capsys.readouterr().err

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
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        good = tmp_path / "good.json"
        good.write_text("{}")
        code, err = run_cli_process(["compare", str(good), str(bad)])
        assert code == 2
        assert err.startswith(f"error: cannot read metrics ({bad}: {detail}")
        assert "Traceback" not in err

    def test_invalid_json_names_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert run_cli(["compare", str(bad), str(bad)]) == 2
        assert f"error: cannot read metrics ({bad}: not valid JSON" in capsys.readouterr().err


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
            (["compare", "{tmp}/no.json", "{tmp}/no.json"], "error: cannot read metrics ({tmp}/no.json: No such file"),
            (["compare", "{tmp}", "{tmp}"], "error: cannot read metrics ({tmp}: Is a directory"),
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
        names = ["annualized_return", "annualized_volatility", "sharpe", "sortino", "max_drawdown"]
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        good.write_text(json.dumps({"s": {"full": dict.fromkeys(names, 1.0)}}))
        bad.write_text(json.dumps({"s": {"full": {**dict.fromkeys(names, 1.0), "sharpe": 10**400}}}))
        assert run_cli(["compare", str(good), str(bad)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read metrics ({bad}: s.full: expected numbers")

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
