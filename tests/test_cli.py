import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dfolio import cli
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


def run_cli_process(args):
    """Run the CLI in a fresh interpreter: (exit code, stderr)."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-m", "dfolio.cli", *args], capture_output=True, text=True, timeout=300, env=env)
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
