"""scripts/peak_by_stage.py reports the memory high-water mark around each CLI stage, resident memory after it,
and at the end the peak of the child processes."""

import json
import resource

import dfolio.backtest
import dfolio.cli
import dfolio.util

from conftest import load_script


def test_ingest_and_backtest_stages(tmp_path, capsys, monkeypatch):
    data = tmp_path / "data"
    assert dfolio.cli.main(["synth", "--out", str(data), "--assets", "3", "--days", "300", "--seed", "2"]) == 0
    originals = {name: getattr(dfolio.cli, name) for name in ("load_series", "compute_indicators", "run_backtest")}
    script = load_script("peak_by_stage")
    capsys.readouterr()

    # 300 days are several chunks of dates; with two usable CPUs the writers format in worker processes.
    monkeypatch.setattr(dfolio.util, "usable_cpus", lambda: 2)
    assert script.main(["--", "ingest", "--data", str(data), "--out", str(tmp_path / "ingested")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[3].startswith("wrote ")  # the command's own output comes first
    assert out[4].split() == [
        "stage", "hwm", "before", "MB", "hwm", "after", "MB", "rise", "MB", "rss", "after", "MB",
        "children", "hwm", "MB",
    ]
    end = out[-1].split()
    assert end[0] == "end" and len(end) == 4
    # The workers' peak is reported, and it is the one getrusage keeps for this process's children.
    assert 0 < float(end[3]) == round(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, 1)
    assert [line.split()[0] for line in out[5:-1]] == [
        "load_series", "align_series", "compute_indicators", "write_panel_csv", "write_features_csv",
    ]

    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "data_dir": str(data),
        "output_dir": str(tmp_path / "run"),
        "backtest": {"start": "2016-02-01", "end": "2016-03-31"},
        "strategies": ["max_sharpe"],
    }))
    rc, rows = script.run(["backtest", "--config", str(config)])
    assert rc == 0
    assert all(0 < before <= after and 0 < rss <= after for _, _, before, after, rss in rows)
    names = [(depth, name) for depth, name, *_ in rows]
    assert names[:5] == [
        (0, "load_series"), (0, "align_series"), (0, "run_backtest"), (1, "compute_returns"), (1, "compute_indicators"),
    ]
    assert {name for _, name in names[5:]} == {
        "write_nav_csv", "write_weights_csv", "write_hparams_csv", "write_metrics_json", "write_metrics_csv",
        "write_plotdata",
    }
    # The wrappers are gone once the command returns.
    for name, fn in originals.items():
        assert getattr(dfolio.cli, name) is fn
    assert dfolio.backtest.compute_indicators is dfolio.features.compute_indicators
    assert dfolio.backtest.compute_returns is dfolio.market_data.compute_returns
