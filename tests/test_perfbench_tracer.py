"""The benchmark's tracer (perfbench/tracing.py) must still attach to dfolio.

It wraps names in dfolio's module namespaces, such as dfolio.backtest.train and
dfolio.backtest.train_dfl; a refactor that drops one breaks every traced run.
Its ingest counts read what `load_series` returns: a dict from ticker to a
sized sequence of records with `.day`. Installing rewrites module attributes,
so it runs in a fresh interpreter.
"""

import json
import subprocess
import sys
from datetime import date
from pathlib import Path

from dfolio import cli

from conftest import flat_bars, weekdays, write_ticker_csv

ROOT = Path(__file__).resolve().parents[1]

ATTACH = """
import json
import sys
sys.path[:0] = [{src!r}, {perfbench!r}]
import dfolio
import dfolio.cli
import tracing
tracer = tracing.Tracer()
tracer.install(dfolio)
"""


def test_tracer_installs_on_dfolio():
    code = ATTACH.format(src=str(ROOT / "src"), perfbench=str(ROOT / "perfbench"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


TRACED_INGEST = ATTACH + """
assert dfolio.cli.main(["ingest", "--data", {data!r}, "--out", {out!r}]) == 0
metrics = tracing.layer_metrics(tracer.spans)
print(json.dumps({{k: metrics[k] for k in {keys!r}}}))
"""


def test_traced_ingest_counts(tmp_path):
    days = weekdays(date(2020, 1, 6), 60)
    data = tmp_path / "data"
    data.mkdir()
    write_ticker_csv(data / "A.csv", flat_bars(days[:10] + days[12:]))
    write_ticker_csv(data / "B.csv", flat_bars(days[:30] + days[31:], price=50.0))
    write_ticker_csv(data / "C.csv", flat_bars(days, price=20.0))
    keys = ["market_data.load_series.rows", "market_data.align_series.dropped_dates"]
    code = TRACED_INGEST.format(
        src=str(ROOT / "src"), perfbench=str(ROOT / "perfbench"),
        data=str(data), out=str(tmp_path / "out"), keys=keys,
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.splitlines()[-1])
    assert metrics == {keys[0]: 58 + 59 + 60, keys[1]: 3}


TRACED_BACKTEST = ATTACH + """
assert dfolio.cli.main(["backtest", "--config", {config!r}]) == 0
metrics = tracing.layer_metrics(tracer.spans)
print(json.dumps({{k: metrics[k] for k in {keys!r}}}))
"""


def test_traced_backtest_counts(tmp_path):
    # One rebalance (2016-02-01), one trial of one epoch per strategy. The two
    # linear strategies train through dfolio.backtest.train, the allocator
    # through dfolio.backtest.train_dfl. Robust SPO+ on a max-return problem
    # takes the closed-form worst case on every batch, at theta = 0 too, so no
    # perturbation set is drawn.
    data = tmp_path / "data"
    assert cli.main(["synth", "--out", str(data), "--assets", "4", "--days", "480", "--seed", "5"]) == 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "data_dir": str(data),
        "output_dir": str(tmp_path / "out"),
        "seed": 3,
        "backtest": {"start": "2016-02-01", "end": "2016-02-29"},
        "search": {"n_trials": 1, "epochs_min": 1, "epochs_max": 1},
        "strategies": ["spo_plus", "robust_spo_rho0.1", "softmax_max_return"],
    }))
    keys = [
        "backtest.run_window.calls",
        "training.train.calls",
        "training.train.epochs",
        "softmax_dfl.train_dfl.calls",
        "spo.perturbation_set.calls",
    ]
    code = TRACED_BACKTEST.format(
        src=str(ROOT / "src"), perfbench=str(ROOT / "perfbench"), config=str(config), keys=keys,
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.splitlines()[-1])
    assert metrics == dict(zip(keys, [3, 2, 2, 1, 0]))
