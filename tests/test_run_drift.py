"""scripts/run_drift.py reports per-strategy drift between two run directories."""

import shutil

from conftest import load_script

FILES = {
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


def test_one_changed_weight_cell(tmp_path, capsys):
    run_a = tmp_path / "a"
    run_a.mkdir()
    for name, lines in FILES.items():
        (run_a / name).write_text("\r\n".join(lines) + "\r\n")
    run_b = tmp_path / "b"
    shutil.copytree(run_a, run_b)
    weights = run_b / "weights.csv"
    weights.write_text(weights.read_text().replace("a,Y,0.75,", "a,Y,0.7500000000000001,"))

    script = load_script("run_drift")
    rows = script.drift(run_a, run_b)
    assert rows["a"] == {"weight": 0.7500000000000001 - 0.75, "nav": 0.0, "moved": 0, "rebalances": 1,
                         "identical": False}
    assert rows["b"] == {"weight": 0.0, "nav": 0.0, "moved": 0, "rebalances": 1, "identical": True}
    assert script.main([str(run_a), str(run_b)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1].split() == ["a", "1.1e-16", "0", "0/1", "no"]
    assert out[2].split() == ["b", "0", "0", "0/1", "yes"]
