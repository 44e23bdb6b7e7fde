"""Hostile inputs end in exit 0, 1 or 2 with a reason on stderr or stdout, never an escaped exception.

Each property mutates one kind of input and runs `cli.main` in process: a
value of the backtest config, the per-ticker CSVs (for both `ingest` and
`backtest`), or the `synth` arguments. argparse's own usage error,
SystemExit(2), is the only exception allowed out of `main`.

`search.n_trials`, a strategy's `hidden`, and the `synth` sizes have no
upper bound in the program, and a large one allocates until the machine runs
out of memory, so they are drawn from small ranges. `robust_samples` is no
longer a strategy field, so it stays among the keys as an unknown one, as do
`backtest.seed` (a top-level key) and a misspelt `search.n_trails`.
"""

import contextlib
import copy
import io
import json
import math
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dfolio import cli

FAST = settings(derandomize=True, database=None, deadline=None, suppress_health_check=[HealthCheck.too_slow])

STRATEGIES = [
    "max_sharpe",
    {"name": "lin", "kind": "spo_plus"},
    {"name": "spo_plus_fee_l2"},
    {"name": "rob", "kind": "robust_spo", "rho": 0.1},
    {"name": "softmax_max_return", "hidden": 4},
]
# One rebalance (2016-02-01) over a 300-day market that starts 2015-01-05.
BASE = {
    "seed": 1,
    "backtest": {"start": "2016-02-01", "end": "2016-02-26", "train_months": 9, "validation_months": 3,
                 "fee_rate": 0.005, "batch_size": 63},
    "search": {"n_trials": 2, "lr_min": 1e-3, "lr_max": 1e-2, "epochs_min": 1, "epochs_max": 2},
    "strategies": STRATEGIES,
    "report_spans": {"feb": ["2016-02-01", "2016-02-26"]},
}
UNBOUNDED = {("search", "n_trials"), ("strategy", "hidden")}
SPEC_KEYS = ["name", "kind", "gamma", "lam", "rho", "robust_samples", "hidden"]

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from([-(10**12), 10**12, 2**63, 10**400, -(10**400)]),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -0.0, 5e-324, 2.5]),
    st.floats(),
    st.text(max_size=6),
)
hostile = st.recursive(
    scalars, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=5,
)
# Values most keys accept, so that a mutated run gets past the config checks.
plausible = st.one_of(st.integers(0, 12), st.floats(0, 1))
# Counts the program does not bound: anything but a large number.
bounded = st.one_of(st.integers(-3, 6), st.sampled_from([None, True, 2.5, math.nan, math.inf, "3", [3], {}]))


@pytest.fixture(scope="module")
def market(tmp_path_factory):
    data = tmp_path_factory.mktemp("hostile") / "market"
    assert cli.main(["synth", "--out", str(data), "--assets", "3", "--days", "300", "--seed", "4"]) == 0
    return data


def run_main(argv):
    """(exit code, stdout, stderr) of cli.main; argparse's usage error counts as exit 2."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            assert exc.code == 2, exc.code
            assert "error: argument" in err.getvalue()
            return 2, out.getvalue(), err.getvalue()
    return code, out.getvalue(), err.getvalue()


def check_outcome(code, out, err):
    assert code in (0, 1, 2), code
    # pytest's error::RuntimeWarning filter raises a leaked numpy warning, and
    # a strategy's failure isolation would turn it into an accepted FAILED line.
    assert "Warning:" not in out + err, (out, err)
    if code == 2:
        assert err.startswith(("config error: ", "error: ", "usage: ")), err
    elif code == 1:
        assert err.startswith("error: ") or "FAILED: " in out, (out, err)


def path_values(scratch: Path):
    """Hostile path strings, all inside `scratch`; a config never names a path outside it."""
    blocker = scratch / "file"
    blocker.write_text("")
    return [str(blocker), str(blocker / "x"), str(scratch / "missing" / "deeper"), "", "a\0b"]


WHERE = (
    ["data_dir", "output_dir", "universe", "seed", "backtest", "search", "strategies", "report_spans"]
    + [("backtest", k) for k in [*BASE["backtest"], "seed"]]
    + [("search", k) for k in [*BASE["search"], "n_trails"]]
    + [("strategy", k) for k in SPEC_KEYS]
)


def run_config(market, edits):
    """Apply (where, value, count, pick, strategy) edits to the base config and run `backtest` on it."""
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        cfg = {"data_dir": str(market), "output_dir": str(scratch / "out"), **copy.deepcopy(BASE)}
        # Nested keys first, while their sections still hold the base values.
        for where, value, count, pick, strategy in sorted(edits, key=lambda edit: isinstance(edit[0], str)):
            if where in ("data_dir", "output_dir"):
                cfg[where] = path_values(scratch)[pick % 5] if pick < 5 or isinstance(value, str) else value
            elif isinstance(where, str):
                cfg[where] = value
            elif where[0] == "strategy":
                cfg["strategies"][strategy][where[1]] = count if where in UNBOUNDED else value
            else:
                cfg[where[0]][where[1]] = count if where in UNBOUNDED else value
        path = scratch / "config.json"
        path.write_text(json.dumps(cfg))
        check_outcome(*run_main(["backtest", "--config", str(path)]))


edit = st.tuples(
    st.sampled_from(WHERE),
    st.one_of(hostile, plausible, plausible),
    bounded,
    st.integers(0, 9),
    st.integers(1, len(STRATEGIES) - 1),
)


@settings(FAST, max_examples=300)
@given(edits=st.lists(edit, min_size=1, max_size=2))
def test_hostile_config_value(market, edits):
    run_config(market, edits)


SPECIAL = [None, True, 0, -1, 10**12, -(10**12), 2**63, 10**400, -(10**400), math.nan, math.inf, -math.inf,
           1e308, 5e-324, 2.5, "", "x", [], {}, [1], {"a": 1}]


@settings(FAST, max_examples=150)
@given(
    section=st.sampled_from(["top", "backtest", "search", "strategy"]),
    value=st.one_of(st.sampled_from(SPECIAL), hostile),
    count=bounded,
    pick=st.integers(0, 9),
    strategy=st.integers(1, len(STRATEGIES) - 1),
)
def test_hostile_config_section(market, section, value, count, pick, strategy):
    # One value at every key of a section: the config checks report every
    # fault at once, so each key's check sees the value.
    keys = [w for w in WHERE if (isinstance(w, str) if section == "top" else w[0] == section)]
    run_config(market, [(where, value, count, pick, strategy) for where in keys])


CELLS = ["nan", "inf", "-inf", "1e400", "", "abc", "0", "-1", "1e308", "5e-324", "2015-01-06"]


def mutate_csv(path: Path, kind: str, row: int, col: int, cell: str, cut: int):
    lines = path.read_text().splitlines(keepends=True)
    row = 1 + row % (len(lines) - 1)
    if kind == "cell":
        fields = lines[row].rstrip("\r\n").split(",")
        fields[col] = cell
        lines[row] = ",".join(fields) + "\n"
    elif kind == "flat":
        lines[1:] = [line.split(",")[0] + ",50,50,50,50,50," + line.split(",")[6] for line in lines[1:]]
    elif kind in ("zero_volume", "huge_volume"):  # huge: rolling volume sums overflow
        volume = "0" if kind == "zero_volume" else "1e308"
        lines[1:] = [line.rsplit(",", 1)[0] + f",{volume}\n" for line in lines[1:]]
    elif kind == "duplicate":
        lines.insert(row, lines[row])
    elif kind == "delete":
        del lines[row]
    text = "".join(lines)
    if kind == "truncate":
        text = text[: cut % (len(text) + 1)]
    path.write_text(text)


@settings(FAST, max_examples=80)
@given(
    edits=st.lists(
        st.tuples(
            st.integers(0, 2),
            st.sampled_from(["cell", "flat", "zero_volume", "huge_volume", "duplicate", "delete", "truncate"]),
            st.integers(0, 10**6),
            st.integers(0, 6),
            st.sampled_from(CELLS),
            st.integers(0, 10**6),
        ),
        min_size=1,
        max_size=3,
    ),
)
def test_hostile_csv(market, edits):
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        data = scratch / "market"
        shutil.copytree(market, data)
        files = sorted(data.iterdir())
        for ticker, kind, row, col, cell, cut in edits:
            mutate_csv(files[ticker], kind, row, col, cell, cut)
        check_outcome(*run_main(["ingest", "--data", str(data), "--out", str(scratch / "ingested")]))
        cfg = {"data_dir": str(data), "output_dir": str(scratch / "out"), **BASE, "strategies": STRATEGIES[:2]}
        (scratch / "config.json").write_text(json.dumps(cfg))
        check_outcome(*run_main(["backtest", "--config", str(scratch / "config.json")]))


@settings(FAST, max_examples=40)
@given(
    assets=st.one_of(st.integers(-2, 3), st.sampled_from(["x", "1.5", ""])),
    days=st.one_of(st.integers(-2, 40), st.sampled_from(["", "1e3"])),
    seed=st.sampled_from([-1, 0, 7, 2**64, 10**30]),
    out=st.sampled_from(["fresh", "file", "under_file"]),
)
def test_hostile_synth_arguments(assets, days, seed, out):
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        (scratch / "file").write_text("")
        target = {"fresh": scratch / "new" / "dir", "file": scratch / "file", "under_file": scratch / "file" / "x"}[out]
        argv = ["synth", "--out", str(target), "--assets", str(assets), "--days", str(days), "--seed", str(seed)]
        code, stdout, stderr = run_main(argv)
        check_outcome(code, stdout, stderr)
        if out != "fresh":
            assert code == 2 and (scratch / "file").read_text() == ""
