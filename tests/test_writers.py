"""The CSV writers print every float as repr(float(x)), byte for byte.

Each writer's file is compared with a reference that formats cell by cell.
The values include a negative zero, the smallest subnormal, integral floats
that repr keeps in fixed or switches to exponent notation, and a sum with a
long repr; a ticker containing a comma must come out quoted. The backtest
writers get numpy scalars and arrays as well as Python floats, as the
backtest hands them over. The panel and features writers share one block
writer, util.write_long_csv; it is also checked on drawn floats and labels,
through `dfolio ingest` on tickers that carry csv and `%` syntax, and on
tables split into several chunks, formatted by worker processes.
"""

import csv
import errno
import io
import multiprocessing
import os
import struct
import threading
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfolio import cli
from dfolio.backtest import BacktestLedger, RebalanceRecord
from dfolio.features import FeatureTensor, compute_indicators, write_features_csv
from dfolio.market_data import (
    CSV_HEADER,
    MarketFrame,
    SyntheticSpec,
    align_series,
    generate_synthetic,
    load_series,
    read_ticker_csv,
    write_csv_dir,
)
from dfolio.metrics import MetricsRow
from dfolio.reports import (
    write_hparams_csv,
    write_metrics_csv,
    write_nav_csv,
    write_panel_csv,
    write_plotdata,
    write_weights_csv,
)
from dfolio.training import TrialResult
from dfolio import util
from dfolio.util import write_long_csv

TICKERS = ("A,B", "C")
DATES = (date(2020, 1, 6), date(2020, 1, 7))
EDGE = [-0.0, 5e-324, 1e16, 1e22, 0.1 + 0.2, 647508.0, 1e-7, 123456789.125]


def reference_csv(header, rows) -> bytes:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    for row in rows:
        w.writerow([c if isinstance(c, str) else repr(float(c)) for c in row])
    return buf.getvalue().encode()


def edge_frame() -> MarketFrame:
    adj = np.array([[5e-324, 1e16], [1e22, 0.1 + 0.2]])
    vol = np.array([[-0.0, 0.0], [647508.0, 1e22]])
    return MarketFrame(dates=DATES, tickers=TICKERS, adj_close=adj, volume=vol)


def test_features_csv_matches_per_cell_repr(tmp_path):
    feats = np.array(EDGE * 2).reshape(2, 2, 4)
    tensor = FeatureTensor(dates=DATES, tickers=TICKERS, features=feats, feature_names=("a", "b", "c", "d"))
    path = write_features_csv(tensor, tmp_path / "features.csv")
    rows = [
        [d.isoformat(), t, *feats[i, j]] for i, d in enumerate(DATES) for j, t in enumerate(TICKERS)
    ]
    assert path.read_bytes() == reference_csv(["date", "ticker", "a", "b", "c", "d"], rows)
    assert b'2020-01-06,"A,B",-0.0,5e-324,1e+16,1e+22\r\n' in path.read_bytes()
    assert b"C,0.30000000000000004,647508.0,1e-07,123456789.125\r\n" in path.read_bytes()


def test_panel_csv_matches_per_cell_repr(tmp_path):
    frame = edge_frame()
    path = write_panel_csv(frame, tmp_path / "panel.csv")
    rows = [
        [d.isoformat(), t, frame.adj_close[i, j], frame.volume[i, j]]
        for i, d in enumerate(DATES)
        for j, t in enumerate(TICKERS)
    ]
    assert path.read_bytes() == reference_csv(["date", "ticker", "adj_close", "volume"], rows)
    assert b'2020-01-06,"A,B",5e-324,-0.0\r\n' in path.read_bytes()


def test_synth_csv_dir_matches_per_cell_repr_and_reads_back(tmp_path):
    frame = edge_frame()
    paths = write_csv_dir(frame, tmp_path / "data")
    assert [p.name for p in paths] == ["A,B.csv", "C.csv"]
    for j, p in enumerate(paths):
        rows = []
        for i, d in enumerate(DATES):
            px = frame.adj_close[i, j]
            rows.append([d.isoformat(), px, px, px, px, px, frame.volume[i, j]])
        assert p.read_bytes() == reference_csv(CSV_HEADER, rows)
        bars = read_ticker_csv(p)
        assert np.array([b.adj_close for b in bars]).tobytes() == frame.adj_close[:, j].tobytes()
        assert np.array([b.volume for b in bars]).tobytes() == frame.volume[:, j].tobytes()


def edge_ledgers() -> dict[str, BacktestLedger]:
    def record(day, target, turnover, fee, lr, score):
        trial = TrialResult(learning_rate=lr, epochs=7, score=score)
        return RebalanceRecord(day, np.array(target), np.zeros(2), turnover, fee, 1.0, 1.0, trial)

    a = BacktestLedger(
        "a,b",
        nav_dates=list(DATES),
        nav=[np.float64(0.1 + 0.2), 1e16],
        rebalances=[record(DATES[0], [-0.0, 1.0], np.float64(5e-324), 1e-7, 0.1 + 0.2, np.float64(-0.0))],
    )
    b = BacktestLedger(
        "c",
        nav_dates=list(DATES),
        nav=[5e-324, -0.0],
        rebalances=[record(DATES[1], [5e-324, 1e16], -0.0, np.float64(1e16), np.float64(1e-7), 647508.0)],
    )
    return {"a,b": a, "failed": BacktestLedger("failed", error="boom"), "c": b}


def test_nav_csv_matches_per_cell_repr(tmp_path):
    ledgers = edge_ledgers()
    path = write_nav_csv(ledgers, tmp_path / "nav.csv")
    rows = [[d.isoformat(), name, v] for name in ("a,b", "c") for d, v in zip(DATES, ledgers[name].nav)]
    assert path.read_bytes() == reference_csv(["date", "strategy", "nav"], rows)
    assert b'2020-01-06,"a,b",0.30000000000000004\r\n' in path.read_bytes()


def test_weights_csv_matches_per_cell_repr(tmp_path):
    ledgers = edge_ledgers()
    path = write_weights_csv(ledgers, TICKERS, tmp_path / "weights.csv")
    rows = [
        [rec.day.isoformat(), name, t, rec.target[j], rec.turnover, rec.fee]
        for name in ("a,b", "c")
        for rec in ledgers[name].rebalances
        for j, t in enumerate(TICKERS)
    ]
    assert path.read_bytes() == reference_csv(["rebalance_date", "strategy", "ticker", "weight", "turnover", "fee"], rows)
    assert b'2020-01-06,"a,b","A,B",-0.0,5e-324,1e-07\r\n' in path.read_bytes()


def test_hparams_csv_matches_per_cell_repr(tmp_path):
    ledgers = edge_ledgers()
    path = write_hparams_csv(ledgers, tmp_path / "hparams.csv")
    rows = []
    for name in ("a,b", "c"):
        for rec in ledgers[name].rebalances:
            trial = rec.trial
            rows.append([rec.day.isoformat(), name, trial.learning_rate, str(trial.epochs), trial.score])
    assert path.read_bytes() == reference_csv(["rebalance_date", "strategy", "lr", "epochs", "score"], rows)
    assert b"2020-01-07,c,1e-07,7,647508.0\r\n" in path.read_bytes()


def test_metrics_csv_matches_per_cell_repr(tmp_path):
    report = {
        "a,b": {"full": MetricsRow(np.float64(-0.0), 5e-324, None, np.float64(1e16), 0.1 + 0.2)},
        "c": {"2020": MetricsRow(1e22, 647508.0, 1e-7, None, 123456789.125)},
    }
    path = write_metrics_csv(report, tmp_path / "metrics.csv")
    header = ["strategy", "span", "annualized_return", "annualized_volatility", "sharpe", "sortino", "max_drawdown"]
    rows = [
        [name, span, *("" if v is None else v for v in row.as_dict().values())]
        for name, spans in report.items()
        for span, row in spans.items()
    ]
    assert path.read_bytes() == reference_csv(header, rows)
    assert b'"a,b",full,-0.0,5e-324,,1e+16,0.30000000000000004\r\n' in path.read_bytes()


def test_plotdata_matches_per_cell_repr(tmp_path):
    series = {"a,b": (list(DATES), [-0.0, 5e-324]), "c": (list(DATES), np.array([1e16, 0.1 + 0.2]))}
    (path,) = write_plotdata(series, {"full": (None, None)}, tmp_path / "plotdata")
    rows = [[d.isoformat(), series["a,b"][1][i], series["c"][1][i]] for i, d in enumerate(DATES)]
    assert path.read_bytes() == reference_csv(["date", "a,b", "c"], rows)
    assert b"2020-01-07,5e-324,0.30000000000000004\r\n" in path.read_bytes()


class CellTypeGuard:
    """csv.writer stand-in that lets through only str, int and Python float cells."""

    files: list[str] = []

    def __init__(self, fh, *args, **kwargs):
        self.files.append(Path(fh.name).name)
        self.real = REAL_WRITER(fh, *args, **kwargs)

    def writerow(self, row):
        row = list(row)
        bad = [type(c).__name__ for c in row if type(c) not in (str, int, float)]
        assert not bad, f"csv got cells of type {bad} in {row!r}"
        return self.real.writerow(row)

    def writerows(self, rows):
        for row in rows:
            self.writerow(row)


REAL_WRITER = csv.writer


def test_writers_hand_csv_only_python_scalars(tmp_path, monkeypatch):
    # str(np.float64(x)) == repr(float(x)) for every edge value above, so the
    # byte comparisons cannot see a numpy scalar reaching csv; check the types.
    # The panel and features writers hand csv only the header and the tickers;
    # their floats never reach it (see the next test).
    monkeypatch.setattr(csv, "writer", CellTypeGuard)
    monkeypatch.setattr(CellTypeGuard, "files", [])
    frame, ledgers = edge_frame(), edge_ledgers()
    write_csv_dir(frame, tmp_path / "data")
    write_nav_csv(ledgers, tmp_path / "nav.csv")
    write_weights_csv(ledgers, TICKERS, tmp_path / "weights.csv")
    write_hparams_csv(ledgers, tmp_path / "hparams.csv")
    report = {"a,b": {"full": MetricsRow(np.float64(-0.0), 5e-324, None, np.float64(1e16), 0.1 + 0.2)}}
    write_metrics_csv(report, tmp_path / "metrics.csv")
    series = {"a,b": (list(DATES), [-0.0, 5e-324]), "c": (list(DATES), np.array([1e16, 0.1 + 0.2]))}
    write_plotdata(series, {"full": (None, None)}, tmp_path / "plotdata")
    assert CellTypeGuard.files == ["A,B.csv", "C.csv", "nav.csv", "weights.csv", "hparams.csv", "metrics.csv", "nav_full.csv"]


def test_block_writer_cannot_print_numpy_scalars():
    # write_long_csv formats cells with %r, and %r of a numpy scalar is not
    # repr(float): a block handed over without .tolist() fails the byte tests.
    for x in EDGE:
        assert "%r" % (np.float64(x),) != repr(x)


HOSTILE_TICKERS = ("A%B", "%r", "100%%", "A,B", 'A"B', " lead")


def test_ingest_hostile_tickers_match_per_cell_reference(tmp_path):
    synth, _, _ = generate_synthetic(SyntheticSpec(n_assets=len(HOSTILE_TICKERS), n_days=60, seed=3))
    frame = MarketFrame(synth.dates, HOSTILE_TICKERS, synth.adj_close, synth.volume)
    write_csv_dir(frame, tmp_path / "data")
    assert cli.main(["ingest", "--data", str(tmp_path / "data"), "--out", str(tmp_path / "out")]) == 0

    panel = align_series(load_series(tmp_path / "data"))
    assert panel.tickers == tuple(sorted(HOSTILE_TICKERS))
    rows = [
        [d.isoformat(), t, panel.adj_close[i, j], panel.volume[i, j]]
        for i, d in enumerate(panel.dates)
        for j, t in enumerate(panel.tickers)
    ]
    assert (tmp_path / "out" / "panel.csv").read_bytes() == reference_csv(["date", "ticker", "adj_close", "volume"], rows)
    feats = compute_indicators(panel)
    rows = [
        [d.isoformat(), t, *feats.features[i, j]]
        for i, d in enumerate(feats.dates)
        for j, t in enumerate(feats.tickers)
    ]
    header = ["date", "ticker", *feats.feature_names]
    assert (tmp_path / "out" / "features.csv").read_bytes() == reference_csv(header, rows)
    assert b'"A""B",' in (tmp_path / "out" / "features.csv").read_bytes()


def _float_of_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


FINITE_FLOATS = st.one_of(
    st.integers(0, 2**64 - 1).map(_float_of_bits).filter(np.isfinite),
    st.integers(1, 2**52 - 1).map(_float_of_bits),  # positive subnormals
    st.floats(9e15, 2e16) | st.floats(-2e16, -9e15),
    st.sampled_from([-0.0, 0.0, 5e-324, 1e16, 9999999999999998.0, 1e16 + 2, 1e-7, 0.1 + 0.2]),
)


@settings(deadline=None, max_examples=300)
@given(data=st.data(), n_labels=st.integers(0, 4), n_cells=st.integers(1, 3), n_dates=st.integers(0, 3))
def test_block_writer_matches_per_cell_reference(tmp_path_factory, data, n_labels, n_cells, n_dates):
    labels = data.draw(st.lists(st.text('%", A\nr', max_size=4), min_size=n_labels, max_size=n_labels))
    cells = data.draw(st.lists(FINITE_FLOATS, min_size=n_dates * n_labels * n_cells, max_size=n_dates * n_labels * n_cells))
    blocks = np.array(cells, dtype=float).reshape(n_dates, n_labels, n_cells)
    dates = [date(2020, 1, 1 + i) for i in range(n_dates)]
    header = ["date", "ticker", *(f"c%{k}" for k in range(n_cells))]
    path = write_long_csv(tmp_path_factory.mktemp("long") / "x.csv", header, dates, labels, np.moveaxis(blocks, 2, 0))
    rows = [[d.isoformat(), t, *blocks[i, j]] for i, d in enumerate(dates) for j, t in enumerate(labels)]
    assert path.read_bytes() == reference_csv(header, rows)


CHUNK = 3  # dates per chunk in the pooled-writer tests
HOSTILE_LABELS = (*HOSTILE_TICKERS, "new\nline", "%")


@pytest.fixture
def pooled(monkeypatch):
    """Small chunks and two usable CPUs, so that any table of more than CHUNK dates is written through the pool."""
    monkeypatch.setattr(util, "CHUNK_DATES", CHUNK)
    monkeypatch.setattr(util, "usable_cpus", lambda: 2)


def long_table(n_dates: int):
    rng = np.random.default_rng(n_dates)
    cells = rng.standard_normal((n_dates, len(HOSTILE_LABELS), 3)) * 10.0 ** rng.integers(-8, 20, (n_dates, 1, 3))
    cells[0::2, 0, 0] = EDGE[0]
    dates = [date(2020, 1, 1) + timedelta(days=i) for i in range(n_dates)]
    return ["date", "ticker", "a%r", "b,c", "d"], dates, cells


# 6 chunks give each of the two workers three tasks in turn.
@pytest.mark.parametrize("n_dates", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1, 5 * CHUNK + 1])
def test_pooled_writer_matches_per_cell_reference(tmp_path, pooled, n_dates):
    header, dates, cells = long_table(n_dates)
    path = write_long_csv(tmp_path / "x.csv", header, dates, HOSTILE_LABELS, np.moveaxis(cells, 2, 0))
    rows = [[d.isoformat(), t, *cells[i, j]] for i, d in enumerate(dates) for j, t in enumerate(HOSTILE_LABELS)]
    assert path.read_bytes() == reference_csv(header, rows)
    assert multiprocessing.active_children() == []


def test_pooled_writer_starts_no_thread(tmp_path, pooled, monkeypatch):
    # The pool's pickling, reading and allocating all happen on the calling
    # thread, in task order, so the memory it adds does not depend on timing.
    started = []
    start = threading.Thread.start

    def record(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", record)
    header, dates, cells = long_table(5 * CHUNK + 1)
    path = write_long_csv(tmp_path / "x.csv", header, dates, HOSTILE_LABELS, np.moveaxis(cells, 2, 0))
    rows = [[d.isoformat(), t, *cells[i, j]] for i, d in enumerate(dates) for j, t in enumerate(HOSTILE_LABELS)]
    assert path.read_bytes() == reference_csv(header, rows)
    assert started == []
    assert multiprocessing.active_children() == []


class FullDisk(io.BytesIO):
    """A file whose third write (the header, one chunk, then this) fails."""

    error = OSError(errno.ENOSPC, "No space left on device")
    writes = 0

    def write(self, data):
        self.writes += 1
        if self.writes == 3:
            raise self.error
        return super().write(data)


def test_pooled_writer_passes_a_write_error_through_and_stops_its_workers(tmp_path, pooled, monkeypatch):
    header, dates, cells = long_table(4 * CHUNK)
    monkeypatch.setattr(Path, "open", lambda self, *args, **kwargs: FullDisk())
    with pytest.raises(OSError) as caught:
        write_long_csv(tmp_path / "x.csv", header, dates, HOSTILE_LABELS, np.moveaxis(cells, 2, 0))
    assert caught.value is FullDisk.error
    assert multiprocessing.active_children() == []


def exit_at_once(*args):
    os._exit(1)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="the patched worker needs fork")
def test_a_formatting_worker_that_dies_is_a_located_error(tmp_path, pooled, monkeypatch, capfd):
    synth, _, _ = generate_synthetic(SyntheticSpec(n_assets=3, n_days=60, seed=3))
    write_csv_dir(synth, tmp_path / "data")
    monkeypatch.setattr(util, "_format_dates", exit_at_once)
    capfd.readouterr()
    assert cli.main(["ingest", "--data", str(tmp_path / "data"), "--out", str(tmp_path / "out")]) == 1
    out, err = capfd.readouterr()
    assert out == ""
    assert err == f"error: cannot write {tmp_path / 'out' / 'panel.csv'}: a formatting worker exited\n"
    assert multiprocessing.active_children() == []
