"""The CSV writers print every float as repr(float(x)), byte for byte.

Each writer's file is compared with a reference that formats cell by cell.
The values include a negative zero, the smallest subnormal, integral floats
that repr keeps in fixed or switches to exponent notation, and a sum with a
long repr; a ticker containing a comma must come out quoted.
"""

import csv
import io
from datetime import date

import numpy as np

from dfolio.features import FeatureTensor, write_features_csv
from dfolio.market_data import CSV_HEADER, MarketFrame, read_ticker_csv, write_csv_dir
from dfolio.reports import write_panel_csv

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
