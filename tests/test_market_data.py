import contextlib
import csv
import math
import tracemalloc
import warnings
from datetime import date, timedelta
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dfolio import market_data
from dfolio.market_data import (
    AssetBar,
    IngestionError,
    MarketFrame,
    ReturnPanel,
    _check_row,
    SyntheticSpec,
    TickerBars,
    UniverseError,
    align_series,
    compute_returns,
    generate_synthetic,
    load_series,
    read_ticker_csv,
    write_csv_dir,
)

from conftest import flat_bars, make_frame, weekdays, write_ticker_csv


def frame_panels(a):
    """The arrays a MarketFrame keeps when `a` is both its adj_close and its volume."""
    frame = make_frame(a, a)
    return frame.adj_close, frame.volume


def return_panels(a):
    """The array a ReturnPanel keeps when `a` is its simple_returns."""
    return (ReturnPanel(tuple(weekdays(date(2020, 1, 6), len(a))), a).simple_returns,)


# The read-only panel types, each as (input array -> the arrays it keeps).
ADOPTERS = (frame_panels, return_panels)


class TestIngest:
    def test_identical_calendars(self, tmp_csv_dir):
        days = weekdays(date(2020, 1, 6), 10)
        write_ticker_csv(tmp_csv_dir / "AAA.csv", flat_bars(days, 100.0))
        write_ticker_csv(tmp_csv_dir / "BBB.csv", flat_bars(days, 50.0))
        frame = align_series(load_series(tmp_csv_dir))
        assert frame.n_dates == 10
        assert frame.tickers == ("AAA", "BBB")

    def test_date_intersection(self, tmp_csv_dir):
        days = weekdays(date(2020, 1, 6), 12)
        write_ticker_csv(tmp_csv_dir / "A.csv", flat_bars(days[:10]))
        write_ticker_csv(tmp_csv_dir / "B.csv", flat_bars(days[2:12]))
        frame = align_series(load_series(tmp_csv_dir))
        assert frame.dates == tuple(days[2:10])

    def test_tickers_select_files_before_parsing(self, tmp_csv_dir):
        # Only the named files are parsed: BAD is never read, and C's later
        # start does not narrow the calendar.
        days = weekdays(date(2020, 1, 6), 10)
        for name, cal in (("A", days), ("B", days[1:]), ("C", days[5:])):
            write_ticker_csv(tmp_csv_dir / f"{name}.csv", flat_bars(cal))
        (tmp_csv_dir / "BAD.csv").write_text("not,a,ticker,file\n")
        series = load_series(tmp_csv_dir, tickers=["B", "A"])
        assert sorted(series) == ["A", "B"]
        assert align_series(series).dates == tuple(days[1:])
        with pytest.raises(UniverseError, match=r"^unknown tickers: ZZ, YY$"):
            load_series(tmp_csv_dir, tickers=["A", "ZZ", "YY"])
        with pytest.raises(IngestionError, match=r"BAD\.csv:1: bad header"):
            load_series(tmp_csv_dir)

    def test_zero_adj_close_names_file_and_line(self, tmp_csv_dir):
        days = weekdays(date(2020, 1, 6), 3)
        rows = flat_bars(days)
        rows[1] = (days[1], 100.0, 100.0, 100.0, 100.0, 0.0, 1000.0)
        write_ticker_csv(tmp_csv_dir / "BAD.csv", rows)
        with pytest.raises(IngestionError) as err:
            align_series(load_series(tmp_csv_dir))
        assert "BAD.csv" in str(err.value)
        assert err.value.line == 3  # header is line 1

    def test_bad_header(self, tmp_csv_dir):
        (tmp_csv_dir / "X.csv").write_text("date,open,close\n2020-01-06,1,1\n")
        with pytest.raises(IngestionError) as err:
            align_series(load_series(tmp_csv_dir))
        assert err.value.line == 1

    def test_unparsable_row(self, tmp_csv_dir):
        days = weekdays(date(2020, 1, 6), 2)
        rows = flat_bars(days)
        rows[1] = (days[1], "oops", 100.0, 100.0, 100.0, 100.0, 1000.0)
        write_ticker_csv(tmp_csv_dir / "X.csv", rows)
        with pytest.raises(IngestionError):
            align_series(load_series(tmp_csv_dir))

    def test_empty_dir(self, tmp_csv_dir):
        with pytest.raises(UniverseError, match="no input files"):
            align_series(load_series(tmp_csv_dir))

    def test_empty_intersection(self, tmp_csv_dir):
        days = weekdays(date(2020, 1, 6), 10)
        write_ticker_csv(tmp_csv_dir / "A.csv", flat_bars(days[:5]))
        write_ticker_csv(tmp_csv_dir / "B.csv", flat_bars(days[5:]))
        with pytest.raises(UniverseError, match="empty date intersection"):
            align_series(load_series(tmp_csv_dir))

    def test_non_increasing_dates(self, tmp_csv_dir):
        days = weekdays(date(2020, 1, 6), 3)
        rows = flat_bars([days[0], days[2], days[1]])
        write_ticker_csv(tmp_csv_dir / "X.csv", rows)
        with pytest.raises(IngestionError, match="strictly increasing"):
            read_ticker_csv(tmp_csv_dir / "X.csv")

    def test_alignment_idempotent(self, tmp_csv_dir):
        days = weekdays(date(2020, 1, 6), 15)
        write_ticker_csv(tmp_csv_dir / "A.csv", flat_bars(days[:12], 101.5))
        write_ticker_csv(tmp_csv_dir / "B.csv", flat_bars(days[3:], 55.25))
        frame = align_series(load_series(tmp_csv_dir))
        out = tmp_csv_dir.parent / "round"
        write_csv_dir(frame, out)
        again = align_series(load_series(out))
        assert again.dates == frame.dates
        assert again.tickers == frame.tickers
        assert again.adj_close.tobytes() == frame.adj_close.tobytes()
        assert again.volume.tobytes() == frame.volume.tobytes()

    def test_alignment_takes_each_cell_from_its_own_date(self, tmp_csv_dir):
        days = weekdays(date(2020, 1, 6), 14)
        a = [(d, 100.0 + i, 100.0 + i, 100.0 + i, 100.0 + i, 100.0 + i, 10.0 * i) for i, d in enumerate(days)]
        b = [(d, 50.0 + i, 50.0 + i, 50.0 + i, 50.0 + i, 50.0 + i, 20.0 * i) for i, d in enumerate(days)]
        write_ticker_csv(tmp_csv_dir / "A.csv", a[:5] + a[6:11])
        write_ticker_csv(tmp_csv_dir / "B.csv", b[2:8] + b[9:])
        series = load_series(tmp_csv_dir)
        kept = [2, 3, 4, 6, 7, 9, 10]
        reversed_bars = {t: TickerBars(bars.days[::-1], bars.values[:, ::-1]) for t, bars in series.items()}
        for frame in (align_series(series), align_series(reversed_bars)):
            assert frame.dates == tuple(days[i] for i in kept)
            np.testing.assert_array_equal(frame.adj_close, [[100.0 + i, 50.0 + i] for i in kept])
            np.testing.assert_array_equal(frame.volume, [[10.0 * i, 20.0 * i] for i in kept])

    def test_align_series_direct(self, tmp_csv_dir):
        days = weekdays(date(2020, 1, 6), 6)
        write_ticker_csv(tmp_csv_dir / "A.csv", flat_bars(days))
        series = load_series(tmp_csv_dir)
        frame = align_series(series)
        assert frame.n_assets == 1 and frame.n_dates == 6

    def test_parsed_series_keep_under_128_bytes_per_row(self, tmp_csv_dir):
        # One record per bar kept about 288 bytes per row; a pointer to a
        # shared date and the two kept float64 cells take about 28.
        days = weekdays(date(2000, 1, 3), 5000)
        for k in range(10):
            write_ticker_csv(tmp_csv_dir / f"T{k}.csv", flat_bars(days, 100.0 + k, 1000.0 + k))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            series = load_series(tmp_csv_dir)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        rows = sum(map(len, series.values()))
        assert rows == 50_000
        assert kept / rows < 128


HEADER = "date,open,high,low,close,adj_close,volume"
GOOD = "2020-01-06,100.0,101.0,99.0,100.5,100.5,1000.0"
OHLC = "low <= min(open, close) <= max(open, close) <= high violated"


def row(day="2020-01-07", o="100.5", h="102.0", l="100.0", c="101.0", a="101.0", v="1200.0"):
    return ",".join([day, o, h, l, c, a, v])


def line_3(line, message, id):
    """Case: a file whose data line after one good bar is `line`; the fault is on line 3."""
    return pytest.param([HEADER, GOOD, line], f"3: {message}", id=id)


NON_FINITE = [
    line_3(row(**{key: cell}), f"{name} must be finite, got {cell!r}", id=f"{name}-{cell}")
    for name, key in {"open": "o", "high": "h", "low": "l", "close": "c", "adj_close": "a", "volume": "v"}.items()
    for cell in ("nan", "inf", "-inf", "1e400")
]

# Each case: the file's lines and the exact "<line>: <message>" after "X.csv:".
PARSE_ERRORS = [
    line_3(row()[: row().rindex(",")], "expected 7 fields, got 6", id="too-few-fields"),
    line_3(row() + ",7", "expected 7 fields, got 8", id="too-many-fields"),
    line_3(row(day="2020-13-07"), "bad date '2020-13-07': month must be in 1..12", id="bad-month"),
    line_3(
        row(day="Jan 7 2020"), "bad date 'Jan 7 2020': Invalid isoformat string: 'Jan 7 2020'", id="bad-date-text"
    ),
    line_3(row(h="oops"), "could not convert string to float: 'oops'", id="non-numeric"),
    line_3(row(v=""), "could not convert string to float: ''", id="empty-cell"),
    *NON_FINITE,
    line_3(row(a="0.0"), "adj_close must be > 0", id="adj-close-zero"),
    line_3(row(a="-3.5"), "adj_close must be > 0", id="adj-close-negative"),
    line_3(row(h="100.9"), OHLC, id="high-below-close"),
    line_3(row(l="100.6"), OHLC, id="low-above-open"),
    line_3(row(v="-1.0"), "volume must be >= 0", id="negative-volume"),
    line_3(row(o="1" * 200_000), "field larger than field limit (131072)", id="field-over-csv-limit"),
    # numpy's reader has no field limit and reads these as a valid volume and adj_close.
    line_3(row(v="1000" + " " * 200_000), "field larger than field limit (131072)", id="padded-over-csv-limit"),
    line_3(row(a="1." + "0" * 200_000), "field larger than field limit (131072)", id="zeros-over-csv-limit"),
    line_3(row(day="2020-01-06"), "dates not strictly increasing at 2020-01-06", id="repeated-date"),
    pytest.param(
        [HEADER, GOOD, row(), row(day="2020-01-06")],
        "4: dates not strictly increasing at 2020-01-06",
        id="decreasing-date",
    ),
    pytest.param([], "1: empty file", id="empty-file"),
    pytest.param([HEADER], "2: no data rows", id="header-only"),
    pytest.param([HEADER, "", ""], "2: no data rows", id="header-and-blank-lines"),
    pytest.param(
        ["date,open,close", "2020-01-06,1,1"],
        "1: bad header ['date', 'open', 'close'], expected date,open,high,low,close,adj_close,volume",
        id="bad-header",
    ),
    # Two bad lines: the earlier one is reported; blank lines count as lines.
    pytest.param(
        [HEADER, GOOD, row(v="-1.0"), row(day="2020-01-08", a="nan")],
        "3: volume must be >= 0",
        id="earlier-line-wins",
    ),
    pytest.param([HEADER, GOOD, "", "", row(v="-1.0")], "5: volume must be >= 0", id="after-blank-lines"),
    # Two faults on one line: the check order decides.
    line_3("2020-13-07,1", "expected 7 fields, got 2", id="count-before-date"),
    line_3(
        row(day="2020-02-30", o="oops"), "bad date '2020-02-30': day is out of range for month", id="date-before-number"
    ),
    line_3(row(o="nan", h="oops"), "could not convert string to float: 'oops'", id="number-before-finite"),
    line_3(row(h="inf", c="nan"), "high must be finite, got 'inf'", id="first-non-finite-column"),
    line_3(row(a="0.0", v="inf"), "volume must be finite, got 'inf'", id="finite-before-adj-close"),
    line_3(row(h="1.0", a="0.0"), "adj_close must be > 0", id="adj-close-before-ohlc"),
    line_3(row(h="1.0", v="-1.0"), OHLC, id="ohlc-before-volume"),
    line_3(row(day="2020-01-06", v="-1.0"), "volume must be >= 0", id="volume-before-date-order"),
]


class TestParseErrors:
    @pytest.mark.parametrize("lines, expected", PARSE_ERRORS)
    def test_exact_message_and_line(self, tmp_csv_dir, lines, expected):
        path = tmp_csv_dir / "X.csv"
        path.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(IngestionError) as err:
            read_ticker_csv(path)
        assert str(err.value) == f"{path}:{expected}"
        assert err.value.line == int(expected.split(":")[0])
        assert err.value.path == str(path)

    def test_crlf_quotes_and_blank_lines_accepted(self, tmp_csv_dir):
        path = tmp_csv_dir / "X.csv"
        quoted = '"2020-01-07","100.5"," 102.0 ",100.0,"101.0",101.0,"1_200"'
        path.write_bytes(f"{HEADER}\r\n\r\n{GOOD}\r\n\r\n{quoted}\r\n\r\n".encode())
        assert list(read_ticker_csv(path)) == [
            AssetBar(date(2020, 1, 6), 100.5, 1000.0),
            AssetBar(date(2020, 1, 7), 101.0, 1200.0),
        ]

    def test_crlf_fault_line(self, tmp_csv_dir):
        path = tmp_csv_dir / "X.csv"
        path.write_bytes(f"{HEADER}\r\n{GOOD}\r\n\r\n{row(a='0')}\r\n".encode())
        with pytest.raises(IngestionError, match=r"X\.csv:4: adj_close must be > 0$"):
            read_ticker_csv(path)

    def test_bytes_that_are_not_utf8(self, tmp_csv_dir):
        # The decode error escaped with no path (a traceback under `backtest`).
        path = tmp_csv_dir / "X.csv"
        path.write_bytes(f"{HEADER}\n{GOOD}\n".encode() + b"2020-01-07,1,1,1,1,1,\xff\n")
        with pytest.raises(IngestionError, match=r"X\.csv:1: not UTF-8 text at or after this line \(invalid start byte\)$"):
            read_ticker_csv(path)

    @pytest.mark.parametrize("make", ["missing", "file", "csv-directory"])
    def test_unreadable_paths_are_universe_errors(self, tmp_path, make):
        # Each was a bare OSError without the kind of fault.
        data = tmp_path / "data"
        if make == "file":
            data.write_text("")
        elif make == "csv-directory":
            (data / "X.csv").mkdir(parents=True)
        reason = {"missing": "No such file or directory", "file": "Not a directory", "csv-directory": "Is a directory"}
        with pytest.raises(UniverseError, match=rf"^cannot (read data directory|open) {data}.* \({reason[make]}\)$"):
            load_series(data)

    def test_records_hold_parsed_floats(self, tmp_csv_dir):
        path = tmp_csv_dir / "X.csv"
        path.write_text(f"{HEADER}\n{GOOD}\n{row(v='-0.0')}\n")
        columns = read_ticker_csv(path)
        assert len(columns) == 2 and not columns.values.flags.writeable
        bars = list(columns)
        assert [type(v) for v in bars[1][1:]] == [float] * 2
        assert bars[1].day == date(2020, 1, 7) and bars[1].adj_close == 101.0 and bars[1].volume == 0.0
        assert math.copysign(1.0, bars[1].volume) == -1.0

    def test_values_keep_only_adj_close_and_volume(self, tmp_csv_dir):
        # Open, high, low and close are checked, then dropped: alignment reads the other two.
        path = tmp_csv_dir / "X.csv"
        lines = [HEADER, "2020-01-06,100.0,101.0,99.0,100.5,97.25,1000.0", row(a="98.5", v="0")]
        path.write_text("".join(line + "\n" for line in lines))
        values = read_ticker_csv(path).values
        assert values.shape == (2, 2) and not values.flags.writeable
        assert values.tobytes() == np.array([[97.25, 98.5], [1000.0, 0.0]]).tobytes()


def scalar_read(path):
    """Row-by-row reference reader: `_check_row` on every line, in file order; each bar keeps
    the fields `TickerBars` keeps (day, adj_close, volume)."""
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    bars, day = [], None
    for line_no, cells in enumerate(rows, start=2):
        if cells:
            day = _check_row(path, line_no, cells, day)
            bars.append(AssetBar(day, float(cells[5]), float(cells[6])))
    if not bars:
        raise IngestionError(path, 2, "no data rows")
    return bars


# (column, cell) edits of a good row: one per check, then edits that stay valid.
EDITS = [
    (6, "-1"), (5, "0"), (5, "-0.0"), (2, "98"), (3, "102"), (1, "nan"), (4, "inf"), (6, "1e400"), (1, "oops"), (6, ""),
    (6, "0"), (6, "1_000"), (1, "１００"), (4, " 100.5 "), (3, "-0.0"),
]


@st.composite
def ticker_lines(draw):
    lines = [HEADER]
    day = date(2020, 1, 6)
    for _ in range(draw(st.integers(0, 6))):
        # Each kind of fault is rare, so that a file often holds only one.
        day += timedelta(days=draw(st.sampled_from([1] * 10 + [0, -1])))
        iso = day.isoformat() if draw(st.integers(0, 19)) else "2020-02-30"
        cells = [iso, "100.0", "101.0", "99.0", "100.5", "100.5", "1000"]
        if draw(st.booleans()):
            column, cell = draw(st.sampled_from(EDITS))
            cells[column] = cell
        if not draw(st.integers(0, 19)):
            cells = (cells + ["7"])[: draw(st.integers(1, 8))]
        lines.append(",".join(cells) if draw(st.integers(0, 9)) else "")
    return lines


class TestColumnarMatchesScalar:
    @given(ticker_lines())
    @settings(deadline=None, max_examples=500)
    def test_same_bars_or_same_error(self, tmp_path_factory, lines):
        path = tmp_path_factory.getbasetemp() / "X.csv"
        path.write_text("".join(line + "\n" for line in lines))
        try:
            expected = scalar_read(path)
        except IngestionError as exc:
            with pytest.raises(IngestionError) as err:
                read_ticker_csv(path)
            assert (str(err.value), err.value.line) == (str(exc), exc.line)
        else:
            assert list(read_ticker_csv(path)) == expected


# Cells where numpy's reader and the csv path could part: padding, quotes,
# underscores, full-width digits, non-finite and signed zeros, overflow, long
# digit strings, the characters loadtxt strips and float() does not, and NULs.
HOSTILE_NUMBERS = [
    "100.5", " 100.5 ", "\t100.5", "\xa0100.5", "100.5\u2028", '"100.5"', "1_000", "１００", "nan", "-nan", "inf",
    "Infinity", "-0.0", "1e400", "1e-400", "", "oops", "0x10", "1" * 330, "0." + "0" * 320 + "17",
    "9" * 17 + "." + "5" * 40, "\x1c100.5", "100.5\x1f", "100.5\x00", "+100.5", "100.", ".5e3",
]
HOSTILE_DATES = [
    "{}", '"{}"', " {}", "{} ", "{}\x00", "{}X", "{}XY", "{}\x1c", "2020-02-30", "20200106", "2020-W02-1",
]
HOSTILE_HEADERS = [HEADER, HEADER.replace(",", ", "), '"date",open,high,low,close,adj_close,volume', "\ufeff" + HEADER]


@st.composite
def hostile_files(draw):
    """Bytes of a ticker file: mostly plain rows, each maybe with one hostile cell, joined
    by LF, CRLF or a lone CR, with blank lines and now and then bytes that are not UTF-8."""
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [draw(st.sampled_from(HOSTILE_HEADERS)) if not draw(st.integers(0, 9)) else HEADER]
    day = date(2020, 1, 6)
    for _ in range(draw(st.integers(0, 6))):
        day += timedelta(days=draw(st.sampled_from([1] * 10 + [0, -1])))
        cells = [day.isoformat(), "100.0", "101.0", "99.0", "100.5", "100.5", "1000"]
        if draw(st.booleans()):
            column = draw(st.integers(0, 6))
            if column:
                cells[column] = draw(st.sampled_from(HOSTILE_NUMBERS))
            else:
                cells[0] = draw(st.sampled_from(HOSTILE_DATES)).format(cells[0])
        if not draw(st.integers(0, 19)):
            cells = (cells + ["7"])[: draw(st.integers(1, 8))]
        lines.append(",".join(cells) if draw(st.integers(0, 9)) else "")
    ends = [draw(st.sampled_from([newline] * 8 + ["\r", ""])) for _ in lines]
    data = "".join(map(str.__add__, lines, ends)).encode()
    return data + b"\xff\n" if not draw(st.integers(0, 29)) else data


def read_outcome(path, calendar, by_csv=False):
    """`read_ticker_csv`'s bars, or its error's (text, line); `by_csv` declines the plain path."""
    decline = mock.patch.object(market_data, "_read_plain", side_effect=ValueError("declined"))
    try:
        with decline if by_csv else contextlib.nullcontext():
            return read_ticker_csv(path, calendar)
    except IngestionError as exc:
        return str(exc), exc.line


class TestPlainPathMatchesCsvPath:
    @given(hostile_files())
    @settings(deadline=None, max_examples=600)
    def test_same_bars_or_same_error(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "X.csv"
        path.write_bytes(data)
        by_csv, by_plain = read_outcome(path, csv_calendar := {}, by_csv=True), read_outcome(path, calendar := {})
        if isinstance(by_csv, tuple):
            assert by_plain == by_csv
        else:
            assert by_plain.days == by_csv.days and by_plain.values.tobytes() == by_csv.values.tobytes()
            assert calendar == csv_calendar
            assert {id(d) for d in by_plain.days} <= {id(d) for d in calendar.values()}

    def test_plain_files_skip_the_csv_module(self, tmp_csv_dir, monkeypatch):
        path = tmp_csv_dir / "X.csv"
        path.write_text(f"{HEADER}\n{GOOD}\n\n{row(v='-0.0')}\n")
        write_ticker_csv(tmp_csv_dir / "Y.csv", flat_bars(weekdays(date(2020, 1, 6), 3)))  # CRLF lines

        def no_csv(*args):
            raise AssertionError("the csv path read a plain file")

        monkeypatch.setattr(market_data.csv, "reader", no_csv)
        assert list(read_ticker_csv(path)) == [
            AssetBar(date(2020, 1, 6), 100.5, 1000.0), AssetBar(date(2020, 1, 7), 101.0, -0.0)
        ]
        assert len(read_ticker_csv(tmp_csv_dir / "Y.csv")) == 3

    @pytest.mark.parametrize(
        "text", [f"{HEADER}\n", HEADER, f"{HEADER}\r\n\r\n", f"{HEADER}\n\n\n"],
        ids=["lf", "no-newline", "crlf-blank", "blank-lines"],
    )
    def test_header_only_file_warns_nothing(self, tmp_csv_dir, text):
        # numpy's loadtxt warns "input contained no data" on an empty input.
        path = tmp_csv_dir / "X.csv"
        path.write_text(text, newline="")
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            with pytest.raises(IngestionError, match=r"X\.csv:2: no data rows$"):
                read_ticker_csv(path)
        assert seen == []


class TestSharedCalendar:
    def test_one_date_object_per_distinct_date_string(self, tmp_csv_dir):
        days = weekdays(date(2020, 1, 6), 30)
        calendars = [days[:20], days[5:25], days[10:] + weekdays(date(2021, 1, 4), 3), days[::2]]
        for k, cal in enumerate(calendars):
            write_ticker_csv(tmp_csv_dir / f"T{k}.csv", flat_bars(cal, 100.0 + k))
        series = load_series(tmp_csv_dir)
        parsed = [d for bars in series.values() for d in bars.days]
        assert len(parsed) == sum(map(len, calendars))
        assert len({id(d) for d in parsed}) == len({d.isoformat() for d in parsed}) == 33
        for k, cal in enumerate(calendars):
            assert series[f"T{k}"].days == tuple(cal)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("2020-02-30", "bad date '2020-02-30': day is out of range for month"),
            ("2020-01-06", "dates not strictly increasing at 2020-01-06"),
        ],
        ids=["bad-date", "repeated-known-date"],
    )
    def test_fault_in_a_later_file_keeps_its_location(self, tmp_csv_dir, line, message):
        # A.csv fills the calendar first; B.csv's fault must still be named by B's own line.
        days = weekdays(date(2020, 1, 6), 5)
        write_ticker_csv(tmp_csv_dir / "A.csv", flat_bars(days))
        lines = [HEADER, GOOD, row(), row(day=line), row(day="2020-01-09")]
        bad = tmp_csv_dir / "B.csv"
        bad.write_text("".join(text + "\n" for text in lines))
        with pytest.raises(IngestionError) as alone:
            read_ticker_csv(bad)
        with pytest.raises(IngestionError) as err:
            load_series(tmp_csv_dir)
        assert str(err.value) == str(alone.value) == f"{bad}:4: {message}"
        assert (err.value.path, err.value.line) == (str(bad), 4)


@st.composite
def calendars(draw):
    """Per-ticker day offsets, unsorted, with repeats, as one ticker's bars would never be."""
    n = draw(st.integers(1, 5))
    return [draw(st.lists(st.integers(0, 12), min_size=1, max_size=15)) for _ in range(n)]


def reference_align(series):
    """set.intersection of every ticker's dates; each cell from its ticker's last bar on that date."""
    tickers = sorted(series)
    common = sorted(set.intersection(*(set(series[t].days) for t in tickers)))
    last = [{d: i for i, d in enumerate(series[t].days)} for t in tickers]
    pick = [[series[t].values[:, last[j][d]] for j, t in enumerate(tickers)] for d in common]
    return common, np.array(pick)


class TestAlignSeries:
    @given(calendars())
    @example([[0, 1, 0], [1, 0]])  # a repeated date takes its ticker's last bar
    @settings(deadline=None, max_examples=300)
    def test_matches_set_intersection(self, offsets):
        series = {}
        for k, days in enumerate(offsets):
            # Every ticker builds its own date objects; every cell is distinct.
            cells = 1000.0 * k + np.arange(len(days), dtype=float) + 1.0
            values = np.stack((cells, cells + 0.5))  # adj_close, volume
            values.setflags(write=False)
            series[f"T{k}"] = TickerBars(tuple(date(2020, 1, 1) + timedelta(days=i) for i in days), values)
        common, pick = reference_align(series)
        if not common:
            with pytest.raises(UniverseError, match="empty date intersection"):
                align_series(series)
            return
        frame = align_series(series)
        assert frame.dates == tuple(common)
        assert frame.adj_close.tobytes() == np.ascontiguousarray(pick[:, :, 0]).tobytes()
        assert frame.volume.tobytes() == np.ascontiguousarray(pick[:, :, 1]).tobytes()

    def test_peak_memory_stays_near_the_two_panels(self, tmp_csv_dir):
        # Besides the two panels, only one ticker's date set and row index and
        # the frame's checks may be alive at once. All 40 date sets, or a copy
        # of the panels, would each exceed the 1.5x bound.
        days = weekdays(date(2015, 1, 5), 600)
        rng = np.random.default_rng(3)
        for k in range(40):
            kept = [d for d in days if rng.random() > 0.002]
            write_ticker_csv(tmp_csv_dir / f"T{k:02d}.csv", flat_bars(kept, 100.0 + k))
        series = load_series(tmp_csv_dir)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            frame = align_series(series)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        panels = frame.adj_close.nbytes + frame.volume.nbytes
        assert frame.n_assets == 40 and frame.n_dates > 500
        assert peak < 1.5 * panels


class TestReturns:
    def test_up_move(self):
        frame = make_frame(np.array([[100.0], [110.0]]))
        panel = compute_returns(frame)
        assert panel.simple_returns[0, 0] == pytest.approx(0.10, abs=1e-12)

    def test_down_move(self):
        frame = make_frame(np.array([[100.0], [50.0]]))
        panel = compute_returns(frame)
        assert panel.simple_returns[0, 0] == pytest.approx(-0.5, abs=1e-12)

    def test_constant_prices(self):
        frame = make_frame(np.full((5, 3), 42.0))
        panel = compute_returns(frame)
        assert np.all(panel.simple_returns == 0.0)

    def test_needs_two_dates(self):
        frame = make_frame(np.array([[100.0]]))
        with pytest.raises(ValueError):
            compute_returns(frame)

    def test_dates_drop_first(self):
        frame = make_frame(np.full((4, 2), 10.0))
        panel = compute_returns(frame)
        assert panel.dates == frame.dates[1:]

    def test_panel_is_one_read_only_array_with_the_out_of_place_bits(self):
        frame = make_frame(np.exp(np.random.default_rng(3).normal(0.0, 0.02, (60, 4)).cumsum(axis=0)))
        returns = compute_returns(frame).simple_returns
        assert returns.flags.owndata and not returns.flags.writeable
        assert returns.tobytes() == (frame.adj_close[1:] / frame.adj_close[:-1] - 1.0).tobytes()

    @given(
        st.lists(st.floats(min_value=0.1, max_value=1000.0), min_size=2, max_size=40),
    )
    @settings(deadline=None, max_examples=50)
    def test_simple_returns_above_minus_one(self, prices):
        frame = make_frame(np.array(prices)[:, None])
        panel = compute_returns(frame)
        np.testing.assert_allclose(
            (1.0 + panel.simple_returns[:, 0]) * prices[:-1], prices[1:], rtol=1e-12
        )
        assert np.all(panel.simple_returns > -1.0)


class TestSynthetic:
    def test_determinism(self):
        spec = SyntheticSpec(n_assets=3, n_days=50, seed=11)
        f1, t1, b1 = generate_synthetic(spec)
        f2, t2, b2 = generate_synthetic(spec)
        assert f1.adj_close.tobytes() == f2.adj_close.tobytes()
        assert f1.volume.tobytes() == f2.volume.tobytes()
        assert t1.features.tobytes() == t2.features.tobytes()
        assert np.array_equal(b1, b2)

    def test_different_seeds_differ(self):
        f1, _, _ = generate_synthetic(SyntheticSpec(n_assets=3, n_days=50, seed=1))
        f2, _, _ = generate_synthetic(SyntheticSpec(n_assets=3, n_days=50, seed=2))
        assert f1.adj_close.tobytes() != f2.adj_close.tobytes()

    def test_noiseless_limit_recovers_beta(self):
        beta = (0.02, -0.01, 0.005)
        spec = SyntheticSpec(
            n_assets=4, n_days=400, seed=5, signal_coefficients=beta, noise_scale=1e-12
        )
        frame, tensor, beta_out = generate_synthetic(spec)
        rets = compute_returns(frame).simple_returns
        x = tensor.features[:-1].reshape(-1, 3)
        y = rets.reshape(-1)
        fit, *_ = np.linalg.lstsq(x, y, rcond=None)
        np.testing.assert_allclose(fit, beta, atol=1e-6)
        np.testing.assert_allclose(beta_out, beta)

    def test_planted_relation(self):
        spec = SyntheticSpec(n_assets=2, n_days=60, seed=9, noise_scale=1e-14)
        frame, tensor, beta = generate_synthetic(spec)
        rets = compute_returns(frame).simple_returns
        np.testing.assert_allclose(rets, tensor.features[:-1] @ beta, atol=1e-10)

    def test_regime_break_doubles_volatility(self):
        k = 1200
        spec = SyntheticSpec(
            n_assets=2,
            n_days=2400,
            seed=3,
            signal_coefficients=(0.0,),
            noise_scale=0.01,
            regime_breaks=((k, 2.0),),
        )
        frame, _, _ = generate_synthetic(spec)
        rets = compute_returns(frame).simple_returns
        before = rets[: k - 1].std()
        after = rets[k - 1 :].std()
        assert after / before == pytest.approx(2.0, rel=0.10)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n_assets=2, n_days=10, seed=0, noise_scale=0.0)
        with pytest.raises(ValueError):
            SyntheticSpec(n_assets=2, n_days=10, seed=0, regime_breaks=((20, 2.0),))


class TestMarketFrame:
    def test_rejects_nonpositive_prices(self):
        with pytest.raises(ValueError):
            make_frame(np.array([[1.0], [-2.0]]))

    def test_usability_gate(self):
        small = make_frame(np.full((10, 2), 10.0))
        with pytest.raises(UniverseError):
            small.check_usable()

    def test_writable_input_is_copied(self):
        for kept_by in ADOPTERS:
            prices = np.full((4, 2), 10.0)
            kept = kept_by(prices)
            prices[0, 0] = 7.0
            for a in kept:
                assert a[0, 0] == 10.0
                assert not a.flags.writeable and not np.shares_memory(a, prices)

    def test_read_only_view_of_writable_array_is_copied(self):
        base = np.full((6, 2), 10.0)
        view = base[1:5]
        view.setflags(write=False)
        frame = make_frame(view)
        assert not np.shares_memory(frame.adj_close, base)
        base[1, 0] = 7.0
        assert frame.adj_close[0, 0] == 10.0

    def test_read_only_owner_is_adopted(self):
        for kept_by in ADOPTERS:
            prices = np.full((4, 2), 10.0)
            prices.setflags(write=False)
            assert all(a is prices for a in kept_by(prices))

    def test_row_window_of_a_frame_is_adopted(self):
        whole = make_frame(np.arange(1.0, 17.0).reshape(8, 2))
        window = MarketFrame(whole.dates[2:5], whole.tickers, whole.adj_close[2:5], whole.volume[2:5])
        assert np.shares_memory(window.adj_close, whole.adj_close)
        assert np.shares_memory(window.volume, whole.volume)
        assert not window.adj_close.flags.writeable
