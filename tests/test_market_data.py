from __future__ import annotations

import csv
import datetime as dt
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from predfolio import market_data
from predfolio.errors import AlignmentError, InsufficientDataError, ParseError
from predfolio.market_data import WEEKDAYS, align_universe, compute_returns, load_prices

from conftest import make_return_series, weekly_dates
from oracles import align_universe_sets, load_prices_rowwise

MON1 = dt.date(2024, 1, 1)   # a Monday
MON2 = dt.date(2024, 1, 8)
MON3 = dt.date(2024, 1, 15)


def write_rows(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "asset", "close"])
        writer.writerows(rows)
    return path


def ordinals(*dates):
    return [d.toordinal() for d in dates]


def test_load_prices_passes_monday_closes_through(tmp_path):
    path = write_rows(
        tmp_path / "p.csv",
        [
            (MON1.isoformat(), "AAA", 100),
            (MON2.isoformat(), "AAA", 110),
            (MON3.isoformat(), "AAA", 99),
        ],
    )
    table = load_prices(path, "monday")
    dates, closes = table.series["AAA"]
    assert closes.tolist() == [100.0, 110.0, 99.0]
    assert dates.tolist() == ordinals(MON1, MON2, MON3)
    assert table.excluded == []


def test_load_prices_falls_back_to_prior_trading_day(tmp_path):
    friday_before_mon2 = MON2 - dt.timedelta(days=3)
    path = write_rows(
        tmp_path / "p.csv",
        [
            (MON1.isoformat(), "AAA", 100),
            (friday_before_mon2.isoformat(), "AAA", 105),  # Monday missing that week
            (MON3.isoformat(), "AAA", 99),
        ],
    )
    dates, closes = load_prices(path, "monday").series["AAA"]
    assert dates.tolist() == ordinals(MON1, MON2, MON3)
    assert closes[1] == 105.0


def test_load_prices_non_numeric_close_names_the_row(tmp_path):
    path = write_rows(
        tmp_path / "p.csv",
        [
            (MON1.isoformat(), "AAA", 100),
            (MON2.isoformat(), "AAA", "oops"),
        ],
    )
    with pytest.raises(ParseError, match="line 3"):
        load_prices(path, "monday")


def test_load_prices_rejects_nonpositive_close(tmp_path):
    path = write_rows(tmp_path / "p.csv", [(MON1.isoformat(), "AAA", -5)])
    with pytest.raises(ParseError, match="^line 2: close must be a positive number, got '-5'$"):
        load_prices(path, "monday")


def write_text(path, text):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)
    return path


@pytest.fixture(params=[1, 2, market_data._CHUNK_ROWS], ids=lambda n: f"chunk{n}")
def chunk_rows(request, monkeypatch):
    """Run the test at a few chunk sizes, so faults fall inside and across chunks."""
    monkeypatch.setattr(market_data, "_CHUNK_ROWS", request.param)
    return request.param


def refusal(path):
    with pytest.raises(ParseError) as info:
        load_prices(path, "monday")
    return info.value.line, str(info.value)


@pytest.mark.parametrize(
    "row, message",
    [
        ("2024-02-30,AAA,101", "bad date '2024-02-30'"),
        ("Jan 8 2024,AAA,101", "bad date 'Jan 8 2024'"),
        ("2024-01-08,  ,101", "empty asset identifier"),
        ("2024-01-08,AAA", "expected 3 fields, got 2"),
        ("2024-01-01,AAA,101", "duplicate row for AAA on 2024-01-01"),
        ("2024-01-08,AAA,oops", "non-numeric close 'oops'"),
        ("2024-01-08,AAA,nan", "close must be a positive number, got 'nan'"),
        ("2024-01-08,AAA, inf", "close must be a positive number, got ' inf'"),
        ("2024-01-08,AAA,-inf", "close must be a positive number, got '-inf'"),
        ("2024-01-08,AAA,0", "close must be a positive number, got '0'"),
    ],
)
def test_load_prices_refusal_names_the_faulty_line(tmp_path, chunk_rows, row, message):
    # header, a valid row and a blank line come first: the fault is on line 4
    text = f"date,asset,close\n2024-01-01,AAA,100\n\n{row}\n2024-01-15,AAA,102\n"
    assert refusal(write_text(tmp_path / "p.csv", text)) == (4, f"line 4: {message}")


def test_load_prices_refuses_a_header_without_the_columns(tmp_path):
    path = write_text(tmp_path / "p.csv", "date,ticker,close\n2024-01-01,AAA,100\n")
    line, message = refusal(path)
    assert line == 1 and message.startswith("line 1: header must contain date,asset,close")


def test_load_prices_refuses_an_empty_file(tmp_path):
    assert refusal(write_text(tmp_path / "p.csv", "")) == (1, "line 1: empty price file")


def test_load_prices_refuses_a_header_with_no_rows(tmp_path):
    for text in ("date,asset,close\n", "date,asset,close\n\n  \n,,\n"):
        assert refusal(write_text(tmp_path / "p.csv", text)) == (
            None, "price file contains no data rows"
        )


def test_load_prices_reads_any_column_order_and_case(tmp_path):
    text = "Close , ASSET,Note,Date\n100,AAA,x, 2024-01-01\n 110 , AAA ,,2024-01-08\n"
    dates, closes = load_prices(write_text(tmp_path / "p.csv", text), "monday").series["AAA"]
    assert (dates.tolist(), closes.tolist()) == (ordinals(MON1, MON2), [100.0, 110.0])


def test_load_prices_names_the_earlier_of_a_duplicate_and_a_bad_close(tmp_path, chunk_rows):
    valid = "date,asset,close\n2024-01-01,AAA,100\n2024-01-08,AAA,101\n"
    duplicate, bad_close = "2024-01-01,AAA,102\n", "2024-01-15,AAA,x\n"
    path = write_text(tmp_path / "p.csv", valid + duplicate + bad_close)
    assert refusal(path) == (4, "line 4: duplicate row for AAA on 2024-01-01")
    path = write_text(tmp_path / "p.csv", valid + bad_close + duplicate)
    assert refusal(path) == (4, "line 4: non-numeric close 'x'")


def test_load_prices_names_the_first_repeat_in_file_order(tmp_path, chunk_rows):
    # AAA's repeat sorts first by asset, but BBB's comes first in the file
    text = "date,asset,close\n2024-01-01,AAA,1\n2024-01-01,BBB,2\n2024-01-01,BBB,3\n2024-01-01,AAA,4\n"
    assert refusal(write_text(tmp_path / "p.csv", text)) == (
        4, "line 4: duplicate row for BBB on 2024-01-01"
    )


def test_load_prices_counts_lines_inside_quoted_fields(tmp_path, chunk_rows):
    # the first record spans lines 2-3, so the bad close sits on line 4
    path = write_text(tmp_path / "p.csv", 'date,asset,close\n2024-01-01,"A\nB",1\n2024-01-01,C,x\n')
    assert refusal(path) == (4, "line 4: non-numeric close 'x'")
    with pytest.raises(ParseError, match="^line 4: non-numeric close 'x'$"):
        load_prices_rowwise(path, 0)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_load_prices_names_the_line_of_a_byte_that_is_not_utf8(tmp_path, chunk_rows, newline):
    # asset names hold a two-byte character; the bad byte is far past the
    # reader's first block of text, on the line of row 855
    rows = [f"{(MON1 + dt.timedelta(days=i)).isoformat()},\u00c5{i},{100 + i}" for i in range(900)]
    rows[855] = rows[855][:-1] + "\udcc3"
    data = newline.join(["date,asset,close"] + rows + [""]).encode(errors="surrogateescape")
    path = tmp_path / "p.csv"
    path.write_bytes(data)
    assert refusal(path) == (857, "line 857: not UTF-8 text (byte 0xc3)")


def test_load_prices_excludes_asset_outside_window(tmp_path):
    # CCC first trades after the last Monday on the grid, so no week samples it
    path = write_rows(
        tmp_path / "p.csv",
        [
            (MON2.isoformat(), "AAA", 100),
            (MON3.isoformat(), "AAA", 101),
            ((MON3 + dt.timedelta(days=3)).isoformat(), "CCC", 50),
        ],
    )
    table = load_prices(path, "monday")
    assert table.excluded == ["CCC"]
    assert "CCC" not in table.series


def test_load_prices_samples_asset_trading_before_every_other(tmp_path):
    # CCC stopped trading weeks before AAA starts, and is listed after it:
    # the grid starts at CCC's first observation, so its last close is sampled
    path = write_rows(
        tmp_path / "p.csv",
        [
            (MON2.isoformat(), "AAA", 100),
            (MON3.isoformat(), "AAA", 101),
            ((MON1 - dt.timedelta(days=30)).isoformat(), "CCC", 50),
        ],
    )
    table = load_prices(path, "monday")
    assert table.excluded == []
    dates, closes = table.series["CCC"]
    assert (dates.tolist(), closes.tolist()) == (ordinals(dt.date(2023, 12, 4)), [50.0])
    assert table.series["AAA"][0].tolist() == ordinals(MON2, MON3)


def ingest(path, min_length=None):
    """The ``ingest`` stage's sampling, returns and alignment, as kept
    returns by asset, the common date ordinals and the dropped assets."""
    table = load_prices(path, "monday")
    dropped = {(a, "no sampled weeks") for a in table.excluded}
    series = []
    for asset, (dates, closes) in table.series.items():
        if len(dates) < 2:
            dropped.add((asset, "fewer than 2 sampled weeks"))
        else:
            series.append(compute_returns(asset, dates, closes))
    matrix, report = align_universe(series, min_length)
    kept = {a: matrix[:, j].tolist() for j, a in enumerate(report.kept)}
    return kept, report.dates.tolist(), dropped | set(report.dropped)


def daily_rows(asset, first, n_days, skip=(), close=100.0):
    return [
        ((first + dt.timedelta(days=i)).isoformat(), asset, close + i)
        for i in range(n_days)
        if i not in skip
    ]


def test_load_prices_grid_starts_at_earliest_observation_of_any_asset(tmp_path):
    a_rows = daily_rows("A", dt.date(2024, 1, 17), 20)  # starts on a Wednesday
    b_rows = daily_rows("B", MON1, 80)
    for rows in (a_rows + b_rows, b_rows + a_rows):
        kept, dates, dropped = ingest(write_rows(tmp_path / "p.csv", rows), min_length=5)
        assert list(kept) == ["B"]
        assert len(dates) == 11 and dates[0] == MON2.toordinal()
        assert {asset for asset, _ in dropped} == {"A"}


@st.composite
def price_blocks(draw):
    n_assets = draw(st.integers(2, 4))
    blocks = []
    for i in range(n_assets):
        first = MON1 + dt.timedelta(days=draw(st.integers(0, 40)))
        n_days = draw(st.integers(1, 60))
        skip = draw(st.sets(st.integers(0, n_days - 1), max_size=n_days // 3))
        blocks.append(daily_rows(f"S{i}", first, n_days, skip, close=50.0 + 10 * i))
    order = draw(st.permutations(range(n_assets)))
    return blocks, order, draw(st.sampled_from([None, 1, 3, 5]))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(price_blocks())
def test_ingest_does_not_depend_on_asset_block_order(problem):
    blocks, order, min_length = problem

    def run(ordered):
        with tempfile.TemporaryDirectory() as tmp:
            path = write_rows(Path(tmp) / "p.csv", [row for block in ordered for row in block])
            try:
                return ingest(path, min_length)
            except AlignmentError as exc:
                return str(exc)

    assert run([blocks[i] for i in order]) == run(blocks)


NOTES = ["", "x", '"a,b"', '"two\nlines"', '"three\r\nline\nnote"']


@st.composite
def price_files(draw, faults=False):
    """A price file as text, built from asset blocks of daily rows (weekends
    included) with gaps, a stale tail where a block stops early, and an
    optional late block after every other one that may yield no sampled
    week; the rows are shuffled, blank and whitespace-only lines are
    mixed in, and the header lists its columns in any order and case.
    With ``faults``, one to three rows are made faulty or repeated.
    """
    records = []
    n_assets = draw(st.integers(1, 4))
    last = MON1
    for i in range(n_assets):
        first = MON1 + dt.timedelta(days=draw(st.integers(0, 40)))
        n_days = draw(st.integers(1, 50))
        skip = draw(st.sets(st.integers(0, n_days - 1), max_size=n_days // 2))
        for day in range(n_days):
            if day not in skip:
                date = first + dt.timedelta(days=day)
                records.append([date.isoformat(), f"S{i}", repr(50.0 + 10 * i + day / 8)])
                last = max(last, date)
    if draw(st.booleans()):
        first = last + dt.timedelta(days=draw(st.integers(1, 6)))
        for day in range(draw(st.integers(1, 3))):
            records.append([(first + dt.timedelta(days=day)).isoformat(), "LATE", "7.25"])
    rnd = draw(st.randoms(use_true_random=False))
    for record in records:
        record[0] = rnd.choice(["{}", " {} "]).format(record[0])
        record[1] = rnd.choice(["{}", " {}", '"{}"']).format(record[1])
        record[2] = rnd.choice(["{}", " {} ", "{}e0"]).format(record[2])
        record.append(rnd.choice(NOTES))

    if faults:
        n_records = len(records)
        for at in draw(st.lists(st.integers(0, n_records - 1), min_size=1, max_size=3, unique=True)):
            bad = list(records[at])
            kind = draw(st.sampled_from(["date", "asset", "short", "text", "value", "repeat"]))
            if kind == "date":
                bad[0] = draw(st.sampled_from(["2024-02-30", "x", "", "2024/01/01"]))
            elif kind == "asset":
                bad[1] = draw(st.sampled_from(["", "  "]))
            elif kind == "short":
                bad = bad[: draw(st.integers(1, 2))]
            elif kind == "text":
                bad[2] = draw(st.sampled_from(["oops", '"1,5"', ""]))
            elif kind == "value":
                bad[2] = draw(st.sampled_from(["nan", "NaN", "inf", "-inf", "0", "-3.5", "0e0"]))
            if kind == "repeat":
                records.append(bad)
            else:
                records[at] = bad

    order = draw(st.permutations(["date", "asset", "close", "note"]))
    columns = [order.index(name) for name in ("date", "asset", "close", "note")]
    header = [name.upper() if draw(st.booleans()) else name for name in order]
    lines = [",".join(header)]
    rnd.shuffle(records)
    for record in records:
        fields = [""] * 4
        for column, text in zip(columns, record):
            fields[column] = text
        lines.append(",".join(fields[: max(columns[: len(record)]) + 1]))
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(1, len(lines)))
        lines.insert(at, draw(st.sampled_from(["", "   ", ",,", " , ,\t", "\t"])))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + newline, draw(st.integers(0, 6)), draw(st.sampled_from([1, 3, 16, 4096]))


def table_items(table):
    """A price table as plain values that compare with ``==``: per asset in
    table order, its name and the dtype and values of each array, and the
    excluded assets."""
    return {
        "series": [
            (asset, dates.dtype.str, dates.tolist(), closes.dtype.str, closes.tolist())
            for asset, (dates, closes) in table.series.items()
        ],
        "excluded": table.excluded,
    }


def load_outcome(load, path, weekday):
    try:
        return table_items(load(path, weekday))
    except ParseError as exc:
        return exc.line, str(exc)


def assert_matches_rowwise_oracle(case):
    text, weekday, chunk = case
    with tempfile.TemporaryDirectory() as tmp:
        path = write_text(Path(tmp) / "p.csv", text)
        with mock.patch.object(market_data, "_CHUNK_ROWS", chunk):
            outcome = load_outcome(load_prices, path, list(WEEKDAYS)[weekday])
        assert outcome == load_outcome(load_prices_rowwise, path, weekday)
    return outcome


@settings(max_examples=150, deadline=None, derandomize=True)
@given(price_files())
def test_load_prices_matches_rowwise_oracle_on_valid_files(case):
    assert isinstance(assert_matches_rowwise_oracle(case), dict)


@settings(max_examples=250, deadline=None, derandomize=True)
@given(price_files(faults=True))
def test_load_prices_refuses_like_rowwise_oracle_on_faulty_files(case):
    line, message = assert_matches_rowwise_oracle(case)
    assert message.startswith(f"line {line}: ")


def test_forward_fill_never_fabricates_a_price(tmp_path, rng):
    rows = []
    observed = {}
    day = dt.date(2024, 1, 2)  # a Tuesday: Mondays often missing
    for asset in ("AAA", "BBB"):
        observed[asset] = set()
        for i in range(40):
            if rng.random() < 0.6:
                date = day + dt.timedelta(days=int(rng.integers(0, 5)) + 7 * i)
                close = float(np.round(rng.uniform(10, 200), 4))
                rows.append((date.isoformat(), asset, close))
                observed[asset].add(close)
    write_rows(tmp_path / "p.csv", rows)
    table = load_prices(tmp_path / "p.csv", "monday")
    for asset, (_, closes) in table.series.items():
        for close in closes.tolist():
            assert close in observed[asset]


def weekly_closes(closes, start=MON1):
    """Week ordinals from ``start`` and the closes as arrays, one asset's
    entry of a price table."""
    return np.array(ordinals(*weekly_dates(start, len(closes)))), np.asarray(closes, dtype=float)


def test_compute_returns_definitional_cases():
    def series(closes):
        return compute_returns("AAA", *weekly_closes(closes))

    np.testing.assert_allclose(series([100, 110]).returns, [0.10])
    np.testing.assert_allclose(series([100, 100, 100]).returns, [0.0, 0.0])
    np.testing.assert_allclose(series([100, 90, 99]).returns, [-0.10, 0.10])
    assert series([100, 90, 99]).dates.tolist() == ordinals(MON2, MON3)


def test_compute_returns_needs_two_points():
    with pytest.raises(InsufficientDataError):
        compute_returns("AAA", *weekly_closes([100.0]))


def test_returns_round_trip_through_prices(rng):
    returns = rng.uniform(-0.2, 0.3, size=60)
    closes = 100.0 * np.concatenate([[1.0], np.cumprod(1.0 + returns)])
    rebuilt = compute_returns("AAA", *weekly_closes(closes)).returns
    np.testing.assert_allclose(rebuilt, returns, rtol=1e-12)


def test_align_universe_identity_case():
    a = make_return_series("AAA", [0.1, 0.2, -0.1])
    b = make_return_series("BBB", [0.0, 0.05, 0.02])
    matrix, report = align_universe([a, b])
    assert report.kept == ["AAA", "BBB"]
    assert report.dates.tolist() == a.dates.tolist()
    np.testing.assert_array_equal(matrix, np.column_stack([a.returns, b.returns]))
    assert report.dropped == []


def test_align_universe_drops_short_series_and_reports():
    a = make_return_series("AAA", np.zeros(221))
    b = make_return_series("BBB", np.zeros(100))
    matrix, report = align_universe([a, b], min_length=180)
    assert report.kept == ["AAA"] and matrix.shape == (221, 1)
    assert [asset for asset, _ in report.dropped] == ["BBB"]
    assert "BBB" in report.as_text()


def test_align_universe_all_below_min_length_errors():
    a = make_return_series("AAA", np.zeros(10))
    b = make_return_series("BBB", np.zeros(12))
    with pytest.raises(AlignmentError):
        align_universe([a, b], min_length=50)


def test_align_universe_no_overlap_errors():
    a = make_return_series("AAA", np.zeros(5), start=dt.date(2024, 1, 8))
    b = make_return_series("BBB", np.zeros(5), start=dt.date(2030, 1, 7))
    with pytest.raises(AlignmentError):
        align_universe([a, b])


def test_align_universe_permutation_invariant(rng):
    series = [
        make_return_series(f"S{i}", rng.normal(size=30), start=dt.date(2024, 1, 8))
        for i in range(4)
    ]
    forward, forward_report = align_universe(series)
    backward, backward_report = align_universe(series[::-1])
    assert forward_report.kept == backward_report.kept[::-1]
    assert forward_report.dates.tolist() == backward_report.dates.tolist()
    np.testing.assert_array_equal(forward, backward[:, ::-1])


def test_align_universe_truncates_to_common_window():
    long = make_return_series("AAA", np.arange(10, dtype=float), start=MON1)
    short = make_return_series("BBB", np.arange(6, dtype=float), start=MON3)
    matrix, report = align_universe([long, short])
    assert len(report.dates) == 6
    np.testing.assert_array_equal(matrix[:, 0], np.arange(2, 8, dtype=float))
    assert report.as_text() == "kept 2 assets over 6 weeks (2024-01-15 .. 2024-02-19)\n"


@st.composite
def return_series_lists(draw):
    """Up to five return series on a weekly grid, each with its own first
    and last week and gaps inside, and a ``min_length``."""
    series = []
    for i in range(draw(st.integers(0, 5))):
        first = draw(st.integers(0, 6))
        n_weeks = draw(st.integers(1, 30))
        skip = draw(st.sets(st.integers(0, n_weeks - 1), max_size=n_weeks // 4))
        weeks = [MON1.toordinal() + 7 * (first + w) for w in range(n_weeks) if w not in skip]
        returns = draw(st.lists(
            st.floats(-0.5, 0.5, allow_nan=False), min_size=len(weeks), max_size=len(weeks)
        ))
        series.append(market_data.ReturnSeries(
            asset=f"S{i}", returns=np.array(returns), dates=np.array(weeks, dtype=np.int64)
        ))
    return series, draw(st.sampled_from([None, 1, 3, 5]))


def alignment_outcome(align, series, min_length):
    try:
        matrix, report = align(series, min_length)
    except AlignmentError as exc:
        return str(exc)
    assert matrix.shape == (len(report.dates), len(report.kept)) and matrix.dtype == np.float64
    return matrix.tolist(), report.kept, report.dates.tolist(), report.dropped, report.as_text()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(return_series_lists())
def test_align_universe_matches_set_oracle(problem):
    series, min_length = problem
    assert alignment_outcome(align_universe, series, min_length) == alignment_outcome(
        align_universe_sets, series, min_length
    )
