"""Price ingestion, weekly sampling, and return-series alignment.

Input files are delimited text with a ``date,asset,close`` header, ISO-8601
dates, one row per asset-day. Prices are sampled once per week on a
configurable weekday; when the sampling day has no trade for an asset, the
most recent prior trading day's close is carried forward instead. Returns
are weekly simple returns ``(P[t+1] - P[t]) / P[t]``.

Ingest stays in numpy arrays from the parser to the aligned returns
matrix: a date is an int64 proleptic Gregorian ordinal
(``datetime.date.toordinal``), turned back into a ``datetime.date`` only
for text.
"""

from __future__ import annotations

import csv
import datetime as dt
import functools
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import AlignmentError, InsufficientDataError, ParseError, undecodable_line

WEEKDAYS = {
    "monday": 0,
    "tuesday": 1,
    "wednesday": 2,
    "thursday": 3,
    "friday": 4,
    "saturday": 5,
    "sunday": 6,
}

# A sampled week may reach at most this many days back for a close.
_MAX_STALE_DAYS = 6

# Price-file records parsed at a time. This bounds the text held in
# memory, and a chunk's row lists (one container each) are freed before
# they add up to CPython's 700-allocation threshold for a garbage collection.
_CHUNK_ROWS = 512


@dataclass
class ReturnSeries:
    """Weekly simple returns for one asset; ``dates`` holds the ascending
    date ordinal of the week each return ends on."""

    asset: str
    returns: np.ndarray
    dates: np.ndarray

    def __len__(self) -> int:
        return len(self.returns)


@dataclass
class PriceTable:
    """Per asset, the date ordinals of its sampled weeks and their closes
    (two equal-length arrays), plus the assets that yielded no week."""

    series: dict[str, tuple[np.ndarray, np.ndarray]]
    excluded: list[str]


@dataclass
class AlignmentReport:
    """The kept assets (the returns matrix's column order), the dropped
    ones with their reasons, and the common grid of date ordinals."""

    kept: list[str]
    dropped: list[tuple[str, str]]  # (asset, reason)
    dates: np.ndarray

    def as_text(self) -> str:
        first, last = (dt.date.fromordinal(int(day)).isoformat() for day in self.dates[[0, -1]])
        lines = [f"kept {len(self.kept)} assets over {len(self.dates)} weeks ({first} .. {last})"]
        for asset, reason in self.dropped:
            lines.append(f"dropped {asset}: {reason}")
        return "\n".join(lines) + "\n"


def parse_weekday(sampling_weekday: str) -> int:
    """Index (Monday 0) of a weekday given by its case-insensitive name."""
    key = sampling_weekday.strip().lower()
    if key not in WEEKDAYS:
        raise ParseError(f"unknown weekday name: {sampling_weekday!r}")
    return WEEKDAYS[key]


def load_prices(path, sampling_weekday: str) -> PriceTable:
    """Read a daily price file and sample one close per asset per week.

    The file is comma-separated UTF-8 text whose header names ``date``,
    ``asset`` and ``close`` in any column order and any case; other
    columns are ignored. Dates are ISO-8601 (``datetime.date.fromisoformat``)
    and closes are anything ``float`` accepts. Blank and whitespace-only
    lines are skipped. A row with too few fields, a bad date, an empty
    asset, a non-numeric, non-finite or non-positive close, or an asset
    and date already seen is refused with a :class:`ParseError` naming the
    first faulty line in file order (the line a multi-line quoted record
    ends on). A byte that is not UTF-8 is refused, naming its physical
    line, as soon as the reader reaches it; the reader decodes a few
    kilobytes ahead of the rows it parses. The file is read in chunks of
    ``_CHUNK_ROWS`` records, so the parser holds only one chunk of text at
    a time, and its dates and closes are kept as arrays.

    The weekly grid runs on the configured weekday, anchored at the first
    such weekday on or after the earliest observation of any asset, so the
    order of the rows in the file does not change what is sampled. A week
    with no trade on the sampling day takes the most recent prior close;
    sampling stops once an asset's last observation is more than a
    calendar week stale. Each asset's sampled weeks are a slice of that
    grid, given as date ordinals with their closes. Assets with no sampled
    week at all are excluded and reported.
    """
    weekday = parse_weekday(sampling_weekday)
    codes = _AssetCodes()
    # Per chunk: line numbers, date ordinals, asset codes and closes.
    parts = [(np.empty(0, dtype=np.int64),) * 3 + (np.empty(0),)]
    fault = None

    # utf-8-sig: a byte-order mark, as spreadsheet programs write, is dropped
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise ParseError("empty price file", line=1)
            cols = [c.strip().lower() for c in header]
            try:
                columns = cols.index("date"), cols.index("asset"), cols.index("close")
            except ValueError:
                raise ParseError(f"header must contain date,asset,close (got {header})", line=1)
            while fault is None:
                start = reader.line_num
                rows = list(islice(reader, _CHUNK_ROWS))
                if not rows:
                    break
                lines = _record_lines(rows, start, reader.line_num)
                part, fault = _parse_chunk(lines, rows, columns, len(cols), codes)
                parts.append(part)
        except UnicodeDecodeError as exc:
            byte = exc.object[exc.start]
            raise ParseError(f"not UTF-8 text (byte 0x{byte:02x})", line=undecodable_line(path))

    # Every row before a chunk's first fault is valid, so a repeat among
    # them comes first in file order.
    lines, ordinals, asset_codes, closes = map(np.concatenate, zip(*parts))
    order = _sort_refusing_duplicates(lines, ordinals, asset_codes, list(codes))
    if fault is not None:
        raise ParseError(fault[1], line=fault[0])
    if not codes:
        raise ParseError("price file contains no data rows")
    asset_codes, ordinals, closes = asset_codes[order], ordinals[order], closes[order]

    first = int(ordinals.min())
    grid_start = first + (weekday - dt.date.fromordinal(first).weekday()) % 7
    weeks = np.arange(grid_start, int(ordinals.max()) + 1, 7)
    bounds = np.searchsorted(asset_codes, np.arange(len(codes) + 1))

    series: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    excluded: list[str] = []
    for asset, lo, hi in zip(codes, bounds[:-1], bounds[1:]):
        days = ordinals[lo:hi]
        first_week = np.searchsorted(weeks, days[0])
        end_week = np.searchsorted(weeks, days[-1] + _MAX_STALE_DAYS, side="right")
        if first_week >= end_week:
            excluded.append(asset)
            continue
        sampled = weeks[first_week:end_week]
        held = np.searchsorted(days, sampled, side="right") - 1
        series[asset] = sampled, closes[lo:hi][held]
    return PriceTable(series=series, excluded=excluded)


class _AssetCodes(dict):
    """Asset name -> integer code, numbered in order of first appearance."""

    def __missing__(self, asset: str) -> int:
        code = self[asset] = len(self)
        return code


def _record_lines(rows, start: int, end: int) -> np.ndarray:
    """The line each record ends on, as ``reader.line_num`` reads after it,
    given the line numbers before and after the chunk was read."""
    if end - start == len(rows):
        return np.arange(start + 1, end + 1, dtype=np.int64)
    # A record spans one line more per line break kept inside a quoted field.
    spans = [1 + sum(f.count("\n") + f.count("\r") - f.count("\r\n") for f in row) for row in rows]
    return start + np.cumsum(spans, dtype=np.int64)


def _empty(texts: list[str]) -> np.ndarray:
    """The mask of empty strings in ``texts``."""
    if "" not in texts:
        return np.zeros(len(texts), dtype=bool)
    return np.fromiter(map(len, texts), dtype=np.int64, count=len(texts)) == 0


def _parse_each(parse, texts) -> tuple[list, np.ndarray]:
    """``parse`` applied to every text, and the mask of texts where it
    raised ValueError (their values are None)."""
    try:
        return list(map(parse, texts)), np.zeros(len(texts), dtype=bool)
    except ValueError:
        pass
    values = []
    for text in texts:
        try:
            values.append(parse(text))
        except ValueError:
            values.append(None)
    return values, np.array([v is None for v in values], dtype=bool)


def _parse_chunk(lines, rows, columns, n_fields, codes):
    """Parse and validate one chunk of records, dropping blank ones.

    Returns the line numbers, date ordinals, asset codes and closes of the
    rows before the chunk's first faulty row, and that row's ``(line,
    message)``, or ``None`` when every row is valid.
    """
    i_date, i_asset, i_close = columns
    need = max(columns) + 1
    lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    short = lengths < need
    if short.any():
        rows = [row + [""] * (need - len(row)) for row in rows]
    fields = list(zip(*rows))
    raw_dates, raw_assets, raw_closes = fields[i_date], fields[i_asset], fields[i_close]
    dates = list(map(str.strip, raw_dates))

    # A blank record is short or has a blank date: test only those.
    blank = [i for i in np.flatnonzero(short | _empty(dates)).tolist() if not "".join(rows[i]).strip()]
    if blank:
        keep = np.setdiff1d(np.arange(len(rows)), blank).tolist()
        raw_dates, raw_assets, raw_closes, dates = (
            [seq[i] for i in keep] for seq in (raw_dates, raw_assets, raw_closes, dates)
        )
        lines, lengths, short = lines[keep], lengths[keep], short[keep]

    assets = list(map(str.strip, raw_assets))
    parsed_dates, bad_date = _parse_each(dt.date.fromisoformat, dates)
    parsed_closes, bad_close = _parse_each(float, raw_closes)
    closes = np.array(parsed_closes, dtype=np.float64)  # None reads as nan
    no_asset = _empty(assets)
    faulty = short | bad_date | no_asset | ~(np.isfinite(closes) & (closes > 0))
    n = int(faulty.argmax()) if faulty.any() else len(faulty)

    part = (
        lines[:n],
        np.fromiter(map(dt.date.toordinal, parsed_dates[:n]), dtype=np.int64, count=n),
        np.fromiter(map(codes.__getitem__, assets[:n]), dtype=np.int64, count=n),
        closes[:n],
    )
    if n == len(faulty):
        return part, None
    if short[n]:
        message = f"expected {n_fields} fields, got {int(lengths[n])}"
    elif bad_date[n]:
        message = f"bad date {raw_dates[n]!r}"
    elif no_asset[n]:
        message = "empty asset identifier"
    elif bad_close[n]:
        message = f"non-numeric close {raw_closes[n]!r}"
    else:
        message = f"close must be a positive number, got {raw_closes[n]!r}"
    return part, (int(lines[n]), message)


def _sort_refusing_duplicates(lines, ordinals, asset_codes, names) -> np.ndarray:
    """The row order by asset code, then date, then file position.

    Raises :class:`ParseError` at the first line, in file order, whose
    asset and date repeat an earlier row's.
    """
    order = np.lexsort((ordinals, asset_codes))
    sorted_codes, sorted_days = asset_codes[order], ordinals[order]
    repeated = order[1:][(sorted_codes[1:] == sorted_codes[:-1]) & (sorted_days[1:] == sorted_days[:-1])]
    if repeated.size:
        row = repeated.min()
        day = dt.date.fromordinal(int(ordinals[row]))
        raise ParseError(
            f"duplicate row for {names[asset_codes[row]]} on {day.isoformat()}", line=int(lines[row])
        )
    return order


def compute_returns(asset: str, dates: np.ndarray, closes: np.ndarray) -> ReturnSeries:
    """Turn one asset's sampled week ordinals and closes into weekly simple
    returns, each dated by the week it ends on."""
    if len(closes) < 2:
        raise InsufficientDataError(
            f"need at least 2 price points to form a return, got {len(closes)}"
        )
    closes = np.asarray(closes, dtype=float)
    if np.any(closes <= 0):
        raise ParseError(f"non-positive close in series for {asset}")
    returns = np.diff(closes) / closes[:-1]
    return ReturnSeries(asset=asset, returns=returns, dates=np.asarray(dates)[1:])


def align_universe(
    series: list[ReturnSeries], min_length: int | None = None
) -> tuple[np.ndarray, AlignmentReport]:
    """Intersect return series onto their common date grid.

    Assets whose own series length falls below ``min_length`` are dropped
    first and reported; the survivors are truncated to the intersection of
    their return dates (``np.intersect1d`` over the ordinal arrays). Returns
    the ``(n_weeks, n_assets)`` returns matrix, one column per kept asset in
    input order, and the report holding those assets and the grid. An empty
    survivor set or empty intersection raises :class:`AlignmentError`.
    """
    if not series:
        raise AlignmentError("no return series supplied")

    dropped: list[tuple[str, str]] = []
    survivors: list[ReturnSeries] = []
    for s in series:
        if min_length is not None and len(s) < min_length:
            dropped.append((s.asset, f"only {len(s)} weeks, below minimum {min_length}"))
        else:
            survivors.append(s)
    if not survivors:
        raise AlignmentError("all series fall below the minimum coverage")

    grid = functools.reduce(np.intersect1d, [s.dates for s in survivors])
    if not grid.size:
        raise AlignmentError("return series share no common dates")
    matrix = np.column_stack([s.returns[np.isin(s.dates, grid)] for s in survivors])
    report = AlignmentReport(kept=[s.asset for s in survivors], dropped=dropped, dates=grid)
    return matrix, report
