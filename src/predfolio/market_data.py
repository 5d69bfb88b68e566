"""Price ingestion, weekly sampling, and return-series alignment.

Input files are delimited text with a ``date,asset,close`` header, ISO-8601
dates, one row per asset-day. Prices are sampled once per week on a
configurable weekday; when the sampling day has no trade for an asset, the
most recent prior trading day's close is carried forward instead. Returns
are weekly simple returns ``(P[t+1] - P[t]) / P[t]``.
"""

from __future__ import annotations

import csv
import datetime as dt
from dataclasses import dataclass
from itertools import islice, repeat

import numpy as np

from .errors import AlignmentError, InsufficientDataError, ParseError

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


@dataclass(frozen=True)
class PricePoint:
    date: dt.date
    asset: str
    close: float


@dataclass
class ReturnSeries:
    """Time-ordered weekly simple returns for one asset."""

    asset: str
    returns: np.ndarray
    dates: tuple[dt.date, ...]

    def __len__(self) -> int:
        return len(self.returns)


@dataclass
class AssetUniverse:
    """Aligned return series over a shared weekly date grid."""

    assets: list[str]
    series: dict[str, ReturnSeries]
    dates: tuple[dt.date, ...]

    @property
    def n_assets(self) -> int:
        return len(self.assets)

    @property
    def n_weeks(self) -> int:
        return len(self.dates)

    def returns_matrix(self) -> np.ndarray:
        """Stack returns as an (n_weeks, n_assets) array, column order = assets."""
        return np.column_stack([self.series[a].returns for a in self.assets])


@dataclass
class PriceTable:
    """Weekly-sampled price points per asset, plus assets that yielded none."""

    points: dict[str, list[PricePoint]]
    excluded: list[str]


@dataclass
class AlignmentReport:
    kept: list[str]
    dropped: list[tuple[str, str]]  # (asset, reason)
    n_weeks: int
    window: tuple[dt.date, dt.date] | None

    def as_text(self) -> str:
        lines = [f"kept {len(self.kept)} assets over {self.n_weeks} weeks"]
        if self.window is not None:
            lines[0] += f" ({self.window[0].isoformat()} .. {self.window[1].isoformat()})"
        for asset, reason in self.dropped:
            lines.append(f"dropped {asset}: {reason}")
        return "\n".join(lines) + "\n"


def _parse_weekday(sampling_weekday: str | int) -> int:
    if isinstance(sampling_weekday, int):
        if not 0 <= sampling_weekday <= 6:
            raise ParseError(f"weekday index out of range: {sampling_weekday}")
        return sampling_weekday
    key = sampling_weekday.strip().lower()
    if key not in WEEKDAYS:
        raise ParseError(f"unknown weekday name: {sampling_weekday!r}")
    return WEEKDAYS[key]


def load_prices(path, sampling_weekday: str | int = "monday") -> PriceTable:
    """Read a daily price file and sample one close per asset per week.

    The file is comma-separated text whose header names ``date``,
    ``asset`` and ``close`` in any column order and any case; other
    columns are ignored. Dates are ISO-8601 (``datetime.date.fromisoformat``)
    and closes are anything ``float`` accepts. Blank and whitespace-only
    lines are skipped. A row with too few fields, a bad date, an empty
    asset, a non-numeric, non-finite or non-positive close, or an asset
    and date already seen is refused with a :class:`ParseError` naming the
    first faulty line in file order (the line a multi-line quoted record
    ends on). The file is read in chunks of ``_CHUNK_ROWS`` records, so
    the parser holds only one chunk of text at a time.

    The weekly grid runs on the configured weekday, anchored at the first
    such weekday on or after the earliest observation of any asset, so the
    order of the rows in the file does not change what is sampled. A week
    with no trade on the sampling day takes the most recent prior close;
    sampling stops once an asset's last observation is more than a
    calendar week stale. Assets with no sampled week at all are excluded
    and reported.
    """
    weekday = _parse_weekday(sampling_weekday)
    codes = _AssetCodes()
    # Per chunk: line numbers, date ordinals, asset codes and closes.
    parts = [(np.empty(0, dtype=np.int64),) * 3 + (np.empty(0),)]
    fault = None

    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
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
    week_dates = list(map(dt.date.fromordinal, weeks.tolist()))
    bounds = np.searchsorted(asset_codes, np.arange(len(codes) + 1))

    points: dict[str, list[PricePoint]] = {}
    excluded: list[str] = []
    for asset, lo, hi in zip(codes, bounds[:-1], bounds[1:]):
        days = ordinals[lo:hi]
        first_week = np.searchsorted(weeks, days[0])
        end_week = np.searchsorted(weeks, days[-1] + _MAX_STALE_DAYS, side="right")
        if first_week >= end_week:
            excluded.append(asset)
            continue
        held = np.searchsorted(days, weeks[first_week:end_week], side="right") - 1
        points[asset] = list(map(
            PricePoint,
            week_dates[first_week:end_week],
            repeat(asset, end_week - first_week),
            closes[lo:hi][held].tolist(),
        ))
    return PriceTable(points=points, excluded=excluded)


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


def compute_returns(prices: list[PricePoint]) -> ReturnSeries:
    """Turn ordered price points into weekly simple returns."""
    if len(prices) < 2:
        raise InsufficientDataError(
            f"need at least 2 price points to form a return, got {len(prices)}"
        )
    closes = np.array([p.close for p in prices], dtype=float)
    if np.any(closes <= 0):
        raise ParseError(f"non-positive close in series for {prices[0].asset}")
    returns = np.diff(closes) / closes[:-1]
    return ReturnSeries(
        asset=prices[0].asset,
        returns=returns,
        dates=tuple(p.date for p in prices[1:]),
    )


def align_universe(
    series: list[ReturnSeries], min_length: int | None = None
) -> tuple[AssetUniverse, AlignmentReport]:
    """Intersect return series onto their common date grid.

    Assets whose own series length falls below ``min_length`` are dropped
    first and reported; the survivors are truncated to the intersection of
    their return dates. An empty survivor set or empty intersection raises
    :class:`AlignmentError`.
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

    common = set(survivors[0].dates)
    for s in survivors[1:]:
        common &= set(s.dates)
    if not common:
        raise AlignmentError("return series share no common dates")
    grid = tuple(sorted(common))

    aligned: dict[str, ReturnSeries] = {}
    assets: list[str] = []
    for s in survivors:
        keep = [i for i, d in enumerate(s.dates) if d in common]
        aligned[s.asset] = ReturnSeries(
            asset=s.asset,
            returns=np.asarray(s.returns, dtype=float)[keep],
            dates=grid,
        )
        assets.append(s.asset)

    universe = AssetUniverse(assets=assets, series=aligned, dates=grid)
    report = AlignmentReport(
        kept=assets,
        dropped=dropped,
        n_weeks=len(grid),
        window=(grid[0], grid[-1]) if grid else None,
    )
    return universe, report
