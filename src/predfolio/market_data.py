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

    The weekly grid runs on the configured weekday, anchored at the first
    such weekday on or after the earliest observation of any asset, so the
    order of the asset blocks in the file does not change what is sampled.
    A week with no trade on the sampling day takes the most recent prior
    close; sampling stops once an asset's last observation is more than a
    calendar week stale. Assets with no sampled week at all are excluded
    and reported.
    """
    weekday = _parse_weekday(sampling_weekday)
    observed: dict[str, dict[dt.date, float]] = {}
    order: list[str] = []

    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError("empty price file", line=1)
        cols = [c.strip().lower() for c in header]
        try:
            i_date, i_asset, i_close = cols.index("date"), cols.index("asset"), cols.index("close")
        except ValueError:
            raise ParseError(f"header must contain date,asset,close (got {header})", line=1)
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) <= max(i_date, i_asset, i_close):
                raise ParseError(f"expected {len(cols)} fields, got {len(row)}", line=lineno)
            try:
                date = dt.date.fromisoformat(row[i_date].strip())
            except ValueError:
                raise ParseError(f"bad date {row[i_date]!r}", line=lineno)
            asset = row[i_asset].strip()
            if not asset:
                raise ParseError("empty asset identifier", line=lineno)
            try:
                close = float(row[i_close])
            except ValueError:
                raise ParseError(f"non-numeric close {row[i_close]!r}", line=lineno)
            if not np.isfinite(close) or close <= 0:
                raise ParseError(f"close must be a positive number, got {row[i_close]!r}", line=lineno)
            if asset not in observed:
                observed[asset] = {}
                order.append(asset)
            if date in observed[asset]:
                raise ParseError(f"duplicate row for {asset} on {date.isoformat()}", line=lineno)
            observed[asset][date] = close

    if not order:
        raise ParseError("price file contains no data rows")

    first_date = min(min(days) for days in observed.values())
    grid_start = first_date + dt.timedelta(days=(weekday - first_date.weekday()) % 7)
    grid_end = max(max(days) for days in observed.values())

    points: dict[str, list[PricePoint]] = {}
    excluded: list[str] = []
    for asset in order:
        days = sorted(observed[asset].items())
        dates = [d for d, _ in days]
        closes = [c for _, c in days]
        first_obs, last_obs = dates[0], dates[-1]
        sampled: list[PricePoint] = []
        week = grid_start
        idx = -1
        while week <= grid_end:
            if week >= first_obs and (week - last_obs).days <= _MAX_STALE_DAYS:
                while idx + 1 < len(dates) and dates[idx + 1] <= week:
                    idx += 1
                if idx >= 0:
                    sampled.append(PricePoint(week, asset, closes[idx]))
            week += dt.timedelta(days=7)
        if sampled:
            points[asset] = sampled
        else:
            excluded.append(asset)
    return PriceTable(points=points, excluded=excluded)


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
