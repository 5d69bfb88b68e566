from __future__ import annotations

import csv
import datetime as dt

import numpy as np
import pytest

from predfolio.market_data import ReturnSeries
from predfolio.risk_model import RiskModel


def weekly_dates(start: dt.date, n: int) -> list[dt.date]:
    return [start + dt.timedelta(weeks=i) for i in range(n)]


def make_return_series(asset: str, returns, start=dt.date(2024, 1, 8)) -> ReturnSeries:
    returns = np.asarray(returns, dtype=float)
    return ReturnSeries(asset=asset, returns=returns, dates=tuple(weekly_dates(start, len(returns))))


def random_risk_model(rng: np.random.Generator, n_assets: int) -> RiskModel:
    """Seeded PSD risk model with weekly-return-like scales."""
    factors = rng.normal(size=(n_assets, n_assets + 2))
    sigma = (factors @ factors.T) / (n_assets + 2) * 0.002
    sigma = (sigma + sigma.T) / 2.0
    return RiskModel(
        assets=[f"A{i}" for i in range(n_assets)],
        mu=rng.uniform(0.001, 0.02, size=n_assets),
        sigma=sigma,
        skew=rng.normal(0.0, 0.5, size=n_assets),
        estimation_window=100,
    )


def each_job(cost):
    """A batched experiment runner that prices each ``(assignment, seed)``
    job with ``cost(assignment, seed)``."""
    return lambda jobs: [cost(assignment, seed) for assignment, seed in jobs]


def write_prices_csv(path, closes_by_asset: dict[str, list[float]], start=dt.date(2024, 1, 1)):
    """Write a weekly Monday price file, one row per asset-week."""
    assert start.weekday() == 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "asset", "close"])
        for asset, closes in closes_by_asset.items():
            for i, close in enumerate(closes):
                writer.writerow([(start + dt.timedelta(weeks=i)).isoformat(), asset, close])
    return path


def geometric_walk(rng: np.random.Generator, n: int, start_price=100.0, drift=0.001, vol=0.03):
    steps = rng.normal(drift, vol, size=n - 1)
    return start_price * np.concatenate([[1.0], np.cumprod(1.0 + steps)])


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20250811)
