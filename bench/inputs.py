"""Seeded input generators for the benchmark workloads.

The program under test only ever sees the files written here: a daily
price file for the prediction workload, and a risk model plus run config
for the GA workloads. Every generator is a pure function of its seed and
size arguments, so one seed always gives byte-identical inputs.

Per-asset parameters (drift, beta, volatility, expected return, skew,
bound levels) come from a fixed profile table: evenly spaced quantiles,
paired across columns once and for all. The seed decides which asset
gets which profile row and draws every random path (prices, factors,
errors), but every seed poses a problem of the same difficulty, so
run-to-run differences in time and solution quality come from the
program, not from a lucky draw.
"""

from __future__ import annotations

import datetime as dt
import json
from pathlib import Path

import numpy as np
from scipy.special import ndtri

PAPER_ASSETS = 66
PAPER_WEEKS = 222            # weekly closes -> 221 weekly returns
PAPER_WINDOW = 180           # 221 returns - delay 41
MISSING_DAY_SHARE = 0.02
START = dt.date(2015, 1, 5)  # a Monday
PROFILE_SEED = 1903          # fixes which levels share a profile row, for every seed

# Per-asset bound levels for the bounded-tune risk model, with the share of
# assets at each level. A K-subset is infeasible when its floors sum above
# one or its caps below one; about 22% of 5-subsets are.
BOUNDED_EPSILON = ((0.02, 0.35), (0.10, 0.30), (0.34, 0.35))
BOUNDED_DELTA = ((0.15, 0.50), (0.30, 0.20), (0.60, 0.30))


def _rng(seed: int, stream: str) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *stream.encode()]))


def _standardized(draws: np.ndarray) -> np.ndarray:
    """Rows shifted and scaled to mean 0 and standard deviation 1."""
    draws = draws - draws.mean(axis=-1, keepdims=True)
    return draws / draws.std(axis=-1, keepdims=True)


def normal_grid(n: int, mean: float, std: float) -> np.ndarray:
    """Normal quantiles at (i + 0.5) / n."""
    return mean + std * ndtri((np.arange(n) + 0.5) / n)


def level_grid(n: int, levels) -> np.ndarray:
    """Each level repeated by its share of n slots."""
    counts = [int(round(share * n)) for _, share in levels]
    counts[-1] = n - sum(counts[:-1])
    return np.concatenate([np.full(c, v) for (v, _), c in zip(levels, counts)])


def profiles(seed: int, stream: str, *grids: np.ndarray) -> list[np.ndarray]:
    """The grids paired into fixed profile rows, dealt to assets by ``seed``."""
    fixed = np.random.default_rng(np.random.SeedSequence([PROFILE_SEED, *stream.encode()]))
    table = [fixed.permutation(grid) for grid in grids]
    order = _rng(seed, stream + "-order").permutation(len(grids[0]))
    return [column[order] for column in table]


def asset_names(n_assets: int) -> list[str]:
    return [f"S{i:02d}" for i in range(n_assets)]


def write_prices(path: Path, seed: int, n_assets: int = PAPER_ASSETS,
                 n_weeks: int = PAPER_WEEKS, missing: float = MISSING_DAY_SHARE) -> int:
    """Write a ``date,asset,close`` file of weekday closes; return its row count.

    Daily log returns follow a one-factor model with per-asset drift, beta
    and volatility. About ``missing`` of each asset's days are left out,
    never its first day, so every sampling Monday still finds a close (a
    missing Monday falls back to the prior trading day) and ingest keeps
    every week. Rows are grouped by asset, in asset order.
    """
    drift, beta, vol = profiles(
        seed, "prices",
        normal_grid(n_assets, 0.0003, 0.0004),
        np.linspace(0.5, 1.5, n_assets),
        np.linspace(0.007, 0.016, n_assets),
    )
    rng = _rng(seed, "prices")
    days = [START + dt.timedelta(weeks=w, days=d) for w in range(n_weeks) for d in range(5)]
    day_text = [d.isoformat() for d in days]
    n_days = len(days)
    # Standardized draws: every seed's paths have exactly the profile's
    # realized volatility, so seeds differ in the path, not in its scale.
    market = 0.0002 + 0.008 * _standardized(rng.standard_normal(n_days))
    noise = _standardized(rng.standard_normal((n_assets, n_days)))
    log_returns = drift[:, None] + beta[:, None] * market[None, :] + vol[:, None] * noise
    closes = 100.0 * np.exp(np.cumsum(log_returns, axis=1))
    keep = rng.random((n_assets, n_days)) >= missing
    keep[:, 0] = True

    lines = ["date,asset,close"]
    for i, asset in enumerate(asset_names(n_assets)):
        for t in np.flatnonzero(keep[i]):
            lines.append(f"{day_text[t]},{asset},{closes[i, t]:.4f}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return len(lines) - 1


def ga_problem(seed: int, n_assets: int = PAPER_ASSETS, window: int = PAPER_WINDOW):
    """A ``risk_model.json`` body and per-asset ``(epsilon, delta)`` vectors.

    The model has the scales the prediction stages produce. Sigma is built
    the way the risk stage builds it, as raw cross products of (here
    synthetic, three-factor) prediction errors over the window, so it is
    positive semidefinite by construction. In the bounds, every cap
    exceeds its floor by at least the lowest cap level.
    """
    mu, skew, market, idio, eps, dlt = profiles(
        seed, "risk",
        normal_grid(n_assets, 0.001, 0.015),
        normal_grid(n_assets, 0.08, 0.15),
        np.linspace(0.010, 0.020, n_assets),
        np.linspace(0.012, 0.035, n_assets),
        level_grid(n_assets, BOUNDED_EPSILON),
        level_grid(n_assets, BOUNDED_DELTA),
    )
    rng = _rng(seed, "risk")
    loadings = rng.normal(0.0, 0.006, size=(n_assets, 3))
    loadings[:, 0] = market
    errors = loadings @ rng.standard_normal((3, window))
    errors += idio[:, None] * rng.standard_normal((n_assets, window))
    sigma = (errors @ errors.T) / (window - 1)
    sigma = (sigma + sigma.T) / 2.0
    model = {
        "version": 1,
        "assets": asset_names(n_assets),
        "mu": [float(v) for v in mu],
        "sigma": [float(v) for v in sigma.ravel()],
        "skew": [float(v) for v in skew],
        "estimation_window": int(window),
        "diagonal_shift": 0.0,
        "degenerate_skew_assets": [],
    }
    dlt = np.maximum(dlt, eps + BOUNDED_DELTA[0][0])
    return model, [float(v) for v in eps], [float(v) for v in dlt]


def write_config(path: Path, values: dict[str, object]) -> None:
    lines = [f"{key} = {value}" for key, value in values.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_json(path: Path, body: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(body, fh, indent=2, sort_keys=True)
        fh.write("\n")
