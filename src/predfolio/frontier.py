"""Preference-parameter sweep and efficient-frontier extraction.

One GA run (best of ``repeats``) per (lambda, theta) grid point, all of
them evolved together in batches; the frontier itself is read off the
theta=0 sub-sweep by dominance filtering.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import PredfolioError
# ``evolve`` stays bound here because bench/tracing.py wraps ``frontier.evolve`` by name.
from .ga_solver import GAConfig, GAResult, evolve, evolve_batch  # noqa: F401
from .objective import Bounds, ObjectiveParams, Portfolio
from .risk_model import RiskModel

DEFAULT_LAMBDA_GRID = (1.0, 0.8, 0.2, 0.0)
DEFAULT_THETA_GRID = (0.0, 0.2, 0.8)


@dataclass
class FrontierPoint:
    lam: float
    theta: float
    portfolio: Portfolio
    cost: float
    seed: tuple[int, ...]
    stop_reason: str
    generations: int
    spread: float  # max - min best cost across repeats

    @property
    def mu_p(self) -> float:
        return self.portfolio.mu_p

    @property
    def sigma_p(self) -> float:
        return self.portfolio.sigma_p


@dataclass
class SweepResult:
    points: list[FrontierPoint]
    failures: list[dict]
    runs: list[GAResult]  # every GA run, point by point and repeat by repeat


def _base_seed(config: GAConfig) -> tuple[int, ...]:
    return (config.seed,) if isinstance(config.seed, int) else tuple(config.seed)


def sweep(
    model: RiskModel,
    bounds: Bounds,
    k: int,
    ga_config: GAConfig,
    lambda_grid: Sequence[float] = DEFAULT_LAMBDA_GRID,
    theta_grid: Sequence[float] = DEFAULT_THETA_GRID,
    skew_mode: str = "weighted",
    repeats: int = 3,
) -> SweepResult:
    """Optimize every (lambda, theta) pair; keep each point's best repeat.

    All points' repeats go to one :func:`evolve_batch` call; they share
    every GA setting but the seed, so they form one group of batches. A
    GA failure there fails every point (what it checks, the GA config,
    skew mode, K and bounds, is the same for every run); it is recorded
    per point and the sweep returns normally, so callers decide how to
    surface it.
    """
    base = _base_seed(ga_config)
    grid = [
        (lam, theta, base + (li, ti))
        for li, lam in enumerate(lambda_grid)
        for ti, theta in enumerate(theta_grid)
    ]
    params = [ObjectiveParams(lam=lam, theta=theta, skew_mode=skew_mode) for lam, theta, _ in grid]
    seeds = [seed + (rep,) for _, _, seed in grid for rep in range(repeats)]
    error: str | None = None
    try:
        runs = evolve_batch(
            model,
            [p for p in params for _ in range(repeats)],
            bounds,
            k,
            [replace(ga_config, seed=seed) for seed in seeds],
        )
    except PredfolioError as exc:
        runs, error = [], str(exc)

    points: list[FrontierPoint] = []
    failures: list[dict] = []
    for i, (lam, theta, _) in enumerate(grid):
        repeat_runs = runs[i * repeats:(i + 1) * repeats]
        if not repeat_runs:
            failures.append({"lambda": lam, "theta": theta, "error": error})
            continue
        costs = [result.best_cost for result in repeat_runs]
        best = int(np.argmin(costs))
        points.append(
            FrontierPoint(
                lam=lam,
                theta=theta,
                portfolio=repeat_runs[best].best,
                cost=costs[best],
                seed=seeds[i * repeats + best],
                stop_reason=repeat_runs[best].stop_reason,
                generations=repeat_runs[best].generations,
                spread=max(costs) - min(costs),
            )
        )
    return SweepResult(points=points, failures=failures, runs=runs)


def efficient_filter(points: Sequence[FrontierPoint]) -> list[FrontierPoint]:
    """Non-dominated theta=0 points, sorted by portfolio risk.

    A point is dominated when another has risk <= and return >= with at
    least one strict; exact duplicates survive together.
    """
    candidates = [p for p in points if p.theta == 0.0]
    if not candidates:
        return []
    ordered = sorted(candidates, key=lambda p: (p.sigma_p, -p.mu_p))
    kept: list[FrontierPoint] = []
    best_mu_lower = -np.inf
    i = 0
    while i < len(ordered):
        j = i
        while j < len(ordered) and ordered[j].sigma_p == ordered[i].sigma_p:
            j += 1
        group = ordered[i:j]
        group_max = max(p.mu_p for p in group)
        if group_max > best_mu_lower:
            kept.extend(p for p in group if p.mu_p == group_max)
            best_mu_lower = group_max
        i = j
    return kept
