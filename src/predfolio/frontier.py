"""Preference-parameter sweep and efficient-frontier extraction.

One GA run (best of ``repeats``) per (lambda, theta) grid point, all of
them evolved together in batches; the frontier itself is read off the
theta=0 sub-sweep by dominance filtering.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import ConfigError, PredfolioError
# ``evolve`` stays bound here because bench/tracing.py wraps ``frontier.evolve`` by name.
from .ga_solver import GAConfig, GAResult, evolve, evolve_batch  # noqa: F401
from .objective import Bounds, ObjectiveParams, Portfolio
from .risk_model import RiskModel


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
    lambda_grid: Sequence[float],
    theta_grid: Sequence[float],
    repeats: int,
) -> SweepResult:
    """Optimize every (lambda, theta) pair; keep each point's best repeat.

    All points' repeats go to one :func:`evolve_batch` call; they share
    every GA setting but the seed, so they form one group of batches. A
    GA failure there fails every point (what it checks, K and the bounds,
    is the same for every run); it is recorded per point and the sweep
    returns normally, so callers decide how to surface it.
    """
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")
    base = _base_seed(ga_config)
    grid = [
        (lam, theta, base + (li, ti))
        for li, lam in enumerate(lambda_grid)
        for ti, theta in enumerate(theta_grid)
    ]
    params = [ObjectiveParams(lam=lam, theta=theta) for lam, theta, _ in grid]
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
    """Non-dominated theta=0 points, sorted by ``(sigma_p, -mu_p)``.

    A point is dominated when another has risk <= and return >= with at
    least one strict; exact duplicates survive together.
    """
    candidates = [p for p in points if p.theta == 0.0]
    kept = [
        p for p in candidates
        if not any(
            q.sigma_p <= p.sigma_p and q.mu_p >= p.mu_p
            and (q.sigma_p < p.sigma_p or q.mu_p > p.mu_p)
            for q in candidates
        )
    ]
    return sorted(kept, key=lambda p: (p.sigma_p, -p.mu_p))
