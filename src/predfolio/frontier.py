"""Preference-parameter sweep and efficient-frontier extraction.

One GA run (best of ``repeats``) per (lambda, theta) grid point; the
frontier itself is read off the theta=0 sub-sweep by dominance filtering.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import PredfolioError
from .ga_solver import GAConfig, GAResult, evolve
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

    GA failures at a point are recorded and the sweep continues; callers
    decide how to surface a partially failed sweep.
    """
    points: list[FrontierPoint] = []
    failures: list[dict] = []
    base = _base_seed(ga_config)
    for li, lam in enumerate(lambda_grid):
        for ti, theta in enumerate(theta_grid):
            params = ObjectiveParams(lam=lam, theta=theta, skew_mode=skew_mode)
            best: GAResult | None = None
            best_seed: tuple[int, ...] = ()
            costs: list[float] = []
            error: str | None = None
            for rep in range(repeats):
                seed = base + (li, ti, rep)
                config = replace(ga_config, seed=seed)
                try:
                    result = evolve(model, params, bounds, k, config)
                except PredfolioError as exc:
                    error = str(exc)
                    break
                costs.append(result.best_cost)
                if best is None or result.best_cost < best.best_cost:
                    best, best_seed = result, seed
            if best is None:
                failures.append({"lambda": lam, "theta": theta, "error": error})
                continue
            points.append(
                FrontierPoint(
                    lam=lam,
                    theta=theta,
                    portfolio=best.best,
                    cost=best.best_cost,
                    seed=best_seed,
                    stop_reason=best.stop_reason,
                    generations=best.generations,
                    spread=max(costs) - min(costs),
                )
            )
    return SweepResult(points=points, failures=failures)


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
