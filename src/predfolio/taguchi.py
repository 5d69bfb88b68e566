"""Orthogonal-array experiment design over the five GA factors.

Runs a 27-row three-level fractional factorial, then picks the level with
the lowest mean cost per factor. The experiment hands every run to one
``runner`` call, so the GA runs can evolve together in batches and the GA
can be swapped for a stub when calibrating the analysis itself.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, ExperimentError, PredfolioError
# ``evolve`` stays bound here because bench/tracing.py wraps ``taguchi.evolve`` by name.
from .ga_solver import GAConfig, GAResult, evolve, evolve_batch  # noqa: F401
from .objective import Bounds, ObjectiveParams
from .risk_model import RiskModel


# Factor name -> its three levels, in the array's column order.
FACTORS = {
    "population_size": (50, 100, 200),
    "selection_kind": ("uniform", "roulette", "tournament"),
    "crossover_fraction": (0.9, 0.6, 0.8),
    "crossover_kind": ("scattered", "single-point", "two-point"),
    "penalty_factor": (10, 50, 100),
}

# First five columns of the standard 27-row three-level array, read-only.
# Rows enumerate (a, b, c) over GF(3)^3 in lexicographic order; the columns
# are the functionals a, b, a+b, a+2b, c (mod 3), so every level appears 9
# times per column and every ordered level pair 3 times for any two columns.
ARRAY = np.array(
    [
        [a, b, (a + b) % 3, (a + 2 * b) % 3, c]
        for a in range(3)
        for b in range(3)
        for c in range(3)
    ],
    dtype=int,
)
ARRAY.flags.writeable = False


def assignment(level_indices: Sequence[int]) -> dict:
    """Each factor's level at the given indices."""
    return {name: levels[i] for (name, levels), i in zip(FACTORS.items(), level_indices)}


@dataclass
class TuneResult:
    best_levels: dict[str, object]
    response_table: dict[str, list[float]]
    ties: dict[str, bool]


Job = tuple[dict, tuple[int, int, int]]


def run_experiments(
    runner: Callable[[list[Job]], Sequence[float]],
    *,
    replicates: int,
    seed: int,
) -> np.ndarray:
    """Execute every :data:`ARRAY` row ``replicates`` times with derived seeds.

    ``runner(jobs)`` gets every ``(assignment, (seed, row, replicate))``
    job at once, row by row, and must return one final cost per job, in
    order. Failures are re-raised as an :class:`ExperimentError`. Returns
    the ``(len(ARRAY), replicates)`` cost table, row ``i`` for ``ARRAY[i]``.
    """
    if replicates < 1:
        raise ConfigError(f"replicates must be >= 1, got {replicates}")
    jobs = [
        (assignment(levels), (seed, row, rep))
        for row, levels in enumerate(ARRAY)
        for rep in range(replicates)
    ]
    try:
        costs = [float(cost) for cost in runner(jobs)]
    except PredfolioError as exc:
        raise ExperimentError(f"experiment runs failed: {exc}") from exc
    if len(costs) != len(jobs):
        raise ExperimentError(f"runner returned {len(costs)} costs for {len(jobs)} jobs")
    return np.array(costs).reshape(len(ARRAY), replicates)


def ga_runner(
    model: RiskModel,
    params: ObjectiveParams,
    bounds: Bounds,
    k: int,
    base_config: GAConfig,
    on_result: Callable[[GAResult], None] | None = None,
) -> Callable[[list[Job]], list[float]]:
    """Build a runner that applies each job's factor assignment and seed
    onto a base GA config and evolves all the runs in one
    :func:`evolve_batch` call.

    ``on_result``, when given, sees every run's full result, in job order.
    """

    def run(jobs: list[Job]) -> list[float]:
        configs = [replace(base_config, **levels, seed=seed) for levels, seed in jobs]
        results = evolve_batch(model, [params] * len(configs), bounds, k, configs)
        if on_result is not None:
            for result in results:
                on_result(result)
        return [result.best_cost for result in results]

    return run


def analyze_means(costs: np.ndarray) -> TuneResult:
    """Mean cost per (factor, level) over the cost table of
    :func:`run_experiments`; the best level minimizes it.

    Ties break toward the lower-index level and are flagged.
    """
    if costs.ndim != 2 or len(costs) != len(ARRAY) or costs.shape[1] < 1:
        raise ExperimentError(
            f"expected a {len(ARRAY)} x replicates cost table, got shape {costs.shape}"
        )
    response_table: dict[str, list[float]] = {}
    best_levels: dict[str, object] = {}
    ties: dict[str, bool] = {}
    for f, (name, levels) in enumerate(FACTORS.items()):
        means = [float(costs[ARRAY[:, f] == level].mean()) for level in range(3)]
        response_table[name] = means
        winners = [i for i, v in enumerate(means) if v == min(means)]
        best_levels[name] = levels[winners[0]]
        ties[name] = len(winners) > 1
    return TuneResult(best_levels=best_levels, response_table=response_table, ties=ties)
