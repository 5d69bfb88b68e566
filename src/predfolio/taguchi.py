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


@dataclass(frozen=True)
class FactorGrid:
    """Ordered (name, three levels) factors."""

    factors: tuple[tuple[str, tuple], ...]

    def __post_init__(self):
        if len(self.factors) != 5:
            raise ConfigError(f"expected 5 factors, got {len(self.factors)}")
        for name, levels in self.factors:
            if len(levels) != 3:
                raise ConfigError(f"factor {name!r} must have exactly 3 levels")

    @property
    def names(self) -> list[str]:
        return [name for name, _ in self.factors]

    def assignment(self, level_indices: Sequence[int]) -> dict:
        return {
            name: levels[level_indices[i]]
            for i, (name, levels) in enumerate(self.factors)
        }


DEFAULT_FACTORS = FactorGrid(
    factors=(
        ("population_size", (50, 100, 200)),
        ("selection_kind", ("uniform", "roulette", "tournament")),
        ("crossover_fraction", (0.9, 0.6, 0.8)),
        ("crossover_kind", ("scattered", "single-point", "two-point")),
        ("penalty_factor", (10, 50, 100)),
    )
)


@dataclass
class ExperimentRun:
    row: int
    levels: tuple[int, ...]
    costs: list[float]


@dataclass
class TuneResult:
    best_levels: dict[str, object]
    best_level_indices: dict[str, int]
    response_table: dict[str, list[float]]
    ties: dict[str, bool]
    runs: list[ExperimentRun]


def build_array(grid: FactorGrid = DEFAULT_FACTORS) -> np.ndarray:
    """First five columns of the standard 27-row three-level array.

    Rows enumerate (a, b, c) over GF(3)^3 in lexicographic order; the
    columns are the functionals a, b, a+b, a+2b, c (mod 3), so every level
    appears 9 times per column and every ordered level pair 3 times for
    any two columns.
    """
    if len(grid.factors) != 5:
        raise ConfigError(f"array supports exactly 5 factors, got {len(grid.factors)}")
    rows = []
    for a in range(3):
        for b in range(3):
            for c in range(3):
                rows.append([a, b, (a + b) % 3, (a + 2 * b) % 3, c])
    return np.array(rows, dtype=int)


Job = tuple[dict, tuple[int, int, int]]


def run_experiments(
    array: np.ndarray,
    runner: Callable[[list[Job]], Sequence[float]],
    grid: FactorGrid = DEFAULT_FACTORS,
    replicates: int = 3,
    seed: int = 0,
) -> list[ExperimentRun]:
    """Execute every array row ``replicates`` times with derived seeds.

    ``runner(jobs)`` gets every ``(assignment, (seed, row, replicate))``
    job at once, row by row, and must return one final cost per job, in
    order. Failures are re-raised as an :class:`ExperimentError`; one the
    runner pins to a job (an ``ExperimentError`` with ``job`` set) names
    the offending row.
    """
    if replicates < 1:
        raise ConfigError(f"replicates must be >= 1, got {replicates}")
    jobs = [
        (grid.assignment(levels), (seed, row, rep))
        for row, levels in enumerate(array)
        for rep in range(replicates)
    ]
    try:
        costs = [float(cost) for cost in runner(jobs)]
    except PredfolioError as exc:
        job = exc.job if isinstance(exc, ExperimentError) else None
        failed = "experiment runs" if job is None else f"array row {job // replicates}"
        raise ExperimentError(f"{failed} failed: {exc}") from exc
    if len(costs) != len(jobs):
        raise ExperimentError(f"runner returned {len(costs)} costs for {len(jobs)} jobs")
    return [
        ExperimentRun(
            row=row,
            levels=tuple(int(v) for v in levels),
            costs=costs[row * replicates:(row + 1) * replicates],
        )
        for row, levels in enumerate(array)
    ]


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

    Each job's config is validated first, so an invalid one fails naming
    its job. ``on_result``, when given, sees every run's full result, in
    job order.
    """

    def run(jobs: list[Job]) -> list[float]:
        configs = []
        for job, (assignment, seed) in enumerate(jobs):
            config = replace(
                base_config,
                population_size=int(assignment["population_size"]),
                selection_kind=str(assignment["selection_kind"]),
                crossover_fraction=float(assignment["crossover_fraction"]),
                crossover_kind=str(assignment["crossover_kind"]),
                penalty_factor=float(assignment["penalty_factor"]),
                seed=tuple(seed) if isinstance(seed, (tuple, list)) else seed,
            )
            try:
                config.validate()
            except ConfigError as exc:
                raise ExperimentError(str(exc), job=job) from exc
            configs.append(config)
        results = evolve_batch(model, [params] * len(configs), bounds, k, configs)
        if on_result is not None:
            for result in results:
                on_result(result)
        return [result.best_cost for result in results]

    return run


def analyze_means(
    runs: list[ExperimentRun],
    grid: FactorGrid = DEFAULT_FACTORS,
    array: np.ndarray | None = None,
) -> TuneResult:
    """Mean cost per (factor, level); the best level minimizes it.

    Ties break toward the lower-index level and are flagged.
    """
    if array is None:
        array = build_array(grid)
    if len(runs) != len(array):
        raise ExperimentError(f"expected {len(array)} runs, got {len(runs)}")
    by_row = {run.row: run for run in runs}
    if sorted(by_row) != list(range(len(array))):
        raise ExperimentError("run table is missing rows or has duplicates")
    if any(not run.costs for run in runs):
        raise ExperimentError("every run needs at least one replicate cost")

    response_table: dict[str, list[float]] = {}
    best_levels: dict[str, object] = {}
    best_level_indices: dict[str, int] = {}
    ties: dict[str, bool] = {}
    for f, (name, levels) in enumerate(grid.factors):
        means = []
        for level in range(3):
            costs = [
                c
                for row_idx in range(len(array))
                if array[row_idx, f] == level
                for c in by_row[row_idx].costs
            ]
            means.append(float(np.mean(costs)))
        response_table[name] = means
        winners = [i for i, v in enumerate(means) if v == min(means)]
        best_level_indices[name] = winners[0]
        best_levels[name] = levels[winners[0]]
        ties[name] = len(winners) > 1
    return TuneResult(
        best_levels=best_levels,
        best_level_indices=best_level_indices,
        response_table=response_table,
        ties=ties,
        runs=runs,
    )
