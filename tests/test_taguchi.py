from __future__ import annotations

import itertools
from dataclasses import replace

import numpy as np
import pytest

from predfolio import taguchi
from predfolio.errors import ConfigError, ExperimentError
from predfolio.ga_solver import GAConfig, evolve
from predfolio.objective import Bounds, ObjectiveParams
from predfolio.taguchi import (
    DEFAULT_FACTORS,
    ExperimentRun,
    FactorGrid,
    analyze_means,
    build_array,
    ga_runner,
    run_experiments,
)

from conftest import each_job, random_risk_model


def test_array_has_27_rows_and_5_columns():
    array = build_array()
    assert array.shape == (27, 5)
    assert set(array.ravel().tolist()) == {0, 1, 2}


def test_array_levels_balanced_9_per_column():
    array = build_array()
    for col in range(5):
        counts = np.bincount(array[:, col], minlength=3)
        np.testing.assert_array_equal(counts, [9, 9, 9])


def test_array_pairwise_orthogonality_3_per_pair():
    array = build_array()
    for c1, c2 in itertools.combinations(range(5), 2):
        for l1 in range(3):
            for l2 in range(3):
                count = int(np.sum((array[:, c1] == l1) & (array[:, c2] == l2)))
                assert count == 3, (c1, c2, l1, l2)


def test_factor_grid_validation():
    with pytest.raises(ConfigError):
        FactorGrid(factors=(("only", (1, 2, 3)),))
    with pytest.raises(ConfigError):
        FactorGrid(
            factors=(
                ("a", (1, 2)),
                ("b", (1, 2, 3)),
                ("c", (1, 2, 3)),
                ("d", (1, 2, 3)),
                ("e", (1, 2, 3)),
            )
        )


def test_default_factor_levels_match_tuning_table():
    grid = dict(DEFAULT_FACTORS.factors)
    assert grid["population_size"] == (50, 100, 200)
    assert grid["selection_kind"] == ("uniform", "roulette", "tournament")
    assert grid["crossover_fraction"] == (0.9, 0.6, 0.8)
    assert grid["crossover_kind"] == ("scattered", "single-point", "two-point")
    assert grid["penalty_factor"] == (10, 50, 100)


# ---------------------------------------------------------------- run table

def planted_runner(planted_indices):
    """Cost = number of factors off the planted optimum."""
    names = DEFAULT_FACTORS.names
    planted = DEFAULT_FACTORS.assignment(planted_indices)
    return each_job(lambda assignment, seed: float(
        sum(assignment[name] != planted[name] for name in names)
    ))


def test_run_experiments_counts_and_determinism():
    array = build_array()
    calls = []

    def runner(jobs):
        calls.append([(tuple(sorted(assignment.items())), tuple(seed)) for assignment, seed in jobs])
        return [1.0] * len(jobs)

    runs = run_experiments(array, runner, replicates=1, seed=5)
    assert len(runs) == 27
    assert all(len(r.costs) == 1 for r in runs)
    # one call holds every job, row by row
    assert len(calls) == 1 and [seed for _, seed in calls[0]] == [(5, row, 0) for row in range(27)]
    first = list(calls)
    calls.clear()
    run_experiments(array, runner, replicates=1, seed=5)
    assert calls == first


def test_run_experiments_quadratic_stub_matches_analytic_means():
    array = build_array()

    def cost(assignment, seed):
        return float(assignment["population_size"]) ** 2 / 1e4

    runs = run_experiments(array, each_job(cost), replicates=2, seed=0)
    result = analyze_means(runs, array=array)
    np.testing.assert_allclose(
        result.response_table["population_size"],
        [50.0**2 / 1e4, 100.0**2 / 1e4, 200.0**2 / 1e4],
    )
    # the other factors see a balanced mix of population sizes
    expected_other = np.mean([50.0**2, 100.0**2, 200.0**2]) / 1e4
    np.testing.assert_allclose(result.response_table["penalty_factor"], expected_other)
    assert result.best_levels["population_size"] == 50


def failing_runner(error):
    def run(jobs):
        raise error

    return run


def test_run_experiments_identifies_failing_row():
    array = build_array()
    with pytest.raises(ExperimentError, match="row 0"):
        run_experiments(array, failing_runner(ExperimentError("boom", job=0)),
                        replicates=1, seed=0)
    # job 5 of two replicates a row is row 2's second replicate
    with pytest.raises(ExperimentError, match="^array row 2 failed: boom$"):
        run_experiments(array, failing_runner(ExperimentError("boom", job=5)),
                        replicates=2, seed=0)
    with pytest.raises(ExperimentError, match="^experiment runs failed: boom$"):
        run_experiments(array, failing_runner(ConfigError("boom")), replicates=1, seed=0)
    with pytest.raises(ExperimentError, match="26 costs for 27 jobs"):
        run_experiments(array, lambda jobs: [1.0] * 26, replicates=1, seed=0)


def test_ga_runner_names_the_row_whose_level_is_invalid(rng):
    model = random_risk_model(rng, 5)
    factors = dict(DEFAULT_FACTORS.factors)
    factors["crossover_kind"] = ("scattered", "single-point", "bogus")
    grid = FactorGrid(factors=tuple(factors.items()))
    array = build_array(grid)
    assert array[:3, 3].tolist() == [0, 0, 0] and array[3, 3] == 2
    runner = ga_runner(model, ObjectiveParams(0.8, 0.2), Bounds(0.0, 1.0), 3,
                       GAConfig(generation_cap=2, population_size=10))
    with pytest.raises(ExperimentError, match="^array row 3 failed: unknown crossover kind 'bogus'$"):
        run_experiments(array, runner, grid=grid, replicates=2, seed=0)


# ----------------------------------------------------------------- analysis

def test_analyze_means_recovers_planted_optimum():
    planted = (2, 1, 0, 2, 1)
    array = build_array()
    runs = run_experiments(array, planted_runner(planted), replicates=1, seed=0)
    result = analyze_means(runs, array=array)
    for f, name in enumerate(DEFAULT_FACTORS.names):
        assert result.best_level_indices[name] == planted[f]
        assert not result.ties[name]


def test_analyze_means_constant_response_ties_flagged():
    array = build_array()
    runs = run_experiments(array, each_job(lambda a, s: 3.5), replicates=1, seed=0)
    result = analyze_means(runs, array=array)
    for name in DEFAULT_FACTORS.names:
        assert result.ties[name]
        assert result.best_level_indices[name] == 0


def test_analyze_means_invariant_to_row_permutation_and_shift():
    planted = (0, 2, 1, 1, 2)
    array = build_array()
    runs = run_experiments(array, planted_runner(planted), replicates=1, seed=0)
    base = analyze_means(runs, array=array)

    shuffled = list(runs)[::-1]
    permuted = analyze_means(shuffled, array=array)
    assert permuted.best_level_indices == base.best_level_indices

    shifted = [
        ExperimentRun(r.row, r.levels, [c + 11.25 for c in r.costs]) for r in runs
    ]
    shifted_result = analyze_means(shifted, array=array)
    assert shifted_result.best_level_indices == base.best_level_indices


def test_analyze_means_incomplete_table_errors():
    array = build_array()
    runs = run_experiments(array, each_job(lambda a, s: 1.0), replicates=1, seed=0)
    with pytest.raises(ExperimentError):
        analyze_means(runs[:-1], array=array)


def test_ga_runner_executes_assignment(rng):
    model = random_risk_model(rng, 4)
    params = ObjectiveParams(lam=0.8, theta=0.2)
    base = GAConfig(generation_cap=5, stall_generations=4, population_size=30, seed=0)
    runner = ga_runner(model, params, Bounds(0.0, 1.0), 3, base)
    assignment = DEFAULT_FACTORS.assignment((0, 1, 2, 1, 0))
    [cost_a] = runner([(assignment, (0, 0, 0))])
    [cost_b] = runner([(assignment, (0, 0, 0))])
    assert cost_a == cost_b
    assert np.isfinite(cost_a)


def test_ga_runner_evolves_every_job_in_one_batch_as_it_would_alone(rng, monkeypatch):
    model = random_risk_model(rng, 6)
    params = ObjectiveParams(lam=0.8, theta=0.2)
    bounds = Bounds(0.1, 0.5)
    base = GAConfig(generation_cap=6, stall_generations=3, seed=0)
    jobs = [
        (DEFAULT_FACTORS.assignment(levels), (0, row, rep))
        for row, levels in enumerate(build_array()[::4])
        for rep in range(2)
    ]
    calls = []
    batch = taguchi.evolve_batch

    def spy(model, params, bounds, k, configs):
        calls.append(len(configs))
        return batch(model, params, bounds, k, configs)

    monkeypatch.setattr(taguchi, "evolve_batch", spy)
    costs = ga_runner(model, params, bounds, 3, base)(jobs)
    assert calls == [len(jobs)]
    for cost, (assignment, seed) in zip(costs, jobs):
        alone = evolve(model, params, bounds, 3, replace(
            base, seed=seed, population_size=assignment["population_size"],
            selection_kind=assignment["selection_kind"],
            crossover_fraction=assignment["crossover_fraction"],
            crossover_kind=assignment["crossover_kind"],
            penalty_factor=float(assignment["penalty_factor"]),
        ))
        assert cost == alone.best_cost


def test_ga_runner_hands_every_result_to_on_result(rng):
    model = random_risk_model(rng, 4)
    params = ObjectiveParams(lam=0.8, theta=0.2)
    base = GAConfig(generation_cap=5, stall_generations=4, population_size=30, seed=0)
    seen = []
    runner = ga_runner(model, params, Bounds(0.0, 1.0), 3, base, on_result=seen.append)
    assignment = DEFAULT_FACTORS.assignment((2, 2, 0, 2, 1))
    costs = runner([(assignment, (0, 0, rep)) for rep in range(2)])
    assert [result.best_cost for result in seen] == costs
    assert [result.config.seed for result in seen] == [(0, 0, 0), (0, 0, 1)]
    assert seen[0].config.selection_kind == "tournament"
