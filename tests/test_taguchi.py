from __future__ import annotations

import itertools

import numpy as np
import pytest

from predfolio.errors import ConfigError, ExperimentError
from predfolio.ga_solver import GAConfig
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

from conftest import random_risk_model


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

    def run(assignment, seed):
        return float(sum(assignment[name] != planted[name] for name in names))

    return run


def test_run_experiments_counts_and_determinism():
    array = build_array()
    calls = []

    def runner(assignment, seed):
        calls.append((tuple(sorted(assignment.items())), tuple(seed)))
        return 1.0

    runs = run_experiments(array, runner, replicates=1, seed=5)
    assert len(runs) == 27
    assert all(len(r.costs) == 1 for r in runs)
    first = list(calls)
    calls.clear()
    run_experiments(array, runner, replicates=1, seed=5)
    assert calls == first


def test_run_experiments_quadratic_stub_matches_analytic_means():
    array = build_array()

    def runner(assignment, seed):
        return float(assignment["population_size"]) ** 2 / 1e4

    runs = run_experiments(array, runner, replicates=2, seed=0)
    result = analyze_means(runs, array=array)
    np.testing.assert_allclose(
        result.response_table["population_size"],
        [50.0**2 / 1e4, 100.0**2 / 1e4, 200.0**2 / 1e4],
    )
    # the other factors see a balanced mix of population sizes
    expected_other = np.mean([50.0**2, 100.0**2, 200.0**2]) / 1e4
    np.testing.assert_allclose(result.response_table["penalty_factor"], expected_other)
    assert result.best_levels["population_size"] == 50


def test_run_experiments_identifies_failing_row():
    array = build_array()

    def runner(assignment, seed):
        raise ConfigError("boom")

    with pytest.raises(ExperimentError, match="row 0"):
        run_experiments(array, runner, replicates=1, seed=0)


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
    runs = run_experiments(array, lambda a, s: 3.5, replicates=1, seed=0)
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
    runs = run_experiments(array, lambda a, s: 1.0, replicates=1, seed=0)
    with pytest.raises(ExperimentError):
        analyze_means(runs[:-1], array=array)


def test_ga_runner_executes_assignment(rng):
    model = random_risk_model(rng, 4)
    params = ObjectiveParams(lam=0.8, theta=0.2)
    base = GAConfig(generation_cap=5, stall_generations=4, population_size=30, seed=0)
    runner = ga_runner(model, params, Bounds(0.0, 1.0), 3, base)
    assignment = DEFAULT_FACTORS.assignment((0, 1, 2, 1, 0))
    cost_a = runner(assignment, (0, 0, 0))
    cost_b = runner(assignment, (0, 0, 0))
    assert cost_a == cost_b
    assert np.isfinite(cost_a)
