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
    ARRAY,
    FACTORS,
    analyze_means,
    ga_runner,
    run_experiments,
)

from conftest import each_job, random_risk_model


def test_array_has_27_rows_and_5_columns():
    assert ARRAY.shape == (27, 5)
    assert set(ARRAY.ravel().tolist()) == {0, 1, 2}
    assert not ARRAY.flags.writeable


def test_array_levels_balanced_9_per_column():
    for col in range(5):
        counts = np.bincount(ARRAY[:, col], minlength=3)
        np.testing.assert_array_equal(counts, [9, 9, 9])


def test_array_pairwise_orthogonality_3_per_pair():
    for c1, c2 in itertools.combinations(range(5), 2):
        for l1 in range(3):
            for l2 in range(3):
                count = int(np.sum((ARRAY[:, c1] == l1) & (ARRAY[:, c2] == l2)))
                assert count == 3, (c1, c2, l1, l2)


def test_default_factor_levels_match_tuning_table():
    grid = dict(FACTORS)
    assert grid["population_size"] == (50, 100, 200)
    assert grid["selection_kind"] == ("uniform", "roulette", "tournament")
    assert grid["crossover_fraction"] == (0.9, 0.6, 0.8)
    assert grid["crossover_kind"] == ("scattered", "single-point", "two-point")
    assert grid["penalty_factor"] == (10, 50, 100)


# ---------------------------------------------------------------- run table

def planted_runner(planted_indices):
    """Cost = number of factors off the planted optimum."""
    planted = taguchi.assignment(planted_indices)
    return each_job(lambda assignment, seed: float(
        sum(assignment[name] != planted[name] for name in FACTORS)
    ))


def test_run_experiments_counts_and_determinism():
    calls = []

    def runner(jobs):
        calls.append([(tuple(sorted(assignment.items())), tuple(seed)) for assignment, seed in jobs])
        return [1.0] * len(jobs)

    costs = run_experiments(runner, replicates=1, seed=5)
    assert costs.shape == (27, 1)
    # one call holds every job, row by row
    assert len(calls) == 1 and [seed for _, seed in calls[0]] == [(5, row, 0) for row in range(27)]
    first = list(calls)
    calls.clear()
    run_experiments(runner, replicates=1, seed=5)
    assert calls == first


def test_run_experiments_quadratic_stub_matches_analytic_means():
    def cost(assignment, seed):
        return float(assignment["population_size"]) ** 2 / 1e4

    costs = run_experiments(each_job(cost), replicates=2, seed=0)
    result = analyze_means(costs)
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
    with pytest.raises(ExperimentError, match="^experiment runs failed: boom$"):
        run_experiments(failing_runner(ConfigError("boom")), replicates=1, seed=0)
    with pytest.raises(ExperimentError, match="26 costs for 27 jobs"):
        run_experiments(lambda jobs: [1.0] * 26, replicates=1, seed=0)


# ----------------------------------------------------------------- analysis

def test_analyze_means_recovers_planted_optimum():
    planted = (2, 1, 0, 2, 1)
    costs = run_experiments(planted_runner(planted), replicates=1, seed=0)
    result = analyze_means(costs)
    for f, name in enumerate(FACTORS):
        assert result.best_levels[name] == FACTORS[name][planted[f]]
        assert not result.ties[name]


def test_analyze_means_constant_response_ties_flagged():
    costs = run_experiments(each_job(lambda a, s: 3.5), replicates=1, seed=0)
    result = analyze_means(costs)
    for name in FACTORS:
        assert result.ties[name]
        assert result.best_levels[name] == FACTORS[name][0]


def test_analyze_means_invariant_to_shift():
    planted = (0, 2, 1, 1, 2)
    costs = run_experiments(planted_runner(planted), replicates=1, seed=0)
    assert analyze_means(costs + 11.25).best_levels == analyze_means(costs).best_levels


def test_analyze_means_incomplete_table_errors():
    costs = run_experiments(each_job(lambda a, s: 1.0), replicates=1, seed=0)
    with pytest.raises(ExperimentError):
        analyze_means(costs[:-1])


def test_ga_runner_executes_assignment(rng):
    model = random_risk_model(rng, 4)
    params = ObjectiveParams(lam=0.8, theta=0.2)
    base = GAConfig(generation_cap=5, stall_generations=4, population_size=30, seed=0)
    runner = ga_runner(model, params, Bounds(0.0, 1.0), 3, base)
    assignment = taguchi.assignment((0, 1, 2, 1, 0))
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
        (taguchi.assignment(levels), (0, row, rep))
        for row, levels in enumerate(ARRAY[::4])
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
    assignment = taguchi.assignment((2, 2, 0, 2, 1))
    costs = runner([(assignment, (0, 0, rep)) for rep in range(2)])
    assert [result.best_cost for result in seen] == costs
    assert [result.config.seed for result in seen] == [(0, 0, 0), (0, 0, 1)]
    assert seen[0].config.selection_kind == "tournament"
