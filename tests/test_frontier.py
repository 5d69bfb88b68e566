from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from predfolio.frontier import FrontierPoint, efficient_filter, sweep
from predfolio.ga_solver import GAConfig, evolve
from predfolio.objective import (
    Bounds, ObjectiveParams, Portfolio, portfolio_return, portfolio_risk,
)

from conftest import random_risk_model
from oracles import dominance_scan


def point(sigma_p, mu_p, theta=0.0) -> FrontierPoint:
    portfolio = Portfolio(selection=(0,), weights=np.array([1.0]), mu_p=mu_p, sigma_p=sigma_p)
    return FrontierPoint(
        lam=0.5,
        theta=theta,
        portfolio=portfolio,
        cost=0.0,
        seed=(0,),
        stop_reason="stall",
        generations=1,
        spread=0.0,
    )


def small_ga_config(seed=0) -> GAConfig:
    return GAConfig(population_size=60, stall_generations=15, generation_cap=120, seed=seed)


# ----------------------------------------------------------------- filtering

def test_filter_single_point_is_itself():
    p = point(1.0, 1.0)
    assert efficient_filter([p]) == [p]


def test_filter_removes_definitionally_dominated():
    a = point(1.0, 1.0)
    b = point(2.0, 0.5)
    assert efficient_filter([a, b]) == [a]


def test_filter_keeps_exact_duplicates():
    a = point(1.0, 1.0)
    b = point(1.0, 1.0)
    assert set(map(id, efficient_filter([a, b]))) == {id(a), id(b)}


def test_filter_ignores_nonzero_theta_points():
    a = point(1.0, 1.0)
    skewed = point(0.1, 9.0, theta=0.2)
    assert efficient_filter([a, skewed]) == [a]


def test_filter_matches_brute_force_on_random_clouds(rng):
    for _ in range(50):
        n = int(rng.integers(1, 40))
        cloud = [
            point(float(s), float(m))
            for s, m in zip(rng.uniform(0, 1, n).round(2), rng.uniform(0, 1, n).round(2))
        ]
        fast = efficient_filter(cloud)
        brute = dominance_scan(cloud)
        assert [(p.sigma_p, p.mu_p) for p in fast] == [(p.sigma_p, p.mu_p) for p in brute]


def test_filter_output_sorted_and_mutually_non_dominated(rng):
    cloud = [point(float(s), float(m)) for s, m in rng.uniform(0, 1, size=(30, 2))]
    result = efficient_filter(cloud)
    sigmas = [p.sigma_p for p in result]
    assert sigmas == sorted(sigmas)
    for p in result:
        for q in result:
            if p is q:
                continue
            assert not (
                q.sigma_p <= p.sigma_p
                and q.mu_p >= p.mu_p
                and (q.sigma_p < p.sigma_p or q.mu_p > p.mu_p)
            )


# -------------------------------------------------------------------- sweep

def test_sweep_default_grids_give_12_points(rng):
    model = random_risk_model(rng, 4)
    config = GAConfig(
        population_size=30, stall_generations=5, generation_cap=15, seed=0
    )
    result = sweep(model, Bounds(0.0, 1.0), 3, config, repeats=1)
    assert len(result.points) == 12
    assert not result.failures
    grid = {(p.lam, p.theta) for p in result.points}
    assert grid == {(l, t) for l in (1.0, 0.8, 0.2, 0.0) for t in (0.0, 0.2, 0.8)}


def test_sweep_degenerate_single_point(rng):
    model = random_risk_model(rng, 3)
    result = sweep(
        model, Bounds(0.0, 1.0), 3, small_ga_config(), lambda_grid=[1.0], theta_grid=[0.0],
        repeats=1,
    )
    assert len(result.points) == 1
    assert result.points[0].lam == 1.0


def test_sweep_points_recompute_exactly(rng):
    model = random_risk_model(rng, 4)
    result = sweep(
        model, Bounds(0.05, 0.6), 3, small_ga_config(3),
        lambda_grid=[1.0, 0.0], theta_grid=[0.0], repeats=2,
    )
    for p in result.points:
        assert p.mu_p == portfolio_return(p.portfolio.weights, model.mu)
        assert p.sigma_p == portfolio_risk(p.portfolio.weights, model.sigma)
        assert p.spread >= 0.0


def test_sweep_records_failures_and_continues(rng):
    model = random_risk_model(rng, 12)
    # K=11 floors sum above 1: every GA run refuses upfront
    result = sweep(
        model, Bounds(0.1, 0.3), 11, small_ga_config(),
        lambda_grid=[1.0, 0.0], theta_grid=[0.0], repeats=1,
    )
    assert result.points == []
    assert len(result.failures) == 2
    assert result.runs == []
    assert all("no subset of 11 assets" in failure["error"] for failure in result.failures)


def test_sweep_theta_zero_endpoints_are_extremal(rng):
    model = random_risk_model(np.random.default_rng(123), 4)
    result = sweep(
        model, Bounds(0.0, 1.0), 4, small_ga_config(9),
        lambda_grid=[1.0, 0.5, 0.0], theta_grid=[0.0], repeats=2,
    )
    by_lam = {p.lam: p for p in result.points}
    sigmas = [p.sigma_p for p in result.points]
    mus = [p.mu_p for p in result.points]
    assert by_lam[1.0].sigma_p == pytest.approx(min(sigmas), abs=1e-6)
    assert by_lam[0.0].mu_p == pytest.approx(max(mus), abs=1e-6)


def test_sweep_points_are_the_best_of_their_standalone_repeats(rng):
    model = random_risk_model(rng, 7)
    config = GAConfig(population_size=24, stall_generations=4, generation_cap=30, seed=(5, 1))
    bounds = Bounds(0.05, 0.6)
    result = sweep(model, bounds, 3, config, lambda_grid=[1.0, 0.3], theta_grid=[0.0, 0.5],
                   repeats=3)
    assert len(result.runs) == 12
    for i, p in enumerate(result.points):
        li, ti = divmod(i, 2)
        alone = [
            evolve(model, ObjectiveParams(p.lam, p.theta), bounds, 3,
                   replace(config, seed=(5, 1, li, ti, rep)))
            for rep in range(3)
        ]
        costs = [run.best_cost for run in alone]
        best = costs.index(min(costs))
        assert [run.best_cost for run in result.runs[3 * i:3 * i + 3]] == costs
        assert p.cost == costs[best]
        assert p.seed == (5, 1, li, ti, best)
        assert p.portfolio.weights.tobytes() == alone[best].best.weights.tobytes()
        assert (p.stop_reason, p.generations) == (alone[best].stop_reason, alone[best].generations)
        assert p.spread == max(costs) - min(costs)


def test_sweep_under_a_tiny_time_limit_reports_time_stops(rng):
    model = random_risk_model(rng, 6)
    config = GAConfig(population_size=30, time_limit_seconds=1e-9, seed=0)
    result = sweep(model, Bounds(0.0, 1.0), 3, config, repeats=2)
    assert len(result.points) == 12
    assert {p.stop_reason for p in result.points} == {"time"}
    assert {run.stop_reason for run in result.runs} == {"time"}
    assert all(run.generations == 0 for run in result.runs)
