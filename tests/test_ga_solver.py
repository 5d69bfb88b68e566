from __future__ import annotations

import concurrent.futures
import multiprocessing
import os
from concurrent.futures.process import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from predfolio import frontier, ga_solver, taguchi
from predfolio.errors import ConfigError, InfeasibleBoundsError
from predfolio.ga_solver import (
    CROSSOVER_KINDS,
    SELECTION_KINDS,
    STEP_CEILING,
    STEP_FLOOR,
    STEP_START,
    GAConfig,
    adapt_steps,
    crossover,
    evolve,
    evolve_batch,
    init_population,
    mutate,
    selection_probabilities,
    stop_summary,
    tournament_contenders,
    tournament_select,
    truncate,
)
from predfolio.objective import Bounds, ObjectiveParams
from predfolio.risk_model import RiskModel

from conftest import random_risk_model
from oracles import best_linear_portfolio, grid_search_mvs, truncate_by_scan


def rows(*values, dtype=float) -> np.ndarray:
    """One ``(1, K)`` batch row per argument."""
    return np.array(values, dtype=dtype)


def diag_model(variances, mu=None):
    m = len(variances)
    return RiskModel(
        assets=[f"A{i}" for i in range(m)],
        mu=np.asarray(mu if mu is not None else np.zeros(m), dtype=float),
        sigma=np.diag(np.asarray(variances, dtype=float)),
        skew=np.zeros(m),
        estimation_window=50,
    )


def fast_config(**kwargs) -> GAConfig:
    defaults = dict(population_size=80, stall_generations=25, generation_cap=200, seed=0)
    defaults.update(kwargs)
    return GAConfig(**defaults)


# ------------------------------------------------------------ initialization

def test_init_population_full_universe_forced():
    rng = np.random.default_rng(0)
    selection, raw = init_population(5, 5, 20, rng)
    assert selection.shape == raw.shape == (20, 5)
    np.testing.assert_array_equal(np.sort(selection, axis=1), np.tile(np.arange(5), (20, 1)))
    assert np.all((raw >= 0.0) & (raw <= 1.0))


def test_init_population_deterministic():
    a = init_population(10, 4, 30, np.random.default_rng(42))
    b = init_population(10, 4, 30, np.random.default_rng(42))
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])


def test_init_population_default_size_from_config():
    config = GAConfig()
    selection, raw = init_population(20, 5, config.population_size, np.random.default_rng(0))
    assert len(selection) == len(raw) == 200


def test_init_population_k_larger_than_universe():
    with pytest.raises(ConfigError):
        init_population(3, 4, 10, np.random.default_rng(0))


# -------------------------------------------------------------- selection

def test_roulette_single_chromosome_always_selected():
    np.testing.assert_array_equal(selection_probabilities(np.array([1.0]), "roulette"), [1.0])


def test_roulette_two_chromosome_frequencies():
    best, worst = -1.0, 2.0
    np.testing.assert_allclose(
        selection_probabilities(np.array([best, worst]), "roulette"),
        [2.0 / 3.0, 1.0 / 3.0], rtol=1e-15,
    )
    # order of the population does not matter, only the rank of the cost
    np.testing.assert_allclose(
        selection_probabilities(np.array([worst, best]), "roulette"),
        [1.0 / 3.0, 2.0 / 3.0], rtol=1e-15,
    )


def test_roulette_equal_costs_near_uniform():
    # rank weights 4..1 are assigned in stable index order on ties
    np.testing.assert_allclose(
        selection_probabilities(np.full(4, 5.0), "roulette"), [0.4, 0.3, 0.2, 0.1], rtol=1e-15
    )


def test_tournament_prefers_cheaper(rng):
    picks = tournament_select(np.array([0.0, 9.0]), 200, rng, tournament_size=2)
    assert np.all(picks == 0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.integers(1, 12), st.integers(1, 40), st.integers(1, 14), st.integers(0, 2**32 - 1),
)
def test_tournament_contenders_are_distinct_and_the_cheapest_wins(p, n, size, seed):
    # integer costs over few values, so equally cheap contenders are common
    costs = np.random.default_rng(seed).integers(0, 4, size=p).astype(float)
    winners = tournament_select(costs, n, np.random.default_rng(seed), tournament_size=size)
    if size >= p:
        assert np.all(winners == np.argmin(costs))
        return
    contenders = tournament_contenders(p, n, size, np.random.default_rng(seed))
    assert contenders.shape == (n, size)
    assert np.all((contenders >= 0) & (contenders < p))
    assert np.all(np.diff(contenders, axis=1) > 0)  # sorted, hence distinct
    for row, winner in zip(contenders.tolist(), winners.tolist()):
        assert winner == min(row, key=lambda i: (costs[i], i))


def test_tournament_contenders_are_uniform_pairs():
    # every unordered pair of 4 members is equally likely
    contenders = tournament_contenders(4, 60_000, 2, np.random.default_rng(0))
    _, counts = np.unique(contenders[:, 0] * 4 + contenders[:, 1], return_counts=True)
    assert len(counts) == 6
    np.testing.assert_allclose(counts / 60_000, 1 / 6, atol=0.01)


# -------------------------------------------------------------- crossover

def test_crossover_identical_parents_fixed_point(rng):
    sel, raw = rows([3, 1, 4], dtype=int), rows([0.2, 0.5, 0.9])
    child_sel, child_raw = crossover(sel, raw, sel, raw, rng, kind="two-point")
    np.testing.assert_array_equal(child_sel, sel)
    np.testing.assert_array_equal(child_raw, raw)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 8), st.integers(1, 16), st.integers(0, 2**32 - 1),
       st.sampled_from(CROSSOVER_KINDS))
def test_crossover_disjoint_parents_follow_the_cut_pattern(k, c, seed, kind):
    # Disjoint parents never trigger repair, so each child shows its kind's slot pattern.
    rng = np.random.default_rng(seed)
    assets = np.argsort(rng.random((c, 2 * k)), axis=1)
    sel_a, sel_b = assets[:, :k], assets[:, k:]
    raw_a, raw_b = rng.random((c, k)), rng.random((c, k))
    child_sel, child_raw = crossover(sel_a, raw_a, sel_b, raw_b, rng, kind)
    from_a, from_b = child_sel == sel_a, child_sel == sel_b
    # every kind: each slot holds A's or B's gene of that same slot
    assert np.all(from_a ^ from_b)
    np.testing.assert_array_equal(child_raw, np.where(from_a, raw_a, raw_b))
    for row in from_a:
        if kind == "single-point" and k > 1:
            # A on a prefix of length 1..K-1, B after it
            cut = int(row.argmin())
            assert 1 <= cut <= k - 1
            assert row[:cut].all() and not row[cut:].any()
        elif kind == "two-point":
            # B on one contiguous non-empty window [f, s), A elsewhere
            window = np.flatnonzero(~row)
            assert len(window) > 0
            assert not row[window[0]:window[-1] + 1].any()


def test_crossover_shared_asset_raw_from_either_parent():
    trials = 10_000
    sel_a = np.tile([7, 1, 2], (trials, 1))
    sel_b = np.tile([7, 4, 5], (trials, 1))
    raw_a = np.tile([0.25, 0.2, 0.3], (trials, 1))
    raw_b = np.tile([0.75, 0.8, 0.9], (trials, 1))
    rng = np.random.default_rng(11)
    child_sel, child_raw = crossover(sel_a, raw_a, sel_b, raw_b, rng, kind="two-point")
    raw_of_7 = child_raw[child_sel == 7]
    assert np.all((raw_of_7 == 0.25) | (raw_of_7 == 0.75))
    from_a = int((raw_of_7 == 0.25).sum())
    assert from_a / trials == pytest.approx(0.5, abs=0.02)


def test_crossover_child_subset_size_and_uniqueness(rng):
    for kind in ("single-point", "two-point", "scattered"):
        sel_a = np.argsort(rng.random((300, 12)), axis=1)[:, :5]
        sel_b = np.argsort(rng.random((300, 12)), axis=1)[:, :5]
        child_sel, _ = crossover(sel_a, rng.random((300, 5)), sel_b, rng.random((300, 5)),
                                 rng, kind=kind)
        assert child_sel.shape == (300, 5)
        for child, a, b in zip(child_sel.tolist(), sel_a.tolist(), sel_b.tolist()):
            assert len(set(child)) == 5
            assert set(child) <= set(a) | set(b)


# ---------------------------------------------------------------- mutation

def test_mutate_zero_step_leaves_raw_unchanged(rng):
    sel, raw = rows([0, 1, 2], dtype=int), rows([0.2, 0.5, 0.8])
    new_sel, new_raw = mutate(sel, raw, 0.0, rng, n_assets=6, swap_rate=0.0)
    np.testing.assert_array_equal(new_raw, raw)
    np.testing.assert_array_equal(new_sel, sel)


def test_adaptive_step_schedule():
    # Three runs, stepped with different outcomes, each row follows its own schedule.
    steps = np.full(3, STEP_START)
    assert steps.tolist() == [0.1] * 3
    steps = adapt_steps(steps, np.array([True, False, True]))
    assert steps.tolist() == [0.2, 0.05, 0.2]
    steps = adapt_steps(steps, np.array([False, True, True]))
    assert steps.tolist() == [0.1, 0.1, 0.4]
    for _ in range(30):
        steps = adapt_steps(steps, np.ones(3, dtype=bool))
    assert steps.tolist() == [0.5] * 3
    assert STEP_CEILING == 0.5
    for _ in range(30):
        steps = adapt_steps(steps, np.zeros(3, dtype=bool))
    assert steps == pytest.approx([1e-4] * 3)
    assert STEP_FLOOR == 1e-4


def test_mutate_raw_stays_in_unit_box(rng):
    # 10,000 rows: 2,000 for each subset size 1..5, at step lengths up to 0.5
    for k in range(1, 6):
        selection = np.argsort(rng.random((2000, 10)), axis=1)[:, :k]
        new_sel, new_raw = mutate(
            selection, rng.random((2000, k)), float(rng.uniform(0, 0.5)), rng, n_assets=10,
            swap_rate=0.1,
        )
        assert np.all((new_raw >= 0.0) & (new_raw <= 1.0))
        assert all(len(set(row)) == k for row in new_sel.tolist())


def test_mutate_swap_introduces_non_member(rng):
    selection = np.tile([0, 1, 2], (2000, 1))
    new_sel, _ = mutate(selection, np.tile([0.2, 0.5, 0.8], (2000, 1)), 0.0, rng,
                        n_assets=8, swap_rate=1.0)
    swapped = 0
    for row in new_sel.tolist():
        new = set(row) - {0, 1, 2}
        if new:
            swapped += 1
            assert new <= {3, 4, 5, 6, 7}
    assert swapped == 2000


# ---------------------------------------------------- batched operators

@st.composite
def parent_batches(draw):
    """``(C, K)`` parent rows over a universe of ``n`` assets; with a small
    universe most pairs share assets, and some rows are identical."""
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, n))
    c = draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sel_a = np.argsort(rng.random((c, n)), axis=1)[:, :k]
    sel_b = np.argsort(rng.random((c, n)), axis=1)[:, :k]
    same = rng.random(c) < 0.2
    sel_b[same] = sel_a[same]
    return n, sel_a, rng.random((c, k)), sel_b, rng.random((c, k)), rng


BATCH_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)


@BATCH_SETTINGS
@given(parent_batches(), st.sampled_from(CROSSOVER_KINDS))
def test_crossover_rows_hold_k_unique_assets_of_the_union(batch, kind):
    _, sel_a, raw_a, sel_b, raw_b, rng = batch
    child_sel, child_raw = crossover(sel_a, raw_a, sel_b, raw_b, rng, kind)
    assert child_sel.shape == child_raw.shape == sel_a.shape
    for i in range(len(sel_a)):
        raw_of_a = dict(zip(sel_a[i].tolist(), raw_a[i].tolist()))
        raw_of_b = dict(zip(sel_b[i].tolist(), raw_b[i].tolist()))
        assets = child_sel[i].tolist()
        assert len(set(assets)) == len(assets)
        assert set(assets) <= set(raw_of_a) | set(raw_of_b)
        for asset, value in zip(assets, child_raw[i].tolist()):
            assert value in (raw_of_a.get(asset), raw_of_b.get(asset))


@BATCH_SETTINGS
@given(parent_batches(), st.floats(0.0, 0.5), st.sampled_from([0.0, 0.5, 1.0]))
def test_mutate_rows_keep_k_unique_assets_and_unit_raws(batch, step, swap_rate):
    n, selection, raw, _, _, rng = batch
    new_sel, new_raw = mutate(selection, raw, step, rng, n, swap_rate)
    assert new_sel.shape == new_raw.shape == selection.shape
    assert np.all((new_raw >= 0.0) & (new_raw <= 1.0))
    for old, new in zip(selection.tolist(), new_sel.tolist()):
        assert len(set(new)) == len(new)
        assert sum(a != b for a, b in zip(old, new)) <= 1
        assert set(new) <= set(range(n))


@st.composite
def truncation_cases(draw):
    """A runs with integer-valued costs over a few values, so equal members,
    and children tied with members at the survival boundary, are common."""
    a = draw(st.integers(1, 4))
    p = draw(st.integers(1, 12))
    c = draw(st.integers(0, 16))
    top = draw(st.integers(0, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    costs = rng.integers(0, top + 1, size=(a, p)).astype(float)
    return costs, rng.integers(0, top + 1, size=(a, c)).astype(float)


@BATCH_SETTINGS
@given(truncation_cases())
def test_truncation_keeps_the_cheapest_and_matches_the_scan(case):
    costs, child_costs = case
    before = costs.copy()
    runs, positions, children = truncate(costs, child_costs)
    np.testing.assert_array_equal(costs, before)
    for r in range(len(costs)):
        mine = runs == r
        placed, taken = positions[mine], children[mine]
        assert dict(zip(placed.tolist(), taken.tolist())) == truncate_by_scan(
            costs[r], child_costs[r]
        )
        # ascending evicted positions, filled in creation order
        assert np.all(np.diff(placed) > 0) and np.all(np.diff(taken) > 0)
        after = costs[r].copy()
        after[placed] = child_costs[r, taken]
        p = len(after)
        pooled = np.concatenate([costs[r], child_costs[r]])
        np.testing.assert_array_equal(np.sort(after), np.sort(pooled)[:p])
        if len(placed):  # an entering child is strictly cheaper than any member it evicts
            assert child_costs[r, taken].max() < costs[r, placed].min()
        assert after.min() <= costs[r].min()


# ------------------------------------------------------------------- evolve

def test_evolve_inverse_variance_weights():
    model = diag_model([0.01, 0.04, 0.09])
    params = ObjectiveParams(lam=1.0, theta=0.0)
    result = evolve(model, params, Bounds(0.0, 1.0), 3, fast_config(seed=21))
    oracle = grid_search_mvs(model.mu, model.sigma, [1.0], steps=200)[1.0]
    assert result.best.sigma_p <= oracle[0] * 1.02
    np.testing.assert_allclose(
        result.best.weights, [0.7347, 0.1837, 0.0816], atol=0.04
    )


def test_evolve_max_return_under_bounds():
    mu = np.array([0.02, 0.015, 0.012, 0.008, 0.004])
    model = diag_model(np.full(5, 0.001), mu=mu)
    params = ObjectiveParams(lam=0.0, theta=0.0)
    result = evolve(model, params, Bounds(0.1, 0.3), 5, fast_config(seed=4))
    oracle_ret, oracle_w = best_linear_portfolio(mu, 0.1, 0.3)
    np.testing.assert_allclose(oracle_w, [0.3, 0.3, 0.2, 0.1, 0.1], atol=1e-9)
    assert -result.best_cost == pytest.approx(oracle_ret, abs=max(0.05 * oracle_ret, 1e-5))
    assert result.best.weights[0] >= 0.25


def test_evolve_time_limit_stop():
    rng = np.random.default_rng(2)
    model = random_risk_model(rng, 8)
    params = ObjectiveParams(lam=0.5, theta=0.1)
    config = GAConfig(
        population_size=400,
        time_limit_seconds=0.05,
        generation_cap=100_000,
        stall_generations=100_000 - 1,
        seed=0,
    )
    result = evolve(model, params, Bounds(0.0, 1.0), 4, config)
    assert result.stop_reason == "time"
    weights = result.best.weights
    assert abs(weights.sum() - 1.0) <= 1e-9


def test_evolve_best_cost_non_increasing(rng):
    model = random_risk_model(rng, 6)
    params = ObjectiveParams(lam=0.7, theta=0.2)
    result = evolve(model, params, Bounds(0.05, 0.6), 4, fast_config(seed=9))
    history = np.array(result.cost_history)
    assert np.all(np.diff(history) <= 0.0)
    assert result.best_cost == history[-1]


def test_evolve_deterministic(rng):
    model = random_risk_model(rng, 6)
    params = ObjectiveParams(lam=0.5, theta=0.3)
    config = fast_config(seed=77)
    first = evolve(model, params, Bounds(0.05, 0.6), 4, config)
    second = evolve(model, params, Bounds(0.05, 0.6), 4, config)
    assert first.best_cost == second.best_cost
    assert first.generations == second.generations
    assert first.cost_history == second.cost_history
    np.testing.assert_array_equal(first.best.weights, second.best.weights)
    assert first.best.selection == second.best.selection


def test_evolve_infeasible_configuration_errors_upfront(rng):
    model = random_risk_model(rng, 12)
    params = ObjectiveParams(lam=0.5, theta=0.0)
    with pytest.raises(InfeasibleBoundsError):
        evolve(model, params, Bounds(0.1, 0.3), 11, fast_config())
    with pytest.raises(ConfigError):
        evolve(model, params, Bounds(0.0, 1.0), 13, fast_config())


def test_evolve_stall_stop_reason(rng):
    model = diag_model([0.01, 0.02])
    params = ObjectiveParams(lam=1.0, theta=0.0)
    result = evolve(model, params, Bounds(0.0, 1.0), 2, fast_config(seed=1))
    assert result.stop_reason == "stall"
    assert result.generations >= result.config.stall_generations


def test_evolve_vs_grid_oracle_small_instances(rng):
    # tighter version of the acceptance sweep on two models for fast feedback
    for m, seed in ((3, 1), (4, 2)):
        model = random_risk_model(np.random.default_rng(seed), m)
        oracle = grid_search_mvs(model.mu, model.sigma, [0.0, 0.5, 1.0], steps=200)
        for lam in (0.0, 0.5, 1.0):
            params = ObjectiveParams(lam=lam, theta=0.0)
            result = evolve(
                model, params, Bounds(0.0, 1.0), m, fast_config(seed=(100 + seed))
            )
            best_cost, _ = oracle[lam]
            assert abs(result.best_cost - best_cost) <= max(0.05 * abs(best_cost), 1e-5)


@pytest.mark.parametrize("selection_kind", SELECTION_KINDS)
@pytest.mark.parametrize("crossover_kind", CROSSOVER_KINDS)
def test_evolve_fixed_work_per_generation(selection_kind, crossover_kind):
    model = random_risk_model(np.random.default_rng(5), 7)
    params = ObjectiveParams(lam=0.5, theta=0.2)
    config = GAConfig(
        population_size=30, crossover_fraction=0.7, selection_kind=selection_kind,
        crossover_kind=crossover_kind, generation_cap=6, stall_generations=50, seed=3,
    )
    result = evolve(model, params, Bounds(0.05, 0.5), 3, config)
    children = int(round(config.crossover_fraction * config.population_size))
    assert result.stop_reason == "generation-limit"
    assert result.generations == 6
    assert result.evaluations == config.population_size + result.generations * children
    assert len(result.cost_history) == len(result.mean_history) == result.generations + 1


# --------------------------------------------------------- batches of runs

def assert_same_run(batched, alone):
    assert batched.cost_history == alone.cost_history
    assert batched.mean_history == alone.mean_history
    assert batched.best_cost == alone.best_cost
    assert batched.best.weights.tobytes() == alone.best.weights.tobytes()
    assert batched.best.selection == alone.best.selection
    assert (batched.best.mu_p, batched.best.sigma_p) == (alone.best.mu_p, alone.best.sigma_p)
    assert batched.stop_reason == alone.stop_reason
    assert batched.generations == alone.generations
    assert batched.evaluations == alone.evaluations
    assert batched.config == alone.config


BATCH_RUNS = [  # (lambda, theta, seed): mixed preferences, so runs stall apart
    (1.0, 0.0, 3), (0.5, 0.2, (7, 1)), (0.0, 0.8, 11), (0.8, 0.0, (7, 2)),
    (0.2, 0.2, 5), (1.0, 0.8, 0), (0.5, 0.0, (1, 2, 3)),
]


@pytest.mark.parametrize("selection_kind,crossover_kind,skew_mode,bounds", [
    ("roulette", "single-point", "weighted", Bounds(0.05, 0.5)),
    ("tournament", "scattered", "weighted", Bounds(0.0, 1.0)),
    ("uniform", "two-point", "literal", Bounds(0.1, 0.3)),
])
def test_batched_runs_equal_standalone_runs(selection_kind, crossover_kind, skew_mode, bounds):
    model = random_risk_model(np.random.default_rng(8), 9)
    base = GAConfig(
        population_size=30, selection_kind=selection_kind, crossover_kind=crossover_kind,
        stall_generations=4, generation_cap=40,
    )
    params = [ObjectiveParams(lam, theta, skew_mode) for lam, theta, _ in BATCH_RUNS]
    configs = [replace(base, seed=seed) for _, _, seed in BATCH_RUNS]
    batched = evolve_batch(model, params, bounds, 4, configs)
    assert len(batched) == len(BATCH_RUNS)
    for result, p, config in zip(batched, params, configs):
        assert_same_run(result, evolve(model, p, bounds, 4, config))
    # the mask matters: the runs stop at different generations
    assert len({result.generations for result in batched}) > 1
    assert {result.stop_reason for result in batched} == {"stall"}


def test_batched_runs_equal_standalone_runs_at_the_generation_cap():
    model = random_risk_model(np.random.default_rng(4), 12)
    base = GAConfig(population_size=20, stall_generations=4, generation_cap=10)
    params = [ObjectiveParams(lam, theta) for lam, theta, _ in BATCH_RUNS]
    configs = [replace(base, seed=seed) for _, _, seed in BATCH_RUNS]
    batched = evolve_batch(model, params, Bounds(0.0, 0.4), 5, configs)
    for result, p, config in zip(batched, params, configs):
        assert_same_run(result, evolve(model, p, Bounds(0.0, 0.4), 5, config))
    assert {result.stop_reason for result in batched} == {"stall", "generation-limit"}


def test_row_budget_splits_runs_into_batches_without_changing_them(monkeypatch):
    model = random_risk_model(np.random.default_rng(6), 8)
    base = GAConfig(population_size=25, stall_generations=5, generation_cap=30)
    params = [ObjectiveParams(lam, theta) for lam, theta, _ in BATCH_RUNS]
    configs = [replace(base, seed=seed) for _, _, seed in BATCH_RUNS]
    assert ga_solver._batches(configs) == [list(range(len(BATCH_RUNS)))]
    whole = evolve_batch(model, params, Bounds(0.0, 0.5), 3, configs)
    monkeypatch.setattr(ga_solver, "_BATCH_ROWS", 3 * base.population_size)
    assert ga_solver._batches(configs) == [[0, 1, 2], [3, 4, 5], [6]]
    split = evolve_batch(model, params, Bounds(0.0, 0.5), 3, configs)
    for batched, alone in zip(split, whole):
        assert_same_run(batched, alone)


# Floors of 0.4 on assets 0-3 and caps of 0.3 on assets 4-7: about one
# 3-subset in seven is infeasible, so the penalty factor shapes the costs.
MIXED_BOUNDS = Bounds(np.array([0.4] * 4 + [0.0] * 4), np.array([1.0] * 4 + [0.3] * 4))


def mixed_run_configs(draw) -> list[GAConfig]:
    return draw(st.lists(st.builds(
        GAConfig,
        population_size=st.sampled_from([10, 16]),
        selection_kind=st.sampled_from(SELECTION_KINDS),
        crossover_kind=st.sampled_from(CROSSOVER_KINDS),
        crossover_fraction=st.sampled_from([0.5, 0.8]),
        penalty_factor=st.sampled_from([10.0, 100.0]),
        seed=st.integers(0, 3),
        stall_generations=st.just(3),
        generation_cap=st.just(8),
    ), min_size=1, max_size=8))


@settings(max_examples=25, deadline=None)
@given(data=st.data(), batch_rows=st.sampled_from([ga_solver._BATCH_ROWS, 32]))
def test_mixed_runs_equal_standalone_runs_in_input_order(data, batch_rows):
    model = random_risk_model(np.random.default_rng(12), 8)
    configs = mixed_run_configs(data.draw)
    params = [ObjectiveParams(data.draw(st.sampled_from([0.2, 0.8])), 0.1) for _ in configs]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ga_solver, "_BATCH_ROWS", batch_rows)
        batched = evolve_batch(model, params, MIXED_BOUNDS, 3, configs)
    assert len(batched) == len(configs)
    for result, p, config in zip(batched, params, configs):
        assert_same_run(result, evolve(model, p, MIXED_BOUNDS, 3, config))


def test_evolve_batch_groups_runs_by_all_but_seed_and_penalty(monkeypatch):
    model = random_risk_model(np.random.default_rng(9), 8)
    small = GAConfig(population_size=10, stall_generations=3, generation_cap=12)
    large = replace(small, population_size=20, selection_kind="tournament",
                    crossover_kind="two-point", crossover_fraction=0.6)
    configs = [  # interleaved, as the tune's array rows are
        replace(small, seed=0, penalty_factor=10.0),
        replace(large, seed=0, penalty_factor=10.0),
        replace(small, seed=0, penalty_factor=100.0),
        replace(large, seed=1, penalty_factor=50.0),
        replace(small, seed=1, penalty_factor=50.0),
        replace(large, seed=2, penalty_factor=100.0),
        replace(small, seed=2, penalty_factor=10.0),
    ]
    params = [ObjectiveParams(0.8, 0.2)] * len(configs)
    monkeypatch.setattr(ga_solver, "_BATCH_ROWS", 40)
    batches = [
        [(configs[r].population_size, configs[r].seed, configs[r].penalty_factor) for r in batch]
        for batch in ga_solver._batches(configs)
    ]
    assert batches == [  # groups in order of first appearance, 4 or 2 runs a batch
        [(10, 0, 10.0), (10, 0, 100.0), (10, 1, 50.0), (10, 2, 10.0)],
        [(20, 0, 10.0), (20, 1, 50.0)],
        [(20, 2, 100.0)],
    ]
    batched = evolve_batch(model, params, MIXED_BOUNDS, 3, configs)
    monkeypatch.undo()
    for result, config in zip(batched, configs):
        assert_same_run(result, evolve(model, params[0], MIXED_BOUNDS, 3, config))
    # the same run under another penalty factor scores its infeasible members apart
    assert batched[0].mean_history[0] != batched[2].mean_history[0]


def on_cpus(monkeypatch, cpus: int | None) -> list[int]:
    """Make ``evolve_batch`` see ``cpus`` usable CPUs, or a platform without
    ``os.sched_getaffinity`` for None; returns the worker count of every
    pool it starts from then on."""
    pools = []

    def spy(workers, **kwargs):
        pools.append(workers)
        return ProcessPoolExecutor(workers, **kwargs)

    if cpus is None:
        monkeypatch.delattr(os, "sched_getaffinity")
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spy)
    return pools


def test_pooled_batches_equal_serial_batches(monkeypatch):
    model = random_risk_model(np.random.default_rng(5), 8)
    base = GAConfig(population_size=20, stall_generations=4, generation_cap=12, seed=3)
    jobs = [(taguchi.assignment(levels), (3, row, 0))
            for row, levels in enumerate(taguchi.ARRAY[::3])]
    monkeypatch.setattr(ga_solver, "_BATCH_ROWS", 60)

    def frontier_and_tune_runs(cpus):
        pools = on_cpus(monkeypatch, cpus)
        swept = frontier.sweep(model, Bounds(0.0, 0.6), 3, base, [1.0, 0.5, 0.0], [0.0, 0.5],
                               "weighted", repeats=2)
        tuned = []
        taguchi.ga_runner(model, ObjectiveParams(0.8, 0.2), MIXED_BOUNDS, 3, base,
                          on_result=tuned.append)(jobs)
        return pools, swept.runs + tuned

    serial_pools, serial = frontier_and_tune_runs(1)
    pooled_pools, pooled = frontier_and_tune_runs(2)
    assert (serial_pools, pooled_pools) == ([], [2, 2])
    assert len(pooled) == len(serial) == 12 + len(jobs)
    for result, alone in zip(pooled, serial):
        assert_same_run(result, alone)
    assert not multiprocessing.active_children()


def test_error_in_a_worker_batch_reaches_the_caller(monkeypatch):
    # A NaN mean return makes every cost that holds asset 0 NaN; roulette
    # selection refuses that, while tournament runs go on.
    model = random_risk_model(np.random.default_rng(3), 8)
    model.mu[0] = np.nan
    configs = [fast_config(selection_kind=kind, seed=seed, generation_cap=5)
               for kind in ("tournament", "roulette") for seed in range(2)]
    params = [ObjectiveParams(0.8, 0.2)] * len(configs)
    assert ga_solver._batches(configs) == [[0, 1], [2, 3]]
    raised = {}
    for cpus in (1, 2, None):
        pools = on_cpus(monkeypatch, cpus)
        with pytest.raises(ConfigError) as error:
            evolve_batch(model, params, Bounds(), 3, configs)
        raised[cpus] = (type(error.value), str(error.value), pools)
        assert not multiprocessing.active_children()
    message = "selection requires finite fitness for every chromosome"
    assert raised == {
        1: (ConfigError, message, []),
        2: (ConfigError, message, [2]),
        None: (ConfigError, message, []),
    }


def test_evolve_batch_refuses_mixed_skew_modes_and_invalid_configs():
    model = random_risk_model(np.random.default_rng(1), 6)
    params = [ObjectiveParams(0.5, 0.0)] * 2
    with pytest.raises(ConfigError, match="skew mode"):
        evolve_batch(model, [ObjectiveParams(0.5, 0.0, "literal"), params[0]], Bounds(), 3,
                     [fast_config(seed=1), fast_config(seed=2)])
    with pytest.raises(ConfigError, match="2 objective params for 1 GA configs"):
        evolve_batch(model, params, Bounds(), 3, [fast_config()])
    # An invalid config cannot reach the batch: building or replacing one
    # refuses it. A zero stall window would otherwise run, stopping every
    # run at once.
    for invalid, message in [({"crossover_kind": "bogus"}, "unknown crossover kind 'bogus'"),
                             ({"stall_generations": 0}, "stall_generations must be >= 1")]:
        with pytest.raises(ConfigError, match=message):
            fast_config(**invalid)
        with pytest.raises(ConfigError, match=message):
            replace(fast_config(), **invalid)
    assert evolve_batch(model, [], Bounds(), 3, []) == []


def test_batch_shares_one_clock_for_the_time_stop():
    model = random_risk_model(np.random.default_rng(2), 8)
    base = GAConfig(population_size=50, time_limit_seconds=0.05,
                    generation_cap=100_000, stall_generations=100_000 - 1)
    configs = [replace(base, seed=seed) for seed in range(4)]
    results = evolve_batch(model, [ObjectiveParams(0.5, 0.1)] * 4, Bounds(), 4, configs)
    assert {result.stop_reason for result in results} == {"time"}
    # the clock is checked once per generation for the whole batch
    assert len({result.generations for result in results}) == 1


def test_stop_summary_counts_reasons_and_evaluations():
    model = diag_model([0.01, 0.02, 0.03])
    params = ObjectiveParams(lam=1.0, theta=0.0)
    results = [
        evolve(model, params, Bounds(), 2, fast_config(seed=1)),
        evolve(model, params, Bounds(), 2, fast_config(seed=2, generation_cap=3)),
    ]
    total = sum(result.evaluations for result in results)
    assert stop_summary(results) == f"generation-limit 1, stall 1; {total} evaluations"
    assert stop_summary([]) == "0 evaluations"
