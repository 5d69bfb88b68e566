from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from predfolio.errors import ConfigError, InfeasibleBoundsError
from predfolio.ga_solver import (
    CROSSOVER_KINDS,
    SELECTION_KINDS,
    AdaptiveStep,
    GAConfig,
    crossover,
    evolve,
    init_population,
    mutate,
    selection_probabilities,
    tournament_select,
)
from predfolio.objective import Bounds, ObjectiveParams
from predfolio.risk_model import RiskModel

from conftest import random_risk_model
from oracles import best_linear_portfolio, grid_search_mvs


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
    step = AdaptiveStep()
    assert step.length == 0.1
    step.update(improved=True)
    assert step.length == 0.2
    step.update(improved=False)
    assert step.length == 0.1
    for _ in range(30):
        step.update(improved=True)
    assert step.length == 0.5
    for _ in range(30):
        step.update(improved=False)
    assert step.length == pytest.approx(1e-4)


def test_mutate_raw_stays_in_unit_box(rng):
    # 10,000 rows: 2,000 for each subset size 1..5, at step lengths up to 0.5
    for k in range(1, 6):
        selection = np.argsort(rng.random((2000, 10)), axis=1)[:, :k]
        new_sel, new_raw = mutate(
            selection, rng.random((2000, k)), float(rng.uniform(0, 0.5)), rng, n_assets=10
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
