from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from predfolio.errors import ConfigError, DimensionError, InfeasibleBoundsError
from predfolio.objective import (
    SKEW_LITERAL,
    SKEW_WEIGHTED,
    Bounds,
    ObjectiveParams,
    decode_rows,
    decode_weights,
    mvs_cost,
    penalized_cost,
    penalized_costs,
    portfolio_return,
    portfolio_risk,
)
from predfolio.risk_model import RiskModel

from conftest import random_risk_model


def uniform_bounds(k, eps, dlt):
    return np.full(k, eps), np.full(k, dlt)


# ------------------------------------------------------------------- bounds

def test_bounds_validation():
    Bounds(0.1, 0.3)
    with pytest.raises(ConfigError):
        Bounds(0.3, 0.1)
    with pytest.raises(ConfigError):
        Bounds(-0.1, 0.5)
    with pytest.raises(ConfigError):
        Bounds(0.0, 1.5)
    with pytest.raises(ConfigError):
        Bounds(np.array([0.1, 0.4]), np.array([0.3, 0.3]))


def test_bounds_selection_slicing():
    bounds = Bounds(np.array([0.1, 0.0, 0.2]), np.array([0.3, 0.5, 0.9]))
    eps, dlt = bounds.for_selection([2, 0], n_assets=3)
    np.testing.assert_array_equal(eps, [0.2, 0.1])
    np.testing.assert_array_equal(dlt, [0.9, 0.3])


# ----------------------------------------------------------------- decoding

def test_decode_equal_raws_hand_value():
    eps, dlt = uniform_bounds(5, 0.1, 1.0)
    weights = decode_weights(np.ones(5), eps, dlt)
    np.testing.assert_allclose(weights, 0.2, rtol=1e-15)


def test_decode_upper_bound_repair_hand_value():
    eps, dlt = uniform_bounds(5, 0.1, 0.3)
    weights = decode_weights(np.array([1.0, 0.0, 0.0, 0.0, 0.0]), eps, dlt)
    np.testing.assert_allclose(weights, [0.3, 0.175, 0.175, 0.175, 0.175], rtol=1e-12)
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_decode_boundary_feasibility_and_infeasibility():
    eps, dlt = uniform_bounds(10, 0.1, 0.3)
    weights = decode_weights(np.ones(10), eps, dlt)
    np.testing.assert_allclose(weights, 0.1, atol=1e-12)
    eps11, dlt11 = uniform_bounds(11, 0.1, 0.3)
    with pytest.raises(InfeasibleBoundsError):
        decode_weights(np.ones(11), eps11, dlt11)
    with pytest.raises(InfeasibleBoundsError):
        decode_weights(np.ones(2), *uniform_bounds(2, 0.0, 0.4))


def test_decode_zero_raws_treated_as_uniform():
    eps, dlt = uniform_bounds(4, 0.05, 0.9)
    np.testing.assert_array_equal(
        decode_weights(np.zeros(4), eps, dlt), decode_weights(np.ones(4), eps, dlt)
    )


def test_decode_rejects_negative_raws():
    eps, dlt = uniform_bounds(3, 0.0, 1.0)
    with pytest.raises(ValueError):
        decode_weights(np.array([0.5, -0.1, 0.2]), eps, dlt)


def test_decode_random_sweep_respects_constraints(rng):
    # 10k random draws: sum to one within 1e-9 and both bounds hold
    for _ in range(10_000):
        k = int(rng.integers(2, 8))
        eps_val = float(rng.uniform(0.0, 0.9 / k))
        dlt_val = float(rng.uniform(max(1.05 / k, eps_val * 1.5), 1.0))
        eps, dlt = uniform_bounds(k, eps_val, min(dlt_val, 1.0))
        weights = decode_weights(rng.random(k), eps, dlt)
        assert abs(weights.sum() - 1.0) <= 1e-9
        assert np.all(weights >= eps - 1e-12)
        assert np.all(weights <= dlt + 1e-12)


def test_decode_cascading_repair_terminates(rng):
    # strongly skewed raws force several clip passes
    eps, dlt = uniform_bounds(6, 0.0, 0.25)
    weights = decode_weights(np.array([100.0, 10.0, 1.0, 0.1, 0.01, 0.001]), eps, dlt)
    assert abs(weights.sum() - 1.0) <= 1e-9
    assert np.all(weights <= 0.25 + 1e-12)


def test_decode_scale_invariance(rng):
    eps, dlt = uniform_bounds(5, 0.05, 0.5)
    raw = rng.random(5)
    base = decode_weights(raw, eps, dlt)
    np.testing.assert_array_equal(decode_weights(raw * 2.0, eps, dlt), base)
    np.testing.assert_array_equal(decode_weights(raw * 0.5, eps, dlt), base)
    np.testing.assert_allclose(decode_weights(raw * 3.7, eps, dlt), base, rtol=1e-12)


# ----------------------------------------------------------- portfolio math

def test_portfolio_return_identity_and_mean():
    mu = np.array([0.01, 0.02])
    assert portfolio_return([1.0, 0.0], mu) == 0.01
    assert portfolio_return([0.5, 0.5], mu) == pytest.approx(0.015)


def test_portfolio_return_table_cross_check():
    weights = np.array([0.131, 0.219, 0.089, 0.069, 0.492])
    returns = np.array([0.004916, 0.005032, 0.009823, 0.009700, 0.003187])
    assert portfolio_return(weights, returns) == pytest.approx(0.00486, abs=2e-4)


def test_portfolio_risk_hand_values():
    sigma = np.diag([0.04, 0.04])
    assert portfolio_risk([1.0, 0.0], sigma) == 0.04
    assert portfolio_risk([0.5, 0.5], sigma) == pytest.approx(0.02)
    correlated = np.full((2, 2), 0.09)
    for w in ([0.5, 0.5], [0.2, 0.8], [1.0, 0.0]):
        assert portfolio_risk(w, correlated) == pytest.approx(0.09)


def test_dimension_mismatches():
    with pytest.raises(DimensionError):
        portfolio_return([0.5, 0.5], [0.01, 0.02, 0.03])
    with pytest.raises(DimensionError):
        portfolio_risk([0.5, 0.5], np.eye(3))


def test_portfolio_risk_nonnegative_on_psd(rng):
    model = random_risk_model(rng, 6)
    for _ in range(500):
        w = rng.normal(size=6)
        assert portfolio_risk(w, model.sigma) >= -1e-12


# ----------------------------------------------------------------- MVS cost

def simple_model():
    return RiskModel(
        assets=["A", "B"],
        mu=np.array([0.01, 0.02]),
        sigma=np.diag([0.04, 0.04]),
        skew=np.array([0.0, 1.0]),
        estimation_window=10,
    )


def test_mvs_cost_hand_value_weighted_mode():
    model = simple_model()
    params = ObjectiveParams(lam=0.5, theta=0.2)
    cost = mvs_cost([0.5, 0.5], model, params)
    assert cost == pytest.approx(-0.0975, abs=1e-12)


def test_mvs_cost_literal_mode_ignores_weights_within_subset():
    model = simple_model()
    params = ObjectiveParams(lam=0.0, theta=1.0, skew_mode="literal")
    a = mvs_cost([0.5, 0.5], model, params, selection=[0, 1])
    b = mvs_cost([0.9, 0.1], model, params, selection=[0, 1])
    # only the return term varies; both pay the same full-subset skew term
    assert a - b == pytest.approx(-(0.015 - 0.011), abs=1e-12)


def test_mvs_cost_literal_mode_requires_selection(rng):
    model = random_risk_model(rng, 3)
    params = ObjectiveParams(lam=0.0, theta=1.0, skew_mode="literal")
    # a selected asset can decode to weight zero, so the weights do not
    # tell which assets were selected
    weights = decode_weights([0.0, 1.0, 1.0], np.zeros(3), np.ones(3))
    assert weights[0] == 0.0
    with pytest.raises(ConfigError):
        mvs_cost(weights, model, params)
    cost = mvs_cost(weights, model, params, selection=[0, 1, 2])
    assert cost == pytest.approx(-weights @ model.mu - model.skew.sum(), abs=1e-12)


def test_mvs_cost_term_collapse_exact(rng):
    for _ in range(1000):
        m = int(rng.integers(2, 6))
        model = random_risk_model(rng, m)
        raw = rng.random(m)
        weights = raw / raw.sum()
        risk_only = mvs_cost(weights, model, ObjectiveParams(lam=1.0, theta=0.0))
        return_only = mvs_cost(weights, model, ObjectiveParams(lam=0.0, theta=0.0))
        assert risk_only == portfolio_risk(weights, model.sigma)
        assert return_only == -portfolio_return(weights, model.mu)


def test_weighted_skew_term_constant_when_skews_equal(rng):
    model = random_risk_model(rng, 4)
    model.skew = np.full(4, 0.37)
    p_low = ObjectiveParams(lam=0.5, theta=0.0)
    p_high = ObjectiveParams(lam=0.5, theta=0.8)
    gaps = []
    for _ in range(50):
        raw = rng.random(4)
        w = raw / raw.sum()
        gaps.append(mvs_cost(w, model, p_low) - mvs_cost(w, model, p_high))
    # theta * k regardless of the weights, so the gap is constant
    np.testing.assert_allclose(gaps, 0.8 * 0.37, rtol=1e-9)


def test_objective_params_validation():
    with pytest.raises(ConfigError):
        ObjectiveParams(lam=1.2, theta=0.0)
    with pytest.raises(ConfigError):
        ObjectiveParams(lam=0.5, theta=-0.1)
    with pytest.raises(ConfigError):
        ObjectiveParams(lam=0.5, theta=0.0, skew_mode="tensor")


# ------------------------------------------------------------ penalized cost

def test_penalized_cost_feasible_equals_mvs(rng):
    model = random_risk_model(rng, 5)
    params = ObjectiveParams(lam=0.5, theta=0.2)
    bounds = Bounds(0.1, 0.3)
    raw = rng.random(5)
    cost, weights = penalized_cost(np.arange(5), raw, model, params, bounds)
    assert cost == mvs_cost(weights, model, params, selection=np.arange(5))
    assert abs(weights.sum() - 1.0) <= 1e-9


def test_penalized_cost_infeasible_is_finite_and_penalized(rng):
    model = random_risk_model(rng, 12)
    params = ObjectiveParams(lam=0.5, theta=0.0)
    bounds = Bounds(0.1, 0.3)  # 11 assets x 0.1 floor > 1
    selection = np.arange(11)
    raw = rng.random(11)
    cost10, w = penalized_cost(selection, raw, model, params, bounds, penalty_factor=10.0)
    assert np.isfinite(cost10)
    assert abs(w.sum() - 1.0) <= 1e-9
    # violation magnitude 0.1 at penalty 10 adds exactly 1.0
    cost0, _ = penalized_cost(selection, raw, model, params, bounds, penalty_factor=0.0)
    assert cost10 - cost0 == pytest.approx(10.0 * 0.1, rel=1e-9)


def test_penalized_cost_monotone_in_penalty_factor(rng):
    model = random_risk_model(rng, 12)
    params = ObjectiveParams(lam=0.5, theta=0.0)
    bounds = Bounds(0.1, 0.3)
    selection = np.arange(11)
    raw = rng.random(11)
    costs = [
        penalized_cost(selection, raw, model, params, bounds, penalty_factor=pf)[0]
        for pf in (0.0, 1.0, 10.0, 100.0)
    ]
    assert all(b >= a for a, b in zip(costs, costs[1:]))


# ------------------------------------------------ batched decode and cost

@st.composite
def chromosome_batches(draw):
    """A random model, scalar or per-asset bounds, and ``(R, K)`` chromosomes.

    Bound levels range widely enough that many subsets are infeasible
    (floors summing above one or caps below one); some raws are zero and
    some rows entirely zero.
    """
    n = draw(st.integers(1, 9))
    k = draw(st.integers(1, n))
    rows = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = random_risk_model(rng, n)
    shape = () if draw(st.booleans()) else (n,)
    eps = rng.uniform(0.0, 0.6, size=shape)
    dlt = rng.uniform(eps + 0.01, 1.0)
    selection = np.argsort(rng.random((rows, n)), axis=1)[:, :k]
    raw = rng.random((rows, k))
    raw[rng.random((rows, k)) < draw(st.sampled_from([0.0, 0.3, 1.0]))] = 0.0
    return model, Bounds(eps, dlt), selection, raw


BATCH_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


def _feasible(eps_q, dlt_q):
    return (eps_q.sum(axis=1) <= 1.0 + 1e-9) & (dlt_q.sum(axis=1) >= 1.0 - 1e-9)


@BATCH_SETTINGS
@given(chromosome_batches())
def test_batched_decode_sums_to_one_within_bounds(batch):
    model, bounds, selection, raw = batch
    eps_q, dlt_q = bounds.for_selection(selection, model.n_assets)
    ok = _feasible(eps_q, dlt_q)
    weights = decode_rows(raw[ok], eps_q[ok], dlt_q[ok])
    assert weights.shape == raw[ok].shape
    np.testing.assert_allclose(weights.sum(axis=1), 1.0, rtol=0, atol=1e-9)
    assert np.all(weights >= eps_q[ok] - 1e-9)
    assert np.all(weights <= dlt_q[ok] + 1e-9)


@BATCH_SETTINGS
@given(chromosome_batches(), st.sampled_from([SKEW_WEIGHTED, SKEW_LITERAL]),
       st.sampled_from([0.0, 10.0]))
def test_batched_cost_is_mvs_cost_plus_penalty(batch, skew_mode, factor):
    model, bounds, selection, raw = batch
    params = ObjectiveParams(lam=0.6, theta=0.3, skew_mode=skew_mode)
    costs, weights = penalized_costs(selection, raw, model, params, bounds, factor)
    eps_q, dlt_q = bounds.for_selection(selection, model.n_assets)
    floor_total, cap_total = eps_q.sum(axis=1), dlt_q.sum(axis=1)
    violation = np.maximum(floor_total - 1.0, 0.0) + np.maximum(1.0 - cap_total, 0.0)
    penalty = np.where(_feasible(eps_q, dlt_q), 0.0, factor * violation)
    for r in range(len(selection)):
        full = np.zeros(model.n_assets)
        full[selection[r]] = weights[r]
        assert abs(full.sum() - 1.0) <= 1e-9
        expected = mvs_cost(full, model, params, selection=selection[r]) + penalty[r]
        assert costs[r] == pytest.approx(expected, rel=0, abs=1e-12)
