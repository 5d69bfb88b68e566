"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
lines as they complete. Oracles (lattice grid search, brute-force scans,
finite differences) live in tests/oracles.py and never reuse the code
paths they check.
"""

from __future__ import annotations

import filecmp
import time
from contextlib import contextmanager

import numpy as np
import pytest

from predfolio.cli import main
from predfolio.eval_metrics import hit_rates, ks_normality_test, mape, mean_error, rmse
from predfolio.frontier import efficient_filter, sweep
from predfolio.ga_solver import GAConfig, evolve
from predfolio.objective import (
    Bounds,
    ObjectiveParams,
    decode_weights,
    mvs_cost,
    portfolio_return,
    portfolio_risk,
)
from predfolio.predictor import (
    TEST,
    PredictorConfig,
    _forward_flat,
    _init_flat,
    _jacobian_flat,
    rolling_predict,
    split_series,
    train_arnn,
)
from predfolio.risk_model import RiskModel
from predfolio.taguchi import DEFAULT_FACTORS, analyze_means, build_array, run_experiments

from conftest import each_job, geometric_walk, random_risk_model, write_prices_csv
from oracles import dominance_scan, grid_search_mvs
from test_cli import write_config


@contextmanager
def criterion(number: int, description: str):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"\nFAIL criterion {number}: {description}")
        raise
    print(f"\nPASS criterion {number}: {description} [{time.perf_counter() - start:.2f}s]")


def test_criterion_01_table_cross_check():
    with criterion(1, "reported min-variance weights reproduce the reported portfolio return"):
        weights = np.array([0.131, 0.219, 0.089, 0.069, 0.492])
        index_returns = np.array([0.004916, 0.005032, 0.009823, 0.009700, 0.003187])
        portfolio_return(weights, index_returns)  # warm-up outside the timed call
        start = time.perf_counter()
        mu_p = portfolio_return(weights, index_returns)
        elapsed = time.perf_counter() - start
        assert mu_p == pytest.approx(0.00486, abs=2e-4)
        assert mu_p == pytest.approx(0.0049, abs=2e-4)
        assert elapsed < 1e-3


def test_criterion_02_ga_vs_grid_oracle():
    with criterion(2, "GA within max(5% rel, 1e-5 abs) of a 0.005-step grid search in >= 14/15 cases"):
        start = time.perf_counter()
        sizes = [3, 3, 4, 4, 5]
        lams = [0.0, 0.5, 1.0]
        passed = total = 0
        for i, m in enumerate(sizes):
            model = random_risk_model(np.random.default_rng([424242, i]), m)
            oracle = grid_search_mvs(model.mu, model.sigma, lams, steps=200)
            for lam in lams:
                params = ObjectiveParams(lam=lam, theta=0.0)
                result = evolve(
                    model, params, Bounds(0.0, 1.0), m,
                    GAConfig(seed=(31337, i, int(lam * 10))),
                )
                oracle_cost, _ = oracle[lam]
                tolerance = max(0.05 * abs(oracle_cost), 1e-5)
                total += 1
                if abs(result.best_cost - oracle_cost) <= tolerance:
                    passed += 1
        assert total == 15
        assert passed >= 14, f"only {passed}/15 within tolerance"
        assert time.perf_counter() - start < 300.0


def test_criterion_03_constraint_invariance():
    with criterion(3, "10,000 random chromosomes decode to valid bounded weights"):
        start = time.perf_counter()
        rng = np.random.default_rng(5150)
        eps = np.full((10_000, 5), 0.1)
        dlt = np.full((10_000, 5), 0.3)
        weights = decode_weights(rng.random((10_000, 5)), eps, dlt)
        total = weights.sum(axis=1)
        assert np.all((1.0 - 1e-9 <= total) & (total <= 1.0 + 1e-9))
        assert np.all(weights >= 0.1 - 1e-12)
        assert np.all(weights <= 0.3 + 1e-12)
        assert time.perf_counter() - start < 10.0


def test_criterion_04_term_collapse_identities():
    with criterion(4, "cost collapses exactly to risk at lam=1 and to -return at lam=0"):
        rng = np.random.default_rng(8080)
        risk_params = ObjectiveParams(lam=1.0, theta=0.0)
        return_params = ObjectiveParams(lam=0.0, theta=0.0)
        for _ in range(1000):
            m = int(rng.integers(2, 7))
            model = random_risk_model(rng, m)
            raw = rng.random(m) + 1e-9
            weights = raw / raw.sum()
            assert mvs_cost(weights, model, risk_params) == portfolio_risk(weights, model.sigma)
            assert mvs_cost(weights, model, return_params) == -portfolio_return(weights, model.mu)


def test_criterion_05_predictor_learnability():
    with criterion(5, "trained network beats the random sign baseline on synthetic AR(1)"):
        start = time.perf_counter()
        rates = []
        for seed in range(10):
            rng = np.random.default_rng([20250805, seed])
            series = np.empty(221)
            series[0] = rng.normal(0.0, 0.01 / np.sqrt(1.0 - 0.8**2))
            for t in range(1, 221):
                series[t] = 0.8 * series[t - 1] + rng.normal(0.0, 0.01)
            config = PredictorConfig(delay=1, hidden_units=5, max_epochs=1000,
                                     seed=(20250805, seed))
            trained = train_arnn(split_series(series, config), config)
            record = rolling_predict(trained, series, config)
            mask = record.split_labels == TEST
            rates.append(hit_rates(record.real[mask], record.predicted[mask]).hr)
        assert all(r is not None for r in rates)
        assert float(np.mean(rates)) >= 0.60
        assert time.perf_counter() - start < 120.0


def test_criterion_06_jacobian_matches_finite_differences():
    with criterion(6, "analytic LM Jacobian matches central finite differences on 20 networks"):
        start = time.perf_counter()
        rng = np.random.default_rng(606)
        step = 1e-6
        for _ in range(20):
            delay = int(rng.integers(1, 6))
            hidden = int(rng.integers(1, 7))
            theta = _init_flat(delay, hidden, rng)
            inputs = rng.normal(size=(int(rng.integers(2, 10)), delay))
            analytic = _jacobian_flat(theta, inputs, delay, hidden)
            fd = np.empty_like(analytic)
            for j in range(len(theta)):
                up, down = theta.copy(), theta.copy()
                up[j] += step
                down[j] -= step
                fd[:, j] = (
                    _forward_flat(up, inputs, delay, hidden)
                    - _forward_flat(down, inputs, delay, hidden)
                ) / (2 * step)
            scale = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-6)
            assert float(np.max(np.abs(analytic - fd) / scale)) < 1e-4
        assert time.perf_counter() - start < 10.0


def test_criterion_07_metric_oracles():
    with criterion(7, "worked metric examples reproduce their hand values"):
        assert mean_error([0.02, -0.01], [0.01, 0.01]) == pytest.approx(0.015, abs=1e-12)
        assert rmse([0.03, -0.04], [0.0, 0.0]) == pytest.approx(0.035355, abs=1e-6)
        assert mape([0.02], [0.01]).value == pytest.approx(0.5, abs=1e-12)
        assert hit_rates([1.0, -1.0, 1.0, 0.0], [1.0, 1.0, -1.0, 1.0]).hr == 1.0 / 3.0


def test_criterion_08_ks_calibration():
    with criterion(8, "KS rejection rate calibrated on normal samples, near-total on uniform"):
        start = time.perf_counter()
        rejected = sum(
            not ks_normality_test(
                np.random.default_rng([8881, i]).normal(size=100), alpha=0.05
            ).accepted
            for i in range(200)
        )
        assert 0.02 <= rejected / 200 <= 0.09, f"rejection rate {rejected / 200}"
        rejected_uniform = sum(
            not ks_normality_test(
                np.random.default_rng([8882, i]).uniform(size=1000), alpha=0.05
            ).accepted
            for i in range(200)
        )
        assert rejected_uniform / 200 >= 0.99
        assert time.perf_counter() - start < 30.0


def test_criterion_09_taguchi_recovery_and_array_checks():
    with criterion(9, "orthogonal array balanced and planted optimum recovered on all 5 factors"):
        array = build_array()
        assert array.shape == (27, 5)
        for col in range(5):
            np.testing.assert_array_equal(np.bincount(array[:, col], minlength=3), [9, 9, 9])
        for c1 in range(5):
            for c2 in range(c1 + 1, 5):
                for l1 in range(3):
                    for l2 in range(3):
                        assert int(np.sum((array[:, c1] == l1) & (array[:, c2] == l2))) == 3

        planted = (2, 0, 1, 2, 0)
        names = DEFAULT_FACTORS.names
        target = DEFAULT_FACTORS.assignment(planted)

        def cost(assignment, seed):
            return float(sum(assignment[n] != target[n] for n in names))

        runs = run_experiments(array, each_job(cost), replicates=1, seed=0)
        result = analyze_means(runs, array=array)
        for f, name in enumerate(names):
            assert result.best_level_indices[name] == planted[f]


def _frontier_model() -> RiskModel:
    variances = np.array([0.001, 0.002, 0.004, 0.008, 0.016])
    sigma = np.diag(variances)
    # mild common factor so the model is not purely diagonal
    loadings = np.array([0.1, 0.15, 0.2, 0.25, 0.3]) * np.sqrt(variances)
    sigma = sigma + np.outer(loadings, loadings)
    return RiskModel(
        assets=[f"IX{i}" for i in range(5)],
        mu=np.array([0.002, 0.004, 0.008, 0.012, 0.020]),
        sigma=(sigma + sigma.T) / 2.0,
        skew=np.array([0.3, -0.2, 0.1, 0.4, -0.1]),
        estimation_window=180,
    )


def test_criterion_10_frontier_behavior():
    with criterion(10, "sweep endpoints extremal (oracle-confirmed); filter matches dominance scan"):
        model = _frontier_model()
        config = GAConfig(population_size=100, stall_generations=20,
                          generation_cap=200, seed=60601)
        result = sweep(model, Bounds(0.0, 1.0), 5, config, repeats=2)
        assert not result.failures
        assert len(result.points) == 12

        by_grid = {(p.lam, p.theta): p for p in result.points}
        min_var = by_grid[(1.0, 0.0)]
        max_ret = by_grid[(0.0, 0.0)]
        assert min_var.sigma_p == min(p.sigma_p for p in result.points)
        assert max_ret.mu_p == max(p.mu_p for p in result.points)

        # independent lattice search confirms the endpoint optima
        oracle = grid_search_mvs(model.mu, model.sigma, [0.0, 1.0], steps=100)
        oracle_sigma = oracle[1.0][0]
        oracle_mu = -oracle[0.0][0]
        assert min_var.sigma_p == pytest.approx(oracle_sigma, rel=0.05)
        assert max_ret.mu_p == pytest.approx(oracle_mu, rel=0.05)
        assert min_var.sigma_p <= oracle_sigma * 1.05
        assert all(p.sigma_p >= oracle_sigma * 0.95 for p in result.points)
        assert all(p.mu_p <= oracle_mu * 1.05 for p in result.points)

        kept = efficient_filter(result.points)
        brute = dominance_scan([p for p in result.points if p.theta == 0.0])
        assert [(p.sigma_p, p.mu_p) for p in kept] == [(p.sigma_p, p.mu_p) for p in brute]


def test_criterion_11_end_to_end_determinism(tmp_path):
    with criterion(11, "two identically seeded pipeline runs produce byte-identical artifacts"):
        rng = np.random.default_rng(11)
        closes = {
            f"AST{i}": list(geometric_walk(rng, 70, drift=0.001 * (i + 1), vol=0.03))
            for i in range(6)
        }
        prices = write_prices_csv(tmp_path / "prices.csv", closes)
        stages = ("ingest", "predict", "risk", "metrics", "optimize", "frontier", "report")
        outs = []
        for run in ("a", "b"):
            out = tmp_path / f"out_{run}"
            config = write_config(tmp_path, prices, out)
            for stage in stages:
                assert main([stage, "--config", config]) == 0, stage
            outs.append(out)
        artifacts = sorted(p.name for p in outs[0].iterdir())
        assert artifacts == sorted(p.name for p in outs[1].iterdir())
        match, mismatch, errors = filecmp.cmpfiles(outs[0], outs[1], artifacts, shallow=False)
        assert mismatch == [], f"artifacts differ: {mismatch}"
        assert errors == []
        assert "frontier.csv" in match and "portfolio.json" in match
