"""Tests of the benchmark's own code: generators, span arithmetic, statistics.

Run with ``python3 -m pytest bench/tests``.
"""

from __future__ import annotations

import itertools
import shutil

import numpy as np
import pytest

import inputs
from layers import PER_LAYER, SpanTable, layer_metrics
from predfolio.objective import Bounds
from predfolio.risk_model import RiskModel
from stats import nearest_rank, tail, timing
from tracing import NO_PARENT, Tracer, self_times
from workloads import WORKLOADS, Checks, check_portfolio, utopia_cost


# --- generators ---------------------------------------------------------------

def test_price_file_is_deterministic_per_seed(tmp_path):
    a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    rows = inputs.write_prices(a, seed=4, n_assets=3, n_weeks=6)
    assert inputs.write_prices(b, seed=4, n_assets=3, n_weeks=6) == rows
    inputs.write_prices(c, seed=5, n_assets=3, n_weeks=6)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_price_file_keeps_every_first_day_and_drops_a_few(tmp_path):
    path = tmp_path / "p.csv"
    rows = inputs.write_prices(path, seed=1, n_assets=4, n_weeks=40, missing=0.05)
    lines = path.read_text().splitlines()
    assert lines[0] == "date,asset,close"
    assert len(lines) - 1 == rows
    assert rows < 4 * 40 * 5
    for asset in inputs.asset_names(4):
        first = next(line for line in lines[1:] if f",{asset}," in line)
        assert first.startswith(inputs.START.isoformat())


def test_ga_problem_is_deterministic_and_valid():
    model, eps, dlt = inputs.ga_problem(seed=9, n_assets=12, window=20)
    assert (model, eps, dlt) == inputs.ga_problem(seed=9, n_assets=12, window=20)
    assert model != inputs.ga_problem(seed=10, n_assets=12, window=20)[0]
    loaded = RiskModel.from_dict(model)  # validates shape, symmetry and PSD
    assert loaded.n_assets == 12 and loaded.estimation_window == 20
    assert all(e < d for e, d in zip(eps, dlt))
    assert Bounds(np.array(eps), np.array(dlt)).feasible_subset_exists(5, 12)


def test_seeds_deal_the_same_profiles_to_different_assets():
    a, _, _ = inputs.ga_problem(seed=1, n_assets=12, window=20)
    b, _, _ = inputs.ga_problem(seed=2, n_assets=12, window=20)
    assert sorted(a["mu"]) == sorted(b["mu"]) and a["mu"] != b["mu"]
    assert sorted(a["skew"]) == sorted(b["skew"])


def test_bounds_make_a_visible_share_of_subsets_infeasible():
    _, eps, dlt = inputs.ga_problem(seed=1)
    eps, dlt = np.array(eps), np.array(dlt)
    rng = np.random.default_rng(1)
    picks = np.argsort(rng.random((4000, len(eps))), axis=1)[:, :5]
    infeasible = (eps[picks].sum(axis=1) > 1.0 + 1e-9) | (dlt[picks].sum(axis=1) < 1.0 - 1e-9)
    assert 0.15 < infeasible.mean() < 0.3


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_setup_is_deterministic(tmp_path, name):
    workload = WORKLOADS[name]
    target = tmp_path / "setup"
    snapshots = []
    for _ in range(2):
        shutil.rmtree(target, ignore_errors=True)
        workload.setup(target, 7)
        snapshots.append({p.name: p.read_bytes() for p in sorted(target.iterdir())})
    assert snapshots[0] == snapshots[1]
    assert (target / "run.cfg").exists()


# --- span arithmetic ----------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    #   0 [0, 10]
    #   +- 1 [1, 4]
    #   |  +- 2 [2, 3]
    #   +- 3 [5, 8]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 8.0]
    parent = [NO_PARENT, 0, 1, 0]
    assert self_times(start, end, parent).tolist() == [4.0, 2.0, 1.0, 3.0]


def test_self_time_counts_overlapping_children_once_and_clips_them():
    # children [1, 4] and [3, 6] overlap on [3, 4]; [8, 12] sticks out past 10
    start = [0.0, 1.0, 3.0, 8.0]
    end = [10.0, 4.0, 6.0, 12.0]
    parent = [NO_PARENT, 0, 0, 0]
    result = self_times(start, end, parent)
    assert result[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert result[1:].tolist() == [3.0, 3.0, 4.0]


def test_self_time_of_a_leaf_is_its_duration():
    assert self_times([2.0], [2.5], [NO_PARENT]).tolist() == [0.5]


def test_tracer_nests_wrapped_calls_and_self_times_add_up():
    tracer = Tracer()

    def leaf(x):
        return x + 1

    traced_leaf = tracer.wrap("demo.leaf", leaf)

    def middle(x):
        return traced_leaf(traced_leaf(x))

    traced_middle = tracer.wrap("demo.middle", middle)
    with tracer.operation():
        assert traced_middle(1) == 3
        tracer.count("demo.things", 2)
    spans = tracer.spans()
    names = [tracer.names[i] for i in spans["name"]]
    assert names == ["bench.op", "demo.middle", "demo.leaf", "demo.leaf"]
    assert spans["parent"].tolist() == [NO_PARENT, 0, 1, 1]
    assert set(spans["op"].tolist()) == {0}
    selfs = self_times(spans["start"], spans["end"], spans["parent"])
    assert (selfs >= 0).all()
    assert selfs.sum() == pytest.approx(spans["end"][0] - spans["start"][0], abs=1e-12)
    assert tracer.counts[0]["demo.things"] == 2


def test_span_table_accepts_consistent_spans():
    tracer = Tracer()
    stage = tracer.wrap("cli.demo", lambda: None)
    with tracer.operation():
        stage()
    assert SpanTable(tracer).stage_self_check() == []


def test_layer_metrics_report_every_per_layer_name():
    tracer = Tracer()
    stage = tracer.wrap("cli.optimize", lambda: None)
    with tracer.operation():
        stage()
    metrics = layer_metrics(SpanTable(tracer), rows=0, artifact_bytes=10, extra={})
    assert list(metrics) == [name for name, _ in PER_LAYER]
    assert metrics["cli.artifact_bytes"] == 10
    assert metrics["predictor.fits"] == 0


# --- statistics ---------------------------------------------------------------

def test_tail_needs_more_than_ten_samples():
    assert tail(list(range(10))) is None
    assert tail([]) is None


@pytest.mark.parametrize("n, expected", [(11, (9, 0)), (20, (50, 9)), (100, (90, 89)),
                                         (66, (84, 55))])
def test_tail_known_cases(n, expected):
    assert tail(list(range(n))) == expected


def test_tail_is_the_highest_percentile_with_ten_beyond():
    for n in range(11, 400):
        values = list(range(n))
        q, value = tail(values)
        assert sum(v > value for v in values) >= 10
        higher = nearest_rank(values, q + 1)
        assert sum(v > higher for v in values) < 10


def test_tail_ignores_input_order():
    values = [5.0, 1.0, 9.0, 3.0] * 4
    assert tail(values) == tail(sorted(values))


def test_timing_summary():
    summary = timing([3.0, 1.0, 2.0])
    assert summary == {"n": 3, "min": 1.0, "median": 2.0, "tail": None}


# --- checks -------------------------------------------------------------------

def test_utopia_cost_bounds_every_portfolio():
    rng = np.random.default_rng(0)
    mu, skew = rng.normal(0, 0.02, 8), rng.normal(0, 0.3, 8)
    factors = rng.normal(size=(8, 10))
    sigma = factors @ factors.T / 10 * 1e-3
    for lam, theta in itertools.product((0.0, 0.5, 1.0), (0.0, 0.8)):
        floor = utopia_cost(mu, skew, lam, theta)
        for _ in range(200):
            w = rng.dirichlet(np.ones(8))
            cost = lam * w @ sigma @ w - (1 - lam) * w @ mu - theta * w @ skew
            assert cost >= floor - 1e-15


def test_check_portfolio_flags_each_violation():
    good = {"selection": [0, 1, 2, 3, 4], "weights": [0.3, 0.3, 0.2, 0.1, 0.1, 0.0]}
    checks = Checks()
    check_portfolio(checks, "good", good, 0.1, 0.3)
    assert (checks.attempted, checks.failed) == (3, 0)

    bad = {"selection": [0, 1, 2, 3, 3], "weights": [0.35, 0.3, 0.2, 0.1, 0.0, 0.05]}
    checks = Checks()
    check_portfolio(checks, "bad", bad, 0.1, 0.3)
    assert (checks.attempted, checks.failed) == (3, 2)


# --- declaration ----------------------------------------------------------------

def test_benchmark_json_matches_the_code():
    import json
    from pathlib import Path

    import run

    declared = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert declared["paths"] == ["bench"]
    assert [(w["name"], w["why"]) for w in declared["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == list(PER_LAYER)
    setup_bound = next(m["bound"] for m in declared["end_to_end"] if m["name"] == "setup_s")
    assert setup_bound == max(m["bound"] for m in declared["end_to_end"])
