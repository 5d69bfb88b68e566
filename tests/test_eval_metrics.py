from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr  # the reference normal CDF; the package itself runs without scipy

import predfolio
from predfolio.errors import DegenerateInputError, InsufficientDataError, MetricError
from predfolio.eval_metrics import KS_ALPHA, _normal_cdf, evaluate, ks_normality_test, summarize_reports


# ------------------------------------------------------------ point metrics

def test_mean_error_hand_values():
    assert evaluate([0.1, 0.2], [0.1, 0.2]).me == 0.0
    assert evaluate([0.02, -0.01], [0.01, 0.01]).me == pytest.approx(0.015, abs=1e-12)


def test_signed_mean_error_tracks_bias():
    assert evaluate([0.02, -0.01], [0.01, 0.01]).signed_me == pytest.approx(-0.005, abs=1e-12)
    assert evaluate([0.1, 0.1], [0.1, 0.1]).signed_me == 0.0


def test_rmse_hand_values():
    assert evaluate([1.0, 2.0], [1.0, 2.0]).rmse == 0.0
    assert evaluate([0.03, -0.04], [0.0, 0.0]).rmse == pytest.approx(np.sqrt(0.00125), abs=1e-9)


def test_rmse_never_below_mean_error(rng):
    for _ in range(50):
        n = int(rng.integers(1, 30))
        report = evaluate(rng.normal(size=n), rng.normal(size=n))
        assert report.rmse >= report.me - 1e-15


def test_length_mismatch_raises():
    with pytest.raises(MetricError, match="series lengths differ"):
        evaluate([1.0], [1.0, 2.0])
    with pytest.raises(MetricError, match="empty series"):
        evaluate([], [])


def test_mape_hand_value_and_guard():
    assert evaluate([0.02], [0.01]).mape == pytest.approx(0.5, abs=1e-12)
    exact = evaluate([0.1, 0.2], [0.1, 0.2])
    assert (exact.mape, exact.mape_skipped) == (0.0, 0)
    undefined = evaluate([0.0], [0.01])
    assert undefined.mape is None
    assert undefined.mape_skipped == 1


def test_mape_skips_only_near_zero_terms():
    result = evaluate([0.0, 0.02], [0.05, 0.01])
    assert result.mape_skipped == 1
    assert result.mape == pytest.approx(0.5, abs=1e-12)


def rates(report) -> tuple:
    return report.hr, report.hr_plus, report.hr_minus


def test_hit_rates_hand_count():
    report = evaluate([1.0, -1.0, 1.0, 0.0], [1.0, 1.0, -1.0, 1.0])
    assert report.hr == pytest.approx(1.0 / 3.0)
    assert report.hr_plus == pytest.approx(1.0 / 3.0)
    assert report.hr_minus == 0.0


def test_hit_rates_perfect_signals(rng):
    real = rng.choice([-0.02, 0.03], size=40)
    assert rates(evaluate(real, real)) == (1.0, 1.0, 1.0)


def test_hit_rates_undefined_when_denominator_zero():
    assert rates(evaluate([1.0, -1.0], [0.0, 0.0])) == (None, None, None)


def test_metrics_permutation_invariant(rng):
    real = rng.normal(size=25)
    predicted = rng.normal(size=25)
    perm = rng.permutation(25)
    base = evaluate(real, predicted)
    shuffled = evaluate(real[perm], predicted[perm])
    assert base.me == pytest.approx(shuffled.me, rel=1e-12)
    assert base.rmse == pytest.approx(shuffled.rmse, rel=1e-12)
    assert base.mape == pytest.approx(shuffled.mape, rel=1e-12)
    assert base.hr == shuffled.hr
    assert base.hr_plus == shuffled.hr_plus
    assert base.hr_minus == shuffled.hr_minus


def test_hit_rate_bounds(rng):
    for _ in range(50):
        real = rng.normal(size=20)
        predicted = rng.normal(size=20)
        for rate in rates(evaluate(real, predicted)):
            if rate is not None:
                assert 0.0 <= rate <= 1.0


def test_summarize_reports_drops_undefined(rng):
    reports = {
        "A": evaluate([0.01, -0.02], [0.02, -0.01]),
        "B": evaluate([0.0, 0.0], [0.01, 0.02]),  # mape undefined, hr undefined
    }
    rows = {name: (mean, var, std) for name, mean, var, std in summarize_reports(reports)}
    assert "me" in rows and "rmse" in rows
    assert rows["mape"][0] == pytest.approx(reports["A"].mape)


# ------------------------------------------------------------------ KS test

def test_importing_the_cli_loads_no_scipy():
    src = str(Path(predfolio.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    probe = "import sys, predfolio.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout == "[]\n"


# cephes switches from erf to erfc at |z| = 1; the examples sit on and
# beside that branch, at the centre and in both tails
@settings(max_examples=2000, deadline=None, derandomize=True)
@given(st.floats(-40.0, 40.0))
@example(0.0)
@example(1.0)
@example(-1.0)
@example(math.nextafter(1.0, 0.0))
@example(math.nextafter(-1.0, 0.0))
@example(40.0)
@example(-40.0)
@example(-37.5)
@example(8.3)
def test_normal_cdf_matches_scipy_ndtr(z):
    assert abs(_normal_cdf(z) - float(ndtr(z))) <= 2.3e-16


def test_ks_decisions_match_an_ndtr_based_test():
    rng = np.random.default_rng(2024)
    draws = (
        lambda n: rng.normal(size=n),
        lambda n: rng.standard_t(5.0, size=n),
        lambda n: rng.uniform(size=n),
        lambda n: rng.laplace(size=n),
    )
    accepted = []
    for i in range(400):
        n = int(rng.integers(8, 300))
        x = draws[i % 4](n)
        result = ks_normality_test(x)

        ordered = np.sort(x)
        cdf = ndtr((ordered - ordered.mean()) / ordered.std(ddof=1))
        grid = np.arange(1, n + 1) / n
        d_ref = max(np.max(grid - cdf), np.max(cdf - (grid - 1.0 / n)))
        # the CDF's tolerance plus the rounding of one subtraction below 1
        assert abs(result.d_statistic - d_ref) <= 2.3e-16 + 2.0**-53
        assert result.accepted == (d_ref <= result.threshold)
        accepted.append(result.accepted)
    assert 0 < sum(accepted) < len(accepted)


def test_ks_accepts_seeded_normal_samples():
    accepted = 0
    for seed in range(100):
        x = np.random.default_rng(seed).normal(size=1000)
        if ks_normality_test(x).accepted:
            accepted += 1
    assert accepted >= 90


def test_ks_rejects_uniform_samples():
    x = np.random.default_rng(0).uniform(size=1000)
    result = ks_normality_test(x)
    assert not result.accepted
    assert result.d_statistic > result.threshold


def test_ks_degenerate_sample_errors():
    with pytest.raises(DegenerateInputError):
        ks_normality_test(np.full(16, 3.0))


def test_ks_input_guards():
    with pytest.raises(InsufficientDataError):
        ks_normality_test(np.arange(5.0))
    assert ks_normality_test(np.arange(8.0)).n == 8


def test_ks_statistic_in_unit_interval_and_consistent(rng):
    for _ in range(20):
        x = rng.normal(size=int(rng.integers(10, 200)))
        result = ks_normality_test(x)
        assert 0.0 <= result.d_statistic <= 1.0
        assert result.accepted == (result.d_statistic <= result.threshold)


def test_ks_outlier_never_decreases_d():
    for seed in range(10):
        x = np.random.default_rng(seed).normal(size=500)
        base = ks_normality_test(x).d_statistic
        spiked = ks_normality_test(np.append(x, 1e6)).d_statistic
        assert spiked >= base



def test_ks_threshold_is_the_five_percent_lilliefors_value():
    result = ks_normality_test(np.random.default_rng(1).normal(size=100))
    assert result.alpha == KS_ALPHA == 0.05
    assert result.threshold == pytest.approx(0.886 / 10.075, rel=1e-15)
