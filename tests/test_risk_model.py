from __future__ import annotations

from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from predfolio.cli import _write_json
from predfolio.errors import EstimationError
from predfolio.predictor import PredictionRecord
from predfolio.risk_model import RiskModel, asset_skewness, build_risk_model

from oracles import pairwise_covariance_loops


def record_from(asset, real, predicted) -> PredictionRecord:
    real = np.asarray(real, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    return PredictionRecord(
        asset=asset,
        real=real,
        predicted=predicted,
        split_labels=np.array(["train"] * len(real), dtype=object),
    )


def record_with_errors(asset, errors) -> PredictionRecord:
    errors = np.asarray(errors, dtype=float)
    return record_from(asset, errors, np.zeros_like(errors))


# --------------------------------------------------------------- covariance

def error_sigma(*error_series) -> np.ndarray:
    """Sigma that ``build_risk_model`` derives from the given error series."""
    records = [record_with_errors(f"A{i}", e) for i, e in enumerate(error_series)]
    returns = {r.asset: np.arange(3.0) for r in records}
    return build_risk_model(records, returns).sigma


def test_error_covariance_hand_values():
    assert error_sigma([1.0, -1.0], [1.0, -1.0])[0, 1] == 2.0
    assert error_sigma([1.0, -1.0], [1.0, 1.0])[0, 1] == 0.0
    assert error_sigma([0.5, -0.7, 0.1], [0.0, 0.0, 0.0])[0, 1] == 0.0


def test_error_covariance_guards():
    with pytest.raises(EstimationError):
        error_sigma([1.0], [1.0])
    with pytest.raises(EstimationError):
        error_sigma([1.0, 2.0], [1.0, 2.0, 3.0])


def test_error_variance_hand_value_and_self_consistency(rng):
    assert error_sigma([0.03, -0.04])[0, 0] == pytest.approx(0.0025)
    assert error_sigma(np.zeros(5))[0, 0] == 0.0
    for _ in range(20):
        e = rng.normal(size=12)
        pair = error_sigma(e, e)
        assert pair[0, 0] == pair[0, 1] == pair[1, 1]


def test_error_variance_accepts_records():
    record = record_with_errors("A", [0.03, -0.04])
    np.testing.assert_array_equal(record.errors, [0.03, -0.04])
    model = build_risk_model([record], {"A": np.arange(3.0)})
    assert model.sigma[0, 0] == pytest.approx(0.0025)


def test_error_variance_round_trips_through_stored_record(rng):
    # replaying a stored error series reproduces its recorded risk figure,
    # here pinned to a published index-level risk magnitude (0.002834)
    errors = rng.normal(size=180)
    errors *= np.sqrt(0.002834 / error_sigma(errors)[0, 0])
    stored = record_with_errors("Bank", errors)
    replayed = PredictionRecord.from_dict(asdict(stored))
    model = build_risk_model([replayed], {"Bank": np.arange(3.0)})
    assert model.sigma[0, 0] == pytest.approx(0.002834, rel=1e-12)


# ------------------------------------------------------------------ skewness

def test_asset_skewness_symmetric_series_is_zero():
    value, degenerate = asset_skewness([-1.0, 0.0, 1.0])
    assert value == pytest.approx(0.0, abs=1e-15)
    assert not degenerate


def test_asset_skewness_hand_value():
    value, degenerate = asset_skewness([1.0, 2.0, 9.0])
    m2 = np.mean(([1.0, 2.0, 9.0] - np.mean([1.0, 2.0, 9.0])) ** 2)
    m3 = np.mean(([1.0, 2.0, 9.0] - np.mean([1.0, 2.0, 9.0])) ** 3)
    assert value == pytest.approx(m3 / m2**1.5, rel=1e-12)
    assert value == pytest.approx(30.0 / (38.0 / 3.0) ** 1.5, rel=1e-12)
    assert not degenerate


def test_asset_skewness_constant_series_flags_degenerate():
    value, degenerate = asset_skewness([0.1, 0.1, 0.1, 0.1])
    assert value == 0.0
    assert degenerate


def test_asset_skewness_needs_three_points():
    with pytest.raises(EstimationError):
        asset_skewness([1.0, 2.0])


# --------------------------------------------------------------- full model

def test_build_risk_model_single_asset_reduces_to_variance(rng):
    errors = rng.normal(0, 0.01, size=30)
    record = record_with_errors("A", errors)
    model = build_risk_model([record], {"A": rng.normal(size=30)})
    assert model.sigma.shape == (1, 1)
    assert model.sigma[0, 0] == pytest.approx(errors @ errors / 29, rel=1e-12)
    assert model.estimation_window == 30


def test_build_risk_model_identical_errors_give_equal_entries(rng):
    errors = rng.normal(0, 0.01, size=25)
    records = [record_with_errors("A", errors), record_with_errors("B", errors)]
    returns = {a: rng.normal(size=25) for a in ("A", "B")}
    model = build_risk_model(records, returns)
    assert np.ptp(model.sigma) == pytest.approx(0.0, abs=1e-18)


def test_build_risk_model_matches_double_loop_oracle(rng):
    errors = rng.normal(0, 0.02, size=(5, 40))
    records = [record_with_errors(f"A{i}", errors[i]) for i in range(5)]
    returns = {f"A{i}": rng.normal(size=40) for i in range(5)}
    model = build_risk_model(records, returns)
    expected = pairwise_covariance_loops(errors)
    np.testing.assert_allclose(model.sigma, expected, atol=1e-12)


def test_build_risk_model_mismatched_lengths_error(rng):
    records = [
        record_with_errors("A", rng.normal(size=20)),
        record_with_errors("B", rng.normal(size=21)),
    ]
    with pytest.raises(EstimationError):
        build_risk_model(
            records, {"A": rng.normal(size=20), "B": rng.normal(size=21)}
        )


@st.composite
def error_sets(draw):
    """``(m, n)`` prediction errors at a scale in [1e-4, 1]; often fewer
    samples than assets, and sometimes two identical assets."""
    m = draw(st.integers(1, 8))
    n = draw(st.integers(2, 12))
    scale = 10.0 ** draw(st.floats(-4.0, 0.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    errors = rng.normal(0.0, scale, size=(m, n))
    if m > 1 and draw(st.booleans()):
        errors[-1] = errors[0]
    return errors, rng


@settings(max_examples=200, deadline=None, derandomize=True)
@given(error_sets())
def test_sigma_symmetric_and_psd(error_set):
    errors, rng = error_set
    m, n = errors.shape
    records = [record_with_errors(f"A{i}", errors[i]) for i in range(m)]
    returns = {f"A{i}": rng.normal(size=max(n, 3)) for i in range(m)}
    model = build_risk_model(records, returns)
    np.testing.assert_array_equal(model.sigma, model.sigma.T)
    model.validate()
    assert model.diagonal_shift >= 0.0
    for w in rng.normal(size=(200, m)):
        assert w @ model.sigma @ w >= -1e-9


def test_sigma_scales_quadratically():
    rng = np.random.default_rng(5)
    errors = rng.normal(0, 0.02, size=(3, 30))
    returns = {f"A{i}": rng.normal(size=30) for i in range(3)}

    def model_for(scale):
        records = [record_with_errors(f"A{i}", errors[i] * scale) for i in range(3)]
        return build_risk_model(records, returns)

    base = model_for(1.0).sigma
    np.testing.assert_array_equal(model_for(2.0).sigma, 4.0 * base)  # exact for powers of two
    np.testing.assert_allclose(model_for(3.7).sigma, 3.7**2 * base, rtol=1e-14)


def test_build_risk_model_mu_is_the_last_prediction_and_degenerate_skew(rng):
    errors = rng.normal(0, 0.01, size=(3, 20))
    records = [
        record_from("A", errors[0], np.full(20, 0.01)),
        record_from("B", errors[1], np.linspace(0.0, 0.02, 20)),
        record_from("C", errors[2], np.r_[np.full(19, 0.03), -0.01]),
    ]
    returns = {"A": np.full(20, 0.005), "B": rng.normal(size=20), "C": rng.normal(size=20)}
    model = build_risk_model(records, returns)
    assert model.mu.tolist() == [0.01, 0.02, -0.01]
    assert model.degenerate_skew_assets == ("A",)
    assert model.skew[0] == 0.0


def test_risk_model_json_round_trip(tmp_path, rng):
    errors = rng.normal(0, 0.02, size=(4, 30))
    records = [record_with_errors(f"A{i}", errors[i]) for i in range(4)]
    returns = {f"A{i}": rng.normal(size=30) for i in range(4)}
    model = build_risk_model(records, returns)
    path = tmp_path / "risk.json"
    _write_json(path, model.to_dict())
    loaded = RiskModel.from_json(path)
    assert loaded.assets == model.assets
    np.testing.assert_array_equal(loaded.mu, model.mu)
    np.testing.assert_array_equal(loaded.sigma, model.sigma)
    np.testing.assert_array_equal(loaded.skew, model.skew)
    assert loaded.estimation_window == model.estimation_window
