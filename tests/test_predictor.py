from __future__ import annotations

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from predfolio import predictor
from predfolio.errors import (
    ConfigError,
    DimensionError,
    InsufficientDataError,
    TrainingError,
)
from predfolio.predictor import (
    TEST,
    TRAIN,
    VAL,
    PredictorConfig,
    TrainedPredictor,
    _forward_flat,
    _gauss_newton,
    _hidden_layer,
    _init_flat,
    _jt_dot,
    _lag_gram,
    _n_params,
    _sample_gram,
    _unpack,
    rolling_predict,
    split_series,
    train_arnn,
)

from oracles import init_flat_by_layer, jacobian_flat, trained_predictor_from_dict


# A patience no fit reaches: with it, training stops only on its other rules.
NO_PATIENCE = math.inf


def small_config(**kwargs) -> PredictorConfig:
    defaults = dict(delay=2, hidden_units=3, max_epochs=200, seed=7)
    defaults.update(kwargs)
    return PredictorConfig(**defaults)


def predictor_from_flat(theta, delay, hidden, asset="X") -> TrainedPredictor:
    return TrainedPredictor(
        asset=asset,
        parameters=np.asarray(theta, dtype=float),
        delay=delay,
        hidden_units=hidden,
        best_val_loss=0.0,
        epochs_run=0,
        stop_reason="max-epochs",
    )


# ---------------------------------------------------------------- splitting

def test_split_series_sample_count_matches_weekly_setup():
    returns = np.linspace(-0.05, 0.05, 221)
    split = split_series(returns, PredictorConfig(delay=41, seed=0))
    assert len(split) == 180
    assert (split.n_train, split.n_val) == (126, 27)
    assert len(split) - split.n_train - split.n_val == 27


def test_split_series_definitional_windowing():
    split = split_series(np.array([1.0, 2.0, 3.0, 4.0]), PredictorConfig(delay=1, seed=0))
    np.testing.assert_array_equal(split.inputs, [[1.0], [2.0], [3.0]])
    np.testing.assert_array_equal(split.targets, [2.0, 3.0, 4.0])


def test_split_series_windows_are_chronological_lags():
    returns = np.arange(10, dtype=float)
    split = split_series(returns, PredictorConfig(delay=3, seed=0))
    np.testing.assert_array_equal(split.inputs[0], [0.0, 1.0, 2.0])
    assert split.targets[0] == 3.0
    # 7 samples: round(4.9) train, round(1.05) validate, and the rest test
    assert (split.n_train, split.n_val) == (5, 1)


def test_split_series_too_short_errors():
    with pytest.raises(InsufficientDataError):
        split_series(np.zeros(10), PredictorConfig(delay=9, seed=0))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 60), st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_init_flat_draws_as_layer_by_layer(delay, hidden, seed):
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    theta = _init_flat(delay, hidden, rng)
    np.testing.assert_array_equal(theta, init_flat_by_layer(delay, hidden, oracle_rng))
    assert len(theta) == _n_params(delay, hidden)
    # the generator is left where the per-layer draws leave it
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_config_validation():
    with pytest.raises(ConfigError):
        PredictorConfig(delay=0)
    # replace re-runs the check
    with pytest.raises(ConfigError, match="^delay must be >= 1, got 0$"):
        replace(PredictorConfig(), delay=0)


# ------------------------------------------------------------------ forward

def test_forward_zero_network_returns_output_bias():
    theta = np.zeros(3 * 2 + 3 + 3 + 1)
    theta[-1] = 0.042
    assert _forward_flat(theta, np.array([[0.5, -0.3]]), 2, 3)[0] == 0.042


def test_forward_near_linear_passthrough_of_last_lag():
    # One hidden unit in its linear regime scaled back up: output ~ last lag.
    delay, hidden = 2, 3
    theta = np.zeros(hidden * delay + hidden + hidden + 1)
    w_in, b_h, w_out, b_out = _unpack(theta, delay, hidden)
    w_in[0, 1] = 1e-4
    w_out[0] = 1e4
    for lag in (0.4, -0.7, 0.01):
        output = _forward_flat(theta, np.array([[0.9, lag]]), delay, hidden)[0]
        assert output == pytest.approx(lag, rel=1e-6)


# ----------------------------------------------------------------- jacobian

def central_difference_jacobian(theta, inputs, delay, hidden, step=1e-6):
    theta = np.asarray(theta, dtype=float)
    n = inputs.shape[0]
    fd = np.empty((n, len(theta)))
    for j in range(len(theta)):
        bumped = theta.copy()
        bumped[j] += step
        up = _forward_flat(bumped, inputs, delay, hidden)
        bumped[j] -= 2 * step
        down = _forward_flat(bumped, inputs, delay, hidden)
        fd[:, j] = (up - down) / (2 * step)
    return fd


def max_relative_error(analytic, fd):
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-6)
    return float(np.max(np.abs(analytic - fd) / scale))


def test_jacobian_matches_central_differences(rng):
    for _ in range(5):
        delay = int(rng.integers(1, 5))
        hidden = int(rng.integers(1, 6))
        theta = _init_flat(delay, hidden, rng)
        inputs = rng.normal(size=(7, delay))
        analytic = jacobian_flat(theta, inputs, delay, hidden)
        fd = central_difference_jacobian(theta, inputs, delay, hidden)
        assert max_relative_error(analytic, fd) < 1e-4


def test_jacobian_zero_output_weights_collapse():
    delay, hidden = 2, 3
    theta = np.zeros(hidden * delay + hidden + hidden + 1)
    w_in, b_h, w_out, b_out = _unpack(theta, delay, hidden)
    w_in[:] = 0.3
    b_h[:] = -0.1
    jac = jacobian_flat(theta, np.array([[0.2, -0.4]]), delay, hidden)
    # with w_out = 0 only output-layer columns are live; the bias column is 1
    assert np.all(jac[0, : hidden * delay + hidden] == 0.0)
    assert jac[0, -1] == 1.0


def test_jacobian_first_order_taylor_check(rng):
    delay, hidden = 3, 4
    theta = _init_flat(delay, hidden, rng)
    inputs = rng.normal(size=(1, delay))
    target = np.array([0.05])
    jac = jacobian_flat(theta, inputs, delay, hidden)
    j = int(rng.integers(len(theta)))
    bump = 1e-7
    bumped = theta.copy()
    bumped[j] += bump
    before = _forward_flat(theta, inputs, delay, hidden) - target
    after = _forward_flat(bumped, inputs, delay, hidden) - target
    assert after[0] - before[0] == pytest.approx(jac[0, j] * bump, rel=1e-4, abs=1e-12)


# ------------------------------------------------- structured LM step

@st.composite
def lm_problems(draw):
    """A network and a sample set on either side of ``n = n_params``."""
    delay = draw(st.integers(1, 8))
    hidden = draw(st.integers(1, 5))
    n_params = _n_params(delay, hidden)
    if draw(st.booleans()):
        n = draw(st.integers(1, n_params - 1))
    else:
        n = draw(st.integers(n_params, n_params + 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([0.02, 1.0]))
    theta = _init_flat(delay, hidden, rng)
    inputs = rng.normal(scale=scale, size=(n, delay))
    targets = rng.normal(scale=scale, size=n)
    return theta, inputs, targets, delay, hidden


LM_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


@LM_SETTINGS
@given(lm_problems())
def test_structured_gram_matches_dense(problem):
    theta, inputs, _, delay, hidden = problem
    jac = jacobian_flat(theta, inputs, delay, hidden)
    hidden_act, gate, _ = _hidden_layer(theta, inputs, delay, hidden)
    gram = _sample_gram(hidden_act, gate, inputs @ inputs.T + 1.0)
    np.testing.assert_allclose(gram, jac @ jac.T, rtol=1e-12, atol=1e-12 * np.abs(gram).max())


@LM_SETTINGS
@given(lm_problems(), st.integers(0, 2**32 - 1))
def test_structured_transpose_product_matches_dense(problem, seed):
    theta, inputs, _, delay, hidden = problem
    v = np.random.default_rng(seed).normal(size=inputs.shape[0])
    jac = jacobian_flat(theta, inputs, delay, hidden)
    hidden_act, gate, _ = _hidden_layer(theta, inputs, delay, hidden)
    dense = jac.T @ v
    np.testing.assert_allclose(
        _jt_dot(hidden_act, gate, inputs, v), dense, rtol=1e-12, atol=1e-12 * np.abs(dense).max()
    )


@LM_SETTINGS
@given(lm_problems(), st.sampled_from([1e-3, 1e-1, 10.0]))
def test_lm_step_matches_parameter_space_solve(problem, damping):
    theta, inputs, targets, delay, hidden = problem
    lag_gram = _lag_gram(inputs, delay, hidden)
    assert (lag_gram is not None) == (len(targets) < len(theta))
    residual = _forward_flat(theta, inputs, delay, hidden) - targets
    hidden_act, gate, _ = _hidden_layer(theta, inputs, delay, hidden)
    gradient, step = _gauss_newton(hidden_act, gate, residual, inputs, lag_gram)

    jac = jacobian_flat(theta, inputs, delay, hidden)
    dense_gradient = jac.T @ residual
    expected = np.linalg.solve(jac.T @ jac + damping * np.eye(len(theta)), -dense_gradient)
    np.testing.assert_allclose(
        gradient, dense_gradient, rtol=1e-12, atol=1e-12 * np.abs(dense_gradient).max()
    )
    actual = step(damping)
    assert np.linalg.norm(actual - expected) <= 1e-8 * np.linalg.norm(expected)


# ----------------------------------------------------------------- training

def test_train_constant_series_predicts_the_constant():
    returns = np.full(40, 0.02)
    config = small_config()
    split = split_series(returns, config)
    trained = train_arnn(split, config, asset="C")
    test = slice(split.n_train + split.n_val, None)
    predictions = _forward_flat(
        trained.parameters, split.inputs[test], config.delay, config.hidden_units
    )
    np.testing.assert_allclose(predictions, 0.02, atol=1e-6)


def test_train_noise_free_linear_recurrence(monkeypatch):
    monkeypatch.setattr(predictor, "_MAX_FAIL", NO_PATIENCE)
    returns = [1.0]
    for _ in range(59):
        returns.append(0.5 * returns[-1])
    returns = np.array(returns)
    config = PredictorConfig(delay=1, hidden_units=5, max_epochs=500, seed=3)
    split = split_series(returns, config)
    trained = train_arnn(split, config)
    errors = _forward_flat(trained.parameters, split.inputs, 1, 5) - split.targets
    test_rmse = np.sqrt(np.mean(errors[split.n_train + split.n_val :] ** 2))
    train_rmse = np.sqrt(np.mean(errors[: split.n_train] ** 2))
    assert test_rmse < 1e-3
    assert train_rmse < 1e-6


def test_training_loss_non_increasing_over_accepted_steps(rng):
    returns = rng.normal(0.0, 0.02, size=80)
    config = small_config(max_epochs=60)
    split = split_series(returns, config)
    losses = []
    train_arnn(split, config, on_epoch=lambda e, tr, vl: losses.append(tr))
    assert len(losses) >= 1
    assert all(b < a for a, b in zip(losses, losses[1:])) or len(losses) == 1
    diffs = np.diff(losses)
    assert np.all(diffs <= 0.0)


def test_training_is_deterministic(rng):
    returns = rng.normal(0.0, 0.02, size=70)
    config = small_config(seed=123)
    split = split_series(returns, config)
    first = train_arnn(split, config)
    second = train_arnn(split, config)
    np.testing.assert_array_equal(first.parameters, second.parameters)
    assert first.best_val_loss == second.best_val_loss
    assert first.epochs_run == second.epochs_run


def test_early_stopping_dominance(rng):
    returns = rng.normal(0.0, 0.02, size=90)
    config = small_config(max_epochs=80, seed=11)
    split = split_series(returns, config)
    val_losses = []
    trained = train_arnn(split, config, on_epoch=lambda e, tr, vl: val_losses.append(vl))
    assert val_losses, "expected at least one accepted epoch"
    assert trained.best_val_loss <= min(val_losses) + 0.0


def test_train_non_finite_input_raises_training_error():
    config = small_config()
    returns = np.zeros(40)
    split = split_series(returns, config)
    split.targets[0] = np.inf  # tanh saturates bad lags, but a bad target explodes the loss
    with pytest.raises(TrainingError) as info:
        train_arnn(split, config)
    assert info.value.epoch == 0


def test_train_requires_validation_samples():
    config = small_config()
    split = split_series(np.zeros(40), config)
    for empty in (replace(split, n_val=0), replace(split, n_train=0)):
        with pytest.raises(InsufficientDataError):
            train_arnn(empty, config)


# --------------------------------------------------------------- prediction

def test_rolling_predict_perfect_on_constant_series():
    returns = np.full(40, 0.02)
    config = small_config()
    split = split_series(returns, config)
    record = rolling_predict(train_arnn(split, config, asset="C"), split)
    np.testing.assert_allclose(record.errors, 0.0, atol=1e-6)


def test_rolling_predict_zero_network_errors_equal_real():
    returns = np.linspace(-0.1, 0.1, 30)
    config = small_config()
    zero = predictor_from_flat(np.zeros(3 * 2 + 3 + 3 + 1), delay=2, hidden=3)
    record = rolling_predict(zero, split_series(returns, config))
    np.testing.assert_array_equal(record.predicted, np.zeros(28))
    np.testing.assert_array_equal(record.errors, record.real)


def test_rolling_predict_record_count_and_identity():
    returns = np.sin(np.linspace(0, 20, 221)) * 0.05
    config = PredictorConfig(delay=41, hidden_units=2, max_epochs=5, seed=0)
    split = split_series(returns, config)
    record = rolling_predict(train_arnn(split, config), split)
    assert len(record) == 180
    # three contiguous blocks: 126 train, 27 validate, 27 test
    np.testing.assert_array_equal(record.split_labels, [TRAIN] * 126 + [VAL] * 27 + [TEST] * 27)
    # errors are exactly the stored real-minus-predicted recomputation
    np.testing.assert_array_equal(record.errors, record.real - record.predicted)


def test_rolling_predict_delay_mismatch_errors():
    config = small_config()
    trained = train_arnn(split_series(np.zeros(40), config), config)
    with pytest.raises(DimensionError):
        rolling_predict(trained, split_series(np.zeros(40), small_config(delay=4)))


def test_predictor_dump_round_trip(rng):
    returns = rng.normal(0.0, 0.02, size=60)
    config = small_config(seed=5)
    trained = train_arnn(split_series(returns, config), config, asset="RT")
    loaded = trained_predictor_from_dict(json.loads(json.dumps(trained.to_dict())))
    np.testing.assert_array_equal(loaded.parameters, trained.parameters)
    assert loaded.asset == "RT"
    assert loaded.best_val_loss == trained.best_val_loss
    assert loaded.epochs_run == trained.epochs_run
    assert loaded.stop_reason == trained.stop_reason


@pytest.mark.parametrize(
    "size, config, expected",
    [
        (40, small_config(), "gradient"),  # a zero series is fitted exactly
        (60, PredictorConfig(delay=1, hidden_units=1, seed=0), "ftol"),
        (30, PredictorConfig(delay=5, hidden_units=3, seed=0), "no-accepted-step"),
        # the paper-scale split: 126 training samples for 216 parameters
        (221, PredictorConfig(delay=41, max_epochs=3, seed=0), "max-epochs"),
        (221, PredictorConfig(delay=41, seed=0), "max-fail"),
    ],
)
def test_stop_reason(size, config, expected, monkeypatch):
    if expected in ("ftol", "no-accepted-step"):
        # on these inputs the validation stop comes first
        monkeypatch.setattr(predictor, "_MAX_FAIL", NO_PATIENCE)
    returns = np.zeros(size) if expected == "gradient" else (
        np.random.default_rng(0).normal(0.0, 0.02, size=size)
    )
    losses, val_losses = [], []

    def record(epoch, train_loss, val_loss):
        losses.append(train_loss)
        val_losses.append(val_loss)

    trained = train_arnn(split_series(returns, config), config, on_epoch=record)
    assert trained.stop_reason == expected
    assert len(losses) == trained.epochs_run
    assert (trained.epochs_run == config.max_epochs) == (expected == "max-epochs")
    if expected == "ftol":
        assert losses[-2] - losses[-1] <= 1e-12 * losses[-1]
    if expected == "max-fail":
        assert all(v > trained.best_val_loss for v in val_losses[-predictor._MAX_FAIL :])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.integers(1, 5),
    st.integers(1, 4),
    st.integers(3, 40),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1, 2, 6]),
)
# inputs where a new best comes between validation failures before the stop
@example(1, 1, 10, 0, 6)
@example(1, 3, 20, 0, 2)
def test_max_fail_run_is_a_prefix_of_the_run_without_patience(delay, hidden, extra, seed, max_fail):
    returns = np.random.default_rng(seed).normal(0.0, 0.02, size=delay + extra)
    config = PredictorConfig(delay=delay, hidden_units=hidden, max_epochs=60, seed=seed)
    split = split_series(returns, config)

    def run(patience, cfg=config):
        epochs = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(predictor, "_MAX_FAIL", patience)
            trained = train_arnn(split, cfg, on_epoch=lambda e, tr, vl: epochs.append((tr, vl)))
        return trained, epochs

    patient, patient_epochs = run(max_fail)
    full, full_epochs = run(NO_PATIENCE)
    k = patient.epochs_run
    assert patient_epochs == full_epochs[:k]

    # the fit returns the best-validation snapshot of its prefix: the same
    # parameters as a run without patience cut at that epoch
    prefix = full if k == 0 else run(NO_PATIENCE, replace(config, max_epochs=k))[0]
    np.testing.assert_array_equal(patient.parameters, prefix.parameters)
    assert patient.best_val_loss == prefix.best_val_loss
    assert all(patient.best_val_loss <= vl for _, vl in patient_epochs)

    if patient.stop_reason == "max-fail":
        assert k >= max_fail
        assert all(vl > patient.best_val_loss for _, vl in patient_epochs[-max_fail:])
        # the failures began right after the best epoch, or at the first epoch
        assert k == max_fail or patient_epochs[-max_fail - 1][1] == patient.best_val_loss
    else:
        assert (patient.stop_reason, k) == (full.stop_reason, full.epochs_run)
        np.testing.assert_array_equal(patient.parameters, full.parameters)
