"""One-step-ahead return prediction with a small tapped-delay tanh network.

Each asset gets its own network: ``delay`` lagged returns feed a layer of
tanh hidden units and a single linear output. Training minimizes the sum of
squared one-step errors on the training slice with damped Gauss-Newton
steps (Levenberg-Marquardt). As in MATLAB's ``trainlm``, training stops
after ``_MAX_FAIL`` (6) accepted epochs in a row whose validation loss is
above the best so far, and the parameter snapshot with the lowest
validation loss seen is what the fit returns.

The damped step ``-(J'J + mu I)^-1 J'r`` is solved in whichever space is
smaller. With fewer training samples than parameters (126 against 216 at
paper scale) it is computed as ``-J'(JJ' + mu I)^-1 r`` from the sample-space
Gram matrix ``JJ'``, which the Kronecker structure of the Jacobian rows
gives without forming ``J``; otherwise ``J`` and ``J'J`` are formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DimensionError,
    InsufficientDataError,
    TrainingError,
)

TRAIN, VAL, TEST = "train", "val", "test"

# LM damping: its start (trainlm's mu), the factor it is multiplied by on a
# rejected step and divided by on an accepted one (mu_inc, 1 / mu_dec), and
# its range.
_DAMPING_INITIAL = 1e-3
_DAMPING_FACTOR = 10.0
_DAMPING_MAX = 1e12
_DAMPING_MIN = 1e-12
# Relative improvement below which an LM run is considered converged.
_FTOL = 1e-12
# Validation failures in a row that stop an LM run (trainlm's max_fail).
_MAX_FAIL = 6
# Shares of the samples that train and validate; the test slice takes the
# rest. trainlm's dividerand ratios, taken in time order.
_TRAIN_FRAC = 0.70
_VAL_FRAC = 0.15


@dataclass(frozen=True)
class PredictorConfig:
    """Settings of one asset's network; checked when built or ``replace``d."""

    delay: int = 41
    hidden_units: int = 5
    max_epochs: int = 1000
    seed: int | tuple[int, ...] = 0

    def __post_init__(self):
        if self.delay < 1:
            raise ConfigError(f"delay must be >= 1, got {self.delay}")
        if self.hidden_units < 1:
            raise ConfigError(f"hidden_units must be >= 1, got {self.hidden_units}")
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be >= 1, got {self.max_epochs}")


@dataclass
class SupervisedSplit:
    """Lag-window samples in time order: the first ``n_train`` train, the
    next ``n_val`` validate, and the rest test."""

    inputs: np.ndarray   # (n, delay), oldest lag first
    targets: np.ndarray  # (n,)
    n_train: int
    n_val: int

    def __len__(self) -> int:
        return len(self.targets)


@dataclass
class TrainedPredictor:
    """Fitted network parameters for one asset."""

    asset: str
    parameters: np.ndarray  # flat, in the order :func:`_unpack` reads
    delay: int
    hidden_units: int
    best_val_loss: float
    epochs_run: int
    # how training stopped: "gradient", "no-accepted-step", "ftol",
    # "max-fail" or "max-epochs"
    stop_reason: str

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "asset": self.asset,
            "delay": self.delay,
            "hidden_units": self.hidden_units,
            "shapes": {
                "input_weights": [self.hidden_units, self.delay],
                "hidden_bias": [self.hidden_units],
                "output_weights": [self.hidden_units],
                "output_bias": [],
            },
            "parameters": [float(v) for v in self.parameters],
            "best_val_loss": float(self.best_val_loss),
            "epochs_run": int(self.epochs_run),
            "stop_reason": self.stop_reason,
        }


@dataclass
class PredictionRecord:
    """Real vs predicted one-step returns and their error series."""

    asset: str
    real: np.ndarray
    predicted: np.ndarray
    split_labels: np.ndarray

    @property
    def errors(self) -> np.ndarray:
        return self.real - self.predicted

    def __len__(self) -> int:
        return len(self.real)

    @classmethod
    def from_dict(cls, data: dict) -> "PredictionRecord":
        """Decode a record, refusing ragged series or non-finite values."""
        record = cls(
            asset=data["asset"],
            real=np.asarray(data["real"], dtype=float),
            predicted=np.asarray(data["predicted"], dtype=float),
            split_labels=np.asarray(data["split_labels"], dtype=object),
        )
        if not len(record.real) == len(record.predicted) == len(record.split_labels):
            raise ValueError(f"{record.asset!r}: real, predicted and split_labels differ in length")
        if not (np.isfinite(record.real).all() and np.isfinite(record.predicted).all()):
            raise ValueError(f"{record.asset!r}: non-finite value in real or predicted")
        return record


def _n_params(delay: int, hidden: int) -> int:
    return hidden * delay + hidden + hidden + 1


def _unpack(theta: np.ndarray, delay: int, hidden: int):
    hd = hidden * delay
    w_in = theta[:hd].reshape(hidden, delay)
    b_h = theta[hd : hd + hidden]
    w_out = theta[hd + hidden : hd + 2 * hidden]
    b_out = float(theta[-1])
    return w_in, b_h, w_out, b_out


def _init_flat(delay: int, hidden: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform [-0.5, 0.5] scaled by 1/sqrt(fan-in) per layer, drawn in
    :func:`_unpack` order."""
    hidden_layer = hidden * delay + hidden
    scale = np.repeat([1.0 / np.sqrt(delay), 1.0 / np.sqrt(hidden)], [hidden_layer, hidden + 1])
    return rng.uniform(-0.5, 0.5, size=hidden_layer + hidden + 1) * scale


def _hidden_layer(theta: np.ndarray, inputs: np.ndarray, delay: int, hidden: int):
    """The forward pass: hidden activations and the output-weighted tanh
    slope ("gate"), each ``(n, hidden)``, and the output, ``(n,)``."""
    w_in, b_h, w_out, b_out = _unpack(theta, delay, hidden)
    hidden_act = np.tanh(inputs @ w_in.T + b_h)
    return hidden_act, (1.0 - hidden_act**2) * w_out, hidden_act @ w_out + b_out


def _forward_flat(theta: np.ndarray, inputs: np.ndarray, delay: int, hidden: int) -> np.ndarray:
    return _hidden_layer(theta, inputs, delay, hidden)[2]


def _jacobian_rows(hidden_act, gate, inputs) -> np.ndarray:
    """Analytic d(prediction)/d(parameter), one row per sample, from the
    hidden layer on ``inputs`` (see :func:`_hidden_layer`).

    Residuals are ``prediction - target``, so this is also the residual
    Jacobian; column order matches :func:`_unpack`. Row ``i`` is
    ``[gate_i (x) inputs_i, gate_i, hidden_act_i, 1]``.
    """
    n = inputs.shape[0]
    j_w_in = np.einsum("nh,nd->nhd", gate, inputs).reshape(n, -1)
    return np.concatenate([j_w_in, gate, hidden_act, np.ones((n, 1))], axis=1)


def _jt_dot(hidden_act, gate, inputs, v: np.ndarray) -> np.ndarray:
    """``J' v`` from the row structure of :func:`_jacobian_rows`, without
    forming ``J``."""
    gv = gate * v[:, None]
    return np.concatenate(
        [(gv.T @ inputs).ravel(), gv.sum(axis=0), hidden_act.T @ v, [v.sum()]]
    )


def _sample_gram(hidden_act, gate, lag_gram: np.ndarray) -> np.ndarray:
    """``J J'`` from the same structure; ``lag_gram`` is ``inputs inputs' + 1``."""
    return (gate @ gate.T) * lag_gram + hidden_act @ hidden_act.T + 1.0


def _lag_gram(inputs: np.ndarray, delay: int, hidden: int) -> np.ndarray | None:
    """``inputs inputs' + 1`` when the LM step is solved in sample space
    (fewer samples than parameters), else None."""
    if inputs.shape[0] < _n_params(delay, hidden):
        return inputs @ inputs.T + 1.0
    return None


def _gauss_newton(hidden_act, gate, residual, inputs, lag_gram):
    """Linearize at a network given by its hidden layer on ``inputs`` (see
    :func:`_hidden_layer`) and its residual ``r = prediction - targets``.

    Returns ``(gradient, step)``: ``gradient`` is ``J'r`` and
    ``step(damping)`` solves ``(J'J + damping I) s = -J'r``. With a
    ``lag_gram`` (see :func:`_lag_gram`) the step is computed as
    ``J'(JJ' + damping I)^-1 (-r)``, the same vector from an ``n x n``
    system; otherwise ``J'J`` is formed and solved in parameter space.
    """
    gradient = _jt_dot(hidden_act, gate, inputs, residual)
    if lag_gram is not None:
        system, rhs = _sample_gram(hidden_act, gate, lag_gram), -residual
    else:
        jac = _jacobian_rows(hidden_act, gate, inputs)
        system, rhs = jac.T @ jac, -gradient
    diagonal = system.diagonal().copy()

    def step(damping: float) -> np.ndarray:
        np.fill_diagonal(system, diagonal + damping)
        solution = np.linalg.solve(system, rhs)
        return solution if lag_gram is None else _jt_dot(hidden_act, gate, inputs, solution)

    return gradient, step


def split_series(series, config: PredictorConfig) -> SupervisedSplit:
    """Window a return series into (lags -> next return) samples.

    The first ``delay`` returns are consumed as lags only; the remaining
    samples split chronologically into train, validation and test in
    shares ``_TRAIN_FRAC``, ``_VAL_FRAC`` and the rest (each partition gets
    at least one sample).
    """
    returns = np.asarray(series, dtype=float)
    d = config.delay
    t = len(returns)
    if t < d + 3:
        raise InsufficientDataError(
            f"need at least {d + 3} returns for delay {d} (3 usable samples), got {t}"
        )
    n = t - d
    inputs = np.lib.stride_tricks.sliding_window_view(returns, d)[:n].copy()
    targets = returns[d:].copy()

    n_train = min(max(int(round(_TRAIN_FRAC * n)), 1), n - 2)
    n_val = min(max(int(round(_VAL_FRAC * n)), 1), n - n_train - 1)
    return SupervisedSplit(inputs=inputs, targets=targets, n_train=n_train, n_val=n_val)


def train_arnn(
    split: SupervisedSplit,
    config: PredictorConfig,
    asset: str = "",
    on_epoch=None,
) -> TrainedPredictor:
    """Fit the network with Levenberg-Marquardt on the training slice.

    Each epoch solves ``(J'J + damping * I) step = -J' residual`` and only
    accepts steps that strictly decrease the training SSE; the damping is
    divided by ``_DAMPING_FACTOR`` on acceptance and multiplied on
    rejection. When the training slice has fewer samples than the network
    has parameters, the step is solved in sample space as
    ``J'(JJ' + damping * I)^-1 (-residual)`` from the structured Gram matrix
    (see :func:`_gauss_newton`); otherwise in parameter space. An accepted
    epoch whose validation SSE is above the best so far is a validation
    failure, a new best resets the count, and an exact tie leaves it as it
    is (``trainlm``'s rule); ``_MAX_FAIL`` failures in a row stop training.
    The returned parameters are the snapshot with the lowest validation
    SSE, and ``stop_reason`` says why training ended: a vanishing gradient
    (``gradient``), no step accepted up to the maximum damping
    (``no-accepted-step``), a relative SSE decrease below ``_FTOL``
    (``ftol``), ``_MAX_FAIL`` validation failures in a row (``max-fail``)
    or the epoch cap (``max-epochs``).
    Deterministic for a fixed seed; the stop only cuts the run short, so
    its epochs are a prefix of those of a run that never stops on
    validation failures.

    ``on_epoch(epoch, train_loss, val_loss)`` is invoked after each
    accepted epoch when supplied.
    """
    d, h = config.delay, config.hidden_units
    if split.inputs.shape[1] != d:
        raise DimensionError(
            f"split built with delay {split.inputs.shape[1]}, config says {d}"
        )
    if split.n_train < 1 or split.n_val < 1:
        raise InsufficientDataError("need at least one training and one validation sample")
    train, val = slice(split.n_train), slice(split.n_train, split.n_train + split.n_val)
    x_train, y_train = split.inputs[train], split.targets[train]
    x_val, y_val = split.inputs[val], split.targets[val]

    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    theta = _init_flat(d, h, rng)
    lag_gram = _lag_gram(x_train, d, h)

    def evaluate(params, x, y):
        hidden_act, gate, output = _hidden_layer(params, x, d, h)
        r = output - y
        return (hidden_act, gate, r), float(r @ r)

    network, loss = evaluate(theta, x_train, y_train)
    if not np.isfinite(loss):
        raise TrainingError("non-finite training loss on initial parameters", epoch=0)
    _, val_loss = evaluate(theta, x_val, y_val)
    best_theta, best_val = theta.copy(), val_loss

    damping = _DAMPING_INITIAL
    epochs_run = 0
    val_fails = 0
    stop_reason = "max-epochs"

    for epoch in range(1, config.max_epochs + 1):
        gradient, step = _gauss_newton(*network, x_train, lag_gram)
        if np.max(np.abs(gradient)) < 1e-14:
            stop_reason = "gradient"
            break

        accepted = False
        while damping <= _DAMPING_MAX:
            trial = theta + step(damping)
            trial_network, trial_loss = evaluate(trial, x_train, y_train)
            if np.isfinite(trial_loss) and trial_loss < loss:
                prev_loss = loss
                theta, network, loss = trial, trial_network, trial_loss
                damping = max(damping / _DAMPING_FACTOR, _DAMPING_MIN)
                accepted = True
                break
            damping *= _DAMPING_FACTOR
        if not accepted:
            stop_reason = "no-accepted-step"
            break
        epochs_run = epoch

        _, val_loss = evaluate(theta, x_val, y_val)
        if not np.isfinite(val_loss):
            raise TrainingError("validation loss became non-finite", epoch=epoch)
        if val_loss < best_val:
            best_val = val_loss
            best_theta = theta.copy()
            val_fails = 0
        elif val_loss > best_val:
            val_fails += 1
        if on_epoch is not None:
            on_epoch(epoch, loss, val_loss)
        if prev_loss - loss <= _FTOL * (loss + 1e-30):
            stop_reason = "ftol"
            break
        if val_fails == _MAX_FAIL:
            stop_reason = "max-fail"
            break

    return TrainedPredictor(
        asset=asset,
        parameters=best_theta,
        delay=d,
        hidden_units=h,
        best_val_loss=best_val,
        epochs_run=epochs_run,
        stop_reason=stop_reason,
    )


def rolling_predict(predictor: TrainedPredictor, split: SupervisedSplit) -> PredictionRecord:
    """Predict every sample of ``split`` from its true preceding lags.

    The windows are the split's (no feedback of predictions), so ``real``,
    ``predicted`` and ``errors`` all have one entry per sample of the
    split, labelled by the part of the split it falls in.
    """
    if split.inputs.shape[1] != predictor.delay:
        raise DimensionError(
            f"predictor was trained with delay {predictor.delay},"
            f" split built with delay {split.inputs.shape[1]}"
        )
    predicted = _forward_flat(
        predictor.parameters, split.inputs, predictor.delay, predictor.hidden_units
    )
    n_test = len(split) - split.n_train - split.n_val
    return PredictionRecord(
        asset=predictor.asset,
        real=split.targets,
        predicted=predicted,
        split_labels=np.repeat([TRAIN, VAL, TEST], [split.n_train, split.n_val, n_test]),
    )
