"""Bounded weight decoding and the penalized Mean-Variance-Skewness cost.

Raw allocation numbers over a selected asset subset decode to weights that
sum to one and respect per-asset floors and caps; the cost blends portfolio
risk, return, and the weighted skewness ``w . skew`` with preference
weights ``lambda`` and ``theta``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError
from .risk_model import RiskModel

_FEAS_TOL = 1e-9


def _limits_for(limit, selection: np.ndarray, n_assets: int, side: str) -> np.ndarray:
    limit = np.asarray(limit, dtype=float)
    if limit.ndim == 0:
        return np.full(selection.shape, float(limit))
    if len(limit) != n_assets:
        raise DimensionError(f"{side}-limit vector has {len(limit)} entries for {n_assets} assets")
    return limit[selection]


@dataclass(frozen=True)
class Bounds:
    """Per-asset weight limits; scalars broadcast over the universe. The
    range checks are written so that NaN fails them."""

    epsilon: float | np.ndarray = 0.0
    delta: float | np.ndarray = 1.0

    def __post_init__(self):
        eps = np.atleast_1d(np.asarray(self.epsilon, dtype=float))
        dlt = np.atleast_1d(np.asarray(self.delta, dtype=float))
        if not np.all((eps >= 0) & (eps < 1)):
            raise ConfigError("lower limits must lie in [0, 1)")
        if not np.all((dlt > 0) & (dlt <= 1)):
            raise ConfigError("upper limits must lie in (0, 1]")
        if eps.shape != (1,) and dlt.shape != (1,) and eps.shape != dlt.shape:
            raise ConfigError("per-asset lower and upper limit vectors differ in length")
        check_eps, check_dlt = np.broadcast_arrays(eps, dlt)
        if np.any(check_eps >= check_dlt):
            raise ConfigError("every lower limit must be below its upper limit")

    def for_selection(self, selection, n_assets: int) -> tuple[np.ndarray, np.ndarray]:
        """Slice the limits down to the selected asset indices (any shape)."""
        selection = np.asarray(selection, dtype=int)
        return (
            _limits_for(self.epsilon, selection, n_assets, "lower"),
            _limits_for(self.delta, selection, n_assets, "upper"),
        )

    def feasible_subset_exists(self, k: int, n_assets: int) -> bool:
        """True when at least one K-subset admits a valid allocation."""
        eps = np.asarray(self.epsilon, dtype=float)
        dlt = np.asarray(self.delta, dtype=float)
        eps_all = np.full(n_assets, float(eps)) if eps.ndim == 0 else eps
        dlt_all = np.full(n_assets, float(dlt)) if dlt.ndim == 0 else dlt
        min_floor = np.sort(eps_all)[:k].sum()
        max_cap = np.sort(dlt_all)[-k:].sum()
        return min_floor <= 1.0 + _FEAS_TOL and max_cap >= 1.0 - _FEAS_TOL


@dataclass(frozen=True)
class ObjectiveParams:
    lam: float
    theta: float

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ConfigError(f"lambda must lie in [0, 1], got {self.lam}")
        if not self.theta >= 0.0:
            raise ConfigError(f"theta must be >= 0, got {self.theta}")
        if self.theta == math.inf:
            raise ConfigError(f"theta must be finite, got {self.theta}")


@dataclass(frozen=True)
class RowParams:
    """Preference weights per scored row: ``(R,)`` ``lam`` and ``theta``
    arrays, for the stacked chromosomes of GA runs with different
    ``ObjectiveParams``. Row ``i`` costs exactly what it would under
    ``ObjectiveParams(lam[i], theta[i])``."""

    lam: np.ndarray
    theta: np.ndarray


@dataclass
class Portfolio:
    """Decoded holdings: subset, full-universe weights, and evaluated stats."""

    selection: tuple[int, ...]
    weights: np.ndarray
    mu_p: float
    sigma_p: float


def decode_weights(raw: np.ndarray, eps: np.ndarray, dlt: np.ndarray) -> np.ndarray:
    """Decode each row of ``(R, K)`` raw allocation numbers into bounded
    weights summing to one, against ``(R, K)`` floors and caps.

    Every selected asset first receives its floor ``eps`` plus a share of
    the free mass ``1 - sum(eps)`` proportional to its raw value (an
    all-zero raw row counts as uniform). Weights above their caps are then
    clipped to ``dlt`` and the excess is redistributed among unclipped
    assets proportionally to raw (uniformly when those raws are all zero);
    each pass permanently clips at least one asset, so at most K passes
    run. The caller guarantees feasible rows: floors summing to at most
    one and caps to at least one, within 1e-9.
    """
    s = np.where((raw.sum(axis=1) <= 0.0)[:, None], 1.0, raw)
    weights = eps + s / s.sum(axis=1, keepdims=True) * (1.0 - eps.sum(axis=1, keepdims=True))

    clipped = np.zeros(s.shape, dtype=bool)
    for _ in range(s.shape[1]):
        over = (weights > dlt) & ~clipped
        if not over.any():
            break
        excess = np.where(over, weights - dlt, 0.0).sum(axis=1, keepdims=True)
        weights = np.where(over, dlt, weights)
        clipped |= over
        free = ~clipped
        share = np.where(free, s, 0.0)
        total = share.sum(axis=1, keepdims=True)
        # Rows whose free assets all have raw zero share the excess evenly;
        # rows with nothing left free (or no excess) gain exactly zero.
        share = np.where(total > 0.0, share, free)
        total = np.where(total > 0.0, total, np.maximum(free.sum(axis=1, keepdims=True), 1))
        weights = weights + excess * share / total
    return weights


def portfolio_return(weights, mu) -> float:
    """Weighted expected return, ``sum_i w_i mu_i``."""
    w = np.asarray(weights, dtype=float)
    m = np.asarray(mu, dtype=float)
    if w.shape != m.shape:
        raise DimensionError(f"weights {w.shape} vs mu {m.shape}")
    return float(w @ m)


def portfolio_risk(weights, sigma) -> float:
    """Quadratic form ``w' sigma w`` (a variance-scale quantity)."""
    w = np.asarray(weights, dtype=float)
    s = np.asarray(sigma, dtype=float)
    if s.shape != (len(w), len(w)):
        raise DimensionError(f"weights {w.shape} vs sigma {s.shape}")
    return float(w @ s @ w)


def penalized_cost(
    selection: np.ndarray,
    raw: np.ndarray,
    model: RiskModel,
    params: ObjectiveParams | RowParams,
    bounds: Bounds,
    penalty_factor: float | np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Fitness of each row of ``(R, K)`` chromosomes; finite for finite input.
    ``params`` holds one set of preference weights, or one per row, and
    ``penalty_factor`` one number or an ``(R, 1)`` column, one per row.

    Feasible selections decode normally and pay no penalty. When the
    bounds over a selection are infeasible (floors sum above one or caps
    below one) the offending limits are scaled to the nearest sums-to-one
    feasible set, the row is decoded against those, and
    ``penalty_factor * violation magnitude`` is added to its cost. The
    cost terms come from the sub-sigma gathered over each selection.

    Returns ``(costs, weights)``: ``(R,)`` costs and the ``(R, K)`` weights
    of each row's selected assets.
    """
    eps, dlt = bounds.for_selection(selection, model.n_assets)
    floor_total = eps.sum(axis=1, keepdims=True)
    cap_total = dlt.sum(axis=1, keepdims=True)
    infeasible = (floor_total > 1.0 + _FEAS_TOL) | (cap_total < 1.0 - _FEAS_TOL)
    eps = eps / np.where(infeasible & (floor_total > 1.0), floor_total, 1.0)
    dlt = dlt / np.where(infeasible & (cap_total < 1.0), cap_total, 1.0)
    violation = np.maximum(floor_total - 1.0, 0.0) + np.maximum(1.0 - cap_total, 0.0)
    penalty = np.where(infeasible, penalty_factor * violation, 0.0)[:, 0]

    weights = decode_weights(raw, eps, dlt)
    sub_sigma = model.sigma[selection[:, :, None], selection[:, None, :]]
    risk = np.einsum("rk,rkl,rl->r", weights, sub_sigma, weights)
    ret = np.einsum("rk,rk->r", weights, model.mu[selection])
    skew_term = np.einsum("rk,rk->r", weights, model.skew[selection])
    cost = params.lam * risk - (1.0 - params.lam) * ret - params.theta * skew_term
    return cost + penalty, weights


def build_portfolio(selection, weights_full, model: RiskModel) -> Portfolio:
    """Evaluate and wrap decoded weights as a Portfolio."""
    w = np.asarray(weights_full, dtype=float)
    return Portfolio(
        selection=tuple(int(i) for i in selection),
        weights=w,
        mu_p=portfolio_return(w, model.mu),
        sigma_p=portfolio_risk(w, model.sigma),
    )
