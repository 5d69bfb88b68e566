"""Bounded weight decoding and the penalized Mean-Variance-Skewness cost.

Raw allocation numbers over a selected asset subset decode to weights that
sum to one and respect per-asset floors and caps; the cost blends portfolio
risk, return, and a skewness term with preference weights ``lambda`` and
``theta``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, InfeasibleBoundsError
from .risk_model import RiskModel

SKEW_WEIGHTED = "weighted"
SKEW_LITERAL = "literal"

_FEAS_TOL = 1e-9


@dataclass(frozen=True)
class Bounds:
    """Per-asset weight limits; scalars broadcast over the universe."""

    epsilon: float | np.ndarray = 0.0
    delta: float | np.ndarray = 1.0

    def __post_init__(self):
        eps = np.atleast_1d(np.asarray(self.epsilon, dtype=float))
        dlt = np.atleast_1d(np.asarray(self.delta, dtype=float))
        if np.any(eps < 0) or np.any(eps >= 1):
            raise ConfigError("lower limits must lie in [0, 1)")
        if np.any(dlt <= 0) or np.any(dlt > 1):
            raise ConfigError("upper limits must lie in (0, 1]")
        if eps.shape != (1,) and dlt.shape != (1,) and eps.shape != dlt.shape:
            raise ConfigError("per-asset lower and upper limit vectors differ in length")
        check_eps, check_dlt = np.broadcast_arrays(eps, dlt)
        if np.any(check_eps >= check_dlt):
            raise ConfigError("every lower limit must be below its upper limit")

    def for_selection(self, selection, n_assets: int) -> tuple[np.ndarray, np.ndarray]:
        """Slice the limits down to the selected asset indices."""
        selection = np.asarray(selection, dtype=int)
        eps = np.asarray(self.epsilon, dtype=float)
        dlt = np.asarray(self.delta, dtype=float)
        if eps.ndim == 0:
            eps_q = np.full(len(selection), float(eps))
        else:
            if len(eps) != n_assets:
                raise DimensionError(f"lower-limit vector has {len(eps)} entries for {n_assets} assets")
            eps_q = eps[selection]
        if dlt.ndim == 0:
            dlt_q = np.full(len(selection), float(dlt))
        else:
            if len(dlt) != n_assets:
                raise DimensionError(f"upper-limit vector has {len(dlt)} entries for {n_assets} assets")
            dlt_q = dlt[selection]
        return eps_q, dlt_q

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
    skew_mode: str = SKEW_WEIGHTED

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ConfigError(f"lambda must lie in [0, 1], got {self.lam}")
        if self.theta < 0.0:
            raise ConfigError(f"theta must be >= 0, got {self.theta}")
        if self.skew_mode not in (SKEW_WEIGHTED, SKEW_LITERAL):
            raise ConfigError(f"unknown skew mode {self.skew_mode!r}")


@dataclass
class Portfolio:
    """Decoded holdings: subset, full-universe weights, and evaluated stats."""

    selection: tuple[int, ...]
    weights: np.ndarray
    mu_p: float
    sigma_p: float


def decode_weights(raw, epsilon, delta) -> np.ndarray:
    """Decode raw allocation numbers into bounded weights summing to one.

    Every selected asset first receives its floor ``epsilon`` plus a share
    of the free mass ``1 - sum(epsilon)`` proportional to its raw value
    (an all-zero raw vector counts as uniform). Weights above their caps
    are then clipped to ``delta`` and the excess is redistributed among
    unclipped assets proportionally to raw (uniformly when those raws are
    all zero); each pass permanently clips at least one asset, so at most
    K passes run.
    """
    s = np.asarray(raw, dtype=float).copy()
    eps = np.asarray(epsilon, dtype=float)
    dlt = np.asarray(delta, dtype=float)
    k = len(s)
    if eps.shape != (k,) or dlt.shape != (k,):
        raise DimensionError("raw vector and bound vectors must share one length")
    if np.any(s < 0):
        raise ValueError("raw allocation numbers must be nonnegative")

    floor_total = float(eps.sum())
    cap_total = float(dlt.sum())
    if floor_total > 1.0 + _FEAS_TOL:
        raise InfeasibleBoundsError(
            f"lower limits over the selection sum to {floor_total:.6f} > 1"
        )
    if cap_total < 1.0 - _FEAS_TOL:
        raise InfeasibleBoundsError(
            f"upper limits over the selection sum to {cap_total:.6f} < 1"
        )

    if s.sum() <= 0.0:
        s = np.ones(k)
    weights = eps + (s / s.sum()) * (1.0 - floor_total)

    clipped = np.zeros(k, dtype=bool)
    for _ in range(k):
        over = (weights > dlt) & ~clipped
        if not over.any():
            break
        excess = float((weights[over] - dlt[over]).sum())
        weights[over] = dlt[over]
        clipped |= over
        free = ~clipped
        if not free.any():
            break
        share = s[free]
        total = share.sum()
        if total > 0.0:
            weights[free] += excess * share / total
        else:
            weights[free] += excess / free.sum()
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


def mvs_cost(
    weights,
    model: RiskModel,
    params: ObjectiveParams,
    selection=None,
) -> float:
    """Mean-Variance-Skewness cost of a full-universe weight vector.

    ``lam * risk - (1 - lam) * return - theta * skew_term``, where the
    skew term is weight-weighted by default; literal mode sums the raw
    skewness over ``selection``, which it requires (a selected asset can
    decode to weight zero, so the weights do not determine it).
    """
    w = np.asarray(weights, dtype=float)
    risk = portfolio_risk(w, model.sigma)
    ret = portfolio_return(w, model.mu)
    if params.skew_mode == SKEW_WEIGHTED:
        skew_term = float(w @ model.skew)
    else:
        if selection is None:
            raise ConfigError("literal skew mode needs the selection")
        skew_term = float(model.skew[np.asarray(selection, dtype=int)].sum())
    return params.lam * risk - (1.0 - params.lam) * ret - params.theta * skew_term


def penalized_cost(
    selection,
    raw,
    model: RiskModel,
    params: ObjectiveParams,
    bounds: Bounds,
    penalty_factor: float = 10.0,
) -> tuple[float, np.ndarray]:
    """Fitness of an arbitrary chromosome; always finite for finite input.

    Feasible selections decode normally and pay no penalty. When the
    bounds over the selection are infeasible (floors sum above one or caps
    below one) the offending limits are scaled to the nearest sums-to-one
    feasible set, the chromosome is decoded against those, and
    ``penalty_factor * violation magnitude`` is added to the cost.

    Returns ``(cost, full_universe_weights)``.
    """
    selection = np.asarray(selection, dtype=int)
    eps_q, dlt_q = bounds.for_selection(selection, model.n_assets)
    penalty = 0.0
    try:
        weights_q = decode_weights(raw, eps_q, dlt_q)
    except InfeasibleBoundsError:
        floor_total = float(eps_q.sum())
        cap_total = float(dlt_q.sum())
        violation = max(0.0, floor_total - 1.0) + max(0.0, 1.0 - cap_total)
        if floor_total > 1.0:
            eps_q = eps_q / floor_total
        if cap_total < 1.0:
            dlt_q = dlt_q / cap_total
        weights_q = decode_weights(raw, eps_q, dlt_q)
        penalty = penalty_factor * violation

    full = np.zeros(model.n_assets)
    full[selection] = weights_q
    cost = mvs_cost(full, model, params, selection=selection) + penalty
    return cost, full


def build_portfolio(selection, weights_full, model: RiskModel) -> Portfolio:
    """Evaluate and wrap decoded weights as a Portfolio."""
    w = np.asarray(weights_full, dtype=float)
    return Portfolio(
        selection=tuple(int(i) for i in selection),
        weights=w,
        mu_p=portfolio_return(w, model.mu),
        sigma_p=portfolio_risk(w, model.sigma),
    )
