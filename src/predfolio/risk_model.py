"""Expected returns, prediction-error covariance, and skewness inputs.

Each asset's expected return is its last prediction; the covariance
entries are raw cross products of per-asset prediction errors (no mean
subtraction, honoring the zero-mean-error assumption); skewness is the
standardized third central moment of each asset's historical return
series.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, EstimationError
from .predictor import PredictionRecord

_PSD_TOL = 1e-9


class SkewResult(NamedTuple):
    value: float
    degenerate: bool


@dataclass
class RiskModel:
    """mu / sigma / skew inputs of the portfolio objective."""

    assets: list[str]
    mu: np.ndarray
    sigma: np.ndarray
    skew: np.ndarray
    estimation_window: int
    diagonal_shift: float = 0.0
    degenerate_skew_assets: tuple[str, ...] = ()

    @property
    def n_assets(self) -> int:
        return len(self.assets)

    def validate(self) -> None:
        for name in ("mu", "sigma", "skew"):
            if not np.isfinite(getattr(self, name)).all():
                raise EstimationError(f"risk model has a non-finite {name}")
        m = self.n_assets
        if self.mu.shape != (m,) or self.skew.shape != (m,) or self.sigma.shape != (m, m):
            raise EstimationError("risk model vector/matrix sizes disagree")
        if not np.allclose(self.sigma, self.sigma.T, atol=1e-12, rtol=0.0):
            raise EstimationError("sigma is not symmetric")
        if np.any(np.diag(self.sigma) < -1e-12):
            raise EstimationError("sigma has a negative diagonal entry")
        if np.linalg.eigvalsh(self.sigma).min() < -_PSD_TOL:
            raise EstimationError("sigma is not positive semidefinite within tolerance")

    def to_dict(self) -> dict:
        """Dump with sigma row-major; ``cli._write_json`` encodes its numpy values."""
        return {"version": 1, **asdict(self), "sigma": self.sigma.ravel()}

    @classmethod
    def from_dict(cls, data: dict) -> "RiskModel":
        if data.get("version") != 1:
            raise ConfigError(f"unsupported risk model version {data.get('version')!r}")
        m = len(data["assets"])
        model = cls(
            assets=list(data["assets"]),
            mu=np.asarray(data["mu"], dtype=float),
            sigma=np.asarray(data["sigma"], dtype=float).reshape(m, m),
            skew=np.asarray(data["skew"], dtype=float),
            estimation_window=int(data["estimation_window"]),
            diagonal_shift=float(data.get("diagonal_shift", 0.0)),
            degenerate_skew_assets=tuple(data.get("degenerate_skew_assets", ())),
        )
        model.validate()
        return model

    @classmethod
    def from_json(cls, path) -> "RiskModel":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def asset_skewness(returns) -> SkewResult:
    """Sample skewness g1 = m3 / m2^1.5 with N-denominator central moments.

    A (numerically) constant series has no defined skewness; it yields 0
    with the degenerate flag set instead of raising.
    """
    x = np.asarray(returns, dtype=float)
    if len(x) < 3:
        raise EstimationError(f"need at least 3 observations for skewness, got {len(x)}")
    centered = x - x.mean()
    m2 = float(np.mean(centered**2))
    if np.sqrt(m2) <= 1e-12 * (1.0 + abs(float(x.mean()))):
        return SkewResult(0.0, True)
    m3 = float(np.mean(centered**3))
    return SkewResult(m3 / m2**1.5, False)


def build_risk_model(
    records: Sequence[PredictionRecord],
    returns_by_asset: Mapping[str, np.ndarray],
) -> RiskModel:
    """Assemble the full mu / sigma / skew model from prediction records.

    Each asset's mu is its record's last prediction, ``predicted[-1]``.
    Sigma is the pairwise error covariance, symmetrized by averaging with
    its transpose; if its smallest eigenvalue falls below tolerance the
    diagonal is shifted up by the minimal amount restoring eigenvalues
    >= 0 and the shift is recorded.
    """
    if not records:
        raise EstimationError("need at least one prediction record")
    lengths = {len(r) for r in records}
    if len(lengths) != 1:
        raise EstimationError(f"error series lengths differ across assets: {sorted(lengths)}")
    n = lengths.pop()
    if n < 2:
        raise EstimationError(f"need at least 2 errors per asset, got {n}")

    assets = [r.asset for r in records]
    errors = np.vstack([np.asarray(r.errors, dtype=float) for r in records])
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused just below
        sigma = (errors @ errors.T) / (n - 1)
        sigma = (sigma + sigma.T) / 2.0
    if not np.isfinite(sigma).all():
        raise EstimationError("risk model has a non-finite sigma")

    shift = 0.0
    min_eig = float(np.linalg.eigvalsh(sigma).min())
    if min_eig < -_PSD_TOL:
        shift = -min_eig
        sigma = sigma + shift * np.eye(len(assets))

    mu = np.array([float(r.predicted[-1]) for r in records])

    skew = np.empty(len(assets))
    degenerate: list[str] = []
    for i, asset in enumerate(assets):
        if asset not in returns_by_asset:
            raise EstimationError(f"no return series supplied for {asset!r}")
        result = asset_skewness(returns_by_asset[asset])
        skew[i] = result.value
        if result.degenerate:
            degenerate.append(asset)

    model = RiskModel(
        assets=assets,
        mu=mu,
        sigma=sigma,
        skew=skew,
        estimation_window=n,
        diagonal_shift=shift,
        degenerate_skew_assets=tuple(degenerate),
    )
    model.validate()
    return model
