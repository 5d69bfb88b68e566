"""Prediction-quality metrics and a normality test for error series.

Covers mean absolute error, RMSE, MAPE with a zero-denominator guard,
sign hit rates, and a Kolmogorov-Smirnov test against a normal with
parameters estimated from the sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np

from .errors import (
    ConfigError,
    DegenerateInputError,
    InsufficientDataError,
    MetricError,
)

# Lilliefors large-sample coefficients (normal, estimated mean and variance).
_LILLIEFORS_C = {0.20: 0.736, 0.15: 0.768, 0.10: 0.805, 0.05: 0.886, 0.01: 1.031}
# |real| below which a MAPE term is skipped rather than divided by.
_MAPE_FLOOR = 1e-12
_SQRT_HALF = math.sqrt(0.5)


def _normal_cdf(z: float) -> float:
    """Standard normal CDF, branched as cephes' ``ndtr`` is on
    ``x = z / sqrt(2)``: ``erf`` for ``|x| < 1/sqrt(2)``, else ``erfc(|x|)``,
    which keeps the small tail value that ``1 + erf`` would cancel away."""
    x = z * _SQRT_HALF
    if abs(x) < _SQRT_HALF:
        return 0.5 + 0.5 * math.erf(x)
    tail = 0.5 * math.erfc(abs(x))
    return 1.0 - tail if x > 0 else tail


# elementwise over an array; the result has dtype object
_normal_cdf_array = np.frompyfunc(_normal_cdf, 1, 1)


class MapeResult(NamedTuple):
    value: float | None
    skipped: int


class HitRates(NamedTuple):
    hr: float | None
    hr_plus: float | None
    hr_minus: float | None


@dataclass
class MetricReport:
    me: float
    signed_me: float
    rmse: float
    mape: float | None
    mape_skipped: int
    hr: float | None
    hr_plus: float | None
    hr_minus: float | None
    n: int


@dataclass
class KsResult:
    d_statistic: float
    threshold: float
    accepted: bool
    alpha: float
    n: int
    mean: float
    std: float


def _paired(real, predicted) -> tuple[np.ndarray, np.ndarray]:
    r = np.asarray(real, dtype=float)
    p = np.asarray(predicted, dtype=float)
    if r.shape != p.shape:
        raise MetricError(f"series lengths differ: {r.shape} vs {p.shape}")
    if r.size == 0:
        raise MetricError("empty series")
    return r, p


def mean_error(real, predicted) -> float:
    """Mean absolute difference between real and predicted returns."""
    r, p = _paired(real, predicted)
    return float(np.mean(np.abs(r - p)))


def signed_mean_error(real, predicted) -> float:
    """Mean signed error, the diagnostic for the zero-mean-error assumption."""
    r, p = _paired(real, predicted)
    return float(np.mean(r - p))


def rmse(real, predicted) -> float:
    r, p = _paired(real, predicted)
    return float(np.sqrt(np.mean((r - p) ** 2)))


def mape(real, predicted) -> MapeResult:
    """Mean absolute percentage error, skipping near-zero actuals.

    Terms with ``|real| < _MAPE_FLOOR`` blow the ratio up and are skipped; the
    skip count is reported, and a series with every term skipped yields an
    undefined marker (``value=None``) rather than an error.
    """
    r, p = _paired(real, predicted)
    keep = np.abs(r) >= _MAPE_FLOOR
    skipped = int(np.sum(~keep))
    if not keep.any():
        return MapeResult(None, skipped)
    value = float(np.mean(np.abs(r[keep] - p[keep]) / np.abs(r[keep])))
    return MapeResult(value, skipped)


def hit_rates(real, predicted) -> HitRates:
    """Sign-agreement rates; a zero denominator marks that rate undefined."""
    r, p = _paired(real, predicted)
    product = r * p

    def rate(numerator: int, denominator: int) -> float | None:
        return numerator / denominator if denominator else None

    hr = rate(int(np.sum(product > 0)), int(np.sum(product != 0)))
    hr_plus = rate(int(np.sum((r > 0) & (p > 0))), int(np.sum(p > 0)))
    hr_minus = rate(int(np.sum((r < 0) & (p < 0))), int(np.sum(p < 0)))
    return HitRates(hr, hr_plus, hr_minus)


def evaluate(real, predicted) -> MetricReport:
    """Compute the full metric set for one real/predicted pair."""
    r, p = _paired(real, predicted)
    mape_value = mape(r, p)
    rates = hit_rates(r, p)
    return MetricReport(
        me=mean_error(r, p),
        signed_me=signed_mean_error(r, p),
        rmse=rmse(r, p),
        mape=mape_value.value,
        mape_skipped=mape_value.skipped,
        hr=rates.hr,
        hr_plus=rates.hr_plus,
        hr_minus=rates.hr_minus,
        n=len(r),
    )


def summarize_reports(reports: Mapping[str, MetricReport]) -> list[tuple[str, float, float, float]]:
    """Aggregate per-asset reports into (metric, mean, variance, std) rows.

    Undefined per-asset rates are left out of their metric's aggregation;
    variance is the sample variance across assets.
    """
    rows = []
    fields = ["me", "rmse", "mape", "hr", "hr_plus", "hr_minus"]
    for name in fields:
        values = [getattr(rep, name) for rep in reports.values()]
        values = np.array([v for v in values if v is not None], dtype=float)
        if values.size == 0:
            continue
        var = float(values.var(ddof=1)) if values.size > 1 else 0.0
        rows.append((name, float(values.mean()), var, math.sqrt(var)))
    return rows


def check_alpha(alpha: float) -> None:
    """Refuse a KS ``alpha`` outside the Lilliefors table's range."""
    alphas = sorted(_LILLIEFORS_C)
    if not alphas[0] <= alpha <= alphas[-1]:
        raise ConfigError(
            f"alpha {alpha} outside the tabulated range "
            f"[{alphas[0]}, {alphas[-1]}] for the corrected threshold"
        )


def _lilliefors_threshold(alpha: float, n: int) -> float:
    alphas = sorted(_LILLIEFORS_C)
    # log-linear interpolation of the tabulated coefficients
    c = float(np.interp(math.log(alpha), [math.log(a) for a in alphas],
                        [_LILLIEFORS_C[a] for a in alphas]))
    return c / (math.sqrt(n) - 0.01 + 0.85 / math.sqrt(n))


def ks_normality_test(samples, alpha: float) -> KsResult:
    """Kolmogorov-Smirnov test against a normal fitted to the sample.

    D is the sup-distance between the empirical CDF and the normal CDF at
    the sample's mean and standard deviation. Because the parameters are
    estimated, the threshold is Lilliefors'; the plain asymptotic
    ``c(alpha)/sqrt(n)`` would be far too conservative here.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    if n < 8:
        raise InsufficientDataError(f"need at least 8 samples for the KS test, got {n}")
    check_alpha(alpha)
    mean = float(x.mean())
    std = float(x.std(ddof=1))
    if std <= 1e-12 * (1.0 + abs(mean)):
        raise DegenerateInputError("sample variance is zero; KS test undefined")

    cdf = _normal_cdf_array((x - mean) / std).astype(float)
    grid = np.arange(1, n + 1) / n
    d_plus = float(np.max(grid - cdf))
    d_minus = float(np.max(cdf - (grid - 1.0 / n)))
    d_stat = max(d_plus, d_minus)

    threshold = _lilliefors_threshold(alpha, n)
    return KsResult(
        d_statistic=d_stat,
        threshold=threshold,
        accepted=d_stat <= threshold,
        alpha=alpha,
        n=n,
        mean=mean,
        std=std,
    )
