"""Prediction-quality metrics and a normality test for error series.

Covers mean absolute error, RMSE, MAPE with a zero-denominator guard,
sign hit rates, and a Kolmogorov-Smirnov test at the 5% level against a
normal with parameters estimated from the sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import DegenerateInputError, InsufficientDataError, MetricError

# The KS test's level, and Lilliefors' large-sample coefficient at that
# level for a normal with estimated mean and variance.
KS_ALPHA = 0.05
_LILLIEFORS_C = 0.886
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


def _rate(numerator, denominator) -> float | None:
    """A hit rate, or None (undefined) for a zero denominator."""
    return int(numerator) / int(denominator) if denominator else None


def evaluate(real, predicted) -> MetricReport:
    """The full metric set for one real/predicted pair.

    ``me`` is the mean absolute error and ``signed_me`` the mean signed
    error, the diagnostic for the zero-mean-error assumption. MAPE skips
    terms with ``|real| < _MAPE_FLOOR``, which blow the ratio up, and
    reports how many it skipped; with every term skipped it is None
    (undefined). The hit rates are sign-agreement rates over all nonzero
    products, positive predictions and negative predictions; each is None
    when its denominator is zero.
    """
    r = np.asarray(real, dtype=float)
    p = np.asarray(predicted, dtype=float)
    if r.shape != p.shape:
        raise MetricError(f"series lengths differ: {r.shape} vs {p.shape}")
    if r.size == 0:
        raise MetricError("empty series")
    error = r - p
    keep = np.abs(r) >= _MAPE_FLOOR
    product = r * p
    return MetricReport(
        me=float(np.mean(np.abs(error))),
        signed_me=float(np.mean(error)),
        rmse=float(np.sqrt(np.mean(error**2))),
        mape=float(np.mean(np.abs(error[keep]) / np.abs(r[keep]))) if keep.any() else None,
        mape_skipped=int(np.sum(~keep)),
        hr=_rate(np.sum(product > 0), np.sum(product != 0)),
        hr_plus=_rate(np.sum((r > 0) & (p > 0)), np.sum(p > 0)),
        hr_minus=_rate(np.sum((r < 0) & (p < 0)), np.sum(p < 0)),
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


def ks_normality_test(samples) -> KsResult:
    """Kolmogorov-Smirnov test, at level ``KS_ALPHA``, against a normal
    fitted to the sample.

    D is the sup-distance between the empirical CDF and the normal CDF at
    the sample's mean and standard deviation. Because the parameters are
    estimated, the threshold is Lilliefors'; the plain asymptotic
    ``c(alpha)/sqrt(n)`` would be far too conservative here.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    if n < 8:
        raise InsufficientDataError(f"need at least 8 samples for the KS test, got {n}")
    mean = float(x.mean())
    std = float(x.std(ddof=1))
    if std <= 1e-12 * (1.0 + abs(mean)):
        raise DegenerateInputError("sample variance is zero; KS test undefined")

    cdf = _normal_cdf_array((x - mean) / std).astype(float)
    grid = np.arange(1, n + 1) / n
    d_plus = float(np.max(grid - cdf))
    d_minus = float(np.max(cdf - (grid - 1.0 / n)))
    d_stat = max(d_plus, d_minus)

    threshold = _LILLIEFORS_C / (math.sqrt(n) - 0.01 + 0.85 / math.sqrt(n))
    return KsResult(
        d_statistic=d_stat,
        threshold=threshold,
        accepted=d_stat <= threshold,
        alpha=KS_ALPHA,
        n=n,
        mean=mean,
        std=std,
    )
