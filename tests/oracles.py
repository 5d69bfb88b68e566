"""Independent oracles used by the test suite.

Everything here recomputes expected values from first principles (grid
enumeration, brute-force scans, explicit loops) without touching the code
paths under test.
"""

from __future__ import annotations

import csv
import datetime as dt

import numpy as np

from predfolio.errors import AlignmentError, ParseError
from predfolio.market_data import AlignmentReport, PriceTable, ReturnSeries
from predfolio.objective import ObjectiveParams, portfolio_return, portfolio_risk
from predfolio.predictor import TrainedPredictor, _hidden_layer, _jacobian_rows
from predfolio.risk_model import RiskModel


def _comp2(total: int) -> np.ndarray:
    a = np.arange(total + 1, dtype=np.int64)
    return np.stack([a, total - a], axis=1)


def _comp3(total: int) -> np.ndarray:
    counts = total + 1 - np.arange(total + 1)
    first = np.repeat(np.arange(total + 1, dtype=np.int64), counts)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    second = np.arange(first.size, dtype=np.int64) - np.repeat(starts, counts)
    third = total - first - second
    return np.stack([first, second, third], axis=1)


def _comp4(total: int) -> np.ndarray:
    # Each (first, second) prefix of _comp3 takes every third coordinate
    # that leaves the fourth nonnegative.
    first, second = _comp3(total)[:, :2].T
    counts = total + 1 - first - second
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    third = np.arange(counts.sum(), dtype=np.int64) - np.repeat(starts, counts)
    first, second = np.repeat(first, counts), np.repeat(second, counts)
    return np.stack([first, second, third, total - first - second - third], axis=1)


def simplex_chunks(n_assets: int, steps: int):
    """Yield integer lattice points of the simplex sum(x) = steps in chunks."""
    if n_assets == 1:
        yield np.array([[steps]], dtype=np.int64)
    elif n_assets == 2:
        yield _comp2(steps)
    elif n_assets == 3:
        yield _comp3(steps)
    elif n_assets == 4:
        yield _comp4(steps)
    elif n_assets == 5:
        for first in range(steps + 1):
            rest = _comp4(steps - first)
            col = np.full((len(rest), 1), first, dtype=np.int64)
            yield np.hstack([col, rest])
    else:
        raise ValueError(f"simplex enumeration supports up to 5 assets, got {n_assets}")


def grid_search_mvs(mu, sigma, lams, steps: int = 200):
    """Exhaustive lattice search of lam*w'Sw - (1-lam)*w'mu on the simplex.

    Returns {lam: (best_cost, best_weights)}. The cost is recomputed here
    from the raw formula, independently of the package's objective code.
    """
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    best = {lam: (np.inf, None) for lam in lams}
    for chunk in simplex_chunks(len(mu), steps):
        weights = chunk.astype(float) / steps
        risk = np.einsum("nk,nk->n", weights @ sigma, weights)
        ret = weights @ mu
        for lam in lams:
            costs = lam * risk - (1.0 - lam) * ret
            idx = int(np.argmin(costs))
            if costs[idx] < best[lam][0]:
                best[lam] = (float(costs[idx]), weights[idx].copy())
    return best


def mvs_cost(weights, model: RiskModel, params: ObjectiveParams) -> float:
    """Mean-Variance-Skewness cost of one full-universe weight vector,
    ``lam * risk - (1 - lam) * return - theta * w . skew``."""
    w = np.asarray(weights, dtype=float)
    risk = portfolio_risk(w, model.sigma)
    ret = portfolio_return(w, model.mu)
    skew_term = float(w @ model.skew)
    return params.lam * risk - (1.0 - params.lam) * ret - params.theta * skew_term


def bounded_linear_vertices(n: int, eps: float, dlt: float) -> np.ndarray:
    """All vertices of {sum(w) = 1, eps <= w <= dlt}.

    At a vertex, at most one coordinate is strictly between its bounds.
    """
    vertices = []
    for upper_mask in range(1 << n):
        uppers = [(upper_mask >> i) & 1 for i in range(n)]
        n_up = sum(uppers)
        base = n_up * dlt + (n - n_up) * eps
        if abs(base - 1.0) < 1e-12:
            vertices.append([dlt if u else eps for u in uppers])
            continue
        for j in range(n):
            if uppers[j]:
                continue
            w_j = 1.0 - (base - eps)
            if eps < w_j < dlt:
                w = [dlt if u else eps for u in uppers]
                w[j] = w_j
                vertices.append(w)
    if not vertices:
        raise ValueError("bounds admit no vertex; infeasible polytope")
    return np.unique(np.round(np.array(vertices), 12), axis=0)


def best_linear_portfolio(mu, eps: float, dlt: float):
    """Max-return allocation under box bounds, via vertex enumeration."""
    mu = np.asarray(mu, dtype=float)
    vertices = bounded_linear_vertices(len(mu), eps, dlt)
    returns = vertices @ mu
    idx = int(np.argmax(returns))
    return float(returns[idx]), vertices[idx]


def dominates(q, p) -> bool:
    """Whether frontier point ``q`` has risk <= and return >= ``p``'s, with
    at least one strict."""
    return (q.sigma_p <= p.sigma_p and q.mu_p >= p.mu_p
            and (q.sigma_p < p.sigma_p or q.mu_p > p.mu_p))


def pairwise_covariance_loops(errors: np.ndarray) -> np.ndarray:
    """Entrywise double-loop raw covariance, (1/(N-1)) sum_t e_it e_jt."""
    m, n = errors.shape
    sigma = np.empty((m, m))
    for i in range(m):
        for j in range(m):
            acc = 0.0
            for t in range(n):
                acc += errors[i, t] * errors[j, t]
            sigma[i, j] = acc / (n - 1)
    return sigma


def truncate_by_scan(costs, child_costs):
    """(mu + lambda) truncation of one run by a scan: rank members and
    children by ``(cost, member before child, index)``, keep the first P,
    then walk the evicted member positions in ascending order, handing each
    the next surviving child in creation order.

    Returns ``placed``, mapping each evicted member position to the index of
    the child that takes it.
    """
    p = len(costs)
    ranked = sorted([(cost, 0, i) for i, cost in enumerate(costs.tolist())]
                    + [(cost, 1, j) for j, cost in enumerate(child_costs.tolist())])
    kept_members = {i for _, is_child, i in ranked[:p] if not is_child}
    kept_children = sorted(j for _, is_child, j in ranked[:p] if is_child)
    evicted = [i for i in range(p) if i not in kept_members]
    assert len(evicted) == len(kept_children)
    return dict(zip(evicted, kept_children))


def tournament_by_scan(costs, n: int, rng: np.random.Generator) -> list[int]:
    """Winners of ``n`` two-member tournaments, one pair at a time: the
    first member uniform over all ``p``, the second uniform over the other
    ``p - 1`` (a draw at or past the first moves up one), and the winner the
    smaller ``(cost, index)``. With ``p <= 2`` the argmin always wins and
    nothing is drawn. The draws are made in the shapes the GA makes them,
    so a same-seeded generator ends in the same state."""
    p = len(costs)
    if p <= 2:
        return [int(np.argmin(costs))] * n
    firsts = rng.integers(p, size=n).tolist()
    seconds = rng.integers(p - 1, size=n).tolist()
    winners = []
    for first, second in zip(firsts, seconds):
        pair = (first, second + (second >= first))
        winners.append(min(pair, key=lambda i: (costs[i], i)))
    return winners


def jacobian_flat(theta: np.ndarray, inputs: np.ndarray, delay: int, hidden: int) -> np.ndarray:
    """The network's analytic Jacobian at parameters ``theta``, one row per
    sample, as the LM step forms it (``predictor._jacobian_rows``), for
    comparison against finite differences."""
    hidden_act, gate, _ = _hidden_layer(theta, inputs, delay, hidden)
    return _jacobian_rows(hidden_act, gate, inputs)


def init_flat_by_layer(delay: int, hidden: int, rng: np.random.Generator) -> np.ndarray:
    """The network's initial parameters drawn one layer at a time: each
    weight and bias uniform on [-0.5, 0.5] times 1/sqrt of its layer's
    fan-in, concatenated in ``predictor._unpack`` order."""
    in_scale = 1.0 / np.sqrt(delay)
    out_scale = 1.0 / np.sqrt(hidden)
    w_in = rng.uniform(-0.5, 0.5, size=(hidden, delay)) * in_scale
    b_h = rng.uniform(-0.5, 0.5, size=hidden) * in_scale
    w_out = rng.uniform(-0.5, 0.5, size=hidden) * out_scale
    b_out = rng.uniform(-0.5, 0.5) * out_scale
    return np.concatenate([w_in.ravel(), b_h, w_out, [b_out]])


def trained_predictor_from_dict(data: dict) -> TrainedPredictor:
    """Decode a ``predictors.json`` entry, checking that the shapes the dump
    records account for every flat parameter."""
    assert data["version"] == 1
    delay, hidden = data["delay"], data["hidden_units"]
    shapes = data["shapes"]
    assert shapes == {
        "input_weights": [hidden, delay],
        "hidden_bias": [hidden],
        "output_weights": [hidden],
        "output_bias": [],
    }
    theta = np.asarray(data["parameters"], dtype=float)
    assert sum(int(np.prod(shape)) for shape in shapes.values()) == len(theta)
    return TrainedPredictor(
        asset=data["asset"],
        parameters=theta,
        delay=delay,
        hidden_units=hidden,
        best_val_loss=data["best_val_loss"],
        epochs_run=data["epochs_run"],
        stop_reason=data["stop_reason"],
    )


def load_prices_rowwise(path, weekday: int, max_stale_days: int = 6) -> PriceTable:
    """Price-file ingest one record at a time: parse and validate each row
    in file order, then walk each asset's weekly grid (``weekday`` 0 is
    Monday) day by day. Faults carry ``reader.line_num``, the line the
    record ends on.
    """
    observed: dict[str, dict[dt.date, float]] = {}
    order: list[str] = []

    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError("empty price file", line=1)
        cols = [c.strip().lower() for c in header]
        try:
            i_date, i_asset, i_close = cols.index("date"), cols.index("asset"), cols.index("close")
        except ValueError:
            raise ParseError(f"header must contain date,asset,close (got {header})", line=1)
        for row in reader:
            lineno = reader.line_num
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) <= max(i_date, i_asset, i_close):
                raise ParseError(f"expected {len(cols)} fields, got {len(row)}", line=lineno)
            try:
                date = dt.date.fromisoformat(row[i_date].strip())
            except ValueError:
                raise ParseError(f"bad date {row[i_date]!r}", line=lineno)
            asset = row[i_asset].strip()
            if not asset:
                raise ParseError("empty asset identifier", line=lineno)
            try:
                close = float(row[i_close])
            except ValueError:
                raise ParseError(f"non-numeric close {row[i_close]!r}", line=lineno)
            if not np.isfinite(close) or close <= 0:
                raise ParseError(f"close must be a positive number, got {row[i_close]!r}", line=lineno)
            if asset not in observed:
                observed[asset] = {}
                order.append(asset)
            if date in observed[asset]:
                raise ParseError(f"duplicate row for {asset} on {date.isoformat()}", line=lineno)
            observed[asset][date] = close

    if not order:
        raise ParseError("price file contains no data rows")

    first_date = min(min(days) for days in observed.values())
    grid_start = first_date + dt.timedelta(days=(weekday - first_date.weekday()) % 7)
    grid_end = max(max(days) for days in observed.values())

    series: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    excluded: list[str] = []
    for asset in order:
        days = sorted(observed[asset].items())
        dates = [d for d, _ in days]
        closes = [c for _, c in days]
        first_obs, last_obs = dates[0], dates[-1]
        sampled_days: list[int] = []
        sampled_closes: list[float] = []
        week = grid_start
        idx = -1
        while week <= grid_end:
            if week >= first_obs and (week - last_obs).days <= max_stale_days:
                while idx + 1 < len(dates) and dates[idx + 1] <= week:
                    idx += 1
                if idx >= 0:
                    sampled_days.append(week.toordinal())
                    sampled_closes.append(closes[idx])
            week += dt.timedelta(days=7)
        if sampled_days:
            series[asset] = np.array(sampled_days, dtype=np.int64), np.array(sampled_closes)
        else:
            excluded.append(asset)
    return PriceTable(series=series, excluded=excluded)


def align_universe_sets(series: list[ReturnSeries], min_length: int | None = None):
    """Alignment by Python sets: drop series shorter than ``min_length``,
    intersect the survivors' dates as sets, and keep each survivor's
    returns on the sorted common dates. Returns the ``(n_weeks, n_assets)``
    matrix and the :class:`AlignmentReport`.
    """
    if not series:
        raise AlignmentError("no return series supplied")
    dropped: list[tuple[str, str]] = []
    survivors: list[ReturnSeries] = []
    for s in series:
        if min_length is not None and len(s) < min_length:
            dropped.append((s.asset, f"only {len(s)} weeks, below minimum {min_length}"))
        else:
            survivors.append(s)
    if not survivors:
        raise AlignmentError("all series fall below the minimum coverage")

    common = set(survivors[0].dates.tolist())
    for s in survivors[1:]:
        common &= set(s.dates.tolist())
    if not common:
        raise AlignmentError("return series share no common dates")
    columns = []
    for s in survivors:
        keep = [i for i, d in enumerate(s.dates.tolist()) if d in common]
        columns.append(np.asarray(s.returns, dtype=float)[keep])
    grid = np.array(sorted(common), dtype=np.int64)
    report = AlignmentReport(kept=[s.asset for s in survivors], dropped=dropped, dates=grid)
    return np.column_stack(columns), report
