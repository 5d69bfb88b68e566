"""Independent oracles used by the test suite.

Everything here recomputes expected values from first principles (grid
enumeration, brute-force scans, explicit loops) without touching the code
paths under test.
"""

from __future__ import annotations

import numpy as np


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


def dominance_scan(points):
    """Brute-force O(n^2) removal of dominated (sigma_p, mu_p) points."""
    kept = []
    for p in points:
        dominated = False
        for q in points:
            if q is p:
                continue
            if q.sigma_p <= p.sigma_p and q.mu_p >= p.mu_p and (
                q.sigma_p < p.sigma_p or q.mu_p > p.mu_p
            ):
                dominated = True
                break
        if not dominated:
            kept.append(p)
    return sorted(kept, key=lambda p: (p.sigma_p, -p.mu_p))


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


def insert_children_by_argmax(selection, raw, costs, child_sel, child_raw, child_costs):
    """Replace-the-worst insertion by a scan per child: each child, in
    creation order, replaces the member at ``costs.argmax()`` (the lowest
    position among equally worst ones) when strictly cheaper.

    Works on copies and returns ``(selection, raw, costs, placed)``, where
    ``placed`` maps each member position that ends up holding a child to
    the index of that child.
    """
    selection, raw, costs = selection.copy(), raw.copy(), costs.copy()
    placed = {}
    for i, cost in enumerate(child_costs.tolist()):
        worst = int(costs.argmax())
        if cost < costs[worst]:
            selection[worst], raw[worst], costs[worst] = child_sel[i], child_raw[i], cost
            placed[worst] = i
    return selection, raw, costs, placed
