"""Genetic algorithm over asset subsets and raw allocation numbers.

Steady-state loop over a population held as ``(P, K)`` arrays: rank-based
roulette (or uniform/tournament) parent selection, positional crossover
with subset-aware repair, adaptive step mutation in allocation space, all
applied to a whole generation of children at once, then a (mu + lambda)
truncation that keeps the P cheapest of members and children. Stops on a
stalled best cost, a wall-clock limit, or the generation cap.

Several runs that share a model, bounds and K can evolve together
(:func:`evolve_batch`): runs whose GA settings differ only in seed and
penalty factor are stacked, so each operator runs once per generation
over the children of every run in the stack. Each run keeps its own
random generator and draws from it exactly as it would alone, so a run's
result does not depend on the batch it is in. No batch reads another's
state, so the batches run at the same time in up to one forked worker
process per CPU; ``time_limit_seconds`` still runs on each batch's own
clock, started when the batch starts.
"""

from __future__ import annotations

import math
import os
import time
from collections import Counter
from dataclasses import astuple, dataclass, replace
from itertools import repeat
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, InfeasibleBoundsError
from .objective import (
    Bounds,
    ObjectiveParams,
    Portfolio,
    RowParams,
    build_portfolio,
    penalized_cost,
)
from .risk_model import RiskModel

SELECTION_KINDS = ("roulette", "uniform", "tournament")
CROSSOVER_KINDS = ("single-point", "two-point", "scattered")

STOP_STALL = "stall"
STOP_TIME = "time"
STOP_GENERATIONS = "generation-limit"

# Settings that no configuration varies. A run stalls when its best cost
# fell by less than FUNCTION_TOLERANCE per generation over the last
# stall_generations; mutation swaps an asset in MUTATION_SWAP_RATE of the
# children; a tournament holds TOURNAMENT_SIZE contenders.
FUNCTION_TOLERANCE = 1e-6
MUTATION_SWAP_RATE = 0.1
TOURNAMENT_SIZE = 2

# A run's mutation step length starts at STEP_START and moves within
# [STEP_FLOOR, STEP_CEILING] (see adapt_steps).
STEP_START, STEP_FLOOR, STEP_CEILING = 0.1, 1e-4, 0.5

# Population rows (runs x population_size) that evolve together in one
# batch. It bounds the stacked temporaries, and so the peak memory: a
# batch of 200-member runs holds 6 of them.
_BATCH_ROWS = 1200


@dataclass(frozen=True)
class GAConfig:
    """Settings of one GA run; checked when built or ``replace``d.

    ``time_limit_seconds`` is measured from the start of the run's batch:
    runs that evolve together (see :func:`evolve_batch`: a frontier's
    repeats, or tune runs that differ only in seed and penalty factor)
    share one start clock, so the limit bounds the wall time of the whole
    batch. Batches run at the same time in up to one forked worker per
    CPU, each on its own clock, so the limit bounds each batch and not the
    whole call. It is the only stop that can differ between machines.
    Every range check is written so that NaN fails it.
    """

    population_size: int = 200
    crossover_fraction: float = 0.8
    crossover_kind: str = "single-point"
    selection_kind: str = "roulette"
    penalty_factor: float = 10.0
    stall_generations: int = 50
    time_limit_seconds: float = 1000.0
    generation_cap: int = 500
    seed: int | tuple[int, ...] = 0

    def __post_init__(self):
        if self.population_size < 2:
            raise ConfigError(f"population_size must be >= 2, got {self.population_size}")
        if not 0.0 <= self.crossover_fraction <= 1.0:
            raise ConfigError(f"crossover_fraction must lie in [0, 1], got {self.crossover_fraction}")
        if self.n_children < 1:
            raise ConfigError(
                f"crossover_fraction {self.crossover_fraction} of population_size"
                f" {self.population_size} makes no children per generation"
            )
        if self.crossover_kind not in CROSSOVER_KINDS:
            raise ConfigError(f"unknown crossover kind {self.crossover_kind!r}")
        if self.selection_kind not in SELECTION_KINDS:
            raise ConfigError(f"unknown selection kind {self.selection_kind!r}")
        if self.stall_generations < 1:
            raise ConfigError("stall_generations must be >= 1")
        if not 0.0 < self.penalty_factor < math.inf:
            raise ConfigError(f"penalty_factor must be finite and > 0, got {self.penalty_factor}")
        if not self.time_limit_seconds > 0:
            raise ConfigError("time_limit_seconds must be positive")
        if self.generation_cap < 1:
            raise ConfigError("generation_cap must be >= 1")

    @property
    def n_children(self) -> int:
        """Children made per generation, ``C = round(crossover_fraction * P)``."""
        return int(round(self.crossover_fraction * self.population_size))


@dataclass
class GAResult:
    best: Portfolio
    best_cost: float
    generations: int
    cost_history: list[float]
    mean_history: list[float]
    stop_reason: str
    evaluations: int
    config: GAConfig


def adapt_steps(steps: np.ndarray, improved: np.ndarray) -> np.ndarray:
    """The runs' next mutation step lengths: doubled where the run's best
    cost improved, halved elsewhere, clamped to [STEP_FLOOR, STEP_CEILING]."""
    return np.clip(np.where(improved, steps * 2.0, steps / 2.0), STEP_FLOOR, STEP_CEILING)


def init_population(
    n_assets: int, k: int, size: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """``(size, K)`` selections and raws: each row's assets are the first K
    of a uniform random permutation of the universe."""
    if k > n_assets:
        raise ConfigError(f"cannot select {k} assets from a universe of {n_assets}")
    if k < 1:
        raise ConfigError(f"subset size must be >= 1, got {k}")
    selection = np.argsort(rng.random((size, n_assets)), axis=1)[:, :k]
    return selection, rng.random((size, k))


def _rank_probabilities(costs: np.ndarray) -> np.ndarray:
    """Linear rank weights: the lowest cost gets weight P, the highest 1."""
    n = len(costs)
    order = np.argsort(costs, kind="stable")
    weights = np.empty(n)
    weights[order] = np.arange(n, 0, -1, dtype=float)
    return weights / weights.sum()


def selection_probabilities(costs: np.ndarray, kind: str) -> np.ndarray:
    """Roulette (linear rank) or uniform selection probabilities over a
    population's ``(P,)`` costs."""
    if not np.isfinite(costs).all():
        raise ConfigError("selection requires finite fitness for every chromosome")
    if kind == "roulette":
        return _rank_probabilities(costs)
    if kind == "uniform":
        return np.full(len(costs), 1.0 / len(costs))
    raise ConfigError(f"no selection probabilities for kind {kind!r}")


def tournament_contenders(
    p: int, n: int, size: int, rng: np.random.Generator
) -> np.ndarray:
    """``(n, size)`` distinct member indices per tournament, sorted per row,
    for ``size < p``. The j-th contender is drawn uniformly among the
    ``p - j`` members not yet drawn: a draw below ``p - j`` is shifted past
    each earlier pick, in ascending order, that it reaches."""
    picked = np.empty((n, 0), dtype=np.int64)
    for j in range(size):
        pick = rng.integers(p - j, size=n)
        for i in range(j):
            pick += pick >= picked[:, i]
        picked = np.sort(np.column_stack([picked, pick]), axis=1)
    return picked


def tournament_select(
    costs: np.ndarray, n: int, rng: np.random.Generator, tournament_size: int
) -> np.ndarray:
    """Indices of ``n`` tournament winners: each tournament holds
    ``tournament_size`` distinct contenders and keeps the cheapest (the
    lowest index among equally cheap ones). A tournament as large as the
    population holds all of it, so the global argmin wins and nothing is
    drawn."""
    p = len(costs)
    if tournament_size >= p:
        return np.full(n, int(costs.argmin()))
    contenders = tournament_contenders(p, n, tournament_size, rng)
    return contenders[np.arange(n), np.argmin(costs[contenders], axis=1)]


def select_parents(
    costs: np.ndarray, kind: str, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Indices of ``n`` parents drawn independently from a population.

    Roulette and uniform invert the CDF of their selection probabilities;
    a tournament holds ``TOURNAMENT_SIZE`` contenders.
    """
    if kind == "tournament":
        return tournament_select(costs, n, rng, TOURNAMENT_SIZE)
    cdf = np.cumsum(selection_probabilities(costs, kind))
    return np.minimum(np.searchsorted(cdf, rng.random(n), side="right"), len(costs) - 1)


class RunStreams:
    """The generators of R runs whose rows are stacked run by run.

    Every draw is made run by run, each generator drawing only for its
    own run's rows and in the shape that run would draw alone, and the
    parts are stacked, so a run's stream does not depend on its batch.
    Row counts ``n`` are per run: one number for all runs, or one each.
    """

    def __init__(self, rngs: Sequence[np.random.Generator]):
        self.rngs = tuple(rngs)

    def _stack(self, parts: list[np.ndarray]) -> np.ndarray:
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def _sized(self, draw: Callable, n) -> np.ndarray:
        counts = [n] * len(self.rngs) if isinstance(n, int) else n
        return self._stack([draw(rng, int(rows)) for rng, rows in zip(self.rngs, counts)])

    def random(self, n, *tail: int) -> np.ndarray:
        return self._sized(lambda rng, rows: rng.random((rows, *tail)), n)

    def standard_normal(self, n, *tail: int) -> np.ndarray:
        return self._sized(lambda rng, rows: rng.standard_normal((rows, *tail)), n)

    def integers(self, low: int, high: int, n) -> np.ndarray:
        return self._sized(lambda rng, rows: rng.integers(low, high, size=rows), n)

    def integers_above(self, low: np.ndarray, high: int) -> np.ndarray:
        """One integer in ``[low[i], high)`` per stacked row ``i``."""
        parts = np.split(low, len(self.rngs))
        return self._stack([rng.integers(part, high) for rng, part in zip(self.rngs, parts)])


def _streams(rng) -> RunStreams:
    return rng if isinstance(rng, RunStreams) else RunStreams([rng])


def _take_a(c: int, k: int, kind: str, streams: RunStreams) -> np.ndarray:
    """``(C, K)`` slot masks, True where the gene comes from parent A."""
    slots = np.arange(k)
    rows = c // len(streams.rngs)
    if kind == "two-point":
        first = streams.integers(0, k, rows)
        second = streams.integers_above(first + 1, k + 1)
        return (slots < first[:, None]) | (slots >= second[:, None])
    if kind == "single-point":
        cut = streams.integers(1, k, rows) if k > 1 else streams.integers(0, 2, rows)
        return slots < cut[:, None]
    if kind == "scattered":
        return streams.random(rows, k) < 0.5
    raise ConfigError(f"unknown crossover kind {kind!r}")


def _holds(values: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Mask of ``values`` entries found in the same row of ``members``, for
    ``(C, N)`` values and ``(C, K)`` members, one comparison per member
    column."""
    found = np.zeros(values.shape, dtype=bool)
    for column in members.T:
        found |= values == column[:, None]
    return found


def _raw_of(genes: np.ndarray, sel: np.ndarray, raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per gene, whether a parent holds it and the raw value at the first
    slot that does (0 where none does)."""
    value = np.zeros(genes.shape)
    found = np.zeros(genes.shape, dtype=bool)
    for j in reversed(range(sel.shape[1])):
        hit = genes == sel[:, j:j + 1]
        value = np.where(hit, raw[:, j:j + 1], value)
        found |= hit
    return value, found


def crossover(
    sel_a: np.ndarray,
    raw_a: np.ndarray,
    sel_b: np.ndarray,
    raw_b: np.ndarray,
    rng: np.random.Generator | RunStreams,
    kind: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Child ``i`` of parents ``a[i]`` and ``b[i]``, for ``(C, K)`` parent rows
    (the children of several runs when ``rng`` is a :class:`RunStreams`).

    Slots up to the cut(s) come from one parent and the rest from the
    other. A slot whose asset already sits in an earlier slot is refilled
    with an asset of the parents' union that the child lacks, drawn
    uniformly without replacement by random keys; the union is always
    large enough, since each parent alone holds K distinct assets. Assets
    held by both parents take their raw value from either parent with
    equal probability, the others from the parent that holds them.
    """
    streams = _streams(rng)
    c, k = sel_a.shape
    rows = c // len(streams.rngs)
    genes = np.where(_take_a(c, k, kind, streams), sel_a, sel_b)
    repeat = np.zeros((c, k), dtype=bool)
    for shift in range(1, k):  # slot j repeats slot j - shift
        repeat[:, shift:] |= genes[:, shift:] == genes[:, :-shift]

    union = np.concatenate([sel_a, sel_b], axis=1)
    # Each union asset is a candidate once: B's copies of A's assets are not.
    twice = np.concatenate([np.zeros((c, k), dtype=bool), _holds(sel_b, sel_a)], axis=1)
    keys = streams.random(rows, 2 * k)  # drawn for every row, refilled or not
    refilled = np.flatnonzero(repeat.any(axis=1))
    if len(refilled):
        rep, uni = repeat[refilled], union[refilled]
        skip = twice[refilled] | _holds(uni, genes[refilled])
        order = np.argsort(np.where(skip, 2.0, keys[refilled]), axis=1)
        # The j-th repeated slot of a row takes the candidate with its j-th smallest key.
        nth = np.maximum(np.cumsum(rep, axis=1) - 1, 0)
        refill = np.take_along_axis(uni, np.take_along_axis(order, nth, axis=1), axis=1)
        genes[refilled] = np.where(rep, refill, genes[refilled])

    from_a, in_a = _raw_of(genes, sel_a, raw_a)
    from_b, in_b = _raw_of(genes, sel_b, raw_b)
    coin = streams.random(rows, k) < 0.5
    take_raw_a = np.where(in_a & in_b, coin, in_a)
    return genes, np.where(take_raw_a, from_a, from_b)


def mutate(
    selection: np.ndarray,
    raw: np.ndarray,
    step_length: float | np.ndarray,
    rng: np.random.Generator | RunStreams,
    n_assets: int,
    swap_rate: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Step each row along a random unit direction in allocation space and
    clamp to [0, 1]; in a ``swap_rate`` share of rows, swap one selected
    asset for a uniformly drawn non-member. ``step_length`` is one number
    or a ``(C, 1)`` column, one per row."""
    streams = _streams(rng)
    c, k = raw.shape
    rows = c // len(streams.rngs)
    direction = streams.standard_normal(rows, k)
    norm = np.linalg.norm(direction, axis=1, keepdims=True)
    raw = np.clip(raw + step_length * (direction / np.where(norm > 0.0, norm, 1.0)), 0.0, 1.0)

    selection = selection.copy()
    if n_assets > k:
        swap = streams.random(rows) < swap_rate
        swapped = np.flatnonzero(swap)
        per_run = swap.reshape(len(streams.rngs), rows).sum(axis=1)
        position = streams.integers(0, k, per_run)
        nth = streams.integers(0, n_assets - k, per_run)
        outside = np.ones((len(swapped), n_assets), dtype=bool)
        outside[np.arange(len(swapped))[:, None], selection[swapped]] = False
        # the nth non-member in index order
        selection[swapped, position] = np.argmax(np.cumsum(outside, axis=1) > nth[:, None], axis=1)
    return selection, raw


def truncate(
    costs: np.ndarray, child_costs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(mu + lambda) truncation of A runs at once, for ``(A, P)`` member and
    ``(A, C)`` child costs.

    Each run keeps the P cheapest of its members and children. The sort is
    stable with members before children, so a child that only equals a
    member's cost never evicts it. The surviving children fill the evicted
    members' positions, positions in ascending order and children in
    creation order. Returns ``(runs, positions, children)``: member
    ``positions[i]`` of run ``runs[i]`` is to hold that run's child
    ``children[i]``.
    """
    p = costs.shape[1]
    order = np.argsort(np.concatenate([costs, child_costs], axis=1), axis=1, kind="stable")
    kept = np.zeros((len(costs), p + child_costs.shape[1]), dtype=bool)
    np.put_along_axis(kept, order[:, :p], True, axis=1)
    # Row-major order: each run's evictions and entries pair up in sequence.
    runs, positions = np.nonzero(~kept[:, :p])
    return runs, positions, np.nonzero(kept[:, p:])[1]


def evolve(
    model: RiskModel,
    params: ObjectiveParams,
    bounds: Bounds,
    k: int,
    config: GAConfig,
) -> GAResult:
    """Run the steady-state GA and return the best decoded portfolio.

    The population is held as ``(P, K)`` selection and raw arrays with a
    ``(P,)`` cost vector. Each generation draws ``2C`` parents at once,
    with ``C = config.n_children``, then builds, mutates and scores all
    ``C`` children as arrays against the generation-start population. The
    P cheapest of members and children then survive (see
    :func:`truncate`), so the best cost never increases.
    Deterministic for a fixed seed, except that a wall-clock stop can land
    on different generations across machines. A batch of one run through
    :func:`evolve_batch`.
    """
    return evolve_batch(model, [params], bounds, k, [config])[0]


def evolve_batch(
    model: RiskModel,
    params: Sequence[ObjectiveParams],
    bounds: Bounds,
    k: int,
    configs: Sequence[GAConfig],
) -> list[GAResult]:
    """Run ``evolve(model, params[r], bounds, k, configs[r])`` for every
    run ``r``, with the runs evolving together.

    The params must share one skew mode. The runs are cut into batches
    (see :func:`_batches`), and the batches run at the same time in up to
    one forked worker process per CPU this process may use. With one CPU,
    one batch, no ``fork`` start method or no ``os.sched_getaffinity``,
    they run one after another in this process. The pool is shut down
    before this returns or raises; an error raised in a batch reaches the
    caller with its type and message.
    Results come back in input order. Result ``r`` equals the standalone
    ``evolve`` of run ``r`` field for field, except where a wall-clock stop
    fires: a batch's runs share one start clock.
    """
    if len(params) != len(configs):
        raise ConfigError(f"{len(params)} objective params for {len(configs)} GA configs")
    if not configs:
        return []
    if len({p.skew_mode for p in params}) > 1:
        raise ConfigError("GA runs evolved together must share one skew mode")
    m = model.n_assets
    if k > m or k < 1:
        raise ConfigError(f"subset size {k} invalid for a universe of {m} assets")
    if not bounds.feasible_subset_exists(k, m):
        raise InfeasibleBoundsError(
            f"no subset of {k} assets admits weights within the supplied bounds"
        )
    batches = _batches(configs)
    jobs = (
        repeat(model),
        [[params[r] for r in batch] for batch in batches],
        repeat(bounds),
        repeat(k),
        [[configs[r] for r in batch] for batch in batches],
    )
    # Platforms without sched_getaffinity (macOS, Windows) run in process,
    # and so do those without os.fork, which have no fork start method.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(batches)) if hasattr(os, "fork") else 1
    if workers > 1:
        # Imported here, so that the stages that never start a pool do not
        # pay about 10 ms and 0.7 MB to import it.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # Forked workers inherit the imported modules, so a pool starts in
        # milliseconds; only the batches and their results are pickled.
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(workers, mp_context=context) as pool:
            done = list(pool.map(_evolve_together, *jobs))
    else:
        done = list(map(_evolve_together, *jobs))
    results: list[GAResult | None] = [None] * len(configs)
    for batch, batch_results in zip(batches, done):
        for r, result in zip(batch, batch_results):
            results[r] = result
    return results


def _batches(configs: Sequence[GAConfig]) -> list[list[int]]:
    """The run indices of each batch :func:`evolve_batch` evolves together.

    Runs whose configs agree on everything but the seed and the penalty
    factor form a group, in order of first appearance; each group is cut,
    in input order, into batches of at most ``_BATCH_ROWS`` population rows
    (at least one run each).
    """
    groups: dict[tuple, list[int]] = {}
    for r, config in enumerate(configs):
        groups.setdefault(astuple(replace(config, seed=0, penalty_factor=1.0)), []).append(r)
    batches = []
    for members in groups.values():
        runs = max(1, _BATCH_ROWS // configs[members[0]].population_size)
        batches += [members[first:first + runs] for first in range(0, len(members), runs)]
    return batches


def _evolve_together(
    model: RiskModel,
    params: Sequence[ObjectiveParams],
    bounds: Bounds,
    k: int,
    configs: Sequence[GAConfig],
) -> list[GAResult]:
    """The GA loop over the ``(R, P, K)`` populations of a validated batch
    whose configs differ only in seed and penalty factor.

    A run leaves the active set when it stalls; a time stop ends every
    active run at once, and the rest stop at the generation cap.
    """
    config = configs[0]
    m, n_runs, size = model.n_assets, len(configs), config.population_size
    rngs = [np.random.default_rng(np.random.SeedSequence(c.seed)) for c in configs]
    start = time.monotonic()

    lam = np.array([p.lam for p in params])
    theta = np.array([p.theta for p in params])
    penalty = np.array([c.penalty_factor for c in configs], dtype=float)

    def score(selection, raw, runs, rows):
        row_params = RowParams(
            np.repeat(lam[runs], rows), np.repeat(theta[runs], rows), params[0].skew_mode,
        )
        penalty_factor = np.repeat(penalty[runs], rows)[:, None]
        return penalized_cost(selection, raw, model, row_params, bounds, penalty_factor)

    every = np.arange(n_runs)
    populations = [init_population(m, k, size, rng) for rng in rngs]
    selection = np.stack([sel for sel, _ in populations])
    raw = np.stack([r for _, r in populations])
    costs = score(
        selection.reshape(-1, k), raw.reshape(-1, k), every, size
    )[0].reshape(n_runs, size)

    best_index = costs.argmin(axis=1)
    best_cost = costs[every, best_index]
    best_selection, best_raw = selection[every, best_index], raw[every, best_index]
    # One (R,) row per generation, grown as the runs go rather than sized by
    # the cap, which a time stop may leave far out of reach. A stopped run's
    # column is cut at its last generation.
    cost_history, mean_history = [best_cost.copy()], [costs.mean(axis=1)]
    steps = np.full(n_runs, STEP_START)
    stop_reasons = np.full(n_runs, STOP_GENERATIONS, dtype=object)
    generations = np.full(n_runs, config.generation_cap)

    n_children = config.n_children
    window = config.stall_generations
    active = every
    for generation in range(1, config.generation_cap + 1):
        if time.monotonic() - start > config.time_limit_seconds:
            stop_reasons[active], generations[active] = STOP_TIME, generation - 1
            break

        parents = np.stack([
            select_parents(costs[r], config.selection_kind, 2 * n_children, rngs[r])
            for r in active
        ])
        a, b = parents[:, :n_children], parents[:, n_children:]
        runs = active[:, None]
        streams = RunStreams([rngs[r] for r in active])
        child_sel, child_raw = crossover(
            selection[runs, a].reshape(-1, k), raw[runs, a].reshape(-1, k),
            selection[runs, b].reshape(-1, k), raw[runs, b].reshape(-1, k),
            streams, config.crossover_kind,
        )
        step_lengths = np.repeat(steps[active], n_children)
        child_sel, child_raw = mutate(
            child_sel, child_raw, step_lengths[:, None], streams, m, MUTATION_SWAP_RATE
        )
        child_costs = score(child_sel, child_raw, active, n_children)[0]

        within, positions, children = truncate(
            costs[active], child_costs.reshape(len(active), n_children)
        )
        into, children = active[within], within * n_children + children
        selection[into, positions], raw[into, positions] = child_sel[children], child_raw[children]
        costs[into, positions] = child_costs[children]

        current = costs[active]
        cheapest = current.argmin(axis=1)
        lowest = current[np.arange(len(active)), cheapest]
        improved = lowest < best_cost[active]
        better, cheapest = active[improved], cheapest[improved]
        best_cost[better] = lowest[improved]
        best_selection[better] = selection[better, cheapest]
        best_raw[better] = raw[better, cheapest]
        cost_history.append(best_cost.copy())
        means = mean_history[-1].copy()
        means[active] = current.mean(axis=1)
        mean_history.append(means)
        steps[active] = adapt_steps(steps[active], improved)
        if generation >= window:
            drop = cost_history[generation - window][active] - best_cost[active]
            stalled = drop / window < FUNCTION_TOLERANCE
            stop_reasons[active[stalled]], generations[active[stalled]] = STOP_STALL, generation
            active = active[~stalled]
            if not len(active):
                break

    _, weights = score(best_selection, best_raw, every, 1)
    cost_history, mean_history = np.array(cost_history), np.array(mean_history)
    results = []
    for r in every:
        full = np.zeros(m)
        full[best_selection[r]] = weights[r]
        kept = generations[r] + 1
        results.append(GAResult(
            best=build_portfolio(best_selection[r], full, model),
            best_cost=float(best_cost[r]),
            generations=int(generations[r]),
            cost_history=cost_history[:kept, r].tolist(),
            mean_history=mean_history[:kept, r].tolist(),
            stop_reason=stop_reasons[r],
            evaluations=size + n_children * int(generations[r]),
            config=configs[r],
        ))
    return results


def stop_summary(results: Sequence[GAResult]) -> str:
    """How a set of GA runs stopped, e.g. ``stall 30, time 6; 36000 evaluations``."""
    stops = Counter(result.stop_reason for result in results)
    reasons = ", ".join(f"{reason} {n}" for reason, n in sorted(stops.items()))
    evaluations = f"{sum(result.evaluations for result in results)} evaluations"
    return f"{reasons}; {evaluations}" if reasons else evaluations
