"""Genetic algorithm over asset subsets and raw allocation numbers.

Steady-state loop over a population held as ``(P, K)`` arrays: rank-based
roulette (or uniform/tournament) parent selection, positional crossover
with subset-aware repair, adaptive step mutation in allocation space, all
applied to a whole generation of children at once, then replace-the-worst
insertion. Stops on a stalled best cost, a wall-clock limit, or the
generation cap. The single-chromosome operators are batches of one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InfeasibleBoundsError
from .objective import (
    Bounds,
    ObjectiveParams,
    Portfolio,
    build_portfolio,
    penalized_cost,
    penalized_costs,
)
from .risk_model import RiskModel

SELECTION_KINDS = ("roulette", "uniform", "tournament")
CROSSOVER_KINDS = ("single-point", "two-point", "scattered")

STOP_STALL = "stall"
STOP_TIME = "time"
STOP_GENERATIONS = "generation-limit"


@dataclass
class Chromosome:
    selection: np.ndarray        # (K,) unique asset indices
    raw: np.ndarray              # (K,) allocation numbers in [0, 1]
    cost: float | None = None


@dataclass
class GAConfig:
    population_size: int = 200
    crossover_fraction: float = 0.8
    crossover_kind: str = "single-point"
    selection_kind: str = "roulette"
    penalty_factor: float = 10.0
    stall_generations: int = 50
    function_tolerance: float = 1e-6
    time_limit_seconds: float = 1000.0
    generation_cap: int = 500
    mutation_swap_rate: float = 0.1
    tournament_size: int = 2
    seed: int | tuple[int, ...] = 0

    def validate(self) -> None:
        if self.population_size < 2:
            raise ConfigError(f"population_size must be >= 2, got {self.population_size}")
        if not 0.0 <= self.crossover_fraction <= 1.0:
            raise ConfigError(f"crossover_fraction must lie in [0, 1], got {self.crossover_fraction}")
        if self.crossover_kind not in CROSSOVER_KINDS:
            raise ConfigError(f"unknown crossover kind {self.crossover_kind!r}")
        if self.selection_kind not in SELECTION_KINDS:
            raise ConfigError(f"unknown selection kind {self.selection_kind!r}")
        if self.function_tolerance <= 0:
            raise ConfigError("function_tolerance must be positive")
        if self.stall_generations < 1:
            raise ConfigError("stall_generations must be >= 1")
        if self.time_limit_seconds <= 0:
            raise ConfigError("time_limit_seconds must be positive")
        if self.generation_cap < 1:
            raise ConfigError("generation_cap must be >= 1")
        if not 0.0 <= self.mutation_swap_rate <= 1.0:
            raise ConfigError("mutation_swap_rate must lie in [0, 1]")
        if self.tournament_size < 1:
            raise ConfigError("tournament_size must be >= 1")


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


@dataclass
class AdaptiveStep:
    """Mutation step schedule: doubles after an improving generation,
    halves otherwise, clamped to [floor, ceiling]."""

    length: float = 0.1
    floor: float = 1e-4
    ceiling: float = 0.5

    def update(self, improved: bool) -> None:
        if improved:
            self.length = min(self.length * 2.0, self.ceiling)
        else:
            self.length = max(self.length / 2.0, self.floor)


def init_population(
    n_assets: int, k: int, size: int, rng: np.random.Generator
) -> list[Chromosome]:
    """Uniform subsets without replacement and uniform raw allocations."""
    selection, raw = init_rows(n_assets, k, size, rng)
    return [Chromosome(sel, r) for sel, r in zip(selection, raw)]


def init_rows(
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


def _costs_of(population: list[Chromosome]) -> np.ndarray:
    if not population:
        raise ConfigError("cannot select from an empty population")
    return np.array([c.cost for c in population], dtype=float)


def _rank_probabilities(costs: np.ndarray) -> np.ndarray:
    """Linear rank weights: the lowest cost gets weight P, the highest 1."""
    n = len(costs)
    order = np.argsort(costs, kind="stable")
    weights = np.empty(n)
    weights[order] = np.arange(n, 0, -1, dtype=float)
    return weights / weights.sum()


def _probabilities(costs: np.ndarray, kind: str) -> np.ndarray:
    if not np.isfinite(costs).all():
        raise ConfigError("selection requires finite fitness for every chromosome")
    if kind == "roulette":
        return _rank_probabilities(costs)
    if kind == "uniform":
        return np.full(len(costs), 1.0 / len(costs))
    raise ConfigError(f"no selection probabilities for kind {kind!r}")


def selection_probabilities(population: list[Chromosome], kind: str) -> np.ndarray:
    return _probabilities(_costs_of(population), kind)


def tournament_select(
    population: list[Chromosome], rng: np.random.Generator, size: int = 2
) -> Chromosome:
    """One tournament winner: a batch of one through :func:`select_rows`."""
    costs = _costs_of(population)
    return population[int(select_rows(costs, "tournament", 1, rng, size)[0])]


def select_rows(
    costs: np.ndarray, kind: str, n: int, rng: np.random.Generator,
    tournament_size: int = 2,
) -> np.ndarray:
    """Indices of ``n`` parents drawn independently from a population.

    Roulette and uniform invert the CDF of their selection probabilities.
    A tournament draws ``tournament_size`` distinct contenders (the
    smallest of random keys over the population) and keeps the cheapest.
    """
    if kind == "tournament":
        size = min(tournament_size, len(costs))
        keys = rng.random((n, len(costs)))
        contenders = np.argpartition(keys, size - 1, axis=1)[:, :size]
        cheapest = np.argmin(costs[contenders], axis=1)
        return contenders[np.arange(n), cheapest]
    cdf = np.cumsum(_probabilities(costs, kind))
    return np.minimum(np.searchsorted(cdf, rng.random(n), side="right"), len(costs) - 1)


def _take_a(c: int, k: int, kind: str, rng: np.random.Generator, cuts=None) -> np.ndarray:
    """``(C, K)`` slot masks (or one ``(1, K)`` mask for pinned ``cuts``),
    True where the gene comes from parent A."""
    slots = np.arange(k)
    if kind == "two-point":
        if cuts is None:
            first = rng.integers(0, k, size=c)
            second = rng.integers(first + 1, k + 1)
        else:
            first, second = cuts
            if not 0 <= first < second <= k:
                raise ConfigError(f"invalid cut points ({first}, {second}) for {k} genes")
        first, second = np.reshape(first, (-1, 1)), np.reshape(second, (-1, 1))
        return (slots < first) | (slots >= second)
    if kind == "single-point":
        if cuts is None:
            cut = rng.integers(1, k, size=c) if k > 1 else rng.integers(0, 2, size=c)
        else:
            (cut,) = cuts
            if not 0 <= cut <= k:
                raise ConfigError(f"invalid cut point {cut} for {k} genes")
        return slots < np.reshape(cut, (-1, 1))
    if kind == "scattered":
        return rng.random((c, k)) < 0.5
    raise ConfigError(f"unknown crossover kind {kind!r}")


def crossover(
    parent_a: Chromosome,
    parent_b: Chromosome,
    rng: np.random.Generator,
    kind: str = "single-point",
    cuts=None,
) -> Chromosome:
    """One child of two parents: a batch of one through
    :func:`crossover_rows`. ``cuts`` pins the cut points (test hook)."""
    if len(parent_a.selection) != len(parent_b.selection):
        raise ConfigError("parents carry subsets of different sizes")
    selection, raw = crossover_rows(
        parent_a.selection[None], parent_a.raw[None],
        parent_b.selection[None], parent_b.raw[None], rng, kind, cuts,
    )
    return Chromosome(selection[0], raw[0])


def crossover_rows(
    sel_a: np.ndarray,
    raw_a: np.ndarray,
    sel_b: np.ndarray,
    raw_b: np.ndarray,
    rng: np.random.Generator,
    kind: str = "single-point",
    cuts=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Child ``i`` of parents ``a[i]`` and ``b[i]``, for ``(C, K)`` parent rows.

    Slots up to the cut(s) come from one parent and the rest from the
    other. A slot whose asset already sits in an earlier slot is refilled
    with an asset of the parents' union that the child lacks, drawn
    uniformly without replacement by random keys; the union is always
    large enough, since each parent alone holds K distinct assets. Assets
    held by both parents take their raw value from either parent with
    equal probability, the others from the parent that holds them.
    """
    c, k = sel_a.shape
    genes = np.where(_take_a(c, k, kind, rng, cuts), sel_a, sel_b)
    earlier = np.triu(np.ones((k, k), dtype=bool), 1)   # slot i precedes slot j
    repeat = ((genes[:, :, None] == genes[:, None, :]) & earlier).any(axis=1)

    union = np.concatenate([sel_a, sel_b], axis=1)
    # Each union asset is a candidate once: B's copies of A's assets are not.
    twice = np.concatenate(
        [np.zeros((c, k), dtype=bool), (sel_b[:, :, None] == sel_a[:, None, :]).any(axis=2)],
        axis=1,
    )
    held = (union[:, :, None] == genes[:, None, :]).any(axis=2)
    order = np.argsort(np.where(twice | held, 2.0, rng.random(union.shape)), axis=1)
    # The j-th repeated slot of a row takes the candidate with its j-th smallest key.
    nth = np.maximum(np.cumsum(repeat, axis=1) - 1, 0)
    refill = np.take_along_axis(union, np.take_along_axis(order, nth, axis=1), axis=1)
    genes = np.where(repeat, refill, genes)

    match_a = genes[:, :, None] == sel_a[:, None, :]
    match_b = genes[:, :, None] == sel_b[:, None, :]
    from_a = np.take_along_axis(raw_a, match_a.argmax(axis=2), axis=1)
    from_b = np.take_along_axis(raw_b, match_b.argmax(axis=2), axis=1)
    in_a, in_b = match_a.any(axis=2), match_b.any(axis=2)
    coin = rng.random((c, k)) < 0.5
    take_raw_a = np.where(in_a & in_b, coin, in_a)
    return genes, np.where(take_raw_a, from_a, from_b)


def mutate(
    chromosome: Chromosome,
    step_length: float,
    rng: np.random.Generator,
    n_assets: int,
    swap_rate: float = 0.1,
) -> Chromosome:
    """A mutated copy: a batch of one through :func:`mutate_rows`."""
    selection, raw = mutate_rows(
        chromosome.selection[None], chromosome.raw[None], step_length, rng, n_assets, swap_rate
    )
    return Chromosome(selection[0], raw[0])


def mutate_rows(
    selection: np.ndarray,
    raw: np.ndarray,
    step_length: float,
    rng: np.random.Generator,
    n_assets: int,
    swap_rate: float = 0.1,
) -> tuple[np.ndarray, np.ndarray]:
    """Step each row along a random unit direction in allocation space and
    clamp to [0, 1]; in a ``swap_rate`` share of rows, swap one selected
    asset for a uniformly drawn non-member."""
    c, k = raw.shape
    direction = rng.standard_normal((c, k))
    norm = np.linalg.norm(direction, axis=1, keepdims=True)
    raw = np.clip(raw + step_length * (direction / np.where(norm > 0.0, norm, 1.0)), 0.0, 1.0)

    selection = selection.copy()
    if n_assets > k:
        rows = np.flatnonzero(rng.random(c) < swap_rate)
        position = rng.integers(k, size=len(rows))
        nth = rng.integers(n_assets - k, size=len(rows))
        outside = np.ones((len(rows), n_assets), dtype=bool)
        outside[np.arange(len(rows))[:, None], selection[rows]] = False
        # the nth non-member in index order
        selection[rows, position] = np.argmax(np.cumsum(outside, axis=1) > nth[:, None], axis=1)
    return selection, raw


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
    with ``C = round(crossover_fraction * population_size)``, then builds,
    mutates and scores all ``C`` children as arrays against the
    generation-start population. The children are then inserted in
    creation order, each replacing the current worst member when strictly
    cheaper, so the best cost never increases. Deterministic for a fixed
    seed, except that a wall-clock stop can land on different generations
    across machines.
    """
    config.validate()
    m = model.n_assets
    if k > m or k < 1:
        raise ConfigError(f"subset size {k} invalid for a universe of {m} assets")
    if not bounds.feasible_subset_exists(k, m):
        raise InfeasibleBoundsError(
            f"no subset of {k} assets admits weights within the supplied bounds"
        )

    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    start = time.monotonic()

    def score(selection, raw):
        return penalized_costs(selection, raw, model, params, bounds, config.penalty_factor)[0]

    selection, raw = init_rows(m, k, config.population_size, rng)
    costs = score(selection, raw)
    evaluations = len(costs)

    idx = int(costs.argmin())
    best_cost = float(costs[idx])
    best_selection, best_raw = selection[idx].copy(), raw[idx].copy()
    cost_history = [best_cost]
    mean_history = [float(costs.mean())]

    step = AdaptiveStep()
    n_children = int(round(config.crossover_fraction * config.population_size))
    stop_reason = STOP_GENERATIONS
    generation = 0

    for generation in range(1, config.generation_cap + 1):
        if time.monotonic() - start > config.time_limit_seconds:
            stop_reason = STOP_TIME
            generation -= 1
            break

        parents = select_rows(
            costs, config.selection_kind, 2 * n_children, rng, config.tournament_size
        )
        a, b = parents[:n_children], parents[n_children:]
        child_sel, child_raw = crossover_rows(
            selection[a], raw[a], selection[b], raw[b], rng, config.crossover_kind
        )
        child_sel, child_raw = mutate_rows(
            child_sel, child_raw, step.length, rng, m, config.mutation_swap_rate
        )
        child_costs = score(child_sel, child_raw)
        evaluations += len(child_costs)

        for i, cost in enumerate(child_costs.tolist()):
            worst = int(costs.argmax())
            if cost < costs[worst]:
                selection[worst], raw[worst], costs[worst] = child_sel[i], child_raw[i], cost

        previous_best = best_cost
        idx = int(costs.argmin())
        if costs[idx] < best_cost:
            best_cost = float(costs[idx])
            best_selection, best_raw = selection[idx].copy(), raw[idx].copy()
        cost_history.append(best_cost)
        mean_history.append(float(costs.mean()))
        step.update(best_cost < previous_best)

        window = config.stall_generations
        if generation >= window:
            averaged_gain = (cost_history[generation - window] - cost_history[generation]) / window
            if averaged_gain < config.function_tolerance:
                stop_reason = STOP_STALL
                break

    _, weights = penalized_cost(
        best_selection, best_raw, model, params, bounds, config.penalty_factor,
    )
    portfolio = build_portfolio(best_selection, weights, model)
    return GAResult(
        best=portfolio,
        best_cost=best_cost,
        generations=generation,
        cost_history=cost_history,
        mean_history=mean_history,
        stop_reason=stop_reason,
        evaluations=evaluations,
        config=config,
    )
