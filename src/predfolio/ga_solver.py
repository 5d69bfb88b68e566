"""Genetic algorithm over asset subsets and raw allocation numbers.

Steady-state loop: rank-based roulette (or uniform/tournament) parent
selection, positional crossover with subset-aware reconciliation, adaptive
step mutation in allocation space, and replace-the-worst insertion. Stops
on a stalled best cost, a wall-clock limit, or the generation cap.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InfeasibleBoundsError
from .objective import Bounds, ObjectiveParams, Portfolio, build_portfolio, penalized_cost
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
    if k > n_assets:
        raise ConfigError(f"cannot select {k} assets from a universe of {n_assets}")
    if k < 1:
        raise ConfigError(f"subset size must be >= 1, got {k}")
    return [
        Chromosome(
            selection=rng.choice(n_assets, size=k, replace=False),
            raw=rng.random(k),
        )
        for _ in range(size)
    ]


def _rank_probabilities(costs: np.ndarray) -> np.ndarray:
    """Linear rank weights: the lowest cost gets weight P, the highest 1."""
    n = len(costs)
    order = np.argsort(costs, kind="stable")
    weights = np.empty(n)
    weights[order] = np.arange(n, 0, -1, dtype=float)
    return weights / weights.sum()


def selection_probabilities(population: list[Chromosome], kind: str) -> np.ndarray:
    if not population:
        raise ConfigError("cannot select from an empty population")
    costs = np.array([c.cost for c in population], dtype=float)
    if not np.isfinite(costs).all():
        raise ConfigError("selection requires finite fitness for every chromosome")
    if kind == "roulette":
        return _rank_probabilities(costs)
    if kind == "uniform":
        return np.full(len(costs), 1.0 / len(costs))
    raise ConfigError(f"no selection probabilities for kind {kind!r}")


def tournament_select(
    population: list[Chromosome], rng: np.random.Generator, size: int = 2
) -> Chromosome:
    if not population:
        raise ConfigError("cannot select from an empty population")
    size = min(size, len(population))
    contenders = rng.choice(len(population), size=size, replace=False)
    best = min(contenders, key=lambda i: population[int(i)].cost)
    return population[int(best)]


def _cut_mask(k: int, kind: str, rng: np.random.Generator, cuts=None) -> np.ndarray:
    """Slot mask, True where the gene comes from parent A."""
    if kind == "two-point":
        if cuts is None:
            m = int(rng.integers(0, k))
            n = int(rng.integers(m + 1, k + 1))
        else:
            m, n = cuts
            if not 0 <= m < n <= k:
                raise ConfigError(f"invalid cut points ({m}, {n}) for {k} genes")
        slots = np.arange(k)
        return (slots < m) | (slots >= n)
    if kind == "single-point":
        if cuts is None:
            c = int(rng.integers(1, k)) if k > 1 else int(rng.integers(0, 2))
        else:
            (c,) = cuts
            if not 0 <= c <= k:
                raise ConfigError(f"invalid cut point {c} for {k} genes")
        return np.arange(k) < c
    if kind == "scattered":
        return rng.random(k) < 0.5
    raise ConfigError(f"unknown crossover kind {kind!r}")


def crossover(
    parent_a: Chromosome,
    parent_b: Chromosome,
    rng: np.random.Generator,
    kind: str = "single-point",
    cuts=None,
) -> Chromosome:
    """Produce one child by positional gene mixing plus subset repair.

    Slots up to the cut(s) come from one parent and the rest from the
    other; duplicates collapse, assets selected by both parents get their
    raw value from either parent with equal probability, and the subset is
    topped up to exactly K with uniform draws from the parents' union.
    ``cuts`` pins the cut points (test hook).
    """
    k = len(parent_a.selection)
    if len(parent_b.selection) != k:
        raise ConfigError("parents carry subsets of different sizes")
    take_a = _cut_mask(k, kind, rng, cuts)

    raw_of_a = dict(zip(parent_a.selection.tolist(), parent_a.raw.tolist()))
    raw_of_b = dict(zip(parent_b.selection.tolist(), parent_b.raw.tolist()))
    shared = set(raw_of_a) & set(raw_of_b)

    def raw_for(asset: int, fallback: float) -> float:
        if asset in shared:
            return raw_of_a[asset] if rng.random() < 0.5 else raw_of_b[asset]
        return fallback

    child_sel: list[int] = []
    child_raw: list[float] = []
    seen: set[int] = set()
    for j in range(k):
        parent = parent_a if take_a[j] else parent_b
        asset = int(parent.selection[j])
        if asset in seen:
            continue
        seen.add(asset)
        child_sel.append(asset)
        child_raw.append(raw_for(asset, float(parent.raw[j])))

    if len(child_sel) < k:
        # Duplicates collapsed; refill from the parents' union (always large
        # enough, since each parent alone carries K distinct assets).
        pool = sorted((set(raw_of_a) | set(raw_of_b)) - seen)
        chosen = rng.choice(len(pool), size=k - len(child_sel), replace=False)
        for idx in np.sort(chosen):
            asset = pool[int(idx)]
            fallback = raw_of_a.get(asset, raw_of_b.get(asset))
            child_sel.append(asset)
            child_raw.append(raw_for(asset, float(fallback)))

    return Chromosome(
        selection=np.array(child_sel, dtype=int),
        raw=np.array(child_raw, dtype=float),
    )


def mutate(
    chromosome: Chromosome,
    step_length: float,
    rng: np.random.Generator,
    n_assets: int,
    swap_rate: float = 0.1,
) -> Chromosome:
    """Step along a random direction in allocation space, clamp to [0, 1],
    and occasionally swap one selected asset for a non-member."""
    k = len(chromosome.raw)
    direction = rng.standard_normal(k)
    norm = float(np.linalg.norm(direction))
    if norm > 0.0:
        direction /= norm
    raw = np.clip(chromosome.raw + step_length * direction, 0.0, 1.0)

    selection = chromosome.selection.copy()
    if n_assets > k and rng.random() < swap_rate:
        position = int(rng.integers(k))
        outside = np.setdiff1d(np.arange(n_assets), selection)
        selection[position] = int(outside[int(rng.integers(len(outside)))])
    return Chromosome(selection=selection, raw=raw)


def _pick_parent(
    population: list[Chromosome], config: GAConfig, rng: np.random.Generator,
    probs: np.ndarray | None,
) -> Chromosome:
    if config.selection_kind == "tournament":
        return tournament_select(population, rng, config.tournament_size)
    return population[int(rng.choice(len(population), p=probs))]


def evolve(
    model: RiskModel,
    params: ObjectiveParams,
    bounds: Bounds,
    k: int,
    config: GAConfig,
) -> GAResult:
    """Run the steady-state GA and return the best decoded portfolio.

    Per generation, ``crossover_fraction * population_size`` children are
    produced (select, cross, mutate, evaluate, in creation order) and each
    replaces the current worst member when strictly cheaper. The best cost
    therefore never increases. Deterministic for a fixed seed, except that
    a wall-clock stop can land on different generations across machines.
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

    population = init_population(m, k, config.population_size, rng)
    evaluations = 0
    for chromosome in population:
        chromosome.cost, _ = penalized_cost(
            chromosome.selection, chromosome.raw, model, params, bounds,
            config.penalty_factor,
        )
        evaluations += 1

    costs = np.array([c.cost for c in population])
    best_cost = float(costs.min())
    best = population[int(costs.argmin())]
    best_snapshot = Chromosome(best.selection.copy(), best.raw.copy(), best.cost)
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

        probs = None
        if config.selection_kind in ("roulette", "uniform"):
            probs = selection_probabilities(population, config.selection_kind)

        # Children are built against the generation-start population and
        # inserted afterwards in creation order, so evaluation could run in
        # parallel without changing the outcome.
        children: list[Chromosome] = []
        for _ in range(n_children):
            parent_a = _pick_parent(population, config, rng, probs)
            parent_b = _pick_parent(population, config, rng, probs)
            child = crossover(parent_a, parent_b, rng, config.crossover_kind)
            child = mutate(child, step.length, rng, m, config.mutation_swap_rate)
            child.cost, _ = penalized_cost(
                child.selection, child.raw, model, params, bounds,
                config.penalty_factor,
            )
            evaluations += 1
            children.append(child)

        for child in children:
            worst = int(costs.argmax())
            if child.cost < costs[worst]:
                population[worst] = child
                costs[worst] = child.cost

        previous_best = best_cost
        idx = int(costs.argmin())
        if costs[idx] < best_cost:
            best_cost = float(costs[idx])
            winner = population[idx]
            best_snapshot = Chromosome(winner.selection.copy(), winner.raw.copy(), winner.cost)
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
        best_snapshot.selection, best_snapshot.raw, model, params, bounds,
        config.penalty_factor,
    )
    portfolio = build_portfolio(best_snapshot.selection, weights, model)
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
