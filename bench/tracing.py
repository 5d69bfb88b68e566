"""In-memory spans around the program's layer boundaries.

A :class:`Tracer` records one span per call of a wrapped function: its
name, start, end, parent span and the benchmark operation it ran in.
Spans are kept in flat arrays (24 bytes each) and written out once, at
the end of a run. :func:`install` wraps the module-level public functions
at each layer boundary of ``predfolio`` from the outside, without editing
the program, and returns a function that puts the originals back.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from predfolio import (
    cli, eval_metrics, frontier, ga_solver, market_data, predictor, risk_model, taguchi,
)

NO_PARENT = -1
OP_SPAN = "bench.op"
# Same tolerance as the program's weight decoder uses for bound sums.
FEASIBILITY_TOL = 1e-9


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("l")
        self.parent = array("l")
        self.op = array("l")
        self._stack: list[int] = []
        self._op = NO_PARENT
        self.counts: list[dict[str, float]] = []
        self.samples: list[dict[str, list[float]]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else NO_PARENT)
        self.op.append(self._op)
        self.end.append(float("nan"))
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def operation(self):
        """One benchmark operation: a root span plus fresh counters."""
        self._op = len(self.counts)
        self.counts.append(defaultdict(float))
        self.samples.append(defaultdict(list))
        index = self.open(self.name_id(OP_SPAN))
        try:
            yield
        finally:
            self.close(index)
            self._op = NO_PARENT

    def count(self, key: str, value: float = 1.0) -> None:
        if self._op != NO_PARENT:
            self.counts[self._op][key] += value

    def sample(self, key: str, value: float) -> None:
        if self._op != NO_PARENT:
            self.samples[self._op][key].append(value)

    def wrap(self, name: str, fn, observe=None):
        """``fn`` with a span per call; ``observe(tracer, args, kwargs, result)``
        runs after each call that returns."""
        name_id = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "name": np.asarray(self.name, dtype=np.int64),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "op": np.asarray(self.op, dtype=np.int64),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.spans())


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to their parent's interval and overlapping
    children are counted once, so a span's self time is never negative
    and never above its duration.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    children = np.flatnonzero(parent != NO_PARENT)
    order = children[np.lexsort((start[children], parent[children]))]
    lo_all = np.maximum(start[order], start[parent[order]]).tolist()
    hi_all = np.minimum(end[order], end[parent[order]]).tolist()
    covered = [0.0] * len(start)
    reach, owner = -np.inf, NO_PARENT
    for p, lo, hi in zip(parent[order].tolist(), lo_all, hi_all):
        if p != owner:
            reach, owner = -np.inf, p
        lo = max(lo, reach)
        if hi > lo:
            covered[p] += hi - lo
            reach = hi
    return (end - start) - np.asarray(covered)


# --- layer boundaries -------------------------------------------------------

def _observe_fit(tracer, args, kwargs, trained):
    config = args[1] if len(args) > 1 else kwargs["config"]
    tracer.count("predictor.epochs", trained.epochs_run)
    tracer.count("predictor.epoch_cap_hits", trained.epochs_run >= config.max_epochs)


def _observe_build(tracer, args, kwargs, model):
    tracer.count("risk_model.diagonal_shift", model.diagonal_shift)
    tracer.count("risk_model.degenerate_skew", len(model.degenerate_skew_assets))


def _observe_ks(tracer, args, kwargs, result):
    tracer.count("eval_metrics.ks_rejections", not result.accepted)


def _observe_evolve(tracer, args, kwargs, result):
    tracer.count("ga_solver.evaluations", result.evaluations)
    tracer.count(f"ga_solver.stop.{result.stop_reason}")
    tracer.sample("ga_solver.generations", result.generations)


def _observe_sweep(tracer, args, kwargs, result):
    tracer.count("frontier.points", len(result.points))
    tracer.count("frontier.failures", len(result.failures))
    for point in result.points:
        tracer.sample("frontier.spread", point.spread)


def _observe_cost(tracer, args, kwargs, result):
    # The GA calls penalized_cost(selection, raw, model, params, bounds, factor).
    selection, model, bounds = args[0], args[2], args[4]
    eps, dlt = bounds.for_selection(selection, model.n_assets)
    infeasible = eps.sum() > 1.0 + FEASIBILITY_TOL or dlt.sum() < 1.0 - FEASIBILITY_TOL
    tracer.count("objective.penalized", infeasible)


def install(tracer: Tracer) -> callable:
    """Wrap every layer boundary of ``predfolio``; return the undo function."""
    patches = []

    def patch(owner, attr, name, observe=None, fn=None):
        original = getattr(owner, attr) if not isinstance(owner, dict) else owner[attr]
        wrapped = tracer.wrap(name, fn or original, observe)
        if isinstance(owner, dict):
            owner[attr] = wrapped
        else:
            setattr(owner, attr, wrapped)
        patches.append((owner, attr, original))

    for stage in list(cli.COMMANDS):
        patch(cli.COMMANDS, stage, f"cli.{stage}")
    for attr in ("load_prices", "compute_returns", "align_universe"):
        patch(market_data, attr, f"market_data.{attr}")
    patch(predictor, "split_series", "predictor.split_series")
    patch(predictor, "train_arnn", "predictor.train_arnn", _observe_fit)
    patch(predictor, "rolling_predict", "predictor.rolling_predict")
    patch(risk_model, "build_risk_model", "risk_model.build_risk_model", _observe_build)
    patch(eval_metrics, "evaluate", "eval_metrics.evaluate")
    patch(eval_metrics, "ks_normality_test", "eval_metrics.ks_normality_test", _observe_ks)
    patch(frontier, "sweep", "frontier.sweep", _observe_sweep)
    patch(taguchi, "run_experiments", "taguchi.run_experiments")
    evolve = ga_solver.evolve
    for owner in (cli, frontier, taguchi):
        patch(owner, "evolve", "ga_solver.evolve", _observe_evolve, fn=evolve)
    patch(ga_solver, "penalized_cost", "objective.penalized_cost", _observe_cost)
    for attr in ("crossover", "mutate", "selection_probabilities", "tournament_select"):
        patch(ga_solver, attr, f"ga_solver.{attr}")

    def undo():
        for owner, attr, original in reversed(patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    return undo
