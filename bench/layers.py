"""Per-layer metrics, computed from the spans and counters of traced ops.

Every metric in :data:`PER_LAYER` is reported on every workload; a layer
that a workload never calls reads 0. Counts are per operation (they repeat
exactly, run to run, for a fixed seed). Times are per operation unless the
name says per call (``_us``, ``_ms``) or names a percentile of single
calls (``_p50``, ``_p90``).
"""

from __future__ import annotations

import statistics

import numpy as np

from stats import nearest_rank
from tracing import NO_PARENT, OP_SPAN, Tracer, self_times

MODULES = ("cli", "market_data", "predictor", "risk_model", "eval_metrics",
           "objective", "ga_solver", "frontier", "taguchi")
STAGES = ("ingest", "predict", "risk", "metrics", "optimize", "frontier", "tune")

PER_LAYER = (
    [(f"cli.{stage}.self_s", "s") for stage in STAGES]
    + [(f"{module}.self_s", "s") for module in MODULES]
    + [
        ("cli.artifact_bytes", "bytes"),
        ("market_data.load_prices_s", "s"),
        ("market_data.rows_per_s", "rows/s"),
        ("market_data.align_s", "s"),
        ("predictor.fits", "count"),
        ("predictor.fit_s_p50", "s"),
        ("predictor.fit_s_p90", "s"),
        ("predictor.epochs", "count"),
        ("predictor.epoch_ms", "ms"),
        ("predictor.epoch_cap_hits", "count"),
        ("predictor.rolling_predict_ms", "ms"),
        ("risk_model.build_s", "s"),
        ("risk_model.diagonal_shift", "1"),
        ("risk_model.degenerate_skew", "count"),
        ("eval_metrics.evaluate_s", "s"),
        ("eval_metrics.ks_s", "s"),
        ("eval_metrics.ks_rejections", "count"),
        ("ga_solver.runs", "count"),
        ("ga_solver.run_s_p50", "s"),
        ("ga_solver.run_s_p90", "s"),
        ("ga_solver.evaluations", "count"),
        ("ga_solver.eval_us", "us"),
        ("ga_solver.generations_p50", "count"),
        ("ga_solver.crossover_us", "us"),
        ("ga_solver.mutate_us", "us"),
        ("ga_solver.select_us", "us"),
        ("ga_solver.stop.stall", "count"),
        ("ga_solver.stop.generation-limit", "count"),
        ("ga_solver.stop.time", "count"),
        ("objective.calls", "count"),
        ("objective.penalized_cost_us", "us"),
        ("objective.penalized_share", "1"),
        ("frontier.sweep_s", "s"),
        ("frontier.points", "count"),
        ("frontier.failures", "count"),
        ("frontier.spread_mean", "1"),
        ("taguchi.run_experiments_s", "s"),
        ("taguchi.ties", "count"),
        ("trace.overhead_share", "1"),
        ("trace.spans_per_op", "count"),
    ]
)


def module_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


class SpanTable:
    """Spans of a finished tracer, with self times and per-op grouping."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        spans = tracer.spans()
        self.names = np.array(tracer.names)[spans["name"]]
        self.start, self.end = spans["start"], spans["end"]
        self.parent, self.op = spans["parent"], spans["op"]
        self.duration = self.end - self.start
        self.self_time = self_times(self.start, self.end, self.parent)
        self.ops = sorted(set(self.op[self.names == OP_SPAN].tolist()))
        self.module = np.array([module_of(n) for n in tracer.names])[spans["name"]]

    def mask(self, name: str) -> np.ndarray:
        return self.names == name

    def per_op(self, values: np.ndarray, mask: np.ndarray) -> float:
        """Median over ops of the per-op sum of ``values`` under ``mask``."""
        if not self.ops:
            return 0.0
        return float(statistics.median(
            float(values[mask & (self.op == op)].sum()) for op in self.ops
        ))

    def per_call(self, *names: str) -> float:
        """Mean duration of one call of the named spans, in seconds."""
        mask = np.isin(self.names, names)
        return float(self.duration[mask].mean()) if mask.any() else 0.0

    def percentile(self, name: str, q: float) -> float:
        values = np.sort(self.duration[self.mask(name)])
        return float(nearest_rank(values.tolist(), q)) if len(values) else 0.0

    def stage_self_check(self) -> list[str]:
        """Problems with the self-time accounting; empty when it holds.

        Within each op the self times of all its spans must add up to the
        op's wall time, and within each stage span every module's self
        time must be at most the stage's wall time.
        """
        problems = []
        for op in self.ops:
            in_op = self.op == op
            op_wall = float(self.duration[in_op & self.mask(OP_SPAN)].sum())
            total = float(self.self_time[in_op].sum())
            if abs(total - op_wall) > 1e-6 * max(op_wall, 1.0):
                problems.append(f"op {op}: self times sum to {total!r}, wall {op_wall!r}")
        stage_of = np.full(len(self.names), NO_PARENT)
        parents = self.parent.tolist()
        is_stage = (self.module == "cli").tolist()
        for i, p in enumerate(parents):
            if is_stage[i]:
                stage_of[i] = i
            elif p != NO_PARENT:
                stage_of[i] = stage_of[p]
        for stage in np.flatnonzero(is_stage):
            under = stage_of == stage
            for module in set(self.module[under].tolist()):
                spent = float(self.self_time[under & (self.module == module)].sum())
                if spent > self.duration[stage] + 1e-9:
                    problems.append(
                        f"{self.names[stage]}: {module} self time {spent!r} "
                        f"exceeds stage wall {self.duration[stage]!r}"
                    )
        return problems


def layer_metrics(table: SpanTable, rows: int, artifact_bytes: int, extra: dict) -> dict:
    """Every per-layer metric, from the spans and counters of the traced ops.

    ``rows`` is the price-file row count (0 when the workload reads none);
    ``extra`` carries values read from artifacts (``taguchi.ties``) and the
    tracing overhead.
    """
    ops = table.ops
    counts = [table.tracer.counts[op] for op in ops]
    samples = [table.tracer.samples[op] for op in ops]
    ones = np.ones(len(table.names))

    def count(key: str) -> float:
        return float(statistics.median(c.get(key, 0.0) for c in counts)) if counts else 0.0

    def pooled(key: str) -> list[float]:
        return [v for s in samples for v in s.get(key, [])]

    def n_calls(name: str) -> float:
        return table.per_op(ones, table.mask(name))

    def time_in(name: str) -> float:
        return table.per_op(table.duration, table.mask(name))

    m: dict[str, float] = {}
    for stage in STAGES:
        m[f"cli.{stage}.self_s"] = table.per_op(table.self_time, table.mask(f"cli.{stage}"))
    for module in MODULES:
        m[f"{module}.self_s"] = table.per_op(table.self_time, table.module == module)
    m["cli.artifact_bytes"] = float(artifact_bytes)

    load = time_in("market_data.load_prices")
    m["market_data.load_prices_s"] = load
    m["market_data.rows_per_s"] = rows / load if load > 0 else 0.0
    m["market_data.align_s"] = time_in("market_data.align_universe")

    fits = table.mask("predictor.train_arnn")
    epochs = sum(c.get("predictor.epochs", 0.0) for c in counts)
    m["predictor.fits"] = n_calls("predictor.train_arnn")
    m["predictor.fit_s_p50"] = table.percentile("predictor.train_arnn", 50)
    m["predictor.fit_s_p90"] = table.percentile("predictor.train_arnn", 90)
    m["predictor.epochs"] = count("predictor.epochs")
    m["predictor.epoch_ms"] = 1e3 * float(table.duration[fits].sum()) / epochs if epochs else 0.0
    m["predictor.epoch_cap_hits"] = count("predictor.epoch_cap_hits")
    m["predictor.rolling_predict_ms"] = 1e3 * table.per_call("predictor.rolling_predict")

    m["risk_model.build_s"] = time_in("risk_model.build_risk_model")
    m["risk_model.diagonal_shift"] = count("risk_model.diagonal_shift")
    m["risk_model.degenerate_skew"] = count("risk_model.degenerate_skew")

    m["eval_metrics.evaluate_s"] = time_in("eval_metrics.evaluate")
    m["eval_metrics.ks_s"] = time_in("eval_metrics.ks_normality_test")
    m["eval_metrics.ks_rejections"] = count("eval_metrics.ks_rejections")

    runs = table.mask("ga_solver.evolve")
    evaluations = sum(c.get("ga_solver.evaluations", 0.0) for c in counts)
    generations = pooled("ga_solver.generations")
    m["ga_solver.runs"] = n_calls("ga_solver.evolve")
    m["ga_solver.run_s_p50"] = table.percentile("ga_solver.evolve", 50)
    m["ga_solver.run_s_p90"] = table.percentile("ga_solver.evolve", 90)
    m["ga_solver.evaluations"] = count("ga_solver.evaluations")
    m["ga_solver.eval_us"] = (
        1e6 * float(table.duration[runs].sum()) / evaluations if evaluations else 0.0
    )
    m["ga_solver.generations_p50"] = float(statistics.median(generations)) if generations else 0.0
    m["ga_solver.crossover_us"] = 1e6 * table.per_call("ga_solver.crossover")
    m["ga_solver.mutate_us"] = 1e6 * table.per_call("ga_solver.mutate")
    m["ga_solver.select_us"] = 1e6 * table.per_call(
        "ga_solver.selection_probabilities", "ga_solver.tournament_select"
    )
    for reason in ("stall", "generation-limit", "time"):
        m[f"ga_solver.stop.{reason}"] = count(f"ga_solver.stop.{reason}")

    calls = n_calls("objective.penalized_cost")
    total_calls = float(table.mask("objective.penalized_cost").sum())
    penalized = sum(c.get("objective.penalized", 0.0) for c in counts)
    m["objective.calls"] = calls
    m["objective.penalized_cost_us"] = 1e6 * table.per_call("objective.penalized_cost")
    m["objective.penalized_share"] = penalized / total_calls if total_calls else 0.0

    spreads = pooled("frontier.spread")
    m["frontier.sweep_s"] = time_in("frontier.sweep")
    m["frontier.points"] = count("frontier.points")
    m["frontier.failures"] = count("frontier.failures")
    m["frontier.spread_mean"] = float(np.mean(spreads)) if spreads else 0.0
    m["taguchi.run_experiments_s"] = time_in("taguchi.run_experiments")
    m["taguchi.ties"] = float(extra.get("taguchi.ties", 0.0))

    m["trace.overhead_share"] = float(extra.get("trace.overhead_share", 0.0))
    m["trace.spans_per_op"] = table.per_op(ones, table.op >= 0)
    return m
