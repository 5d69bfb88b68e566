"""The benchmark workloads: generated inputs, stage sequence, output checks.

A workload's operation is a fixed sequence of ``predfolio`` CLI stages run
against the inputs its set-up wrote. The stages are called in process
through ``predfolio.cli.main``, the function behind the ``predfolio``
console script. After the stages, :meth:`Workload.verify` reads the
artifacts back, checks them, and returns the workload's solution loss.
"""

from __future__ import annotations

import csv
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
from predfolio.errors import PredfolioError
from predfolio.risk_model import RiskModel

K = 5
DEFAULT_EPSILON, DEFAULT_DELTA = 0.1, 0.3
OPTIMIZE_LAMBDA, OPTIMIZE_THETA = 0.8, 0.2   # optimize and tune alike
FRONTIER_POINTS = 12          # default 4 x 3 (lambda, theta) grid
TUNE_ROWS, TUNE_REPLICATES = 27, 3
WEIGHT_TOL = 1e-9
# Every GA run stops at this generation cap (the stall stop needs 50), so a
# run's work is fixed: population + 5 * children evaluations.
GA_GENERATION_CAP = 5


@dataclass
class Checks:
    """Counts correctness checks; keeps a message for each failure."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return bool(ok)


def _read_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def utopia_cost(mu, skew, lam: float, theta: float) -> float:
    """A lower bound on the MVS cost of any long-only, fully invested portfolio.

    Risk is at least 0 and the weighted return and skew terms are at most
    the largest single-asset values, so
    ``cost >= -(1 - lam) * max(mu) - theta * max(skew)``.
    """
    return -(1.0 - lam) * float(np.max(mu)) - theta * float(np.max(skew))


def check_portfolio(checks: Checks, label: str, portfolio: dict, eps, dlt) -> None:
    """K unique assets, weights summing to one, every weight inside its bounds."""
    selection = list(portfolio["selection"])
    weights = np.asarray(portfolio["weights"], dtype=float)
    held = np.zeros(len(weights), dtype=bool)
    held[selection] = True
    eps = np.broadcast_to(np.asarray(eps, dtype=float), weights.shape)
    dlt = np.broadcast_to(np.asarray(dlt, dtype=float), weights.shape)
    checks.check(len(selection) == K and len(set(selection)) == K,
                 f"{label}: holds {K} unique assets (got {selection})")
    checks.check(abs(weights.sum() - 1.0) <= WEIGHT_TOL,
                 f"{label}: weights sum to 1 (got {float(weights.sum())!r})")
    inside = ((weights[held] >= eps[held] - WEIGHT_TOL).all()
              and (weights[held] <= dlt[held] + WEIGHT_TOL).all()
              and (weights[~held] == 0.0).all())
    checks.check(bool(inside), f"{label}: weights respect the per-asset bounds")


class Workload:
    name = ""
    why = ""
    stages: tuple[str, ...] = ()
    heavy_stage = ""          # the stage that dominates the operation
    setup_repeats = 15
    loss_name = ""            # what ``solution_loss`` is on this workload

    def setup(self, directory: Path, seed: int) -> int:
        """Write the inputs into ``directory``; return the price-file rows (or 0)."""
        raise NotImplementedError

    def prepare(self, setup_dir: Path, out: Path) -> None:
        """Put any input artifacts into a fresh output directory (untimed)."""
        out.mkdir(parents=True)

    def check_stage(self, stage: str, stdout: str, checks: Checks) -> None:
        pass

    def verify(self, seed: int, out: Path, checks: Checks) -> tuple[float, dict]:
        """Check the artifacts; return ``(solution loss, extra layer values)``."""
        raise NotImplementedError


class PaperPredict(Workload):
    name = "paper-predict"
    why = ("66 assets x 222 weeks of daily closes through ingest, predict, risk and "
           "metrics: LM training dominates and no GA code runs")
    stages = ("ingest", "predict", "risk", "metrics")
    heavy_stage = "predict"
    setup_repeats = 5
    loss_name = "predict_test_rmse"

    def setup(self, directory: Path, seed: int) -> int:
        directory.mkdir(parents=True)
        rows = inputs.write_prices(directory / "prices.csv", seed)
        inputs.write_config(directory / "run.cfg", {
            "prices_path": (directory / "prices.csv").resolve(),
            "seed": seed,
        })
        return rows

    def check_stage(self, stage: str, stdout: str, checks: Checks) -> None:
        if stage == "ingest":
            expected = f"{inputs.PAPER_ASSETS} assets, {inputs.PAPER_WEEKS - 1} weeks"
            checks.check(expected in stdout, f"ingest reports {expected!r} (got {stdout.strip()!r})")

    def verify(self, seed: int, out: Path, checks: Checks) -> tuple[float, dict]:
        records = _read_json(out / "predictions.json")["records"]
        rmses = []
        finite = True
        for record in records.values():
            real = np.asarray(record["real"], dtype=float)
            predicted = np.asarray(record["predicted"], dtype=float)
            test = np.asarray(record["split_labels"]) == "test"
            finite &= bool(np.isfinite(predicted).all() and np.isfinite(real).all())
            rmses.append(float(np.sqrt(np.mean((real[test] - predicted[test]) ** 2))))
        checks.check(len(records) == inputs.PAPER_ASSETS,
                     f"predictions cover {inputs.PAPER_ASSETS} assets (got {len(records)})")
        checks.check(finite, "predictions are finite")
        try:
            RiskModel.from_json(out / "risk_model.json")  # validates symmetry and PSD
            problem = None
        except (PredfolioError, OSError, ValueError, KeyError) as exc:
            problem = exc
        checks.check(problem is None, f"risk_model.json loads and validates ({problem})")
        return float(np.mean(rmses)), {}


class GAWorkload(Workload):
    """Shared set-up of the GA workloads: a generated risk model and config."""

    def config(self, seed: int) -> dict:
        return {"seed": seed, "generation_cap": GA_GENERATION_CAP,
                "lambda": OPTIMIZE_LAMBDA, "theta": OPTIMIZE_THETA}

    def bounds(self, seed: int):
        return DEFAULT_EPSILON, DEFAULT_DELTA

    def setup(self, directory: Path, seed: int) -> int:
        directory.mkdir(parents=True)
        inputs.write_json(directory / "risk_model.json", inputs.ga_problem(seed)[0])
        inputs.write_config(directory / "run.cfg", self.config(seed))
        return 0

    def prepare(self, setup_dir: Path, out: Path) -> None:
        out.mkdir(parents=True)
        shutil.copyfile(setup_dir / "risk_model.json", out / "risk_model.json")

    def check_optimize(self, seed: int, out: Path, checks: Checks) -> None:
        eps, dlt = self.bounds(seed)
        portfolio = _read_json(out / "portfolio.json")["best"]
        check_portfolio(checks, "optimize portfolio", portfolio, eps, dlt)


class PaperFrontier(GAWorkload):
    name = "paper-frontier"
    why = ("66-asset risk model through optimize and the default 4x3 frontier with 3 "
           "repeats: the GA and objective do all the work, the predictor none")
    stages = ("optimize", "frontier")
    heavy_stage = "frontier"
    loss_name = "frontier_mean_cost_gap"

    def verify(self, seed: int, out: Path, checks: Checks) -> tuple[float, dict]:
        self.check_optimize(seed, out, checks)
        model = _read_json(out / "risk_model.json")
        dump = _read_json(out / "frontier.json")
        points = dump["points"]
        checks.check(len(points) == FRONTIER_POINTS,
                     f"frontier has {FRONTIER_POINTS} points (got {len(points)})")
        checks.check(not dump["failures"], f"frontier has no failures (got {dump['failures']})")
        gaps = []
        for point in points:
            label = f"frontier point lambda={point['lambda']} theta={point['theta']}"
            check_portfolio(checks, label, point["portfolio"], DEFAULT_EPSILON, DEFAULT_DELTA)
            floor = utopia_cost(model["mu"], model["skew"], point["lambda"], point["theta"])
            gaps.append(point["cost"] - floor)
        return float(np.mean(gaps)) if gaps else float("nan"), {}


class TuneBounded(GAWorkload):
    name = "tune-bounded"
    why = ("the 27-row x 3 GA tune, then optimize, under per-asset bounds that make "
           "about 22% of 5-subsets infeasible: every GA operator and the penalty path")
    stages = ("tune", "optimize")
    heavy_stage = "tune"
    loss_name = "tune_mean_cost_gap"

    def config(self, seed: int) -> dict:
        eps, dlt = self.bounds(seed)
        values = super().config(seed)
        values.update(tune_lambda=OPTIMIZE_LAMBDA, tune_theta=OPTIMIZE_THETA,
                      tune_replicates=TUNE_REPLICATES)
        values["epsilon"] = ",".join(repr(v) for v in eps)
        values["delta"] = ",".join(repr(v) for v in dlt)
        return values

    def bounds(self, seed: int):
        return inputs.ga_problem(seed)[1:]

    def verify(self, seed: int, out: Path, checks: Checks) -> tuple[float, dict]:
        self.check_optimize(seed, out, checks)
        model = _read_json(out / "risk_model.json")
        with open(out / "tune_runs.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        costs = np.array([float(row["cost"]) for row in rows])
        expected = TUNE_ROWS * TUNE_REPLICATES
        checks.check(len(rows) == expected, f"tune_runs.csv has {expected} rows (got {len(rows)})")
        checks.check(bool(np.isfinite(costs).all()), "tune run costs are finite")
        tuned = [line for line in (out / "tuned_ga.cfg").read_text(encoding="utf-8").splitlines()
                 if "=" in line]
        checks.check(len(tuned) == 5, f"tuned_ga.cfg has 5 keys (got {len(tuned)})")
        ties = sum(bool(v) for v in _read_json(out / "tune_result.json")["ties"].values())
        floor = utopia_cost(model["mu"], model["skew"], OPTIMIZE_LAMBDA, OPTIMIZE_THETA)
        return float(costs.mean() - floor), {"taguchi.ties": ties}


WORKLOADS = {w.name: w for w in (PaperPredict(), PaperFrontier(), TuneBounded())}
