"""Command-line pipeline: ingest -> predict -> risk -> metrics -> tune ->
optimize -> frontier -> report.

Stages read and write plain artifacts under one output directory so
expensive steps are cached; every artifact is tracked in a manifest with
the config hash and seed that produced it. Runs are deterministic for a
fixed config and seed.
"""

from __future__ import annotations

import argparse
import csv
import datetime as dt
import hashlib
import json
import os
import sys
import zlib
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import eval_metrics, frontier, market_data, predictor, risk_model, taguchi
from .errors import ConfigError, PredfolioError
from .ga_solver import GAConfig, evolve, stop_summary
from .objective import Bounds, ObjectiveParams
from .predictor import PredictionRecord, PredictorConfig

STAGE_ARTIFACTS = {
    "ingest": "returns.csv",
    "predict": "predictions.json",
    "risk": "risk_model.json",
    "optimize": "portfolio.json",
    "frontier": "frontier.json",
}


def _keyed_fields(cls) -> list:
    """Fields of ``PredictorConfig``/``GAConfig`` set by a config key; the
    seed is derived per run from the master ``seed`` instead."""
    return [f for f in fields(cls) if f.name != "seed"]


def _field_defaults(cls) -> dict[str, str]:
    return {f.name: str(f.default) for f in _keyed_fields(cls)}


CONFIG_DEFAULTS = {
    "out_dir": "runs/out",
    "seed": "0",
    "sampling_weekday": "monday",
    "min_length": "",
    **_field_defaults(PredictorConfig),
    "mu_mode": "one-step",
    "centered_covariance": "false",
    "mape_floor": "1e-12",
    "ks_alpha": "0.05",
    "ks_lilliefors": "true",
    "epsilon": "0.1",
    "delta": "0.3",
    "k": "5",
    "lambda": "0.5",
    "theta": "0.0",
    "lambda_grid": "1,0.8,0.2,0",
    "theta_grid": "0,0.2,0.8",
    "skew_mode": "weighted",
    **_field_defaults(GAConfig),
    "tune_replicates": "3",
    "tune_lambda": "0.8",
    "tune_theta": "0.2",
    "frontier_repeats": "3",
}


class RunConfig:
    """Flat key=value configuration with typed accessors."""

    def __init__(self, values: dict[str, str]):
        unknown = set(values) - set(CONFIG_DEFAULTS) - {"prices_path"}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        self.values = dict(CONFIG_DEFAULTS)
        self.values.update(values)

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        values: dict[str, str] = {}
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                stripped = line.split("#", 1)[0].strip()
                if not stripped:
                    continue
                if "=" not in stripped:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, value = stripped.split("=", 1)
                values[key.strip()] = value.strip()
        return cls(values)

    def override(self, key: str, value) -> None:
        if value is not None:
            self.values[key] = str(value)

    def str_(self, key: str) -> str:
        return self.values[key]

    def int_(self, key: str) -> int:
        try:
            return int(self.values[key])
        except ValueError:
            raise ConfigError(f"config key {key!r} must be an integer, got {self.values[key]!r}")

    def float_(self, key: str) -> float:
        try:
            return float(self.values[key])
        except ValueError:
            raise ConfigError(f"config key {key!r} must be a number, got {self.values[key]!r}")

    def bool_(self, key: str) -> bool:
        raw = self.values[key].strip().lower()
        if raw in ("true", "yes", "1", "on"):
            return True
        if raw in ("false", "no", "0", "off"):
            return False
        raise ConfigError(f"config key {key!r} must be boolean, got {self.values[key]!r}")

    def float_list(self, key: str) -> list[float]:
        raw = self.values[key]
        try:
            return [float(part) for part in raw.split(",") if part.strip() != ""]
        except ValueError:
            raise ConfigError(f"config key {key!r} must be a comma list of numbers, got {raw!r}")

    def optional_int(self, key: str) -> int | None:
        return self.int_(key) if self.values[key].strip() else None

    def hash(self) -> str:
        # hash the semantic parameters only, so relocating inputs/outputs
        # does not change the recorded provenance of identical numbers
        skip = {"out_dir", "prices_path"}
        canon = "\n".join(f"{k}={self.values[k]}" for k in sorted(self.values) if k not in skip)
        return hashlib.sha256(canon.encode()).hexdigest()[:16]

    def out_dir(self) -> Path:
        return Path(self.str_("out_dir"))

    def bounds(self) -> Bounds:
        def parse(key):
            parts = self.float_list(key)
            return parts[0] if len(parts) == 1 else np.array(parts)

        return Bounds(epsilon=parse("epsilon"), delta=parse("delta"))

    def build(self, cls, seed):
        """``cls`` (``PredictorConfig`` or ``GAConfig``) from its keys, each
        parsed by the type of the field's default."""
        parse = {int: self.int_, float: self.float_, str: self.str_}
        values = {f.name: parse[type(f.default)](f.name) for f in _keyed_fields(cls)}
        return cls(**values, seed=seed)


def _asset_seed(master: int, asset: str) -> tuple[int, int]:
    return (master, zlib.crc32(asset.encode()))


@contextmanager
def _atomic_open(path: Path):
    """Open ``path`` for writing through a temp file in the same directory
    that replaces it only when the block completes, so an interrupted or
    failed write leaves the old file (or none) in place."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _numpy_to_json(value):
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _write_json(path: Path, data) -> None:
    with _atomic_open(path) as fh:
        json.dump(data, fh, indent=2, sort_keys=True, default=_numpy_to_json)
        fh.write("\n")


def _read_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _read_manifest(out: Path) -> dict:
    """The manifest's entries, empty when there is no manifest yet."""
    path = out / "manifest.json"
    if not path.exists():
        return {}
    try:
        manifest = _read_json(path)
        if not isinstance(manifest, dict):
            raise ValueError(f"expected a JSON object, got {type(manifest).__name__}")
    except ValueError as exc:
        raise ConfigError(
            f"malformed manifest.json ({exc!r}); delete {path} to start a new one"
        ) from exc
    return manifest


def _update_manifest(out: Path, config: RunConfig, artifacts: list[str]) -> None:
    manifest = _read_manifest(out)
    for name in artifacts:
        manifest[name] = {"config_hash": config.hash(), "seed": config.int_("seed")}
    _write_json(out / "manifest.json", manifest)


def _write_artifacts(out: Path, config: RunConfig, artifacts: dict) -> None:
    """Write one stage's artifacts, then record exactly those names in the
    manifest. Each is encoded by its extension: ``.json`` data as JSON,
    ``.csv`` a list of rows of Python scalars (a float cell is written as
    its ``repr``), anything else as text."""
    for name, payload in artifacts.items():
        path = out / name
        if path.suffix == ".json":
            _write_json(path, payload)
            continue
        with _atomic_open(path) as fh:
            if path.suffix == ".csv":
                csv.writer(fh).writerows(payload)
            else:
                fh.write(payload)
    _update_manifest(out, config, list(artifacts))


def _load_stage(out: Path, stage: str, decode):
    """``decode`` the artifact of ``stage``; a missing or malformed file
    raises an error naming the stage to run."""
    artifact = out / STAGE_ARTIFACTS[stage]
    if not artifact.exists():
        raise ConfigError(f"missing {artifact.name}; run the `{stage}` stage first")
    try:
        return decode(artifact)
    except (ValueError, LookupError, StopIteration) as exc:
        raise ConfigError(
            f"malformed {artifact} ({exc!r}); re-run the `{stage}` stage"
        ) from exc


def _read_returns_csv(path: Path) -> tuple[list[str], list[dt.date], np.ndarray]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        assets = header[1:]
        dates, rows = [], []
        for row in reader:
            dates.append(dt.date.fromisoformat(row[0]))
            rows.append([float(v) for v in row[1:]])
    matrix = np.array(rows)
    if not dates or matrix.shape != (len(dates), len(assets)):
        raise ValueError(
            f"expected at least one row of {len(assets)} returns, got a {matrix.shape} matrix"
        )
    return assets, dates, matrix


def cmd_ingest(config: RunConfig) -> int:
    if "prices_path" not in config.values:
        raise ConfigError("config key 'prices_path' is required for ingest")
    prices_path = Path(config.str_("prices_path"))
    if not prices_path.exists():
        raise ConfigError(f"prices file not found: {prices_path}")
    out = config.out_dir()
    out.mkdir(parents=True, exist_ok=True)

    table = market_data.load_prices(prices_path, config.str_("sampling_weekday"))
    series = []
    skipped: list[tuple[str, str]] = [(a, "no sampled weeks") for a in table.excluded]
    for asset, points in table.points.items():
        if len(points) < 2:
            skipped.append((asset, "fewer than 2 sampled weeks"))
            continue
        series.append(market_data.compute_returns(points))
    universe, report = market_data.align_universe(series, config.optional_int("min_length"))
    report.dropped = skipped + report.dropped

    matrix = universe.returns_matrix()
    returns_rows = [["date"] + universe.assets] + [
        [date.isoformat()] + row for date, row in zip(universe.dates, matrix.tolist())
    ]
    _write_artifacts(
        out, config, {"returns.csv": returns_rows, "alignment_report.txt": report.as_text()}
    )
    print(f"{universe.n_assets} assets, {universe.n_weeks} weeks")
    return 0


def cmd_predict(config: RunConfig) -> int:
    out = config.out_dir()
    assets, _, matrix = _load_stage(out, "ingest", _read_returns_csv)
    master = config.int_("seed")

    predictor_dumps = {}
    prediction_dumps = {}
    stops: Counter[str] = Counter()
    for j, asset in enumerate(assets):
        pconfig = config.build(PredictorConfig, seed=_asset_seed(master, asset))
        split = predictor.split_series(matrix[:, j], pconfig)
        trained = predictor.train_arnn(split, pconfig, asset=asset)
        record = predictor.rolling_predict(trained, matrix[:, j], pconfig)
        stops[trained.stop_reason] += 1
        predictor_dumps[asset] = trained.to_dict()
        prediction_dumps[asset] = asdict(record)
    _write_artifacts(out, config, {
        "predictors.json": {"version": 1, "predictors": predictor_dumps},
        "predictions.json": {"version": 1, "records": prediction_dumps},
    })
    reasons = ", ".join(f"{reason} {n}" for reason, n in sorted(stops.items()))
    print(f"trained {len(assets)} predictors ({reasons})")
    return 0


def _decode_records(path: Path) -> dict[str, PredictionRecord]:
    return {
        asset: PredictionRecord.from_dict(record)
        for asset, record in _read_json(path)["records"].items()
    }


def _check_records_match(records: dict, assets: list[str], matrix: np.ndarray, delay: int) -> None:
    """Refuse predictions made from other returns or under another ``delay``:
    both files must hold the same assets, and each record's ``real`` must be
    its asset's column after the first ``delay`` returns (both store
    ``repr`` floats, so the comparison is exact)."""
    differ = sorted(set(records) ^ set(assets))
    if not differ:
        differ = [
            a for j, a in enumerate(assets)
            if not np.array_equal(records[a].real, matrix[delay:, j])
        ]
    if differ:
        raise ConfigError(
            f"predictions.json does not match returns.csv (assets {differ}, delay {delay});"
            " re-run the `predict` stage"
        )


def cmd_risk(config: RunConfig) -> int:
    out = config.out_dir()
    assets, _, matrix = _load_stage(out, "ingest", _read_returns_csv)
    records = _load_stage(out, "predict", _decode_records)
    _check_records_match(records, assets, matrix, config.int_("delay"))
    ordered = [records[a] for a in assets]
    returns_by_asset = {a: matrix[:, j] for j, a in enumerate(assets)}
    model = risk_model.build_risk_model(
        ordered,
        returns_by_asset,
        mu_mode=config.str_("mu_mode"),
        centered=config.bool_("centered_covariance"),
    )
    _write_artifacts(out, config, {"risk_model.json": model.to_dict()})
    print(f"risk model over {model.n_assets} assets, window {model.estimation_window}")
    return 0


def cmd_metrics(config: RunConfig) -> int:
    out = config.out_dir()
    records = _load_stage(out, "predict", _decode_records)
    floor = config.float_("mape_floor")
    alpha = config.float_("ks_alpha")
    lilliefors = config.bool_("ks_lilliefors")

    reports = {}
    ks_rows = {}
    for asset, record in records.items():
        reports[asset] = eval_metrics.evaluate(record.real, record.predicted, mape_floor=floor)
        try:
            ks = eval_metrics.ks_normality_test(record.errors, alpha=alpha, lilliefors=lilliefors)
            ks_rows[asset] = asdict(ks)
        except PredfolioError as exc:
            ks_rows[asset] = {"error": str(exc)}

    columns = ["n", "me", "signed_me", "rmse", "mape", "mape_skipped", "hr", "hr_plus", "hr_minus"]
    _write_artifacts(out, config, {
        "metrics.csv": [["asset"] + columns] + [
            [asset] + [getattr(reports[asset], c) for c in columns] for asset in sorted(reports)
        ],
        "metrics_summary.csv": [["metric", "mean", "variance", "std"]]
        + eval_metrics.summarize_reports(reports),
        "metrics.json": {
            "version": 1,
            "per_asset": {a: asdict(reports[a]) for a in sorted(reports)},
            "ks_errors": {a: ks_rows[a] for a in sorted(ks_rows)},
        },
    })
    print(f"metrics for {len(reports)} assets")
    return 0


def cmd_tune(config: RunConfig) -> int:
    out = config.out_dir()
    model = _load_stage(out, "risk", risk_model.RiskModel.from_json)
    params = ObjectiveParams(
        lam=config.float_("tune_lambda"),
        theta=config.float_("tune_theta"),
        skew_mode=config.str_("skew_mode"),
    )
    base = config.build(GAConfig, seed=config.int_("seed"))
    ga_runs = []
    runner = taguchi.ga_runner(
        model, params, config.bounds(), config.int_("k"), base, on_result=ga_runs.append
    )
    array = taguchi.build_array()
    runs = taguchi.run_experiments(
        array, runner, replicates=config.int_("tune_replicates"), seed=config.int_("seed")
    )
    result = taguchi.analyze_means(runs, array=array)

    names = taguchi.DEFAULT_FACTORS.names
    run_rows = [["row"] + names + ["replicate", "cost"]]
    for run in runs:
        assignment = taguchi.DEFAULT_FACTORS.assignment(run.levels)
        run_rows += [
            [run.row] + [assignment[name] for name in names] + [rep, cost]
            for rep, cost in enumerate(run.costs)
        ]
    _write_artifacts(out, config, {
        "tune_result.json": {"version": 1, **asdict(result)},
        "tune_runs.csv": run_rows,
        "tune_response.csv": [["factor", "level_1", "level_2", "level_3", "best_level", "tie"]]
        + [
            [name] + result.response_table[name] + [result.best_levels[name], result.ties[name]]
            for name in names
        ],
        "tuned_ga.cfg": "".join(f"{k} = {v}\n" for k, v in result.best_levels.items()),
    })
    print(f"{len(ga_runs)} GA runs ({stop_summary(ga_runs)})")
    print("best levels: " + ", ".join(f"{k}={v}" for k, v in result.best_levels.items()))
    return 0


def cmd_optimize(config: RunConfig) -> int:
    out = config.out_dir()
    model = _load_stage(out, "risk", risk_model.RiskModel.from_json)
    params = ObjectiveParams(
        lam=config.float_("lambda"),
        theta=config.float_("theta"),
        skew_mode=config.str_("skew_mode"),
    )
    ga_config = config.build(GAConfig, seed=config.int_("seed"))
    result = evolve(model, params, config.bounds(), config.int_("k"), ga_config)

    dump = asdict(result)
    dump["best"]["assets"] = model.assets
    dump.update({"lambda": params.lam, "theta": params.theta, "skew_mode": params.skew_mode})
    _write_artifacts(out, config, {
        "portfolio.json": dump,
        "ga_trace.csv": [["generation", "best_cost", "mean_cost"]]
        + [[gen, best, mean] for gen, (best, mean)
           in enumerate(zip(result.cost_history, result.mean_history))],
    })
    print(
        f"best cost {result.best_cost:.6g} after {result.generations} generations"
        f" ({result.stop_reason})"
    )
    return 0


def cmd_frontier(config: RunConfig) -> int:
    out = config.out_dir()
    model = _load_stage(out, "risk", risk_model.RiskModel.from_json)
    ga_config = config.build(GAConfig, seed=config.int_("seed"))
    result = frontier.sweep(
        model,
        config.bounds(),
        config.int_("k"),
        ga_config,
        lambda_grid=config.float_list("lambda_grid"),
        theta_grid=config.float_list("theta_grid"),
        skew_mode=config.str_("skew_mode"),
        repeats=config.int_("frontier_repeats"),
    )
    curve = frontier.efficient_filter(result.points)

    point_dumps = [asdict(point) for point in result.points]
    for dump in point_dumps:
        dump["lambda"] = dump.pop("lam")
        dump["portfolio"]["assets"] = model.assets
    _write_artifacts(out, config, {
        "frontier.csv": [
            ["lambda", "theta"] + model.assets + ["mu_p", "sigma_p", "cost", "stop_reason", "seed"]
        ] + [
            [p.lam, p.theta] + p.portfolio.weights.tolist()
            + [p.mu_p, p.sigma_p, p.cost, p.stop_reason, "-".join(str(s) for s in p.seed)]
            for p in result.points
        ],
        "frontier_curve.csv": [["sigma_p", "mu_p"]] + [[p.sigma_p, p.mu_p] for p in curve],
        "frontier.json": {
            "version": 1,
            "points": point_dumps,
            "failures": result.failures,
            "ga_config": asdict(ga_config),
        },
    })
    print(
        f"{len(result.points)} frontier points, {len(result.failures)} failures"
        f" ({stop_summary(result.runs)})"
    )
    if result.failures:
        for failure in result.failures:
            print(
                f"failed at lambda={failure['lambda']} theta={failure['theta']}: "
                f"{failure['error']}",
                file=sys.stderr,
            )
        return 1
    return 0


def _summarize_returns(path: Path) -> dict:
    assets, dates, _ = _read_returns_csv(path)
    return {"assets": len(assets), "weeks": len(dates)}


def _summarize_risk_model(path: Path) -> dict:
    model = risk_model.RiskModel.from_json(path)
    return {"assets": model.n_assets, "estimation_window": model.estimation_window}


def _summarize_portfolio(path: Path) -> dict:
    dump = _read_json(path)
    return {key: dump[key] for key in ("best_cost", "lambda", "theta", "stop_reason")}


def _summarize_frontier(path: Path) -> dict:
    dump = _read_json(path)
    return {"points": len(dump["points"]), "failures": len(dump["failures"])}


# report section -> (stage whose artifact it reads, summarizer)
REPORT_SECTIONS = {
    "universe": ("ingest", _summarize_returns),
    "risk_model": ("risk", _summarize_risk_model),
    "portfolio": ("optimize", _summarize_portfolio),
    "frontier": ("frontier", _summarize_frontier),
}


def cmd_report(config: RunConfig) -> int:
    out = config.out_dir()
    summary: dict = {"artifacts": _read_manifest(out)}
    for section, (stage, summarize) in REPORT_SECTIONS.items():
        if (out / STAGE_ARTIFACTS[stage]).exists():
            summary[section] = _load_stage(out, stage, summarize)
    _write_json(out / "report.json", summary)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


COMMANDS = {
    "ingest": cmd_ingest,
    "predict": cmd_predict,
    "risk": cmd_risk,
    "metrics": cmd_metrics,
    "tune": cmd_tune,
    "optimize": cmd_optimize,
    "frontier": cmd_frontier,
    "report": cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="predfolio",
        description="Prediction-driven mean-variance-skewness portfolio pipeline.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="path to a key=value run config file")
    parser.add_argument("--seed", type=int, help="override the master seed")
    parser.add_argument("--out", help="override the output directory")
    parser.add_argument("--lambda", dest="lam", type=float, help="override lambda")
    parser.add_argument("--theta", type=float, help="override theta")
    parser.add_argument("--k", type=int, help="override the subset size K")
    parser.add_argument(
        "--time-limit", type=float, help="override the GA time limit in seconds"
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = RunConfig.from_file(args.config) if args.config else RunConfig({})
        config.override("seed", args.seed)
        config.override("out_dir", args.out)
        config.override("lambda", args.lam)
        config.override("theta", args.theta)
        config.override("k", args.k)
        config.override("time_limit_seconds", args.time_limit)
        return COMMANDS[args.command](config)
    except (PredfolioError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
