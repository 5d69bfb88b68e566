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
from dataclasses import asdict, astuple, fields, replace
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import eval_metrics, frontier, market_data, predictor, risk_model, taguchi
from .errors import (
    ConfigError,
    DegenerateInputError,
    InsufficientDataError,
    PredfolioError,
    undecodable_line,
)
from .ga_solver import GAConfig, evolve, stop_summary
from .objective import Bounds, ObjectiveParams
from .predictor import PredictionRecord, PredictorConfig

def _keyed_fields(cls) -> list:
    """Fields of ``PredictorConfig``/``GAConfig`` set by a config key; the
    seed is derived per run from the master ``seed`` instead."""
    return [f for f in fields(cls) if f.name != "seed"]


def _field_defaults(cls) -> dict:
    return {f.name: f.default for f in _keyed_fields(cls)}


# Every key's default; its type is the type the key's value parses to.
# ``min_length``'s None stands for an optional integer, unset when empty.
CONFIG_DEFAULTS = {
    "out_dir": "runs/out",
    "seed": 0,
    "sampling_weekday": "monday",
    "min_length": None,
    **_field_defaults(PredictorConfig),
    "epsilon": (0.1,),
    "delta": (0.3,),
    "k": 5,
    "lambda": 0.5,
    "theta": 0.0,
    "lambda_grid": (1.0, 0.8, 0.2, 0.0),
    "theta_grid": (0.0, 0.2, 0.8),
    **_field_defaults(GAConfig),
    "tune_replicates": 3,
    "tune_lambda": 0.8,
    "tune_theta": 0.2,
    "frontier_repeats": 3,
}


def _numbers(raw: str) -> tuple:
    numbers = tuple(float(p) for p in raw.split(",") if p.strip() != "")
    if not numbers:
        raise ValueError(raw)
    return numbers


# type of a key's default -> (parser of its text, what the error says it must be)
_PARSERS = {
    str: (str, ""),
    int: (int, "an integer"),
    float: (float, "a number"),
    tuple: (_numbers, "a comma list of numbers"),
    type(None): (lambda raw: int(raw) if raw.strip() else None, "an integer"),
}


def _read_config_file(path) -> dict[str, str]:
    values: dict[str, str] = {}
    # utf-8-sig: a byte-order mark, as spreadsheet programs write, is dropped
    with open(path, encoding="utf-8-sig") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                stripped = line.split("#", 1)[0].strip()
                if not stripped:
                    continue
                if "=" not in stripped:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, value = stripped.split("=", 1)
                values[key.strip()] = value.strip()
        except UnicodeDecodeError as exc:
            byte = exc.object[exc.start]
            line = undecodable_line(path)
            raise ConfigError(f"{path}:{line}: not UTF-8 text (byte 0x{byte:02x})")
    return values


class RunConfig:
    """Flat key=value configuration, checked once, when it is built.

    Every value is parsed by the type of its key's default (``config[key]``
    reads it), then checked against its range or value set. Building the
    settings the stages use checks most keys: ``predictor`` and ``ga``
    (seeded with the master ``seed``), ``bounds``, ``params``
    (``lambda``/``theta``), ``tune_params`` (``tune_lambda``/``tune_theta``)
    and each frontier grid point; the rest are checked against the
    constants of the modules that own them.
    """

    def __init__(self, values: dict):
        unknown = set(values) - set(CONFIG_DEFAULTS) - {"prices_path"}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        self.values = dict(CONFIG_DEFAULTS)
        for key, value in values.items():
            # prices_path, the one key without a default, is a path string
            parse, kind = _PARSERS[type(CONFIG_DEFAULTS.get(key, ""))]
            raw = str(value)
            try:
                self.values[key] = parse(raw)
            except ValueError:
                raise ConfigError(f"config key {key!r} must be {kind}, got {raw!r}")

        self.predictor, self.ga = (
            cls(**{f.name: self[f.name] for f in _keyed_fields(cls)}, seed=self["seed"])
            for cls in (PredictorConfig, GAConfig)
        )
        self.bounds = Bounds(epsilon=self._limit("epsilon"), delta=self._limit("delta"))
        self.params = ObjectiveParams(self["lambda"], self["theta"])
        self.tune_params = ObjectiveParams(self["tune_lambda"], self["tune_theta"])
        for lam in self["lambda_grid"]:
            for theta in self["theta_grid"]:
                ObjectiveParams(lam, theta)
        market_data.parse_weekday(self["sampling_weekday"])
        for key, low in (
            ("seed", 0), ("k", 1), ("tune_replicates", 1), ("frontier_repeats", 1), ("min_length", 1)
        ):
            if self[key] is not None and self[key] < low:
                raise ConfigError(f"{key} must be >= {low}, got {self[key]}")

    def __getitem__(self, key: str):
        return self.values[key]

    def hash(self) -> str:
        # hash the parsed semantic parameters only, so neither relocating
        # inputs/outputs nor respelling a value ("0.80" for "0.8") changes
        # the recorded provenance of identical numbers
        semantic = {k: v for k, v in self.values.items() if k not in ("out_dir", "prices_path")}
        return hashlib.sha256(json.dumps(semantic, sort_keys=True).encode()).hexdigest()[:16]

    def _limit(self, key: str):
        parts = self[key]
        return parts[0] if len(parts) == 1 else np.array(parts)


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
    # One line through json.dumps: json.dump, and any indent, would rule out
    # CPython's C encoder, which encodes the largest artifacts twice as fast.
    text = json.dumps(data, sort_keys=True, default=_numpy_to_json)
    with _atomic_open(path) as fh:
        fh.write(text + "\n")


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
        manifest[name] = {"config_hash": config.hash(), "seed": config["seed"]}
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


def _load_stage(out: Path, stage: str, summarize=lambda value: value):
    """Decode the artifact of ``stage`` and ``summarize`` the value; a
    missing or malformed file (one the stage's decoder cannot read, or that
    fails its checks or the summary's) raises an error naming the stage to
    run."""
    artifact = out / STAGES[stage].artifact
    if not artifact.exists():
        raise ConfigError(f"missing {artifact.name}; run the `{stage}` stage first")
    try:
        return summarize(STAGES[stage].decode(artifact))
    except (
        ValueError, LookupError, TypeError, AttributeError, StopIteration, PredfolioError
    ) as exc:
        raise ConfigError(
            f"malformed {artifact} ({exc!r}); re-run the `{stage}` stage"
        ) from exc


def _read_returns_csv(path: Path) -> tuple[list[str], list[dt.date], np.ndarray]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        assets = header[1:]
        repeated = sorted(a for a, n in Counter(assets).items() if n > 1)
        if repeated:
            raise ValueError(f"asset columns repeat: {repeated}")
        dates, rows = [], []
        for row in reader:
            dates.append(dt.date.fromisoformat(row[0]))
            rows.append([float(v) for v in row[1:]])
    matrix = np.array(rows)
    if not dates or matrix.shape != (len(dates), len(assets)):
        raise ValueError(
            f"expected at least one row of {len(assets)} returns, got a {matrix.shape} matrix"
        )
    if any(later <= earlier for earlier, later in zip(dates, dates[1:])):
        raise ValueError("dates are not strictly increasing")
    return assets, dates, matrix


def cmd_ingest(config: RunConfig, out: Path) -> int:
    if "prices_path" not in config.values:
        raise ConfigError("config key 'prices_path' is required for ingest")
    prices_path = Path(config["prices_path"])
    if not prices_path.exists():
        raise ConfigError(f"prices file not found: {prices_path}")

    table = market_data.load_prices(prices_path, config["sampling_weekday"])
    series = []
    skipped: list[tuple[str, str]] = [(a, "no sampled weeks") for a in table.excluded]
    for asset, (dates, closes) in table.series.items():
        if len(dates) < 2:
            skipped.append((asset, "fewer than 2 sampled weeks"))
            continue
        series.append(market_data.compute_returns(asset, dates, closes))
    matrix, report = market_data.align_universe(series, config["min_length"])
    report.dropped = skipped + report.dropped
    # only now, so a refused price file leaves no output directory behind
    out.mkdir(parents=True, exist_ok=True)

    returns_rows = [["date"] + report.kept] + [
        [dt.date.fromordinal(day).isoformat()] + row
        for day, row in zip(report.dates.tolist(), matrix.tolist())
    ]
    _write_artifacts(
        out, config, {"returns.csv": returns_rows, "alignment_report.txt": report.as_text()}
    )
    print(f"{len(report.kept)} assets, {len(report.dates)} weeks")
    return 0


def cmd_predict(config: RunConfig, out: Path, returns) -> int:
    assets, _, matrix = returns
    predictor_dumps = {}
    prediction_dumps = {}
    stops: Counter[str] = Counter()
    for j, asset in enumerate(assets):
        pconfig = replace(config.predictor, seed=_asset_seed(config["seed"], asset))
        split = predictor.split_series(matrix[:, j], pconfig)
        trained = predictor.train_arnn(split, pconfig, asset=asset)
        record = predictor.rolling_predict(trained, split)
        stops[trained.stop_reason] += 1
        predictor_dumps[asset] = trained.to_dict()
        # vars, not asdict, which would deep-copy the record's arrays
        prediction_dumps[asset] = vars(record)
    _write_artifacts(out, config, {
        "predictors.json": {"version": 1, "predictors": predictor_dumps},
        "predictions.json": {"version": 1, "records": prediction_dumps},
    })
    reasons = ", ".join(f"{reason} {n}" for reason, n in sorted(stops.items()))
    print(f"trained {len(assets)} predictors ({reasons})")
    return 0


def _decode_records(path: Path) -> dict[str, PredictionRecord]:
    data = _read_json(path)
    if data.get("version") != 1:
        raise ValueError(f"unsupported predictions version {data.get('version')!r}")
    records = {asset: PredictionRecord.from_dict(r) for asset, r in data["records"].items()}
    misnamed = {asset: r.asset for asset, r in records.items() if r.asset != asset}
    if misnamed:
        raise ValueError(f"records name other assets than their keys: {misnamed}")
    return records


def _check_records_match(records: dict, returns, delay: int) -> None:
    """Refuse predictions made from other returns or under another ``delay``:
    both files must hold the same assets, and each record's ``real`` must be
    its asset's column after the first ``delay`` returns (both store
    ``repr`` floats, so the comparison is exact)."""
    assets, _, matrix = returns
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


def cmd_risk(config: RunConfig, out: Path, returns, records) -> int:
    _check_records_match(records, returns, config["delay"])
    assets, _, matrix = returns
    ordered = [records[a] for a in assets]
    returns_by_asset = {a: matrix[:, j] for j, a in enumerate(assets)}
    model = risk_model.build_risk_model(ordered, returns_by_asset)
    _write_artifacts(out, config, {"risk_model.json": model.to_dict()})
    print(f"risk model over {model.n_assets} assets, window {model.estimation_window}")
    return 0


def cmd_metrics(config: RunConfig, out: Path, returns, records) -> int:
    _check_records_match(records, returns, config["delay"])
    reports = {}
    ks_rows = {}
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused just below
        for asset, record in records.items():
            reports[asset] = eval_metrics.evaluate(record.real, record.predicted)
            try:
                ks = eval_metrics.ks_normality_test(record.errors)
                ks_rows[asset] = asdict(ks)
            except (InsufficientDataError, DegenerateInputError) as exc:
                ks_rows[asset] = {"error": str(exc)}
        summary = eval_metrics.summarize_reports(reports)
    rows = [*map(astuple, reports.values()), *summary, *map(dict.values, ks_rows.values())]
    if not np.isfinite([v for row in rows for v in row if isinstance(v, float)]).all():
        raise ConfigError("predictions.json gives non-finite metrics; re-run the `predict` stage")

    columns = ["n", "me", "signed_me", "rmse", "mape", "mape_skipped", "hr", "hr_plus", "hr_minus"]
    _write_artifacts(out, config, {
        "metrics.csv": [["asset"] + columns] + [
            [asset] + [getattr(reports[asset], c) for c in columns] for asset in sorted(reports)
        ],
        "metrics_summary.csv": [["metric", "mean", "variance", "std"]] + summary,
        "metrics.json": {
            "version": 1,
            "per_asset": {a: asdict(reports[a]) for a in sorted(reports)},
            "ks_errors": {a: ks_rows[a] for a in sorted(ks_rows)},
        },
    })
    print(f"metrics for {len(reports)} assets")
    return 0


def cmd_tune(config: RunConfig, out: Path, model) -> int:
    ga_runs = []
    runner = taguchi.ga_runner(
        model, config.tune_params, config.bounds, config["k"], config.ga, on_result=ga_runs.append
    )
    costs = taguchi.run_experiments(
        runner, replicates=config["tune_replicates"], seed=config["seed"]
    )
    result = taguchi.analyze_means(costs)

    names = list(taguchi.FACTORS)
    _write_artifacts(out, config, {
        "tune_result.json": {"version": 1, **asdict(result)},
        "tune_runs.csv": [["row"] + names + ["replicate", "cost"]] + [
            [row] + list(taguchi.assignment(levels).values()) + [rep, cost]
            for row, (levels, row_costs) in enumerate(zip(taguchi.ARRAY, costs.tolist()))
            for rep, cost in enumerate(row_costs)
        ],
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


def cmd_optimize(config: RunConfig, out: Path, model) -> int:
    params = config.params
    result = evolve(model, params, config.bounds, config["k"], config.ga)

    dump = asdict(result)
    dump["best"]["assets"] = model.assets
    dump.update({"lambda": params.lam, "theta": params.theta})
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


def cmd_frontier(config: RunConfig, out: Path, model) -> int:
    result = frontier.sweep(
        model,
        config.bounds,
        config["k"],
        config.ga,
        lambda_grid=config["lambda_grid"],
        theta_grid=config["theta_grid"],
        repeats=config["frontier_repeats"],
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
            "ga_config": asdict(config.ga),
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


def _summarize_returns(returns) -> dict:
    assets, dates, _ = returns
    return {"assets": len(assets), "weeks": len(dates)}


def _summarize_risk_model(model) -> dict:
    return {"assets": model.n_assets, "estimation_window": model.estimation_window}


def _summarize_portfolio(dump: dict) -> dict:
    return {key: dump[key] for key in ("best_cost", "lambda", "theta", "stop_reason")}


def _summarize_frontier(dump: dict) -> dict:
    return {"points": len(dump["points"]), "failures": len(dump["failures"])}


# report section -> (stage whose artifact it reads, summarizer of the decoded artifact)
REPORT_SECTIONS = {
    "universe": ("ingest", _summarize_returns),
    "risk_model": ("risk", _summarize_risk_model),
    "portfolio": ("optimize", _summarize_portfolio),
    "frontier": ("frontier", _summarize_frontier),
}


def cmd_report(config: RunConfig, out: Path) -> int:
    if not out.is_dir():
        raise ConfigError(f"output directory not found: {out}")
    summary: dict = {"artifacts": _read_manifest(out)}
    for section, (stage, summarize) in REPORT_SECTIONS.items():
        if (out / STAGES[stage].artifact).exists():
            summary[section] = _load_stage(out, stage, summarize)
    _write_json(out / "report.json", summary)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


class Stage(NamedTuple):
    artifact: str | None  # the file of its own that later stages read, through decode
    decode: Callable[[Path], object] | None
    reads: tuple[str, ...]  # the stages whose decoded artifacts run gets, in order
    run: Callable[..., int]  # run(config, out, *inputs)


STAGES = {
    "ingest": Stage("returns.csv", _read_returns_csv, (), cmd_ingest),
    "predict": Stage("predictions.json", _decode_records, ("ingest",), cmd_predict),
    "risk": Stage("risk_model.json", risk_model.RiskModel.from_json, ("ingest", "predict"), cmd_risk),
    "metrics": Stage(None, None, ("ingest", "predict"), cmd_metrics),
    "tune": Stage(None, None, ("risk",), cmd_tune),
    "optimize": Stage("portfolio.json", _read_json, ("risk",), cmd_optimize),
    "frontier": Stage("frontier.json", _read_json, ("risk",), cmd_frontier),
    "report": Stage(None, None, (), cmd_report),
}


def _run_stage(name: str, config: RunConfig) -> int:
    """Run stage ``name`` in the output directory, on what the stages it reads wrote."""
    stage = STAGES[name]
    out = Path(config["out_dir"])
    return stage.run(config, out, *(_load_stage(out, read) for read in stage.reads))


COMMANDS = {name: partial(_run_stage, name) for name in STAGES}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="predfolio",
        description="Prediction-driven mean-variance-skewness portfolio pipeline.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="path to a key=value run config file")
    # each flag's dest is the config key it overrides
    parser.add_argument("--seed", type=int, help="override the master seed")
    parser.add_argument(
        "--out", dest="out_dir", metavar="OUT", help="override the output directory"
    )
    parser.add_argument(
        "--lambda", dest="lambda", metavar="LAM", type=float, help="override lambda"
    )
    parser.add_argument("--theta", type=float, help="override theta")
    parser.add_argument("--k", type=int, help="override the subset size K")
    return parser


def main(argv=None) -> int:
    args = vars(build_parser().parse_args(argv))
    command, path = args.pop("command"), args.pop("config")
    try:
        values = _read_config_file(path) if path else {}
        values.update({key: value for key, value in args.items() if value is not None})
        return COMMANDS[command](RunConfig(values))
    except (PredfolioError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
