from __future__ import annotations

import codecs
import csv
import json
import os
import re
import shutil
import subprocess
import sys
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest

import predfolio
from predfolio.cli import (
    CONFIG_DEFAULTS, STAGES, RunConfig, _read_config_file, _write_json, main
)
from predfolio.errors import ConfigError
from predfolio.ga_solver import GAConfig
from predfolio.predictor import PredictorConfig
from predfolio.taguchi import FACTORS

from conftest import geometric_walk, write_prices_csv

PIPELINE_KEYS = """
delay = 5
hidden_units = 3
max_epochs = 60
k = 3
epsilon = 0.05
delta = 0.6
population_size = 40
stall_generations = 8
generation_cap = 40
lambda_grid = 1,0
theta_grid = 0
frontier_repeats = 1
lambda = 0.5
theta = 0.2
seed = 99
"""


def write_config(tmp_path, prices_path, out_dir, extra: str = PIPELINE_KEYS) -> str:
    path = tmp_path / "run.cfg"
    text = f"prices_path = {prices_path}\nout_dir = {out_dir}\n{extra}"
    path.write_text(text, encoding="utf-8")
    return str(path)


def make_demo_prices(tmp_path, n_assets=5, n_weeks=60, seed=7):
    rng = np.random.default_rng(seed)
    closes = {
        f"AST{i}": list(geometric_walk(rng, n_weeks, drift=0.002 * (i + 1), vol=0.03))
        for i in range(n_assets)
    }
    return write_prices_csv(tmp_path / "prices.csv", closes)


@pytest.fixture
def pipeline(tmp_path):
    prices = make_demo_prices(tmp_path)
    out = tmp_path / "out"
    config = write_config(tmp_path, prices, out)
    return config, out


def test_run_config_parsing_and_overrides(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("seed = 7\nk = 4  # inline comment\n\n# full comment\n", encoding="utf-8")
    config = RunConfig(_read_config_file(path))
    assert config["seed"] == 7
    assert config["k"] == 4
    # a flag's value arrives typed and is parsed like the file's text
    assert RunConfig({"seed": 11})["seed"] == 11
    assert config["lambda_grid"] == (1.0, 0.8, 0.2, 0.0)
    assert config["min_length"] is None
    assert RunConfig({"min_length": "30"})["min_length"] == 30
    # the hash is over parsed values: a respelled number is the same config
    assert RunConfig({"lambda": "0.80"}).hash() == RunConfig({"lambda": "0.8"}).hash()
    assert RunConfig({"lambda": "0.7"}).hash() != RunConfig({"lambda": "0.8"}).hash()
    assert RunConfig({"out_dir": "elsewhere"}).hash() == RunConfig({}).hash()


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("k", "five", "must be an integer, got 'five'"),
        ("min_length", "3.5", "must be an integer, got '3.5'"),
        ("lambda", "high", "must be a number, got 'high'"),
        ("lambda_grid", "1,x", "must be a comma list of numbers, got '1,x'"),
    ],
)
def test_run_config_refuses_a_malformed_value_when_it_loads(key, value, message):
    with pytest.raises(ConfigError, match=f"^config key '{key}' {message}$"):
        RunConfig({key: value})


# Keys that configs once accepted: the split's three fractions, the LM
# damping schedule, centered error covariance, the plain KS threshold, the
# MAPE zero guard, the GA's stall tolerance, mutation swap rate and
# tournament size, the expected-return rule, the KS level and the skew term.
RETIRED_KEYS = {
    "test_frac": "0.15", "lm_initial_damping": "1e-3", "lm_damping_factor": "10",
    "centered_covariance": "false", "ks_lilliefors": "true", "mape_floor": "1e-12",
    "function_tolerance": "1e-6", "mutation_swap_rate": "0.1", "tournament_size": "3",
    "mu_mode": "mean", "ks_alpha": "0.05", "skew_mode": "weighted", "train_frac": "0.7",
    "val_frac": "0.15",
}


def test_run_config_rejects_unknown_keys(tmp_path, capsys):
    path = tmp_path / "c.cfg"
    path.write_text("no_such_key = 1\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        RunConfig(_read_config_file(path))
    prices = make_demo_prices(tmp_path, n_assets=2, n_weeks=30)
    for key, value in {"no_such_key": "1", **RETIRED_KEYS}.items():
        config = write_config(tmp_path, prices, tmp_path / "out", f"{key} = {value}\n")
        capsys.readouterr()
        assert main(["ingest", "--config", config]) == 1, key
        assert capsys.readouterr().err == f"error: unknown config keys: [{key!r}]\n"
        assert not (tmp_path / "out").exists()


def test_run_config_defaults_are_the_dataclass_defaults():
    config = RunConfig({})
    assert config.ga == GAConfig(seed=0)
    assert config.predictor == PredictorConfig(seed=0)


# Valid values other than the defaults, one change per entry.
CHANGED_FIELDS = {
    PredictorConfig: [
        {"delay": 7}, {"hidden_units": 3}, {"max_epochs": 20},
    ],
    GAConfig: [
        {"population_size": 60}, {"crossover_fraction": 0.6}, {"crossover_kind": "two-point"},
        {"selection_kind": "tournament"}, {"penalty_factor": 50.0}, {"stall_generations": 20},
        {"generation_cap": 100},
    ],
}


@pytest.mark.parametrize("cls", [GAConfig, PredictorConfig])
def test_run_config_every_dataclass_field_is_read(cls):
    attr = {GAConfig: "ga", PredictorConfig: "predictor"}[cls]
    changes = CHANGED_FIELDS[cls]
    keyed = {field.name for field in fields(cls)} - {"seed"}
    assert {name for change in changes for name in change} == keyed
    default = cls(seed=5)
    for change in changes:
        assert all(getattr(default, name) != value for name, value in change.items()), change
        values = {name: str(value) for name, value in change.items()}
        built = getattr(RunConfig({**values, "seed": "5"}), attr)
        assert built == replace(default, **change), change


def readme_config_section() -> str:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return readme.split("## Configuration keys", 1)[1].split("\n## ", 1)[0]


def test_readme_lists_every_config_key():
    documented = set(re.findall(r"`([a-z_]+)`", readme_config_section()))
    assert set(CONFIG_DEFAULTS) | {"prices_path"} <= documented


def readme_default(text: str) -> str:
    """The default at the start of a README parenthesis: a backticked
    value, a bare word or number, or ``empty``."""
    text = text.strip()
    if text.startswith("`"):
        return text[1:].split("`", 1)[0]
    word = re.split(r"[;:,\s]", text, maxsplit=1)[0]
    return "" if word == "empty" else word


def test_readme_defaults_match_config_defaults():
    pairs = re.findall(r"`([a-z_]+)`\s+\(([^()]*)\)", readme_config_section())
    # every documented key is a config key; prices_path has no default
    assert {key for key, _ in pairs} <= set(CONFIG_DEFAULTS) | {"prices_path"}
    documented = [(key, readme_default(text)) for key, text in pairs if key != "prices_path"]
    counts = Counter(key for key, _ in documented)
    assert set(counts) == set(CONFIG_DEFAULTS)
    assert max(counts.values()) == 1
    for key, value in documented:
        assert RunConfig({key: value})[key] == CONFIG_DEFAULTS[key], key


def test_ingest_summary_and_artifacts(tmp_path, capsys):
    prices = make_demo_prices(tmp_path, n_assets=2, n_weeks=30)
    out = tmp_path / "out"
    config = write_config(tmp_path, prices, out)
    assert main(["ingest", "--config", config]) == 0
    assert "2 assets, 29 weeks" in capsys.readouterr().out
    assert (out / "returns.csv").exists()
    assert (out / "alignment_report.txt").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert "returns.csv" in manifest
    assert manifest["returns.csv"]["seed"] == 99


def test_ingest_missing_file_fails_with_path(tmp_path, capsys):
    config = write_config(tmp_path, tmp_path / "absent.csv", tmp_path / "out")
    assert main(["ingest", "--config", config]) == 1
    assert "absent.csv" in capsys.readouterr().err


@pytest.mark.parametrize("mistake", [
    "config is a directory", "prices_path is a directory", "out is an existing file",
])
def test_a_path_mistake_gives_one_error_line_and_writes_nothing(tmp_path, capsys, mistake):
    folder, taken = tmp_path / "folder", tmp_path / "taken"
    folder.mkdir()
    taken.write_text("kept\n", encoding="utf-8")
    prices = folder if mistake == "prices_path is a directory" else make_demo_prices(tmp_path)
    config = write_config(tmp_path, prices, tmp_path / "out")
    argv, offender = {
        "config is a directory": (["ingest", "--config", str(folder)], folder),
        "prices_path is a directory": (["ingest", "--config", config], folder),
        "out is an existing file": (["ingest", "--config", config, "--out", str(taken)], taken),
    }[mistake]
    before = sorted(tmp_path.rglob("*"))
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(offender) in err
    assert sorted(tmp_path.rglob("*")) == before
    assert taken.read_text(encoding="utf-8") == "kept\n"


def test_ingest_refuses_a_price_file_that_is_not_utf8(tmp_path, capsys):
    prices = tmp_path / "prices.csv"
    prices.write_bytes(b"date,asset,close\n2024-01-01,AAA,100\n2024-01-08,AAA,1\xff0\n")
    config = write_config(tmp_path, prices, tmp_path / "out")
    assert main(["ingest", "--config", config]) == 1
    assert capsys.readouterr().err == "error: line 3: not UTF-8 text (byte 0xff)\n"
    assert not (tmp_path / "out" / "returns.csv").exists()


@pytest.mark.parametrize("rows, message", [
    ("2024-01-01,AAA,100\n2024-01-08,AAA,x\n", "error: line 3: non-numeric close 'x'\n"),
    ("2024-01-01,AAA,100\n", "error: no return series supplied\n"),
], ids=["non-numeric close", "no returns"])
def test_a_refused_price_file_leaves_no_output_directory(tmp_path, capsys, rows, message):
    prices = tmp_path / "prices.csv"
    prices.write_text("date,asset,close\n" + rows, encoding="utf-8")
    config = write_config(tmp_path, prices, tmp_path / "new" / "out")
    assert main(["ingest", "--config", config]) == 1
    assert capsys.readouterr().err == message
    assert not (tmp_path / "new").exists()


def test_config_that_is_not_utf8_is_a_clean_error(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"seed = 1\r\n# caf\xe9\r\nk = 3\r\n")
    assert main(["optimize", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}:2: not UTF-8 text (byte 0xe9)\n"


def test_a_byte_order_mark_starts_a_price_file_or_config_harmlessly(tmp_path, capsys):
    prices = make_demo_prices(tmp_path, n_assets=2, n_weeks=30)
    plain = write_config(tmp_path, prices, tmp_path / "plain")
    assert main(["ingest", "--config", plain]) == 0
    # as spreadsheet programs save "CSV UTF-8"
    bom_prices = tmp_path / "bom-prices.csv"
    bom_prices.write_bytes(codecs.BOM_UTF8 + prices.read_bytes())
    bom_config = tmp_path / "bom.cfg"
    bom_config.write_bytes(codecs.BOM_UTF8 + (
        f"prices_path = {bom_prices}\nout_dir = {tmp_path / 'bom'}\n{PIPELINE_KEYS}"
    ).encode())
    assert main(["ingest", "--config", str(bom_config)]) == 0
    returns = (tmp_path / "bom" / "returns.csv").read_bytes()
    assert returns == (tmp_path / "plain" / "returns.csv").read_bytes()
    bom_config.write_bytes(codecs.BOM_UTF8 + b"seed = 1\n# caf\xe9\n")
    capsys.readouterr()
    assert main(["optimize", "--config", str(bom_config)]) == 1
    assert capsys.readouterr().err == f"error: {bom_config}:2: not UTF-8 text (byte 0xe9)\n"


def test_ingest_paper_scale_echo(tmp_path, capsys):
    rng = np.random.default_rng(0)
    closes = {f"S{i:02d}": list(geometric_walk(rng, 222, vol=0.02)) for i in range(66)}
    prices = write_prices_csv(tmp_path / "big.csv", closes)
    config = write_config(tmp_path, prices, tmp_path / "out")
    assert main(["ingest", "--config", config]) == 0
    assert "66 assets, 221 weeks" in capsys.readouterr().out


def test_stage_order_enforced(pipeline, capsys):
    config, _ = pipeline
    assert main(["optimize", "--config", config]) == 1
    err = capsys.readouterr().err
    assert "risk" in err
    assert main(["predict", "--config", config]) == 1
    err = capsys.readouterr().err
    assert "ingest" in err


class Edit(NamedTuple):
    """A change to the JSON artifact the pipeline wrote, and what the error
    that refuses the changed file must say."""

    change: Callable[[dict], None]
    says: str


def _first_record(data: dict) -> dict:
    return next(iter(data["records"].values()))


def _drop_last_prediction(data: dict) -> None:
    _first_record(data)["predicted"].pop()


def _nan_in_record(key: str):
    def change(data: dict) -> None:
        _first_record(data)[key][1] = float("nan")
    return change


def _nan_in_model(key: str):
    def change(data: dict) -> None:
        data[key][1] = float("nan")
    return change


def _name_first_record(asset):
    def change(data: dict) -> None:
        _first_record(data)["asset"] = asset
    return change


EDITS = [
    pytest.param(stage, artifact, Edit(change, says), id=f"{stage}-{artifact}-{name}")
    for stage, artifact, name, change, says in [
        ("risk", "predictions.json", "short-predicted", _drop_last_prediction,
         "real, predicted and split_labels differ in length"),
        ("risk", "predictions.json", "nan-predicted", _nan_in_record("predicted"), "non-finite"),
        ("risk", "predictions.json", "nan-real", _nan_in_record("real"), "non-finite"),
        ("metrics", "predictions.json", "nan-predicted", _nan_in_record("predicted"),
         "non-finite"),
        ("risk", "predictions.json", "other-asset", _name_first_record("AST1"),
         "records name other assets than their keys: {'AST0': 'AST1'}"),
        ("risk", "predictions.json", "list-asset", _name_first_record(["AST0"]),
         "records name other assets than their keys: {'AST0': ['AST0']}"),
        ("risk", "predictions.json", "no-version", lambda data: data.pop("version"),
         "unsupported predictions version None"),
        *[
            (stage, "risk_model.json", f"nan-{key}", _nan_in_model(key), f"non-finite {key}")
            for stage in ("optimize", "frontier")
            for key in ("mu", "sigma", "skew")
        ],
    ]
]


@pytest.mark.parametrize(
    "stage, artifact, text",
    [
        ("risk", "predictions.json", '{"version": 1, "records": {"AST0": {"asset": "AS'),
        ("metrics", "predictions.json", '{"version": 1}'),
        ("optimize", "risk_model.json", '{"version": 1, "assets": ["A"]}'),
        ("predict", "returns.csv", "date,AST0\n2024-01-08,0.0x\n"),
        ("predict", "returns.csv", "date,AST0\n"),
        ("predict", "returns.csv", "date,AST0,AST1\n2024-01-08,0.01\n"),
        ("predict", "returns.csv", "date,AST0,AST0\n2024-01-08,0.01,0.02\n"),
        ("report", "portfolio.json", "{"),
        ("report", "portfolio.json", '{"version": 1}'),
        pytest.param("predict", "returns.csv", "date,AST0\n2024-01-08,0.01\n2024-01-08,0.02\n",
                     id="predict-returns.csv-repeated-date"),
        ("risk", "predictions.json", '{"records": []}'),
        ("metrics", "predictions.json", "[]"),
        ("metrics", "predictions.json", '{"records": {"STK0": 5}}'),
        ("optimize", "risk_model.json", "[]"),
        *[
            ("optimize", "risk_model.json", json.dumps({
                "version": 1, "assets": ["A", "B"], "mu": [0.01, 0.02],
                "sigma": [1e-3, 0.0, 0.0, 1e-3], "skew": [0.0, 0.0], "estimation_window": 10,
                **change,
            }))
            for change in (
                {"sigma": [1e-3, 2e-4, 0.0, 1e-3]},  # not symmetric
                {"version": 2},
                {"mu": [0.01]},  # sizes disagree
            )
        ],
        *EDITS,
    ],
)
def test_malformed_artifact_is_a_clean_error(pipeline, capsys, stage, artifact, text):
    config, out = pipeline
    for earlier in ("ingest", "predict", "risk"):
        assert main([earlier, "--config", config]) == 0
    says = ""
    if isinstance(text, Edit):
        data = json.loads((out / artifact).read_text(encoding="utf-8"))
        text.change(data)
        text, says = json.dumps(data), text.says
    (out / artifact).write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert main([stage, "--config", config]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: malformed ")
    assert artifact in err
    assert says in err
    producer = next(name for name, stage in STAGES.items() if stage.artifact == artifact)
    assert f"re-run the `{producer}` stage" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("stage, change", [
    pytest.param(stage, change, id=change if stage == "risk" else f"{stage}-{change}")
    for stage in ("risk", "metrics")
    for change in ("extra asset", "re-ingested", "other delay", "dropped record")
])
def test_risk_refuses_predictions_of_other_returns(tmp_path, pipeline, capsys, stage, change):
    config, out = pipeline
    for earlier in ("ingest", "predict"):
        assert main([earlier, "--config", config]) == 0
    if change == "extra asset":
        lines = (out / "returns.csv").read_text(encoding="utf-8").splitlines()
        lines = [lines[0] + ",EXTRA"] + [line + ",0.0" for line in lines[1:]]
        (out / "returns.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    elif change == "other delay":
        text = Path(config).read_text(encoding="utf-8")
        Path(config).write_text(text.replace("delay = 5", "delay = 8"), encoding="utf-8")
    elif change == "dropped record":
        data = json.loads((out / "predictions.json").read_text(encoding="utf-8"))
        del data["records"]["AST3"]
        (out / "predictions.json").write_text(json.dumps(data), encoding="utf-8")
    else:
        make_demo_prices(tmp_path, n_weeks=50)
        assert main(["ingest", "--config", config]) == 0
    before = snapshot(out)
    capsys.readouterr()
    assert main([stage, "--config", config]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: predictions.json does not match returns.csv (")
    assert err.rstrip().endswith("re-run the `predict` stage")
    assert snapshot(out) == before


def test_risk_refuses_predictions_whose_errors_overflow_sigma(pipeline, capsys):
    config, out = pipeline
    for earlier in ("ingest", "predict"):
        assert main([earlier, "--config", config]) == 0
    data = json.loads((out / "predictions.json").read_text(encoding="utf-8"))
    data["records"]["AST0"]["predicted"][0] = 1e308
    data["records"]["AST1"]["predicted"][0] = -1e308
    (out / "predictions.json").write_text(json.dumps(data), encoding="utf-8")
    before = snapshot(out)
    capsys.readouterr()
    assert main(["risk", "--config", config]) == 1
    err = capsys.readouterr().err
    assert err == "error: risk model has a non-finite sigma\n"
    assert snapshot(out) == before


@pytest.mark.parametrize("error", [
    pytest.param(1e308, id="squares-overflow"),
    # at the smallest |real| the error's square stays finite, but MAPE's
    # variance across assets overflows
    pytest.param(1.3e154, id="mape-variance-overflows"),
])
def test_metrics_refuses_predictions_whose_metrics_overflow(pipeline, capsys, error):
    config, out = pipeline
    for earlier in ("ingest", "predict"):
        assert main([earlier, "--config", config]) == 0
    data = json.loads((out / "predictions.json").read_text(encoding="utf-8"))
    record = data["records"]["AST0"]
    smallest = int(np.argmin(np.abs(record["real"])))
    record["predicted"][smallest] = record["real"][smallest] - error
    (out / "predictions.json").write_text(json.dumps(data), encoding="utf-8")
    before = snapshot(out)
    capsys.readouterr()
    assert main(["metrics", "--config", config]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: predictions.json gives non-finite metrics; re-run the `predict` stage\n"
    )
    assert snapshot(out) == before


def snapshot(directory: Path) -> dict:
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


@pytest.fixture(scope="module")
def finished_pipeline(tmp_path_factory):
    """A pipeline run through every stage but ``tune``, shared read-only."""
    tmp_path = tmp_path_factory.mktemp("finished")
    prices = make_demo_prices(tmp_path)
    out = tmp_path / "out"
    config = write_config(tmp_path, prices, out)
    for stage in STAGES:
        if stage != "tune":
            assert main([stage, "--config", config]) == 0, stage
    return tmp_path, prices, out


@pytest.mark.parametrize(
    "stage, read", [(stage, read) for stage, declared in STAGES.items() for read in declared.reads]
)
def test_a_stage_refuses_to_run_without_an_artifact_it_reads(
    finished_pipeline, tmp_path, capsys, stage, read
):
    out = tmp_path / "out"
    shutil.copytree(finished_pipeline[2], out)
    artifact = STAGES[read].artifact
    (out / artifact).unlink()
    before = snapshot(out)
    capsys.readouterr()
    assert main([stage, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: missing {artifact}; run the `{read}` stage first\n"
    assert snapshot(out) == before


@pytest.mark.parametrize("lines, message", [
    pytest.param("k = five", "config key 'k' must be an integer, got 'five'",
                 id="k-five-an integer"),
    pytest.param("ks_lilliefors = false", "unknown config keys: ['ks_lilliefors']",
                 id="ks_lilliefors-retired"),
    pytest.param("time_limit_seconds = 1000", "unknown config keys: ['time_limit_seconds']",
                 id="time_limit_seconds-retired"),
    pytest.param("mu_mode = bogus", "unknown config keys: ['mu_mode']", id="mu_mode-bogus"),
    pytest.param("ks_alpha = 0.5", "unknown config keys: ['ks_alpha']", id="ks_alpha-0.5"),
    pytest.param("skew_mode = bogus", "unknown config keys: ['skew_mode']", id="skew_mode-bogus"),
    pytest.param("train_frac = 0.6", "unknown config keys: ['train_frac']", id="train_frac-0.6"),
    pytest.param("val_frac = 0.1", "unknown config keys: ['val_frac']", id="val_frac-0.1"),
    pytest.param("frontier_repeats = x", "config key 'frontier_repeats' must be an integer, got 'x'",
                 id="frontier_repeats-x-an integer"),
    *[
        pytest.param(f"{key} = bogus", message, id=f"{key}-bogus")
        for key, message in [
            ("sampling_weekday", "unknown weekday name: 'bogus'"),
            ("selection_kind", "unknown selection kind 'bogus'"),
            ("crossover_kind", "unknown crossover kind 'bogus'"),
        ]
    ],
    pytest.param("delay = 0", "delay must be >= 1, got 0", id="delay-0"),
    pytest.param("lambda = 1.5", "lambda must lie in [0, 1], got 1.5", id="lambda-1.5"),
    pytest.param("lambda_grid = 1,1.5", "lambda must lie in [0, 1], got 1.5",
                 id="lambda_grid-1,1.5"),
    pytest.param("tune_theta = -1", "theta must be >= 0, got -1.0", id="tune_theta--1"),
    pytest.param("lambda_grid =", "config key 'lambda_grid' must be a comma list of numbers,"
                 " got ''", id="lambda_grid-empty"),
    pytest.param("epsilon = 0.6\ndelta = 0.5", "every lower limit must be below its upper limit",
                 id="epsilon-0.6-delta-0.5"),
    pytest.param("tune_replicates = 0", "tune_replicates must be >= 1, got 0",
                 id="tune_replicates-0"),
    pytest.param("frontier_repeats = 0", "frontier_repeats must be >= 1, got 0",
                 id="frontier_repeats-0"),
    pytest.param("seed = -1", "seed must be >= 0, got -1", id="seed--1"),
    pytest.param("k = 0", "k must be >= 1, got 0", id="k-0"),
    pytest.param("min_length = 0", "min_length must be >= 1, got 0", id="min_length-0"),
    # non-finite numbers, which fail every range check
    *[
        pytest.param(line, message, id=line.replace(" = ", "-").replace("\n", "-"))
        for line, message in [
            ("theta = nan", "theta must be >= 0, got nan"),
            ("theta = inf", "theta must be finite, got inf"),
            ("tune_theta = nan", "theta must be >= 0, got nan"),
            ("tune_theta = inf", "theta must be finite, got inf"),
            ("theta_grid = 0,nan", "theta must be >= 0, got nan"),
            ("theta_grid = inf", "theta must be finite, got inf"),
            ("epsilon = nan", "lower limits must lie in [0, 1)"),
            ("delta = nan", "upper limits must lie in (0, 1]"),
            *[
                (f"penalty_factor = {value}",
                 f"penalty_factor must be finite and > 0, got {float(value)}")
                for value in ("nan", "inf", "-inf", "-1", "0")
            ],
        ]
    ],
    pytest.param("crossover_fraction = 0", "crossover_fraction 0.0 of population_size 40"
                 " makes no children per generation", id="crossover_fraction-0"),
    pytest.param("population_size = 2\ncrossover_fraction = 0.2", "crossover_fraction 0.2 of"
                 " population_size 2 makes no children per generation",
                 id="population_size-2-crossover_fraction-0.2"),
])
@pytest.mark.parametrize("stage", STAGES)
def test_every_stage_refuses_a_malformed_key_before_it_writes(
    finished_pipeline, capsys, stage, lines, message
):
    tmp_path, prices, out = finished_pipeline
    config = tmp_path / "bad.cfg"
    config.write_text(
        f"prices_path = {prices}\nout_dir = {out}\n{PIPELINE_KEYS}{lines}\n", encoding="utf-8"
    )
    before = snapshot(out)
    capsys.readouterr()
    assert main([stage, "--config", str(config)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert snapshot(out) == before


def test_malformed_manifest_is_a_clean_error(pipeline, capsys):
    config, out = pipeline
    assert main(["ingest", "--config", config]) == 0
    (out / "manifest.json").write_text('{"returns.csv": ', encoding="utf-8")
    capsys.readouterr()
    for stage in ("predict", "report"):
        assert main([stage, "--config", config]) == 1, stage
        err = capsys.readouterr().err
        assert err.startswith("error: malformed manifest.json ("), stage
        assert "Traceback" not in err


def test_manifest_must_be_an_object(pipeline, capsys):
    config, out = pipeline
    assert main(["ingest", "--config", config]) == 0
    (out / "manifest.json").write_text("[]\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["report", "--config", config]) == 1
    assert capsys.readouterr().err.startswith("error: malformed manifest.json (")


def test_report_names_a_missing_output_directory(tmp_path, capsys):
    out = tmp_path / "nowhere"
    assert main(["report", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: output directory not found: {out}\n"
    assert not out.exists()


def test_failed_write_leaves_the_old_file(tmp_path):
    path = tmp_path / "artifact.json"
    _write_json(path, {"kept": [1, 2, 3]})
    before = path.read_bytes()
    with pytest.raises(TypeError):
        _write_json(path, {"a": list(range(1000)), "z": object()})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["artifact.json"]


def test_predict_reports_stop_reasons(pipeline, capsys):
    config, out = pipeline
    assert main(["ingest", "--config", config]) == 0
    capsys.readouterr()
    assert main(["predict", "--config", config]) == 0
    line = capsys.readouterr().out.strip()
    dumps = json.loads((out / "predictors.json").read_text())["predictors"]
    stops = Counter(dump["stop_reason"] for dump in dumps.values())
    reasons = ", ".join(f"{reason} {n}" for reason, n in sorted(stops.items()))
    assert line == f"trained 5 predictors ({reasons})"
    assert set(stops) <= {"gradient", "no-accepted-step", "ftol", "max-fail", "max-epochs"}


def test_full_pipeline_and_artifacts(pipeline, capsys):
    config, out = pipeline
    for stage in ("ingest", "predict", "risk", "metrics", "optimize", "frontier", "report"):
        assert main([stage, "--config", config]) == 0, stage
    for artifact in (
        "returns.csv", "predictors.json", "predictions.json", "risk_model.json",
        "metrics.csv", "metrics_summary.csv", "metrics.json",
        "portfolio.json", "ga_trace.csv", "frontier.csv", "frontier_curve.csv",
        "frontier.json", "report.json", "manifest.json",
    ):
        assert (out / artifact).exists(), artifact

    portfolio = json.loads((out / "portfolio.json").read_text())
    assert portfolio["lambda"] == 0.5
    weights = np.array(portfolio["best"]["weights"])
    assert abs(weights.sum() - 1.0) <= 1e-9

    frontier = json.loads((out / "frontier.json").read_text())
    assert len(frontier["points"]) == 2
    assert frontier["failures"] == []

    manifest = json.loads((out / "manifest.json").read_text())
    hashes = {entry["config_hash"] for entry in manifest.values()}
    assert len(hashes) == 1  # one config drove every artifact
    written = {path.name for path in out.iterdir()} - {"manifest.json", "report.json"}
    assert set(manifest) == written

    report = json.loads((out / "report.json").read_text())
    assert report["universe"] == {"assets": 5, "weeks": 59}
    assert report["frontier"]["points"] == 2


def test_frontier_reports_ga_stops(pipeline, capsys):
    config, out = pipeline
    for stage in ("ingest", "predict", "risk"):
        assert main([stage, "--config", config]) == 0
    with open(config, "a", encoding="utf-8") as fh:
        fh.write("generation_cap = 1\n")
    capsys.readouterr()
    assert main(["frontier", "--config", config]) == 0
    # 2 points x 1 repeat, each stopped by the cap after one generation
    assert capsys.readouterr().out.strip() == (
        "2 frontier points, 0 failures (generation-limit 2; 144 evaluations)"
    )
    points = json.loads((out / "frontier.json").read_text())["points"]
    assert [point["stop_reason"] for point in points] == ["generation-limit"] * 2


def test_retired_time_limit_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["optimize", "--time-limit", "5"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --time-limit 5" in capsys.readouterr().err


def test_flag_overrides_reach_the_run(pipeline, capsys):
    config, out = pipeline
    assert main(["ingest", "--config", config]) == 0
    assert main(["predict", "--config", config]) == 0
    assert main(["risk", "--config", config]) == 0
    assert main(["optimize", "--config", config, "--lambda", "1.0", "--theta", "0"]) == 0
    portfolio = json.loads((out / "portfolio.json").read_text())
    assert portfolio["lambda"] == 1.0
    assert portfolio["theta"] == 0.0


def test_tune_stage_with_tiny_budget(tmp_path, capsys):
    prices = make_demo_prices(tmp_path, n_assets=4, n_weeks=40)
    out = tmp_path / "out"
    extra = PIPELINE_KEYS + "\ntune_replicates = 2\ngeneration_cap = 4\nstall_generations = 3\n"
    config = write_config(tmp_path, prices, out, extra)
    for stage in ("ingest", "predict", "risk"):
        assert main([stage, "--config", config]) == 0
    capsys.readouterr()
    assert main(["tune", "--config", config]) == 0
    lines = capsys.readouterr().out.splitlines()
    # 27 rows x 2 replicates, each stopped by the stall window or the cap
    match = re.fullmatch(r"54 GA runs \((.*); (\d+) evaluations\)", lines[0])
    assert match, lines[0]
    stops = dict(part.rsplit(" ", 1) for part in match[1].split(", "))
    assert set(stops) <= {"stall", "generation-limit"}
    assert sum(int(n) for n in stops.values()) == 54
    assert lines[1].startswith("best levels: ")

    # every artifact of the tune agrees with the cost table in tune_runs.csv
    result = json.loads((out / "tune_result.json").read_text())
    assert set(result) == {"version", "best_levels", "response_table", "ties"}
    with open(out / "tune_runs.csv", newline="", encoding="utf-8") as fh:
        runs = list(csv.DictReader(fh))
    assert [(int(r["row"]), int(r["replicate"])) for r in runs] == [
        (row, rep) for row in range(27) for rep in range(2)
    ]
    means = {
        name: [
            float(np.mean([float(r["cost"]) for r in runs if r[name] == str(level)]))
            for level in levels
        ]
        for name, levels in FACTORS.items()
    }
    assert result["response_table"] == means
    with open(out / "tune_response.csv", newline="", encoding="utf-8") as fh:
        response = list(csv.reader(fh))
    assert response[0] == ["factor", "level_1", "level_2", "level_3", "best_level", "tie"]
    assert len(response) == 6
    assert {row[0]: [float(v) for v in row[1:4]] for row in response[1:]} == means
    best = {name: str(value) for name, value in result["best_levels"].items()}
    assert {row[0]: row[4] for row in response[1:]} == best
    tuned = (out / "tuned_ga.cfg").read_text(encoding="utf-8").splitlines()
    assert dict(line.split(" = ") for line in tuned) == best


BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_fresh(args, **settings) -> subprocess.CompletedProcess:
    """Run ``python args`` in a new process that sees this checkout's
    package, with no BLAS thread variable set except ``settings``."""
    src = str(Path(predfolio.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args], env={**env, **settings}, capture_output=True, text=True,
        check=True,
    )


def test_importing_the_package_defaults_blas_to_one_thread():
    probe = f"import os, predfolio; print(*(os.environ[v] for v in {BLAS_VARIABLES}))"
    assert run_fresh(["-c", probe]).stdout == "1 1 1\n"
    # a caller's own setting wins
    assert run_fresh(["-c", probe], OPENBLAS_NUM_THREADS="2").stdout == "2 1 1\n"


def test_predict_writes_the_same_bytes_with_blas_threads_unset_or_one(tmp_path):
    # delay 41 over 220 weekly returns: fewer training samples than network
    # parameters, so every LM step solves the sample-space system
    prices = make_demo_prices(tmp_path, n_assets=4, n_weeks=221)
    ingested = tmp_path / "ingested"
    config = write_config(tmp_path, prices, ingested, "delay = 41\n")
    assert main(["ingest", "--config", config]) == 0
    outputs = {}
    for name, settings in (("unset", {}), ("one", {"OPENBLAS_NUM_THREADS": "1"})):
        out = shutil.copytree(ingested, tmp_path / name)
        run_fresh(["-m", "predfolio.cli", "predict", "--config", config, "--out", str(out)],
                  **settings)
        outputs[name] = snapshot(out)
    assert {"predictions.json", "predictors.json"} <= set(outputs["one"])
    assert outputs["unset"] == outputs["one"]
