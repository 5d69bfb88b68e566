from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from predfolio.cli import CONFIG_DEFAULTS, RunConfig, _write_json, main
from predfolio.errors import ConfigError
from predfolio.ga_solver import GAConfig
from predfolio.predictor import PredictorConfig

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
    config = RunConfig.from_file(path)
    assert config.int_("seed") == 7
    assert config.int_("k") == 4
    config.override("seed", 11)
    assert config.int_("seed") == 11
    assert config.float_list("lambda_grid") == [1.0, 0.8, 0.2, 0.0]


def test_run_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("no_such_key = 1\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        RunConfig.from_file(path)


def test_run_config_defaults_are_the_dataclass_defaults():
    config = RunConfig({})
    assert config.build(GAConfig, seed=0) == GAConfig(seed=0)
    assert config.build(PredictorConfig, seed=0) == PredictorConfig(seed=0)


@pytest.mark.parametrize("cls", [GAConfig, PredictorConfig])
def test_run_config_every_dataclass_field_is_read(cls):
    for field in fields(cls):
        if field.name == "seed":
            continue
        default = field.default
        changed = f"not-{default}" if isinstance(default, str) else default * 2 + 3
        built = RunConfig({field.name: str(changed)}).build(cls, seed=5)
        assert built == replace(cls(seed=5), **{field.name: changed}), field.name


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
    documented = [(key, readme_default(text)) for key, text in pairs if key in CONFIG_DEFAULTS]
    counts = Counter(key for key, _ in documented)
    assert set(counts) == set(CONFIG_DEFAULTS)
    assert max(counts.values()) == 1
    for key, value in documented:
        default = CONFIG_DEFAULTS[key]
        try:
            assert float(value) == float(default), key
        except ValueError:
            assert value == default, key


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


@pytest.mark.parametrize(
    "stage, artifact, text",
    [
        ("risk", "predictions.json", '{"version": 1, "records": {"AST0": {"asset": "AS'),
        ("metrics", "predictions.json", '{"version": 1}'),
        ("optimize", "risk_model.json", '{"version": 1, "assets": ["A"]}'),
        ("predict", "returns.csv", "date,AST0\n2024-01-08,0.0x\n"),
        ("predict", "returns.csv", "date,AST0\n"),
        ("predict", "returns.csv", "date,AST0,AST1\n2024-01-08,0.01\n"),
        ("report", "portfolio.json", "{"),
    ],
)
def test_malformed_artifact_is_a_clean_error(pipeline, capsys, stage, artifact, text):
    config, out = pipeline
    for earlier in ("ingest", "predict", "risk"):
        assert main([earlier, "--config", config]) == 0
    (out / artifact).write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert main([stage, "--config", config]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: malformed ")
    assert artifact in err
    assert "re-run the `" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("change", ["extra asset", "re-ingested", "other delay"])
def test_risk_refuses_predictions_of_other_returns(tmp_path, pipeline, capsys, change):
    config, out = pipeline
    for stage in ("ingest", "predict"):
        assert main([stage, "--config", config]) == 0
    if change == "extra asset":
        lines = (out / "returns.csv").read_text(encoding="utf-8").splitlines()
        lines = [lines[0] + ",EXTRA"] + [line + ",0.0" for line in lines[1:]]
        (out / "returns.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    elif change == "other delay":
        text = Path(config).read_text(encoding="utf-8")
        Path(config).write_text(text.replace("delay = 5", "delay = 8"), encoding="utf-8")
    else:
        make_demo_prices(tmp_path, n_weeks=50)
        assert main(["ingest", "--config", config]) == 0
    capsys.readouterr()
    assert main(["risk", "--config", config]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: predictions.json does not match returns.csv (")
    assert err.rstrip().endswith("re-run the `predict` stage")
    assert not (out / "risk_model.json").exists()


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
    capsys.readouterr()
    assert main(["frontier", "--config", config, "--time-limit", "1e-9"]) == 0
    # 2 points x 1 repeat, each stopped before its first generation
    assert capsys.readouterr().out.strip() == "2 frontier points, 0 failures (time 2; 80 evaluations)"
    points = json.loads((out / "frontier.json").read_text())["points"]
    assert [point["stop_reason"] for point in points] == ["time", "time"]


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
    extra = PIPELINE_KEYS + "\ntune_replicates = 1\ngeneration_cap = 4\nstall_generations = 3\n"
    config = write_config(tmp_path, prices, out, extra)
    for stage in ("ingest", "predict", "risk"):
        assert main([stage, "--config", config]) == 0
    capsys.readouterr()
    assert main(["tune", "--config", config]) == 0
    lines = capsys.readouterr().out.splitlines()
    # 27 rows x 1 replicate, each stopped by the stall window or the cap
    match = re.fullmatch(r"27 GA runs \((.*); (\d+) evaluations\)", lines[0])
    assert match, lines[0]
    stops = dict(part.rsplit(" ", 1) for part in match[1].split(", "))
    assert set(stops) <= {"stall", "generation-limit"}
    assert sum(int(n) for n in stops.values()) == 27
    assert lines[1].startswith("best levels: ")
    result = json.loads((out / "tune_result.json").read_text())
    assert set(result["best_levels"]) == {
        "population_size", "selection_kind", "crossover_fraction",
        "crossover_kind", "penalty_factor",
    }
    assert (out / "tune_runs.csv").exists()
    assert (out / "tune_response.csv").exists()
    assert (out / "tuned_ga.cfg").exists()
    response = (out / "tune_response.csv").read_text().splitlines()
    assert response[0].startswith("factor,")
    assert len(response) == 6
