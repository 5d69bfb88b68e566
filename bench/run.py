"""Benchmark entry point.

    python3 bench/run.py --workload paper-predict --seed 1 --seconds 40 --trace 0

Builds nothing: the program is imported from ``src/`` of the checkout this
file sits in. One run sets the workload up several times, then repeats its
operation until ``--seconds`` are spent (at least twice), checks every
operation's artifacts, and prints a report followed by one JSON line:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
Exits 1 when a correctness or determinism check fails, 2 when the program
cannot be imported.
"""

from __future__ import annotations

import os
import sys

# Cap BLAS threads at the CPUs this process may use, before numpy loads, so
# that runs on one machine are comparable.
NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _current = os.environ.get(_var, "")
    if not _current.isdigit() or not 1 <= int(_current) <= NPROC:
        os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
MIN_OPS = 2

END_TO_END = (
    ("setup_s", "s"),
    ("op_s", "s"),
    ("heavy_stage_s", "s"),
    ("solution_loss", "1"),
    ("ok_ops_ratio", "1"),
    ("peak_rss_mb", "MB"),
)


def import_program():
    """Import ``predfolio`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "predfolio" / "cli.py").is_file():
        raise ImportError(f"no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import predfolio

    if Path(predfolio.__file__).resolve().parent != (SRC / "predfolio").resolve():
        raise ImportError(f"predfolio resolved to {predfolio.__file__}, not {SRC}")
    return predfolio


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "nproc": NPROC,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "machine": platform.machine(),
    }
    env.update(git_state())
    return env


def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"commit": "unknown", "dirty": None}
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=True).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30, check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return {"commit": "unknown", "dirty": None}
    return {"commit": head, "dirty": bool(status.strip())}


def digest(directory: Path) -> str:
    """One hash over every file's relative path and bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def tree_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


def run_stage(cli, stage: str, config: Path, out: Path, checks) -> tuple[float, str] | None:
    """Call one CLI stage; return ``(wall seconds, stdout)``, or None if it failed."""
    captured = io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(captured):
            code = cli.main([stage, "--config", str(config), "--out", str(out)])
    except Exception as exc:  # a crash in the program is a failed operation, not ours
        traceback.print_exc(file=sys.stderr)
        code = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    if not checks.check(code == 0, f"stage {stage} exits 0 (got {code})"):
        return None
    return wall, captured.getvalue()


class Run:
    """One benchmark run of one workload at one seed."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool):
        from predfolio import cli
        from workloads import Checks

        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.checks = Checks()
        self.directory = WORK / workload.name
        self.setup_dir = self.directory / "setup"
        self.setup_times: list[float] = []
        self.rows = 0
        self.ops: list[dict] = []
        self.tracer = None

    def set_up(self) -> None:
        shutil.rmtree(self.directory, ignore_errors=True)
        self.directory.mkdir(parents=True)
        digests = set()
        for _ in range(self.workload.setup_repeats):
            shutil.rmtree(self.setup_dir, ignore_errors=True)
            start = time.perf_counter()
            self.rows = self.workload.setup(self.setup_dir, self.seed)
            self.setup_times.append(time.perf_counter() - start)
            digests.add(digest(self.setup_dir))
        self.checks.check(len(digests) == 1, "set-up writes identical inputs every time")

    def operation(self, index: int, traced: bool) -> dict | None:
        out = self.directory / f"op{index}"
        if index > 0:
            shutil.rmtree(self.directory / f"op{index - 1}", ignore_errors=True)
        self.workload.prepare(self.setup_dir, out)
        input_bytes = tree_bytes(out)
        config = self.setup_dir / "run.cfg"
        stages: dict[str, float] = {}
        if traced:
            from tracing import install

            undo = install(self.tracer)
            try:
                with self.tracer.operation():
                    ok = self._stages(config, out, stages)
            finally:
                undo()
        else:
            ok = self._stages(config, out, stages)
        if not ok:
            return None
        try:
            loss, extra = self.workload.verify(self.seed, out, self.checks)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            self.checks.check(False, f"op {index} artifacts are readable ({exc!r})")
            return None
        op = {"traced": traced, "stages": stages, "wall": sum(stages.values()),
              "loss": loss, "extra": extra, "digest": digest(out),
              "artifact_bytes": tree_bytes(out) - input_bytes}
        if self.ops:
            same = op["digest"] == self.ops[0]["digest"]
            self.checks.check(same, f"op {index} artifacts match op 0 byte for byte")
        return op

    def _stages(self, config: Path, out: Path, stages: dict) -> bool:
        for stage in self.workload.stages:
            result = run_stage(self.cli, stage, config, out, self.checks)
            if result is None:
                return False
            stages[stage], stdout = result
            self.workload.check_stage(stage, stdout, self.checks)
        return True

    def measure(self) -> None:
        if self.trace:
            from tracing import Tracer

            self.tracer = Tracer()
        deadline = time.perf_counter() + self.seconds
        while True:
            if len(self.ops) >= MIN_OPS:
                typical = statistics.median(op["wall"] for op in self.ops)
                if time.perf_counter() + typical > deadline:
                    break
            # A traced run alternates untraced and traced ops, untraced first.
            op = self.operation(len(self.ops), traced=self.trace and len(self.ops) % 2 == 1)
            if op is None:
                break
            self.ops.append(op)

    def stage_times(self, traced: bool = False) -> dict[str, list[float]]:
        times: dict[str, list[float]] = {}
        for op in self.ops:
            if op["traced"] == traced:
                for stage, wall in op["stages"].items():
                    times.setdefault(stage, []).append(wall)
                times.setdefault("op", []).append(op["wall"])
        return times

    def end_to_end(self) -> dict[str, float]:
        times = self.stage_times()
        w = self.workload
        return {
            "setup_s": statistics.median(self.setup_times),
            "op_s": statistics.median(times["op"]),
            "heavy_stage_s": statistics.median(times[w.heavy_stage]),
            "solution_loss": self.ops[0]["loss"],
            "ok_ops_ratio": 1.0 - self.checks.failed / self.checks.attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def per_layer(self) -> dict[str, float]:
        from layers import SpanTable, layer_metrics

        untraced = statistics.median(self.stage_times(False)["op"])
        traced = statistics.median(self.stage_times(True)["op"])
        extra = dict(self.ops[0]["extra"])
        extra["trace.overhead_share"] = (traced - untraced) / untraced
        table = SpanTable(self.tracer)
        for problem in table.stage_self_check() or [None]:
            self.checks.check(problem is None, f"span self-time accounting: {problem}")
        metrics = layer_metrics(table, self.rows, self.ops[0]["artifact_bytes"], extra)
        return {name: float(value) for name, value in metrics.items()}


def report(run: Run, env: dict, metrics: dict, units: dict) -> dict:
    """Print a readable report; return the full record saved with the result."""
    from stats import timing

    w = run.workload
    timings = {}
    for traced in (False, True):
        for stage, values in run.stage_times(traced).items():
            timings[f"{stage}_s" + ("_traced" if traced else "")] = timing(values)
    timings["setup_s"] = timing(run.setup_times)
    failed_ratio = run.checks.failed / max(run.checks.attempted, 1)
    print(f"workload {w.name}  seed {run.seed}  trace {int(run.trace)}  ops {len(run.ops)}")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, t in timings.items():
        tail = (f"p{t['tail']['percentile']} {t['tail']['value']:.4f}" if t["tail"]
                else "no percentile has 10 samples beyond it")
        print(f"  {name:<22} median {t['median']:.4f} s  n={t['n']}  tail: {tail}")
    if run.ops:
        print(f"  {w.loss_name:<22} {run.ops[0]['loss']!r}")
    print(f"  failed_ops_ratio       {failed_ratio!r} ({run.checks.failed}/{run.checks.attempted})")
    for failure in run.checks.failures:
        print(f"  FAILED: {failure}")
    for name, value in metrics.items():
        print(f"  {name:<34} {value!r} {units[name]}")
    return {
        "workload": w.name, "seed": run.seed, "seconds": run.seconds, "trace": run.trace,
        "environment": env, "timings": timings, w.loss_name: run.ops[0]["loss"] if run.ops else None,
        "failed_ops_ratio": failed_ratio, "failures": run.checks.failures,
        "attempted": run.checks.attempted, "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        import_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    from layers import PER_LAYER
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    run = Run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    env = environment()
    run.set_up()
    run.measure()
    if run.ops and (not run.trace or any(op["traced"] for op in run.ops)):
        metrics = run.per_layer() if run.trace else run.end_to_end()
    else:
        run.checks.check(False, "at least one operation of each kind completed")
        metrics = {}
    units = dict(PER_LAYER if run.trace else END_TO_END)
    record = report(run, env, metrics, units)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{run.workload.name}-seed{run.seed}-trace{int(run.trace)}"
    if run.tracer is not None:
        run.tracer.save(WORK / run.workload.name / "spans.npz")
    (results / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    correct = run.checks.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.checks.attempted,
        "failed": run.checks.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
