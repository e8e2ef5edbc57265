"""Benchmark driver for uhlmann-chern.

Run from the root of a checkout:

    python3 perfbench/run.py --workload haldane_cli --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

One process runs one workload.  Before every pass it sets the workload
up SETUP_REPEATS times (a fresh import of the package plus model, grid
and config construction), each time timed; passes run until the next
one would end past --seconds, and every pass is checked against the
workload's references.  A fixed calibration computation is timed
before and after every pass, and the end-to-end times are reported at
reference machine speed (see calibrate()).  --trace 0 reports the
end-to-end metrics;
--trace 1 reports per-layer self times and counts from traced passes
(see perfbench/README.md).  Metric names and units come from
BENCHMARK.json.  The last line of standard output is one JSON object.
The exit code is 0 when every gate passed, 1 when one failed, and 2
when the package cannot be imported from src/.
"""
from __future__ import annotations

import os

# BLAS threads must be pinned before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The CLI runs `git describe`; keep git from searching above the checkout.
os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
SRC = ROOT / "src"
PACKAGE = "uhlmann_chern"
SUBMODULES = ("errors", "linalg", "models", "geometry", "chern", "cli")
SETUP_REPEATS = 3

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import spans  # noqa: E402
from calibration import CALIBRATION_REFERENCE_S, at_reference, calibrate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# The oscillator's thermal tail is larger than its truncation warning
# threshold at the benchmark's temperatures; the closed-form gate
# checks the value instead.
warnings.filterwarnings("ignore", message="thermal weight has not decayed")


# ---------------------------------------------------------------------------
# Set-up and passes


def _purge_package() -> None:
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]


def _import_package() -> types.SimpleNamespace:
    importlib.import_module(PACKAGE)
    mods = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in SUBMODULES}
    origin = Path(mods["chern"].__file__).resolve()
    if SRC not in origin.parents:
        raise ImportError(f"{PACKAGE} imported from {origin}, not from {SRC}")
    return types.SimpleNamespace(**mods)


class Ledger:
    """Runs passes of one workload and keeps every set-up time, pass
    wall time and gate result, in run order."""

    def __init__(self, workload, params: dict, work: Path):
        self.workload = workload
        self.params = params
        self.work = work
        self.first = None
        self.passes: list[dict] = []

    def set_up(self):
        """Import the package afresh and build the workload; repeated
        SETUP_REPEATS times.  Returns the last build and every time."""
        times = []
        for _ in range(SETUP_REPEATS):
            _purge_package()
            shutil.rmtree(self.work, ignore_errors=True)
            start = time.perf_counter()
            self.work.mkdir(parents=True)
            built = self.workload.build(_import_package(), self.params, self.work)
            times.append(time.perf_counter() - start)
        return built, times

    def run(self, workers: int, label: str, recorder: spans.Recorder | None = None,
            kernels: bool = True) -> float:
        """Calibration, set-up, one pass (traced into recorder when
        given), calibration; returns the pass's wall time."""
        cycle_start = time.perf_counter()
        calib_before = calibrate()
        built, setup_times = self.set_up()
        restore = spans.instrument(recorder, kernels=kernels) if recorder else None
        start = time.perf_counter()
        try:
            out, error = self.workload.run(built, workers), None
        except Exception as exc:  # a raising pass fails all its gates
            out, error = None, f"{type(exc).__name__}: {exc}"
        finally:
            wall = time.perf_counter() - start
            if restore:
                restore()
        if out is not None:
            self.first = self.first or out
            gates = [vars(g) for g in self.workload.gates(out, self.params, self.first)]
            ref_err, route_err = self.workload.errors(out, self.params)
        else:
            gates = [{"name": "pass", "ok": False, "detail": error}]
            ref_err = route_err = float("nan")
        calib = (calib_before + calibrate()) / 2
        self.passes.append({"label": label, "workers": workers, "wall_s": wall,
                            "setup_s": setup_times, "calib_s": calib,
                            "cycle_s": time.perf_counter() - cycle_start,
                            "gates": gates, "ref_err": ref_err, "route_err": route_err})
        return wall

    @property
    def attempted(self) -> int:
        return sum(len(p["gates"]) for p in self.passes)

    @property
    def failed(self) -> int:
        return sum(not g["ok"] for p in self.passes for g in p["gates"])

    def worst(self, key: str) -> float:
        return max(p[key] for p in self.passes)


def _more(passes: list[dict], deadline: float) -> bool:
    """True until the next pass, with its set-up and calibrations, is
    predicted to end past the deadline; always true before the first."""
    return not passes or (
        time.perf_counter() + statistics.median(p["cycle_s"] for p in passes) <= deadline)


# ---------------------------------------------------------------------------
# Metrics


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(ledger: Ledger, seconds: float) -> dict:
    deadline = time.perf_counter() + seconds
    while _more(ledger.passes, deadline):
        ledger.run(ledger.workload.workers, "untraced")
    passes = ledger.passes
    return {
        "pass_s": statistics.median(at_reference(p["wall_s"], p["calib_s"]) for p in passes),
        "setup_s": statistics.median(
            at_reference(t, p["calib_s"]) for p in passes for t in p["setup_s"]),
        "peak_rss_mb": peak_rss_mb(),
    }


def _layer_metrics(recorder: spans.Recorder) -> dict:
    rows = spans.layer_totals(recorder.spans)

    def get(name, key):
        return rows.get(name, {}).get(key, 0)

    points = get("chern.engine", "count") + get("chern.fhs", "count")
    eigh = get("linalg.eigh", "count")
    metrics = {
        "models.h_s": get("models.h", "self_s"),
        "models.dh_s": get("models.dh", "self_s"),
        "models.h_matrices": get("models.h", "count"),
        "models.dh_matrices": get("models.dh", "count"),
        "linalg.eigh_s": get("linalg.eigh", "self_s"),
        "linalg.hermcheck_s": get("linalg.hermcheck", "self_s"),
        "linalg.eigh_matrices": eigh,
        "linalg.eigh_per_point": eigh / points if points else 0.0,
    }
    for short in ("tangent", "trace", "connection", "stencil", "ground"):
        metrics[f"geometry.{short}_s"] = get(f"geometry.{short}", "self_s")
    metrics["chern.engine_s"] = get("chern.engine", "self_s")
    metrics["chern.fhs_s"] = get("chern.fhs", "self_s")
    metrics["cli.self_s"] = get("cli.main", "self_s")
    metrics["trace.self_s"] = sum(r["self_s"] for r in rows.values())
    return metrics


def per_layer(ledger: Ledger, seconds: float) -> tuple[dict, list]:
    """Pool counts from a pass at the workload's own worker count, then
    the kernel split from workers=1 traced passes, whose spans all live
    in this process.  Returns the metrics (medians over the traced
    passes) and the spans of the last traced pass."""
    deadline = time.perf_counter() + seconds
    workers = ledger.workload.workers
    pools = spans.Recorder()
    untraced = ledger.run(workers, "pools", pools, kernels=False)
    if workers != 1:
        untraced = ledger.run(1, "untraced-serial")

    samples: list[dict] = []
    while _more([p for p in ledger.passes if p["label"] == "traced"], deadline):
        recorder = spans.Recorder()
        sample = {"trace.pass_s": ledger.run(1, "traced", recorder)}
        sample.update(_layer_metrics(recorder))
        samples.append(sample)
    if recorder.missing:
        print(f"# entry points not found, their layers read 0: {', '.join(recorder.missing)}")

    metrics = {k: statistics.median(s[k] for s in samples) for k in samples[0]}
    counts = [k for k in metrics if k.endswith(("_matrices", "_per_point"))]
    ledger.passes[-1]["gates"].append({
        "name": "trace_counts_repeat",
        "ok": all(s[k] == samples[0][k] for s in samples for k in counts),
        "detail": "work counts identical across traced passes",
    })
    pool_rows = spans.layer_totals(pools.spans).get("chern.pool", {})
    metrics["chern.pools_started"] = pool_rows.get("calls", 0)
    metrics["chern.pool_s"] = pool_rows.get("total_s", 0.0)
    metrics["trace.overhead_s"] = metrics["trace.pass_s"] - untraced
    metrics["trace.coverage"] = metrics.pop("trace.self_s") / metrics["trace.pass_s"]
    metrics["check.ref_err"] = ledger.worst("ref_err")
    metrics["check.route_err"] = ledger.worst("route_err")
    return metrics, recorder.spans


# ---------------------------------------------------------------------------
# Provenance


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
        return proc.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def provenance() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu": _cpu_model(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_config": blas.get("openblas configuration", ""),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# Entry points


def _declared_units(trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(args) -> int:
    workload = WORKLOADS[args.workload]
    params = workload.params(args.seed)
    units = _declared_units(args.trace)
    ledger = Ledger(workload, params, HERE / ".work" / f"{workload.name}-{os.getpid()}")
    try:
        if args.trace:
            metrics, trace_spans = per_layer(ledger, args.seconds)
        else:
            metrics, trace_spans = end_to_end(ledger, args.seconds), []
    except ImportError as exc:
        print(f"perfbench: cannot import {PACKAGE} from {SRC}: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(ledger.work, ignore_errors=True)
    if metrics.keys() != units.keys():
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")

    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "params": params, "provenance": provenance(),
        "passes": ledger.passes, "metrics": metrics,
        "spans": [vars(s) for s in trace_spans],
    }
    results = HERE / ".results"
    results.mkdir(exist_ok=True)
    (results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print(f"# {workload.name} seed={args.seed} params={params}")
    print(f"# provenance {json.dumps(record['provenance'])}")
    for p in ledger.passes:
        bad = [g["name"] for g in p["gates"] if not g["ok"]]
        print(f"# pass {p['label']} workers={p['workers']} wall={p['wall_s']:.3f}s "
              f"calib={p['calib_s']:.3f}s "
              f"ref_err={p['ref_err']:.3g} route_err={p['route_err']:.3g} "
              f"{'FAILED ' + ','.join(bad) if bad else 'ok'}")
    raw = statistics.median(p["wall_s"] for p in ledger.passes)
    calib = statistics.median(p["calib_s"] for p in ledger.passes)
    print(f"# {len(ledger.passes)} passes; raw median pass {raw:.4g} s; median calibration "
          f"{calib:.4g} s (reference {CALIBRATION_REFERENCE_S} s); "
          f"fail_ratio={ledger.failed}/{ledger.attempted} "
          f"ref_err={ledger.worst('ref_err'):.3g} route_err={ledger.worst('route_err'):.3g}")
    for k, v in metrics.items():
        print(f"# {k} = {v:.6g} {units[k]}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if ledger.failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own fresh process, then one summary table."""
    status = 0
    table = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        status = status or (proc.returncode != 0)
        if lines and lines[-1].startswith("{"):
            result = json.loads(lines[-1])
            for k, m in result["metrics"].items():
                table.append(f"{name:16s} {k:24s} {m['value']:>14.6g} {m['unit']}")
            table.append(f"{name:16s} {'fail_ratio':24s} {result['failed']:>8d}/{result['attempted']}")
    print("\n".join(table))
    return int(status)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
