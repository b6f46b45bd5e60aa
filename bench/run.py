"""levynoise benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload replicate-mc --seed 7 --seconds 25 --trace 0

With `--trace 0` the last line carries the end-to-end metrics (wall_s,
setup_s, peak_rss_mb); with `--trace 1` it carries the per-layer metrics of
a traced run.  Times of the end-to-end metrics are scaled to the reference
CPU speed of calibrate.py.  The line before it is a record of the run: environment,
set-up samples, every pass with its summary.json digests.  See
bench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

START = time.monotonic()
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"

sys.path.insert(0, str(BENCH))
from calibrate import calibrate, scaled  # noqa: E402
from tracer import COUNTERS, TARGETS  # noqa: E402
from workloads import (CALIBRATION, DEFAULT_SECONDS, DEFAULT_SEED,  # noqa: E402
                       WORKLOADS)

SETUP_SAMPLES = 7        # fresh processes timed for setup_s, median reported
SETUP_CALIBRATIONS = 3   # calibrations on each side of one set-up
DEADLINE_S = 170         # workers still running this long after start are
                         # killed and the run fails, so it ends within 180 s
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    """One worker, one BLAS thread, no bytecode written, nothing inherited
    that selects another worker count."""
    env = dict(os.environ)
    env.pop("LEVYNOISE_WORKERS", None)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in BLAS_VARS:
        env[var] = "1"
    return env


def spawn(args: list[str], env: dict) -> tuple[float, dict]:
    """Run the worker to completion; return its spawn time and its record."""
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, "-B", str(WORKER), *args],
                              env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=max(1.0, START + DEADLINE_S - t_spawn),
                              check=False, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError(f"workers still running {DEADLINE_S} s after start") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed nothing")
    return t_spawn, json.loads(lines[-1])


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown"
    outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(rec: dict, env: dict, traced: bool) -> dict:
    return {
        "commit": git_commit(),
        **rec["versions"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workers": rec["workers"],
        "blas_threads": {var: env[var] for var in BLAS_VARS},
        "traced": traced,
    }


def check_passes(passes: list[dict]) -> list[str]:
    """Problems with the passes of one run: every pass must give the same
    digests and verdict count and write faithful artifacts."""
    problems = []
    if len({tuple(p["digests"]) for p in passes}) != 1:
        problems.append("summary.json digests differ between passes of one seed")
    if len({p["verdicts"] for p in passes}) != 1 or passes[0]["verdicts"] == 0:
        problems.append("verdict count is zero or differs between passes")
    if not all(p["artifacts_ok"] for p in passes):
        problems.append("artifacts on disk differ from the result")
    return problems


def check_traced(traced: list[dict]) -> list[str]:
    """Tracer invariants: self times are non-negative, they cover the traced
    wall time up to the tracer's own bookkeeping, and counts repeat."""
    problems = []
    for p in traced:
        layers = p["layers"]
        if min(layers[f"{m}.self_s"] for m in TARGETS) < -1e-9:
            problems.append("negative self time")
        gap = p["wall_s"] - p["covered_s"]
        if not -1e-6 <= gap <= 0.01 * p["wall_s"] + 1e-3:
            problems.append(f"self times leave {gap:.6f} s of {p['wall_s']:.6f} s "
                            f"traced wall time unaccounted")
    counts = [{k: v for k, v in p["layers"].items()
               if k.endswith(".calls") or k in COUNTERS} for p in traced]
    if any(c != counts[0] for c in counts):
        problems.append("call counts differ between traced passes of one seed")
    return problems


def verdict_fail_frac(passes: list[dict]) -> float:
    return (sum(p["verdicts_failed"] for p in passes)
            / max(1, sum(p["verdicts"] for p in passes)))


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_setup(args: list[str], env: dict) -> tuple[float, float, dict]:
    """Spawn the worker; return its set-up time, raw and scaled by the
    calibrations run here just before the spawn and in the worker just
    after its set-up, and its record."""
    cals = [calibrate("calls") for _ in range(SETUP_CALIBRATIONS)]
    t_spawn, rec = spawn([*args, "--setup-calibrations", str(SETUP_CALIBRATIONS)],
                         env)
    raw = rec["setup_done"] - t_spawn
    return raw, scaled(raw, "calls", *cals, *rec["setup_calibration_s"]), rec


def end_to_end(args, env) -> tuple[dict, list[dict], dict]:
    calibrate("calls")               # warm-up: first calls load code
    raw, setup, rec = timed_setup(["--workload", args.workload, "--seed",
                                   str(args.seed), "--seconds",
                                   str(args.seconds)], env)
    raws, setups = [raw], [setup]
    for _ in range(SETUP_SAMPLES - 1):
        raw, setup, _ = timed_setup(["--workload", args.workload, "--seed",
                                     str(args.seed), "--setup-only"], env)
        raws.append(raw)
        setups.append(setup)
    rec["setup_samples_s"] = {"raw": raws, "scaled": setups}
    metrics = {
        "wall_s": metric(statistics.median(p["scaled_wall_s"]
                                           for p in rec["passes"]), "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(rec["peak_rss_mb"], "MB"),
    }
    return metrics, rec["passes"], rec


def per_layer(args, env) -> tuple[dict, list[dict], dict]:
    _, rec = spawn(["--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", "1"], env)
    passes = rec["passes"]
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    metrics = {}
    for name, first in traced[0]["layers"].items():
        if name.endswith("_s"):     # times vary: median; counts repeat exactly
            unit = "1/s" if name.endswith("_per_s") else "s"
            metrics[name] = metric(
                statistics.median(p["layers"][name] for p in traced), unit)
        else:
            metrics[name] = metric(first, "bytes" if name.endswith(".bytes")
                                   else "count")
    metrics["trace.overhead_s"] = metric(
        statistics.median(p["scaled_wall_s"] for p in traced)
        - statistics.median(p["scaled_wall_s"] for p in plain), "s")
    metrics["verdict_fail_frac"] = metric(verdict_fail_frac(passes), "ratio")
    rec["missing"] = traced[0]["missing"]
    return metrics, passes, rec


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "levynoise" / "__init__.py").is_file():
        print(f"error: no levynoise source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2

    env = child_env()
    try:
        metrics, passes, rec = (per_layer if args.trace else end_to_end)(args, env)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    problems = check_passes(passes)
    if args.trace:
        problems += check_traced([p for p in passes if p["traced"]])
    for problem in problems:
        print(f"incorrect: {problem}", file=sys.stderr)
    print(json.dumps({
        "environment": environment(rec, env, bool(args.trace)),
        "calibration": CALIBRATION[args.workload],
        "setup_samples_s": rec.get("setup_samples_s"),
        "missing_trace_targets": rec.get("missing"),
        "verdict_fail_frac": verdict_fail_frac(passes),
        "configs": [name for name, _, _ in WORKLOADS[args.workload]],
        "passes": [{k: p[k] for k in ("wall_s", "scaled_wall_s", "config_wall_s",
                                      "calibration_s", "traced",
                                      "digests", "runs", "failed", "verdicts",
                                      "verdicts_failed")}
                   for p in passes],
    }))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(p["runs"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
