"""The measured process: set up a workload, run passes of it, print one JSON
line with the raw measurements.  `run.py` starts it and aggregates.

    python3 -B bench/worker.py --workload W --seed S --seconds N --trace 0|1
    python3 -B bench/worker.py --workload W --seed S --setup-only [--setup-calibrations K]

A pass runs every config of the workload once, each through the same public
calls as `levynoise run`: `parse_config` (untimed; it is set-up), then
`run_experiment` and `write_artifacts` into a fresh temporary directory
(timed).  The workload's reference computation (`calibrate.py`) is timed
before the first config and after each one, so that every config's time
can be scaled to the reference speed.  Every pass uses the same seed, so all passes of one
run must give identical summary.json digests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_runs"

sys.path.insert(0, str(Path(__file__).resolve().parent))
from calibrate import calibrate, scaled  # noqa: E402
from tracer import Tracer, nonfinite, verdict_failed  # noqa: E402
from workloads import (CALIBRATION, DEFAULT_SECONDS, DEFAULT_SEED,  # noqa: E402
                       WORKLOADS, raw_configs)

MIN_PASSES = 3          # untraced passes; a traced run needs 2 of each kind


def import_program():
    """Import levynoise from this checkout's `src`, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import levynoise
    from levynoise import cli, experiments
    if Path(levynoise.__file__).resolve().parent != SRC / "levynoise":
        raise ImportError(f"levynoise imported from {levynoise.__file__}, "
                          f"not from {SRC}")
    return cli, experiments


def _artifacts_match(result, out: Path) -> bool:
    """summary.json and every table on disk say what the result says."""
    expected = {"summary.json", *result.tables}
    if {p.name for p in out.iterdir()} != expected:
        return False
    on_disk = json.loads((out / "summary.json").read_text())
    if json.dumps(on_disk, sort_keys=True) != json.dumps(result.summary(),
                                                          sort_keys=True):
        return False
    return all((out / name).read_text() == text
               for name, text in result.tables.items())


def run_pass(cli, experiments, raws, traced: bool, kind: str) -> dict:
    """One pass over the workload's configs; traced passes also return the
    tracer's per-layer metrics.

    An experiment call fails if it raises or returns a verdict whose
    estimate or z is not finite.  A finite verdict that does not pass is the
    experiment's answer, not a failed call: at these reduced sizes the
    z-score verdicts have a real false-alarm rate.  Verdict failures are
    counted separately, for verdict_fail_frac.
    """
    tracer = Tracer() if traced else None
    walls, digests, failed, artifacts_ok = [], [], 0, True
    cals = [calibrate(kind)]
    verdicts = verdicts_failed = 0
    SCRATCH.mkdir(exist_ok=True)
    if tracer:
        tracer.install()
    try:
        for raw in raws:
            cfg = experiments.parse_config(raw)
            with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
                t0 = time.perf_counter()
                try:
                    result = experiments.run_experiment(cfg)
                    out = Path(cli.write_artifacts(result, tmp))
                except Exception:
                    walls.append(time.perf_counter() - t0)
                    cals.append(calibrate(kind))
                    traceback.print_exc()
                    failed += 1
                    digests.append(None)
                    continue
                walls.append(time.perf_counter() - t0)
                cals.append(calibrate(kind))
                digests.append(
                    hashlib.sha256((out / "summary.json").read_bytes()).hexdigest())
                artifacts_ok &= _artifacts_match(result, out)
            verdicts += len(result.verdicts)
            verdicts_failed += sum(map(verdict_failed, result.verdicts))
            failed += int(any(nonfinite(v.estimate) or nonfinite(v.z)
                              for v in result.verdicts))
    finally:
        if tracer:
            tracer.uninstall()
    rec = {"wall_s": sum(walls), "config_wall_s": walls, "calibration_s": cals,
           "scaled_wall_s": sum(scaled(w, kind, a, b)
                                for w, a, b in zip(walls, cals, cals[1:])),
           "traced": traced,
           "digests": digests,
           "runs": len(raws), "failed": failed, "artifacts_ok": artifacts_ok,
           "verdicts": verdicts, "verdicts_failed": verdicts_failed}
    if tracer:
        rec["layers"] = tracer.metrics()
        rec["covered_s"] = tracer.covered_s()
        rec["missing"] = tracer.missing
    return rec


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--setup-calibrations", type=int, default=1)
    args = p.parse_args(argv)

    cli, experiments = import_program()
    raws = raw_configs(args.workload, args.seed, cli.bundled_config_text)
    cfgs = [experiments.parse_config(raw) for raw in raws]
    setup_done = time.monotonic()
    calibrate("calls")               # warm-up: first calls load code
    setup_cal = [calibrate("calls") for _ in range(args.setup_calibrations)]
    if args.setup_only:
        print(json.dumps({"setup_done": setup_done, "setup_calibration_s": setup_cal}))
        return 0

    import numpy
    import scipy
    passes = []
    start = time.perf_counter()
    while True:
        untraced = sum(not r["traced"] for r in passes)
        traced = len(passes) - untraced
        enough = (min(untraced, traced) >= 2 if args.trace
                  else untraced >= MIN_PASSES)
        if enough and time.perf_counter() - start >= args.seconds:
            break
        passes.append(run_pass(cli, experiments, raws,
                               traced=bool(args.trace) and len(passes) % 2 == 1,
                               kind=CALIBRATION[args.workload]))
    print(json.dumps({
        "setup_done": setup_done,
        "setup_calibration_s": setup_cal,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passes": passes,
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
        "workers": sorted({cfg.workers for cfg in cfgs}),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
