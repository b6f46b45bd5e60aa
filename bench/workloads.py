"""Benchmark workloads: bundled configs at reduced, fixed sizes.

Every workload is a list of bundled experiment configs with a seed and a
size override.  The seed is the only input that varies between runs; the
sizes are part of the benchmark and change only with it.  Why each workload
is here is recorded in BENCHMARK.json and bench/README.md.
"""

from __future__ import annotations

import json

# workload -> [(experiment, top-level overrides, `params` overrides)]
WORKLOADS = {
    "replicate-mc": [
        ("isometry", {"replicates": 600}, {}),
        ("charfn", {"replicates": 1200}, {}),
        ("martingale", {"replicates": 1200}, {"representation_paths": 20}),
    ],
    "pathwise": [
        ("ito-lemma", {}, {"paths": 20}),
        ("ito1", {}, {"paths": 6, "agreement_paths": 6}),
        ("ito2", {}, {"paths": 8}),
        ("chaos", {"replicates": 80}, {}),
    ],
    "deep-ladder": [
        ("interlace", {}, {"diag_replicates": 2, "spatial_replicates": 3}),
    ],
}

# The reference computation of calibrate.py each workload's pass times are
# scaled by: the kind of work its time goes to.  Set-up is always "calls".
CALIBRATION = {
    "replicate-mc": "calls",
    "pathwise": "calls",
    "deep-ladder": "arrays",
}

# The seed of the bundled configs, used when no seed is given.
DEFAULT_SEED = 20260808
# Seconds of passes per run when none is given; BENCHMARK.json's run_seconds.
DEFAULT_SECONDS = 25


def raw_configs(workload: str, seed: int, bundled_config_text) -> list[dict]:
    """The workload's configs as raw JSON dicts, seeded, resized and with
    one worker.

    `bundled_config_text` is `levynoise.cli.bundled_config_text`, passed in
    so that this module imports nothing from the program.
    """
    out = []
    for name, top, params in WORKLOADS[workload]:
        raw = json.loads(bundled_config_text(name))
        raw.update(top)
        raw["params"] = {**raw.get("params", {}), **params}
        raw["seed"] = seed
        raw["workers"] = 1
        out.append(raw)
    return out
