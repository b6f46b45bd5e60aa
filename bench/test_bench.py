"""Checks of the benchmark itself, not of levynoise:

    python3 -m pytest bench -q

They run one traced and one untraced pass of every workload (under a
minute in all) and the benchmark in a directory without the program.
"""

from __future__ import annotations

import math
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
import run  # noqa: E402
import worker  # noqa: E402
from calibrate import REF_S, calibrate, scaled  # noqa: E402
from tracer import TARGETS, nonfinite, verdict_failed  # noqa: E402
from workloads import CALIBRATION, DEFAULT_SEED, WORKLOADS, raw_configs  # noqa: E402

# Traced functions each workload reaches at its benchmark size.
_COMMON = ["measure.shell_mass", "measure.sample_shell",
           "integrands.Integrand.call", "integrands.Node.integral",
           "prm.simulate", "prm.replicate_seed", "integrate.nu_factor",
           "experiments.parse_config", "experiments.run_experiment",
           "cli.write_artifacts"]
EXERCISED = {
    "replicate-mc": _COMMON + [
        "measure.nu_nodes", "integrate.int_N", "integrate.compensator",
        "integrate.int_Nhat", "integrate.l_integral", "integrate.z_of_set",
        "integrate.build_path", "integrate.interval_rule", "integrate.box_rule",
        "apps.cumulative_on_grid", "apps.representation_residual",
        "apps.psi_space_time_integral", "apps.modulus_gap",
        "mc.run_replicates", "mc.verdict"],
    "pathwise": _COMMON + [
        "measure.nu_nodes", "integrate.int_N", "integrate.compensator",
        "integrate.int_Nhat", "integrate.build_path", "integrate.interval_rule",
        "integrate.box_rule", "ito.ito_lhs", "ito.ito_rhs_raw",
        "ito.ito_rhs_big_small", "ito.ito_rhs_all_compensated",
        "ito.equivalent_time_drift", "apps.cumulative_on_grid",
        "apps.multiple_integral", "apps.second_chaos_expansion_residual",
        "mc.run_replicates", "mc.verdict"],
    "deep-ladder": _COMMON + [
        "prm.restrict", "integrate.compensator", "integrate.build_path",
        "integrate.CadlagPath.sup_abs", "interlace.eps_sequence",
        "interlace.a_sequence", "interlace.interlacing_diagnostic"],
}


@pytest.fixture(scope="module")
def program():
    return worker.import_program()


def _levynoise_bindings() -> dict:
    """Every name bound in a levynoise module or on a levynoise class."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name != "levynoise" and not name.startswith("levynoise."):
            continue
        for key, value in vars(mod).items():
            out[name, key] = value
            if isinstance(value, type) and value.__module__ == name:
                out.update(((name, key, attr), v) for attr, v in vars(value).items())
    return out


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_pass(program, workload):
    cli, experiments = program
    raws = raw_configs(workload, DEFAULT_SEED, cli.bundled_config_text)
    kind = CALIBRATION[workload]
    plain = worker.run_pass(cli, experiments, raws, traced=False, kind=kind)
    before = _levynoise_bindings()
    traced = worker.run_pass(cli, experiments, raws, traced=True, kind=kind)

    assert traced["missing"] == []
    layers = traced["layers"]
    for fn in EXERCISED[workload]:
        assert layers[f"{fn}.calls"] >= 1, fn
    # self times are non-negative and add up to the traced wall time
    assert run.check_traced([traced]) == []
    assert all(layers[f"{fn}.self_s"] >= 0.0 for fn in TARGETS)
    # the tracer changes no result and leaves no wrapper behind
    assert traced["digests"] == plain["digests"]
    after = _levynoise_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert plain["failed"] == 0 and plain["artifacts_ok"]
    # a calibration before the first config and after each one
    assert len(plain["calibration_s"]) == len(raws) + 1
    assert plain["scaled_wall_s"] > 0.0


def test_nonfinite_values_fail_verdicts():
    @dataclass
    class Row:
        passed: bool
        estimate: object
        z: float

    assert nonfinite(math.nan) and nonfinite(complex(0.0, math.inf))
    assert nonfinite((1.0, np.array([0.0, np.nan])))
    assert not nonfinite(np.arange(3)) and not nonfinite("inf")
    assert nonfinite(Row(True, 1.0, math.nan))
    assert verdict_failed(Row(True, math.nan, 0.0))
    assert verdict_failed(Row(True, 1.0, math.inf))
    assert verdict_failed(Row(False, 1.0, 0.0))
    assert not verdict_failed(Row(True, [1.0, 2.0], 0.5))


@pytest.mark.parametrize("kind", sorted(REF_S))
def test_scaled_times(kind):
    assert set(CALIBRATION.values()) <= REF_S.keys()
    assert calibrate(kind) > 0.0
    ref = REF_S[kind]
    assert scaled(3.0, kind, ref) == pytest.approx(3.0)
    # a machine at half the reference speed doubles both times
    assert scaled(6.0, kind, 2 * ref) == pytest.approx(3.0)
    assert scaled(6.0, kind, ref, 3 * ref) == pytest.approx(3.0)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "deep-ladder",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
