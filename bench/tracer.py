"""Span tracer installed around the public functions of each levynoise layer.

Wrappers are installed from outside the program: a module-level function is
replaced in its home module and in every `levynoise.*` namespace that bound
it by name (`experiments` and `interlace` import `simulate`, `restrict` and
`replicate_seed` directly; `apps.moment_bound_cell` imports them lazily from
`prm`, which is patched at home).  A method is replaced on its class and on
every subclass that defines it, which covers all three measure families.

A span's self time is its duration minus the durations of the traced spans
it directly contains.  The tracer is single-threaded by design: the
benchmark pins `workers` to 1.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import sys
import types
from pathlib import Path
from time import perf_counter

import numpy as np

# metric prefix -> (module, class or None, attribute)
TARGETS = {
    "measure.shell_mass": ("measure", "LevyMeasure", "shell_mass"),
    "measure.sample_shell": ("measure", "LevyMeasure", "sample_shell"),
    "measure.nu_nodes": ("measure", "LevyMeasure", "nu_nodes"),
    "measure.nu_integral": ("measure", "LevyMeasure", "nu_integral"),
    "integrands.Integrand.call": ("integrands", "Integrand", "__call__"),
    "integrands.Node.integral": ("integrands", "Node", "integral"),
    "prm.simulate": ("prm", None, "simulate"),
    "prm.restrict": ("prm", None, "restrict"),
    "prm.replicate_seed": ("prm", None, "replicate_seed"),
    "integrate.int_N": ("integrate", None, "int_N"),
    "integrate.compensator": ("integrate", None, "compensator"),
    "integrate.int_Nhat": ("integrate", None, "int_Nhat"),
    "integrate.l_integral": ("integrate", None, "l_integral"),
    "integrate.z_of_set": ("integrate", None, "z_of_set"),
    "integrate.nu_factor": ("integrate", None, "nu_factor"),
    "integrate.build_path": ("integrate", None, "build_path"),
    "integrate.CadlagPath.sup_abs": ("integrate", "CadlagPath", "sup_abs"),
    "integrate.interval_rule": ("integrate", None, "interval_rule"),
    "integrate.box_rule": ("integrate", None, "box_rule"),
    "interlace.eps_sequence": ("interlace", None, "eps_sequence"),
    "interlace.a_sequence": ("interlace", None, "a_sequence"),
    "interlace.interlacing_diagnostic": ("interlace", None, "interlacing_diagnostic"),
    "ito.ito_lhs": ("ito", None, "ito_lhs"),
    "ito.ito_rhs_raw": ("ito", None, "ito_rhs_raw"),
    "ito.ito_rhs_big_small": ("ito", None, "ito_rhs_big_small"),
    "ito.ito_rhs_all_compensated": ("ito", None, "ito_rhs_all_compensated"),
    "ito.equivalent_time_drift": ("ito", None, "equivalent_time_drift"),
    "apps.cumulative_on_grid": ("apps", None, "cumulative_on_grid"),
    "apps.multiple_integral": ("apps", None, "multiple_integral"),
    "apps.second_chaos_expansion_residual":
        ("apps", None, "second_chaos_expansion_residual"),
    "apps.representation_residual": ("apps", None, "representation_residual"),
    "apps.psi_space_time_integral": ("apps", None, "psi_space_time_integral"),
    "apps.modulus_gap": ("apps", None, "modulus_gap"),
    "mc.run_replicates": ("mc", None, "run_replicates"),
    "mc.verdict": ("mc", None, "verdict"),
    "experiments.parse_config": ("experiments", None, "parse_config"),
    "experiments.run_experiment": ("experiments", None, "run_experiment"),
    "cli.write_artifacts": ("cli", None, "write_artifacts"),
}

# Return values of these layers are checked for NaN/inf: `worst = max(worst,
# resid)` drops NaN, so summary.json cannot show such failures.
NONFINITE_LAYERS = ("integrate", "ito", "apps")

COUNTERS = (
    "prm.simulate.points", "prm.simulate.max_points",
    "mc.replicates", "experiments.verdicts", "experiments.verdicts_failed",
    "cli.write_artifacts.bytes",
) + tuple(f"{layer}.nonfinite" for layer in NONFINITE_LAYERS)


def nonfinite(value) -> bool:
    """True if a number, array, tuple or dataclass holds a NaN or inf."""
    if isinstance(value, (bool, str)) or value is None:
        return False
    if isinstance(value, (int, float, complex, np.number, np.ndarray)):
        arr = np.asarray(value)
        return arr.dtype.kind in "fc" and not bool(np.all(np.isfinite(arr)))
    if isinstance(value, (tuple, list)):
        return any(nonfinite(v) for v in value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return any(nonfinite(getattr(value, f.name))
                   for f in dataclasses.fields(value))
    return False


def verdict_failed(row) -> bool:
    """A verdict fails if it does not pass or its estimate or z is not finite."""
    return (not row.passed) or nonfinite(row.estimate) or nonfinite(row.z)


class Tracer:
    """Per-function call counts, self and inclusive times, and counters."""

    def __init__(self):
        self.calls = dict.fromkeys(TARGETS, 0)
        self.self_s = dict.fromkeys(TARGETS, 0.0)
        self.incl_s = dict.fromkeys(TARGETS, 0.0)
        self.top_s = dict.fromkeys(TARGETS, 0.0)   # spans with no traced parent
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.missing: list[str] = []
        self._stack: list[float] = []               # child time of open spans
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for metric, (modname, owner, attr) in TARGETS.items():
            module = importlib.import_module(f"levynoise.{modname}")
            if owner is None:
                self._patch_function(metric, module, attr)
            else:
                self._patch_method(metric, getattr(module, owner, None), attr)

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, orig = self._undo.pop()
            setattr(obj, attr, orig)

    def _patch_function(self, metric, module, attr):
        orig = getattr(module, attr, None)
        if not isinstance(orig, types.FunctionType):
            self.missing.append(metric)
            return
        wrapped = self._wrap(metric, orig)
        for name, mod in list(sys.modules.items()):
            if name != "levynoise" and not name.startswith("levynoise."):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, key, wrapped)

    def _patch_method(self, metric, base, attr):
        if base is None:
            self.missing.append(metric)
            return
        classes = [base]
        for cls in classes:                 # grows while iterating: all subclasses
            classes.extend(c for c in cls.__subclasses__() if c not in classes)
        found = False
        for cls in classes:
            orig = cls.__dict__.get(attr)
            if isinstance(orig, types.FunctionType):
                self._set(cls, attr, self._wrap(metric, orig))
                found = True
        if not found:
            self.missing.append(metric)

    def _set(self, obj, attr, value):
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def _wrap(self, metric, fn):
        layer = metric.split(".", 1)[0]
        after = _AFTER.get(metric)
        check = layer in NONFINITE_LAYERS
        stack, calls = self._stack, self.calls
        self_s, incl_s, top_s = self.self_s, self.incl_s, self.top_s
        counters = self.counters
        key = f"{layer}.nonfinite"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self_s[metric] += dt - stack.pop()
                incl_s[metric] += dt
                calls[metric] += 1
                if stack:
                    stack[-1] += dt
                else:
                    top_s[metric] += dt
            if check and nonfinite(out):
                counters[key] += 1
            if after is not None:
                after(counters, fn, out, args, kwargs)
            return out

        return wrapper

    # -- results ------------------------------------------------------------

    def covered_s(self) -> float:
        """Time inside traced spans, less the top-level parse_config spans,
        which run outside the timed part of a pass."""
        return sum(self.self_s.values()) - self.top_s["experiments.parse_config"]

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for metric in TARGETS:
            out[f"{metric}.calls"] = self.calls[metric]
            out[f"{metric}.self_s"] = self.self_s[metric]
        out.update(self.counters)
        sim_s = self.incl_s["prm.simulate"]
        out["prm.simulate.points_per_s"] = (
            self.counters["prm.simulate.points"] / sim_s if sim_s > 0 else 0.0)
        return out


def _after_simulate(counters, _fn, out, _args, _kwargs):
    counters["prm.simulate.points"] += len(out)
    counters["prm.simulate.max_points"] = max(counters["prm.simulate.max_points"],
                                              len(out))


def _after_run_replicates(counters, fn, _out, args, kwargs):
    counters["mc.replicates"] += int(
        inspect.signature(fn).bind(*args, **kwargs).arguments["n"])


def _after_run_experiment(counters, _fn, out, _args, _kwargs):
    counters["experiments.verdicts"] += len(out.verdicts)
    counters["experiments.verdicts_failed"] += sum(map(verdict_failed, out.verdicts))


def _after_write_artifacts(counters, _fn, out, _args, _kwargs):
    counters["cli.write_artifacts.bytes"] += sum(
        p.stat().st_size for p in Path(out).iterdir() if p.is_file())


_AFTER = {
    "prm.simulate": _after_simulate,
    "mc.run_replicates": _after_run_replicates,
    "experiments.run_experiment": _after_run_experiment,
    "cli.write_artifacts": _after_write_artifacts,
}
