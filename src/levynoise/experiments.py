"""Named experiment suites binding simulation, analytics, and verdicts.

Each experiment consumes a validated Config, runs every Monte Carlo and
pathwise check over the replicate blocks of `mc.batches`, and returns
verdict rows plus plot-ready CSV tables.
The CLI is a thin shell around this module; the acceptance tests call the
same entry points.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import apps
from . import integrate as it
from . import interlace as il
from . import ito, mc
from .integrands import Integrand, SignPow, integrand_from_json
from .mc import batches, estimate, group_values, replicate_values, run_replicates, verdict
from .measure import LevyMeasure, measure_from_json
from .prm import Window, dump_csv, intensity, replicate_seed, simulate


class ConfigError(ValueError):
    """Configuration rejected before any computation; message carries the
    offending field path."""


# Expected points of the largest single configuration a run may draw: the
# window's under each measure, and the largest ring of each interlace
# ladder, which draws one ring at a time.  About 0.4 GB of points; no
# bundled config comes near it.
MAX_POINTS = 1 << 24


@dataclass
class Config:
    experiment: str
    seed: int
    replicates: int
    workers: int  # validated only: replicates run in one thread
    window: Window
    measures: dict[str, LevyMeasure]
    integrands: dict[str, Integrand]
    params: dict  # the experiment's PARAMS, resolved by parse_config
    output_dir: str | None = None
    # interlace's (param, ladder, problem) triples, built once by parse_config
    ladders: list = field(default_factory=list, init=False)

    def measure(self) -> LevyMeasure:
        return next(iter(self.measures.values()))


# `measure` is shorthand for a `measures` of one entry
TOP_LEVEL_FIELDS = frozenset(f.name for f in fields(Config) if f.init) | {"measure"}


def parse_config(raw: dict) -> Config:
    unknown = sorted(set(raw) - TOP_LEVEL_FIELDS)
    if unknown:
        raise ConfigError(f"{unknown[0]}: unknown field; "
                          f"choose from {sorted(TOP_LEVEL_FIELDS)}")

    def need(key):
        if key not in raw:
            raise ConfigError(f"{key}: missing")
        return raw[key]

    def typed(key, default, kinds, what):
        val = raw.get(key, default)
        if isinstance(val, bool) or not isinstance(val, kinds):
            raise ConfigError(f"{key}: must be {what}, got {val!r}")
        return val

    need("experiment")
    name = typed("experiment", None, str, "a string")
    if name not in REGISTRY:
        raise ConfigError(f"experiment: unknown name {name!r}; "
                          f"choose from {sorted(REGISTRY)}")
    try:
        window = Window.from_json(need("window"))
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"window: {exc}") from exc

    measures = {}
    mraw = typed("measures", None, (dict, type(None)), "an object")
    if mraw is None and "measure" in raw:
        mraw = {"default": raw["measure"]}
    if not mraw:
        raise ConfigError("measure: missing (give `measure` or `measures`)")
    for key, spec in mraw.items():
        try:
            measures[key] = measure_from_json(spec)
        except Exception as exc:
            raise ConfigError(f"measures.{key}: {exc}") from exc

    integrands = {}
    for key, spec in typed("integrands", {}, dict, "an object").items():
        try:
            integrands[key] = integrand_from_json(spec)
        except Exception as exc:
            raise ConfigError(f"integrands.{key}: {exc}") from exc

    cfg = Config(experiment=name, window=window, measures=measures, integrands=integrands,
                 params=dict(typed("params", {}, dict, "an object")),
                 **_resolve(FIELDS, raw, None))
    validate_config(cfg)
    table = PARAMS[name]
    unknown = sorted(set(cfg.params) - set(table))
    if unknown:
        raise ConfigError(f"params.{unknown[0]}: unknown param; choose from {sorted(table)}")
    cfg.params = _resolve(table, cfg.params, cfg, "params.")
    if name == "interlace":
        cfg.ladders = _ladders(cfg)
    for key, ladder, problem in cfg.ladders:
        _check_points(f"params.{key}", f"the largest {ladder.kind} ring",
                      max((intensity(w, problem.measure)
                           for _, w, _ in il.rings(ladder, problem)), default=0.0))
    return cfg


def _finite(val) -> bool:
    return not isinstance(val, bool) and isinstance(val, (int, float)) and math.isfinite(val)


def _list(val, item=lambda _: True) -> bool:
    return isinstance(val, list) and bool(val) and all(map(item, val))


def _pair(val, lo=-math.inf, hi=math.inf) -> bool:
    return (isinstance(val, (list, tuple)) and len(val) == 2 and all(map(_finite, val))
            and lo <= val[0] < val[1] <= hi)


def _kind(what: str, ok, convert=lambda val: val):
    """A kind of param: takes a given or defaulted value and the config, and
    returns the value converted, or raises ValueError("must be <what>, ...")."""
    def kind(val, cfg):
        if not ok(val):
            raise ValueError(f"must be {what}, got {val!r}")
        return convert(val)
    return kind


_COUNT = _kind("an integer >= 1", lambda v: type(v) is int and v >= 1)
_REPLICATES = _kind("an integer >= 2", lambda v: type(v) is int and v >= 2)  # an se, a ring need 2
_REAL = _kind("a finite number", _finite, float)
_POSITIVE = _kind("a finite number > 0", lambda v: _finite(v) and v > 0.0, float)
_FLAG = _kind("true or false", lambda v: isinstance(v, bool))
_REALS = _kind("a non-empty list of finite numbers", lambda v: _list(v, _finite),
               lambda v: list(map(float, v)))
_PS = _kind("a non-empty list of finite numbers >= 2",
            lambda v: _list(v, _finite) and min(v) >= 2.0, lambda v: list(map(float, v)))


def _interval(val, cfg):
    if not _pair(val, 0.0, cfg.window.horizon):
        raise ValueError(f"must be a pair [lo, hi] of finite numbers with "
                         f"0 <= lo < hi <= {cfg.window.horizon:g}, got {val!r}")
    return tuple(map(float, val))


def _box(val, cfg):
    if not (isinstance(val, (list, tuple)) and len(val) == cfg.window.dim
            and all(map(_pair, val, *zip(*cfg.window.box)))):
        raise ValueError(f"must be {cfg.window.dim} pair(s) [lo, hi] of finite numbers "
                         f"with lo < hi inside the window box {cfg.window.box}, got {val!r}")
    return tuple(tuple(map(float, pair)) for pair in val)


def _integrand(val, cfg) -> Integrand:
    if not isinstance(val, str) or val not in cfg.integrands:
        raise ValueError(f"{val!r} names no integrand; defined: {sorted(cfg.integrands)}")
    return cfg.integrands[val]


def _integrands(val, cfg) -> list[tuple[str, Integrand]]:
    if not _list(val):
        raise ValueError(f"must be a non-empty list of integrand names, got {val!r}")
    return [(name, _integrand(name, cfg)) for name in val]


def _measure(val, cfg) -> LevyMeasure:
    if not isinstance(val, str) or val not in cfg.measures:
        raise ValueError(f"{val!r} names no measure; defined: {sorted(cfg.measures)}")
    return cfg.measures[val]


def _cells(val, cfg) -> list[tuple[str, LevyMeasure, str, Integrand]]:
    if not _list(val, lambda cell: isinstance(cell, dict)):
        raise ValueError(f"must be a non-empty list of {{measure, integrand}} pairs, got {val!r}")
    return [(c.get("measure"), _measure(c.get("measure"), cfg),
             c.get("integrand"), _integrand(c.get("integrand"), cfg)) for c in val]


def _smooth_fns(val, cfg) -> list[ito.SmoothFn]:
    msg = f"must be a non-empty list of smooth functions, got {val!r}"
    if not _list(val, lambda spec: isinstance(spec, dict)):
        raise ValueError(msg)
    try:
        return [ito.smooth_fn_from_json(spec) for spec in val]
    except (LookupError, TypeError, ValueError) as exc:
        raise ValueError(f"{msg}: {exc}") from None


ITO_FNS = [{"kind": "poly", "coeffs": [0.0, 0.0, 1.0]}, {"kind": "exp", "scale": 0.4},
           {"kind": "cos", "scale": 1.0}]
# The top-level fields that are plain values, {key: (kind, default)}
FIELDS = {"seed": (_kind("an integer", lambda v: type(v) is int), 0),
          "replicates": (_REPLICATES, 10000), "workers": (_COUNT, 1),
          "output_dir": (_kind("a string", lambda v: v is None or isinstance(v, str)), None)}

_ITO = {"functions": (_smooth_fns, ITO_FNS), "paths": (_COUNT, 1000),
        "g_names": (_integrands, ["G0", "G1", "G2"])}
_K_NAMES = (_integrands, ["K1", "K2", "K3"])

# Every param of every experiment, {key: (kind, default)}; a callable
# default is a function of the config.  `parse_config` resolves each one,
# given or defaulted, into `Config.params`.
PARAMS = {
    "simulate": {"spatial_sample": (_COUNT, 300)},
    "isometry": {"cells": (_cells, lambda cfg: [{"measure": mk, "integrand": hk}
                                                for mk in cfg.measures for hk in cfg.integrands])},
    "charfn": {"a": (_REAL, 0.4), "u_values": (_REALS, [-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]),
               "box": (_box, lambda cfg: cfg.window.box),
               "interval": (_interval, lambda cfg: (0.0, cfg.window.horizon))},
    "ito-lemma": {**_ITO, "k_names": _K_NAMES},
    "ito1": {**_ITO, "k_names": _K_NAMES, "h_name": (_integrand, "H"),
             "agreement_paths": (_COUNT, 100)},
    "ito2": {**_ITO, "functions": (_smooth_fns, [{"kind": "poly", "coeffs": [0.0, 0.0, 1.0]},
                                                 {"kind": "abs_pow", "power": 2.0},
                                                 {"kind": "exp", "scale": 0.4}]),
             "h_names": (_integrands, ["H1", "H2", "H3"])},
    # the spatial_* params are resolved only when `spatial` is true
    "interlace": {"n_max": (_REPLICATES, 6), "diag_replicates": (_REPLICATES, 64),
                  "h_name": (_integrand, "H"), "small_hi": (_POSITIVE, 1.0),
                  "worked_example": (_FLAG, False), "spatial": (_FLAG, True),
                  "spatial_h_name": (_integrand, "HS"), "spatial_k_name": (_integrand, "KS"),
                  "spatial_measure": (_measure, lambda cfg: next(iter(cfg.measures))),
                  "spatial_n_max": (_REPLICATES, 4), "spatial_replicates": (_REPLICATES, 48)},
    "kunita": {"ps": (_PS, [2.0, 3.0, 4.0]),
               "cell_replicates": (_REPLICATES, lambda cfg: cfg.replicates),
               "x_names": (_integrands, ["X1", "X2", "X3"])},
    "martingale": {"h_name": (_integrand, "h"), "u_values": (_REALS, [-1.0, -0.5, 0.5, 1.0, 2.0]),
                   "representation_paths": (_COUNT, 100)},
    "chaos": {"slot_a": (_integrand, "A"), "slot_b": (_integrand, "B"),
              "slot_c": (_integrand, "C"), "product_check_paths": (_COUNT, 300)},
}


def _resolve(table: dict, given: dict, cfg: Config | None, prefix: str = "") -> dict:
    """Each entry of a FIELDS or PARAMS table, given or defaulted, checked and
    converted; a bad value is a ConfigError naming <prefix><key>."""
    out = {}
    for key, (kind, default) in table.items():
        if key.startswith("spatial_") and out.get("spatial") is False:
            continue  # interlace without its spatial ladder
        val = given[key] if key in given else (default(cfg) if callable(default) else default)
        try:
            out[key] = kind(val, cfg)
        except ValueError as exc:
            raise ConfigError(f"{prefix}{key}: {exc}") from None
    return out


def validate_config(cfg: Config) -> None:
    for key, m in cfg.measures.items():
        try:
            points = intensity(cfg.window, m)
        except Exception as exc:
            raise ConfigError(f"measures.{key}: shell mass: {exc}") from exc
        _check_points("window", f"the window under measures.{key}", points)
        try:
            m.shell_moment(cfg.window.shell, 2.0)
        except Exception as exc:
            raise ConfigError(f"measures.{key}: second moment: {exc}") from exc


def _ladders(cfg: Config) -> list:
    """interlace's small-jump ladder and, with `spatial`, its spatial one, as
    (the param of its depth, ladder, problem) triples.  A ladder with no ring
    to diagnose is a ConfigError naming its integrand's param."""
    w, p = cfg.window, cfg.params
    T = w.horizon
    problem = il.LadderProblem(H=p["h_name"], measure=cfg.measure(), T=T, box=w.box,
                               small_hi=p["small_hi"])
    try:
        out = [("n_max", il.eps_sequence(problem.H, w.box, T, problem.measure,
                                         n_max=p["n_max"], small_hi=problem.small_hi), problem)]
    except ValueError as exc:
        raise ConfigError(f"params.h_name: small-jump ladder: {exc}") from None
    if p["spatial"]:
        problem = il.LadderProblem(H=p["spatial_h_name"], K=p["spatial_k_name"],
                                   measure=p["spatial_measure"], T=T, shell=w.shell, dim=w.dim)
        try:
            out.append(("spatial_n_max", il.a_sequence(
                problem.H, problem.K, T, problem.measure, n_max=p["spatial_n_max"],
                kind="spatial-I", shell=w.shell, dim=w.dim), problem))
        except ValueError as exc:
            raise ConfigError(f"params.spatial_h_name: spatial ladder: {exc}") from None
    for (_, ladder, _), h_key in zip(out, ("h_name", "spatial_h_name")):
        if ladder.violation or len(ladder.levels) < 2:
            why = ladder.violation or f"one level, truncated at {ladder.truncation_point:.6g}"
            raise ConfigError(f"params.{h_key}: {ladder.kind} ladder: {why}; no ring to diagnose")
    return out


def _check_points(key: str, what: str, points: float) -> None:
    """Refuse a configuration that expects more than MAX_POINTS points,
    naming the field that sets its size."""
    if not points <= MAX_POINTS:
        raise ConfigError(f"{key}: {what} expects {points:.3g} points, over the "
                          f"budget of {MAX_POINTS} (experiments.MAX_POINTS)")


# ---------------------------------------------------------------------------
# results


@dataclass
class VerdictRow:
    name: str
    estimate: object
    target: object
    se: object
    z: float
    passed: bool


@dataclass
class ExperimentResult:
    experiment: str
    seed: int
    replicates: int
    verdicts: list[VerdictRow] = field(default_factory=list)
    tables: dict[str, str] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def summary(self) -> dict:
        return {
            "experiment": self.experiment,
            "seed": self.seed,
            "replicates": self.replicates,
            "passed": bool(self.passed),
            "verdicts": [
                {"name": v.name, "estimate": _num(v.estimate),
                 "target": _num(v.target), "se": _num(v.se),
                 "z": _num(v.z), "pass": bool(v.passed)}
                for v in self.verdicts
            ],
        }


def _num(x):
    if isinstance(x, complex):
        return [float(x.real), float(x.imag)]
    if isinstance(x, np.ndarray):
        return [_num(v) for v in x.tolist()]
    if isinstance(x, float) and math.isinf(x):
        return "inf"
    return float(x)


def _mc_row(name, mean, se, target, atol=0.0) -> VerdictRow:
    v = verdict(mean, se, target, atol)
    return VerdictRow(name, mean, target, se, v.z, v.passed)


def _tol_row(name, value, tol) -> VerdictRow:
    z = value / tol if tol > 0 else (0.0 if value == 0 else math.inf)
    return VerdictRow(name, value, tol, 0.0, z, value <= tol)


def _bound_row(name, estimate, bound, se) -> VerdictRow:
    z = (estimate - bound) / se if se > 0 else 0.0
    ok = math.isfinite(estimate) and math.isfinite(se) and estimate <= bound + mc.K_SIGMA * se
    return VerdictRow(name, estimate, bound, se, z, ok)


def _worst(values) -> float:
    """The largest value; NaN for none or if any value is NaN, so that a
    verdict on no value or on a NaN residual fails."""
    return float(np.max(values)) if len(values) else math.nan


def _csv(header, rows) -> str:
    """The table as CSV; fields that hold commas (Ito cell labels) are quoted."""
    buf = io.StringIO()
    out = csv.writer(buf, lineterminator="\n")
    out.writerow(header)
    out.writerows([_fmt(v) for v in row] for row in rows)
    return buf.getvalue()


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.17g}"
    if isinstance(v, complex):
        return f"{v.real:.17g}{v.imag:+.17g}j"
    return str(v)


def _seed_for(cfg: Config, tag: int) -> int:
    return replicate_seed(cfg.seed, 10_000 + tag)


# ---------------------------------------------------------------------------
# experiments


def _point_counts(window, measure, n, master_seed, keep_x):
    """The point count and the first-half count of each of the n replicates,
    and the locations of the points of the first keep_x."""
    half = window.horizon / 2.0
    counts, first, xs = [], [], []
    for k0, b in batches(window, measure, n, master_seed):
        counts.append(b.counts)
        first.append(np.bincount(b.segment[b.t <= half], minlength=len(b)))
        xs.append(b.x[:b.offsets[min(max(keep_x - k0, 0), len(b))]])
    return np.concatenate(counts), np.concatenate(first), np.concatenate(xs)


def run_simulate(cfg: Config) -> ExperimentResult:
    """Point-process sanity: count mean, spatial uniformity, half-interval
    independence; writes one configuration as CSV."""
    from scipy import stats

    w, m = cfg.window, cfg.measure()
    n = cfg.replicates
    keep_x = min(n, cfg.params["spatial_sample"])
    counts, first, xs = _point_counts(w, m, n, _seed_for(cfg, 0), keep_x)
    counts, first = counts.astype(float), first.astype(float)
    second = counts - first
    res = ExperimentResult(cfg.experiment, cfg.seed, n)
    count = estimate(counts, cfg.seed)
    res.verdicts.append(_mc_row("count_mean", count.mean, count.se, intensity(w, m)))
    level = 1e-3  # of both p-value tests
    for ax in range(w.dim):
        lo, hi = w.box[ax]
        p = float(stats.kstest(xs[:, ax], "uniform", args=(lo, hi - lo)).pvalue)
        res.verdicts.append(VerdictRow(f"spatial_uniform_ks_axis{ax + 1}", p,
                                       level, 0.0, 0.0, p > level))
    cap = 6
    table = np.zeros((cap + 1, cap + 1))
    for a, b in zip(np.minimum(first, cap).astype(int),
                    np.minimum(second, cap).astype(int)):
        table[a, b] += 1
    table = table[table.sum(axis=1) > 0][:, table.sum(axis=0) > 0]
    if table.shape[0] > 1 and table.shape[1] > 1:
        p = float(stats.chi2_contingency(table).pvalue)
        res.verdicts.append(VerdictRow("halves_independent_chi2", p, level,
                                       0.0, 0.0, p > level))
    res.tables["points.csv"] = dump_csv(simulate(w, m, _seed_for(cfg, 1)))
    return res


def run_isometry(cfg: Config) -> ExperimentResult:
    """Zero mean and second-moment identity of compensated integrals, plus
    the raw-integral mean identity, per (measure, integrand) cell."""
    w = cfg.window
    T = w.horizon
    res = ExperimentResult(cfg.experiment, cfg.seed, cfg.replicates)
    rows = []
    for i, (mk, m, hk, H) in enumerate(cfg.params["cells"]):
        comp = it.compensator(H, w, m, T)
        comp2 = it.compensator(H.squared(), w, m, T)

        def stat(batch, H=H, comp=comp):
            raw = it.int_N(H, batch, T)
            nhat = raw - comp
            return np.stack([nhat, nhat * nhat, raw], axis=1)

        est = run_replicates(stat, w, m, cfg.replicates, _seed_for(cfg, 100 + i))
        # exact se of N~(H)^2: the sample one shrinks with the mean when a run misses large values
        se2 = math.sqrt(apps.noise_square_variance(H, w, m, T) / cfg.replicates)
        label = f"{mk}/{hk}"
        parts = [
            (f"centered_mean[{label}]", 0, 0.0, est.se[0]),
            (f"second_moment[{label}]", 1, comp2, se2),
            (f"raw_mean[{label}]", 2, comp, est.se[2]),
        ]
        for name, idx, target, se in parts:
            mean, se = float(est.mean[idx]), float(se)
            res.verdicts.append(_mc_row(name, mean, se, target))
            rows.append((mk, hk, name.split("[")[0], mean, se, float(target),
                         res.verdicts[-1].z))
    res.tables["isometry.csv"] = _csv(
        ("measure", "integrand", "statistic", "estimate", "se", "target", "z"), rows)
    return res


def run_charfn(cfg: Config) -> ExperimentResult:
    """Empirical characteristic function of the noise charge of a set
    against the shell-exact exponent."""
    w, m = cfg.window, cfg.measure()
    a, box, interval = cfg.params["a"], cfg.params["box"], cfg.params["interval"]
    us = np.asarray(cfg.params["u_values"])
    n = cfg.replicates
    vol = (interval[1] - interval[0])
    for lo, hi in box:
        vol *= hi - lo
    big = w.shell.clip(1.0, math.inf)
    big_m1 = m.shell_moment(big, 1.0, signed=True) if big else 0.0
    targets = np.array([
        np.exp(vol * (1j * u * a + m.psi_shell(w.shell, u) + 1j * u * big_m1))
        for u in us])

    def stat(batch):
        return np.exp(1j * us * it.z_of_set(a, box, interval, batch, m)[:, None])

    est = run_replicates(stat, w, m, n, _seed_for(cfg, 200))
    res = ExperimentResult(cfg.experiment, cfg.seed, n)
    res.tables["charfn.csv"] = _charfn_rows(
        res, "charfn", us, [complex(v) for v in est.mean],
        [complex(v) for v in targets], n)
    return res


def _charfn_rows(res: ExperimentResult, name: str, us, emps, targets, n: int) -> str:
    """One verdict per frequency u: the empirical characteristic function
    within K_SIGMA / sqrt(n) of the exact one (1 / sqrt(n) bounds the
    standard error of each component); returns the CSV table."""
    tol = mc.K_SIGMA / math.sqrt(n)
    rows = []
    for u, emp, target in zip(us, emps, targets):
        err = abs(emp - target)
        res.verdicts.append(VerdictRow(f"{name}[u={u:g}]", emp, target,
                                       1.0 / math.sqrt(n), err * math.sqrt(n),
                                       err <= tol))
        rows.append((u, emp, target, err, tol))
    return _csv(("u", "empirical", "exact", "error", "tolerance"), rows)


ITO_CSV_HEADER = ("cell", "replicate", "t", "lhs", "term1", "term2", "term3",
                  "term4", "rhs", "residual")
ITO_CSV_PATHS = 25  # paths per cell whose terms go to the residual table


def _ito_matrix(cfg: Config, table: str, tag: int, x_key: str, slot: str, split: float,
                tol: float, rhs, **fixed) -> tuple[ExperimentResult, list]:
    """Check one form of the Ito formula path by path on every (f, G, X)
    cell, f outermost, X innermost.

    X fills the `slot` ("K" or "H") of the process, next to the `fixed`
    integrands.  The f's of one (G, X) are one group: `group_values`
    stacks each block of their cells' own paths, built at once at `split`,
    and `rhs`, the form's right side, is called on them with the f's and
    the cell's K and H as keywords.  Each cell gets a verdict on its largest
    |lhs - rhs| against `tol` and puts its first paths in the residual
    table.  Returns the result and every cell's FourTermResult, one value
    per path.
    """
    w, m = cfg.window, cfg.measure()
    T = w.horizon
    paths = cfg.params["paths"]
    fns, Gs, Xs = cfg.params["functions"], cfg.params["g_names"], cfg.params[x_key]
    res = ExperimentResult(cfg.experiment, cfg.seed, paths)
    values = {}
    for (gi, (_, G)), (xi, (_, X)) in itertools.product(enumerate(Gs), enumerate(Xs)):
        slots = {**fixed, slot: X}

        def evaluate(batch, G=G, slots=slots):
            path = it.build_path(G, slots.get("K"), slots.get("H"), batch, m, split=split)
            r = rhs(fns, G, batch=batch, measure=m, t=T, path=path, **slots)
            return (ito.ito_lhs(fns, path, T), r.g_term, r.big_jump_term,
                    r.compensated_term, r.nu_term)

        idxs = [(fi * len(Gs) + gi) * len(Xs) + xi for fi in range(len(fns))]
        values.update(zip(idxs, group_values(evaluate, w, m, paths,
                                             [_seed_for(cfg, tag + idx) for idx in idxs])))
    rows, cells = [], []
    for idx, (fn, (gname, _), (xname, _)) in enumerate(itertools.product(fns, Gs, Xs)):
        label = f"{fn.name}|{gname}|{xname}"
        lhs, *terms = values[idx]
        r = ito.FourTermResult(*terms)
        total = r.total
        res.verdicts.append(_tol_row(f"max_residual[{label}]",
                                     _worst(np.abs(lhs - total)), tol))
        rows.extend((label, k, T, lhs[k], r.g_term[k], r.big_jump_term[k],
                     r.compensated_term[k], r.nu_term[k], total[k], lhs[k] - total[k])
                    for k in range(min(paths, ITO_CSV_PATHS)))
        cells.append(r)
    res.tables[table] = _csv(ITO_CSV_HEADER, rows)
    return res, cells


def run_ito_lemma(cfg: Config) -> ExperimentResult:
    """Pathwise identity for the formula without compensation over the cell
    matrix; reports the max residual per cell."""
    return _ito_matrix(cfg, "ito_lemma_residuals.csv", 300, "k_names", "K", 0.0, 1e-8,
                       ito.ito_rhs_raw)[0]


def run_ito1(cfg: Config) -> ExperimentResult:
    """Pathwise identity for the four-term split formula, the martingale
    mean of its compensated term, and agreement with the all-compensated
    form on shared cases."""
    w, m = cfg.window, cfg.measure()
    T = w.horizon
    H = cfg.params["h_name"]
    split = 1.0
    res, cells = _ito_matrix(cfg, "ito1_residuals.csv", 400, "k_names", "K", split, 1e-6,
                             functools.partial(ito.ito_rhs_big_small, split=split), H=H)
    # the compensated term of the first cell is a martingale at T
    mart = estimate(cells[0].compensated_term, cfg.seed)
    res.verdicts.append(_mc_row("compensated_term_mean", mart.mean, mart.se, 0.0))
    # shared-case agreement: K = H on the big-jump side, every f one group
    Gs, fns = cfg.params["g_names"], cfg.params["functions"]
    G = Gs[min(1, len(Gs) - 1)][1]
    g2 = ito.equivalent_time_drift(G, H, w, m, split=split)

    def gap(batch):
        r1 = ito.ito_rhs_big_small(fns, G, H, H, batch, m, T, split=split)
        r2 = ito.ito_rhs_all_compensated(fns, g2, H, batch, m, T)
        return (np.abs(r1.total - r2.total),)

    seeds = [_seed_for(cfg, 450 + i) for i in range(len(fns))]
    for fn, (gaps,) in zip(fns, group_values(gap, w, m, cfg.params["agreement_paths"], seeds)):
        res.verdicts.append(_tol_row(f"form_agreement[{fn.name}]", _worst(gaps), 1e-10))
    return res


def run_ito2(cfg: Config) -> ExperimentResult:
    """Pathwise identity for the all-compensated formula over its matrix."""
    return _ito_matrix(cfg, "ito2_residuals.csv", 500, "h_names", "H", math.inf, 1e-6,
                       ito.ito_rhs_all_compensated)[0]


def _ladder_rows(prefix: str, rows: list[il.DiagnosticRow]):
    """The two verdicts per ladder level: mean squared sup-norm difference
    and exceedance frequency, each against its bound."""
    for row in rows:
        yield _bound_row(f"{prefix}sup2_bound[n={row.level}]", row.empirical_sup2,
                         row.bound, row.sup2_se)
        yield _bound_row(f"{prefix}exceed_bound[n={row.level}]", row.exceed_freq,
                         row.bound_freq, row.exceed_se)


def _ladder_table(rows: list[il.DiagnosticRow]) -> str:
    return _csv(("level", "threshold", "I", "empirical_sup2", "bound", "exceed_freq",
                 "bound_freq"), [(r.level, r.threshold, r.i_value, r.empirical_sup2, r.bound,
                                  r.exceed_freq, r.bound_freq) for r in rows])


def run_interlace(cfg: Config) -> ExperimentResult:
    """Threshold ladders plus sup-norm diagnostics of independently drawn
    rings against the geometric bounds."""
    reps = cfg.params["diag_replicates"]
    res = ExperimentResult(cfg.experiment, cfg.seed, reps)
    (_, ladder, problem), *spatial = cfg.ladders
    if cfg.params["worked_example"]:
        worst = _worst([abs(lv.threshold - 8.0 ** -lv.n / 2.0) / (8.0 ** -lv.n / 2.0)
                        for lv in ladder.levels])
        res.verdicts.append(_tol_row("threshold_closed_form_rel_err", worst, 1e-8))
    rep = il.interlacing_diagnostic(ladder, problem, reps, _seed_for(cfg, 600))
    res.verdicts.extend(_ladder_rows("", rep))
    res.tables["eps_ladder.csv"] = _ladder_table(rep)

    for _, sladder, sproblem in spatial:
        srep = il.interlacing_diagnostic(sladder, sproblem, cfg.params["spatial_replicates"],
                                         _seed_for(cfg, 601))
        res.verdicts.extend(_ladder_rows("spatial_", srep))
        res.tables["spatial_ladder.csv"] = _ladder_table(srep)
    return res


def run_kunita(cfg: Config) -> ExperimentResult:
    """Maximal p-th moment sweep with the exact second-moment verdict and a
    frozen regression guard on the observed ratios."""
    w = cfg.window
    T = w.horizon
    reps = cfg.params["cell_replicates"]
    guard = 10.0  # a frozen regression factor, not a test at a stated level
    res = ExperimentResult(cfg.experiment, cfg.seed, reps)
    rows = []
    guard_ratios = []
    idx = 0
    for mk, m in cfg.measures.items():
        for xn, X in cfg.params["x_names"]:
            for p in cfg.params["ps"]:
                cell = apps.moment_bound_cell(X, m, p, T, w, reps,
                                              _seed_for(cfg, 700 + idx))
                rows.append((mk, xn, p, cell.lhs_mean, cell.lhs_se,
                             cell.bracket, cell.ratio, cell.moment_scale))
                if cell.bracket > 0:
                    guard_ratios.append(cell.ratio / (guard * cell.moment_scale))
                if p == 2.0:
                    v_shell = m.shell_moment(w.shell, 2.0)
                    target = v_shell * apps.space_time_norm_sq(X, w, T)
                    # X(T)^2 is judged by its exact standard error: the sample one
                    # shrinks with the mean when a run misses its large values
                    exact_se = math.sqrt(apps.noise_square_variance(
                        X.with_jump(SignPow(1.0)), w, m, T) / reps)
                    res.verdicts.append(_mc_row(f"p2_isometry[{mk}/{xn}]",
                                                cell.isometry_mean, exact_se, target))
                idx += 1
    res.verdicts.append(_tol_row(f"ratio_guard(max ratio / ({guard:g} max(v^p/2, m_p)))",
                                 _worst(guard_ratios), 1.0))
    res.tables["kunita_sweep.csv"] = _csv(
        ("measure", "integrand", "p", "lhs_mean", "lhs_se", "bracket",
         "ratio", "moment_scale"), rows)
    return res


def run_martingale(cfg: Config) -> ExperimentResult:
    """Mean-one verdict, integral-representation residuals, modulus identity,
    and the characteristic functional at several frequencies."""
    w, m = cfg.window, cfg.measure()
    T = w.horizon
    h, us = cfg.params["h_name"], cfg.params["u_values"]
    n = cfg.replicates
    psi_int = apps.psi_space_time_integral(h, w, m, T)
    psi_scaled = [apps.psi_space_time_integral(h * u, w, m, T) for u in us]

    def stat(batch):
        L = it.l_integral(h, batch, m, T)[:, None]
        return np.concatenate([np.exp(1j * L - psi_int),
                               np.exp(1j * np.asarray(us) * L)], axis=1)

    est = run_replicates(stat, w, m, n, _seed_for(cfg, 800))
    res = ExperimentResult(cfg.experiment, cfg.seed, n)
    res.verdicts.append(_mc_row("martingale_mean", complex(est.mean[0]), complex(est.se[0]),
                                1.0 + 0.0j))
    table = _charfn_rows(res, "charfn_noise", us, [complex(v) for v in est.mean[1:]],
                         [complex(np.exp(p)) for p in psi_scaled], n)

    resid, gaps = replicate_values(
        lambda batch: (apps.representation_residual(h, batch, m, T),
                       apps.modulus_gap(h, batch, m, T, psi_int)),
        w, m, cfg.params["representation_paths"], _seed_for(cfg, 801))
    res.verdicts.append(_tol_row("representation_residual_max", _worst(resid), 1e-6))
    res.verdicts.append(_tol_row("modulus_identity_max_gap", _worst(gaps), 1e-10))
    res.tables["martingale_charfn.csv"] = table
    return res


def run_chaos(cfg: Config) -> ExperimentResult:
    """Multiple-integral isometry, cross-order orthogonality, the product
    identity for disjoint supports, and the explicit second-order expansion."""
    w, m = cfg.window, cfg.measure()
    T = w.horizon
    slot_a, slot_b, slot_c = (cfg.params[key] for key in ("slot_a", "slot_b", "slot_c"))
    n = cfg.replicates
    f2 = apps.ChaosFunction((slot_a, slot_b))
    apps.check_disjoint(f2, w, m, T)
    norm2 = apps.chaos_norm_sq(f2, w, m, T)

    def stat(batch):
        i1 = it.int_Nhat(slot_c, batch, m, T)
        i2 = apps.multiple_integral(f2, batch, m, T)
        expansion = apps.second_chaos_expansion_residual(slot_a, batch, m, T)
        return np.stack([i1, i2 * i2, i1 * i2, expansion * expansion], axis=1)

    est = run_replicates(stat, w, m, n, _seed_for(cfg, 900))
    res = ExperimentResult(cfg.experiment, cfg.seed, n)
    # (statistic, target, atol), in the order of the columns of `stat`
    stats = (("first_order_mean", 0.0, 0.0), ("second_order_isometry", 2.0 * norm2, 0.0),
             ("cross_order_orthogonality", 0.0, 0.0), ("expansion_l2_residual", 0.0, 1e-16))
    # I2^2 is judged by its exact standard error: the sample one collapses
    # with the mean when a run misses the rare large values of I2^2
    exact_se = math.sqrt(apps.second_order_square_variance(f2, w, m, T) / n)
    rows = [(name, float(est.mean[i]), exact_se if i == 1 else float(est.se[i]),
             float(est.se[i]), target) for i, (name, target, _) in enumerate(stats)]
    for (name, mean, se, _, target), (_, _, atol) in zip(rows, stats):
        res.verdicts.append(_mc_row(name, mean, se, target, atol))
    # the mean of |I2 - product| over replicates, plus its spread, bounds the max
    def product_gap(batch):
        i2 = apps.multiple_integral(f2, batch, m, T)
        return (abs(i2 - it.int_Nhat(slot_a, batch, m, T) * it.int_Nhat(slot_b, batch, m, T)),)

    gaps, = replicate_values(product_gap, w, m, min(n, cfg.params["product_check_paths"]),
                             _seed_for(cfg, 901))
    res.verdicts.append(_tol_row("product_identity_max_gap", _worst(gaps), 1e-9))
    res.tables["chaos.csv"] = _csv(("statistic", "estimate", "se", "sample_se", "target"), rows)
    return res


REGISTRY = {
    "simulate": run_simulate,
    "isometry": run_isometry,
    "charfn": run_charfn,
    "ito1": run_ito1,
    "ito2": run_ito2,
    "ito-lemma": run_ito_lemma,
    "interlace": run_interlace,
    "kunita": run_kunita,
    "martingale": run_martingale,
    "chaos": run_chaos,
}


def run_experiment(cfg: Config) -> ExperimentResult:
    return REGISTRY[cfg.experiment](cfg)
