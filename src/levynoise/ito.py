"""Pathwise evaluation of both sides of the jump-calculus change-of-variable
formulas.

At the working truncation the simulated process is a genuine finite-activity
semimartingale, so each identity holds path by path and the only slack is
quadrature.  Jump sums are exact; time integrals run interval-by-interval
between jumps (the path is smooth there); the triple compensator integrals
use one shared tensor rule so that algebraically cancelling pieces cancel to
machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import integrate as it
from .integrands import Integrand
from .measure import LevyMeasure
from .prm import PointConfiguration


# ---------------------------------------------------------------------------
# twice continuously differentiable test functions, closed-form derivatives


@dataclass(frozen=True)
class SmoothFn:
    name: str
    f: Callable
    df: Callable
    d2f: Callable


def poly_fn(*coeffs: float) -> SmoothFn:
    c = np.asarray(coeffs, dtype=float)
    dc = np.polynomial.polynomial.polyder(c)
    d2c = np.polynomial.polynomial.polyder(dc) if len(dc) else np.zeros(1)
    pv = np.polynomial.polynomial.polyval
    return SmoothFn(f"poly{tuple(coeffs)}",
                    lambda x: pv(np.asarray(x, dtype=float), c),
                    lambda x: pv(np.asarray(x, dtype=float), dc if len(dc) else [0.0]),
                    lambda x: pv(np.asarray(x, dtype=float), d2c))


def exp_fn(scale: float = 1.0) -> SmoothFn:
    return SmoothFn(f"exp({scale})",
                    lambda x: np.exp(scale * np.asarray(x, dtype=float)),
                    lambda x: scale * np.exp(scale * np.asarray(x, dtype=float)),
                    lambda x: scale * scale * np.exp(scale * np.asarray(x, dtype=float)))


def cos_fn(scale: float = 1.0) -> SmoothFn:
    return SmoothFn(f"cos({scale})",
                    lambda x: np.cos(scale * np.asarray(x, dtype=float)),
                    lambda x: -scale * np.sin(scale * np.asarray(x, dtype=float)),
                    lambda x: -scale * scale * np.cos(scale * np.asarray(x, dtype=float)))


def sin_fn(scale: float = 1.0) -> SmoothFn:
    return SmoothFn(f"sin({scale})",
                    lambda x: np.sin(scale * np.asarray(x, dtype=float)),
                    lambda x: scale * np.cos(scale * np.asarray(x, dtype=float)),
                    lambda x: -scale * scale * np.sin(scale * np.asarray(x, dtype=float)))


def abs_pow_fn(p: float) -> SmoothFn:
    """|x|^p; twice continuously differentiable only for p >= 2."""
    if p < 2.0:
        raise ValueError(f"abs_pow needs p >= 2 for a continuous second derivative, got {p}")

    def f(x):
        return np.abs(np.asarray(x, dtype=float)) ** p

    def df(x):
        x = np.asarray(x, dtype=float)
        return p * np.sign(x) * np.abs(x) ** (p - 1.0)

    def d2f(x):
        x = np.asarray(x, dtype=float)
        return p * (p - 1.0) * np.abs(x) ** (p - 2.0)

    return SmoothFn(f"abs_pow({p})", f, df, d2f)


IDENTITY = poly_fn(0.0, 1.0)


def smooth_fn_from_json(d: dict) -> SmoothFn:
    kind = d.get("kind")
    if kind == "poly":
        return poly_fn(*(float(c) for c in d["coeffs"]))
    if kind == "exp":
        return exp_fn(float(d.get("scale", 1.0)))
    if kind == "cos":
        return cos_fn(float(d.get("scale", 1.0)))
    if kind == "sin":
        return sin_fn(float(d.get("scale", 1.0)))
    if kind == "abs_pow":
        return abs_pow_fn(float(d["power"]))
    raise ValueError(f"unknown smooth function kind: {kind!r}")


def derivative_gap(fn: SmoothFn, xs, h: float = 1e-6) -> float:
    """Max deviation between df and the central difference of f (self-test)."""
    xs = np.asarray(xs, dtype=float)
    fd = (fn.f(xs + h) - fn.f(xs - h)) / (2 * h)
    return float(np.max(np.abs(fn.df(xs) - fd)))


# ---------------------------------------------------------------------------
# left and right sides


def ito_lhs(fn: SmoothFn, path: it.CadlagPath, t: float) -> float:
    return float(fn.f(path.eval(t)) - fn.f(path.eval(0.0)))


def _time_only_value(G: Integrand, s: np.ndarray) -> np.ndarray:
    return np.asarray(G(s, 0.0, 0.0), dtype=float) + np.zeros_like(s)


@dataclass(frozen=True)
class FourTermResult:
    """The four pieces of the big/small-split formula and their sum."""

    g_term: float
    big_jump_term: float
    compensated_term: float
    nu_term: float

    @property
    def total(self) -> float:
        return self.g_term + self.big_jump_term + self.compensated_term + self.nu_term


def ito_rhs_raw(fn: SmoothFn, G: Integrand | None, K: Integrand,
                config: PointConfiguration, measure: LevyMeasure, t: float,
                n_time: int = 16, *, path: it.CadlagPath | None = None) -> FourTermResult:
    """Right side of the no-small-jumps formula: drift term plus the raw
    jump sum of f-increments (needs only f'), i.e. the split form with every
    jump big; `path`: the built path (split=0), if any."""
    return ito_rhs_big_small(fn, G, K, None, config, measure, t, split=0.0,
                             n_time=n_time, path=path)


def ito_rhs_big_small(fn: SmoothFn, G: Integrand | None, K: Integrand | None,
                      H: Integrand | None, config: PointConfiguration,
                      measure: LevyMeasure, t: float, *, split: float = 1.0,
                      n_time: int = 8, n_space: int = 8, n_jump: int = 32,
                      path: it.CadlagPath | None = None) -> FourTermResult:
    """Right side of the four-term formula: raw big jumps, compensated small
    jumps, and the second-order nu correction; `path`: the built path, if any."""
    if path is None:
        path = it.build_path(G, K, H, config, measure, split=split)
    w = config.window
    small = w.shell.clip(0.0, split)
    extra = list(G.time_breakpoints()) if G is not None else []
    if H is not None:
        extra += H.time_breakpoints()
    breaks = it.path_breaks(config, t, extra)
    s, ws = it.interval_rule(breaks, n_time)
    y = path.eval(s)

    # the nu-side integrals over [0,t] x box x small, on one tensor rule so
    # that their difference is consistent:
    #   A = integral of f(Y(s) + H) - f(Y(s)),  D = integral of H f'(Y(s))
    A = D = 0.0
    if H is not None and len(s) and small is not None:
        xpts, xw = it.box_rule(w.box, n_space)
        znod, zw = measure.nu_nodes(small, n_jump)
        if len(znod):
            hgrid = it.space_time_grid(H, s, xpts, znod)
            dfy = fn.df(y)
            for term in H.terms:
                tv = np.asarray(term.time(s), dtype=float) + np.zeros(len(s))
                D += (float(np.sum(ws * dfy * tv))
                      * it.space_factor(term, w.box)
                      * it.nu_factor(measure, term.jump, small))
            fy = fn.f(y)[:, None, None]
            A = float(np.einsum("ijk,i,j,k->", fn.f(y[:, None, None] + hgrid) - fy,
                                ws, xw, zw))

    g_term = 0.0
    if G is not None and len(s):
        g_term = float(np.sum(ws * fn.df(y) * _time_only_value(G, s)))

    big_jump_term = 0.0
    compensated_jumps = 0.0
    mask = config.t <= t
    if mask.any():
        tt, xx, zz = config.t[mask], config.x[mask], config.z[mask]
        yl = path.eval_left(tt)
        big = np.abs(zz) > split
        if big.any() and K is not None:
            kv = np.asarray(K(tt[big], xx[big], zz[big]), dtype=float)
            big_jump_term = float(np.sum(fn.f(yl[big] + kv) - fn.f(yl[big])))
        if (~big).any() and H is not None:
            hv = np.asarray(H(tt[~big], xx[~big], zz[~big]), dtype=float)
            compensated_jumps = float(np.sum(fn.f(yl[~big] + hv) - fn.f(yl[~big])))

    return FourTermResult(g_term, big_jump_term, compensated_jumps - A, A - D)


def ito_rhs_all_compensated(fn: SmoothFn, G: Integrand | None, H: Integrand,
                            config: PointConfiguration, measure: LevyMeasure,
                            t: float, *, n_time: int = 8, n_space: int = 8,
                            n_jump: int = 32,
                            path: it.CadlagPath | None = None) -> FourTermResult:
    """Right side of the formula with every jump compensated (the whole
    working shell standing in for the punctured line): the split form with
    no big jumps, so its big-jump term is 0; `path`: the built path
    (split=inf), if any."""
    return ito_rhs_big_small(fn, G, None, H, config, measure, t, split=math.inf,
                             n_time=n_time, n_space=n_space, n_jump=n_jump,
                             path=path)


def equivalent_time_drift(G: Integrand | None, H: Integrand, window,
                          measure: LevyMeasure, split: float = 1.0) -> Integrand:
    """The drift that rewrites a big/small-split process in all-compensated
    form: G plus the big-jump compensator density of H."""
    big = window.shell.clip(split, math.inf)
    proj = it.project_time(H, window, measure, big) if big else None
    if G is None:
        if proj is None:
            raise ValueError("nothing to project: empty big-jump region and no G")
        return proj
    return G + proj if proj is not None else G
