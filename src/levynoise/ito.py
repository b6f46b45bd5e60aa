"""Pathwise evaluation of both sides of the jump-calculus change-of-variable
formulas.

At the working truncation the simulated process is a genuine finite-activity
semimartingale, so each identity holds path by path and the only slack is
quadrature.  Jump sums are exact; time integrals run interval-by-interval
between jumps (the path is smooth there), on the `integrate.ReplicateGrid`
of every replicate of a batch at once, read by its running-sum columns; the
triple compensator integrals use one shared time x box x jump rule, so that
algebraically cancelling pieces cancel to machine precision.  The nu
correction A, the rule's sum of f(Y(s) + H) - f(Y(s)), is f's Taylor series
over separable moments where H has one term tau(s) sigma(x) j(z) and f has
a series (polynomials, exp, cos and sin with |scale| rho <= 1,
rho = |tau| max|sigma| max|j| the bound on |H| at a time node): O(P) per
time node, P the degree or the order that leaves 2^-60.  Elsewhere
`integrate.tensor_fold` folds the time x box x jump tensor.  Either way the
right side holds A twice, in (jump sum - A) and (A - D), so A cancels from
the total up to rounding, whichever way it was summed.  A group of f's, one
per equal run of replicates, shares all but the f-dependent pieces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import integrate as it
from .integrands import Integrand
from .measure import LevyMeasure
from .prm import PointBatch


# ---------------------------------------------------------------------------
# twice continuously differentiable test functions, closed-form derivatives


@dataclass(frozen=True)
class SmoothFn:
    """f with its first two derivatives and, where f has a usable Taylor
    series, `taylor(y, rho)` -> (rows, ok): row p - 1 holds f^(p)(y)/p! at
    each node y_i, up to the order P_i that makes the series exact to
    2^-60 for increments |h| <= rho_i and 0 beyond it; ok marks the nodes
    where that series is used (always for polynomials, |scale| rho_i <= 1
    for exp, cos and sin).  None: no series (abs_pow of other powers)."""

    name: str
    f: Callable = field(repr=False)
    df: Callable = field(repr=False)
    d2f: Callable = field(repr=False)
    taylor: Callable | None = field(default=None, repr=False)


# Remainder bound of the series of exp, cos and sin: the order P at a node is
# the smallest with x^(P+1)/(P+1)! <= SERIES_TOL, x = |scale| rho <= 1, so
# P < SERIES_TERMS, since 1/20! < 2^-60.
SERIES_TOL, SERIES_TERMS = 2.0 ** -60, 20


def _poly_taylor(c):
    """The series of the polynomial with coefficients c: exact, every node."""
    pv, der = np.polynomial.polynomial.polyval, np.polynomial.polynomial.polyder
    rows = [der(c, p) / math.factorial(p) for p in range(1, len(c))]
    return lambda y, rho: (np.array([pv(y, r) for r in rows]).reshape(len(rows), len(y)),
                           np.ones(len(y), dtype=bool))


def _entire_fn(kind: str, scale: float, derivs) -> SmoothFn:
    """f(y) = g(scale y), whose derivatives g^(q) run through
    derivs[q mod len(derivs)], with its series."""
    def g(q, x):
        return derivs[q % len(derivs)](scale * np.asarray(x, dtype=float))

    def taylor(y, rho):
        x = abs(scale) * rho
        ok = x <= 1.0
        k = np.arange(1, SERIES_TERMS + 1)  # x^k/k! falls with k for x <= 1
        order = np.count_nonzero(np.cumprod(np.where(ok, x, 0.0)[:, None] / k, axis=1)
                                 > SERIES_TOL, axis=1)
        p = k[:order.max(initial=0)]
        gy = [g(q, y) for q in range(len(derivs))]
        rows = (np.array([gy[q % len(gy)] for q in p]).reshape(len(p), len(y))
                * (scale ** p / np.cumprod(p.astype(float)))[:, None])
        return np.where(p[:, None] <= order, rows, 0.0), ok
    return SmoothFn(f"{kind}({scale})", lambda x: g(0, x), lambda x: scale * g(1, x),
                    lambda x: scale * scale * g(2, x), taylor)


def poly_fn(*coeffs: float) -> SmoothFn:
    c = np.asarray(coeffs, dtype=float)
    dc = np.polynomial.polynomial.polyder(c)
    d2c = np.polynomial.polynomial.polyder(dc) if len(dc) else np.zeros(1)
    pv = np.polynomial.polynomial.polyval
    return SmoothFn(f"poly{tuple(coeffs)}",
                    lambda x: pv(np.asarray(x, dtype=float), c),
                    lambda x: pv(np.asarray(x, dtype=float), dc if len(dc) else [0.0]),
                    lambda x: pv(np.asarray(x, dtype=float), d2c), _poly_taylor(c))


def exp_fn(scale: float = 1.0) -> SmoothFn:
    return _entire_fn("exp", scale, (np.exp,))


def cos_fn(scale: float = 1.0) -> SmoothFn:
    return _entire_fn("cos", scale, (np.cos, lambda u: -np.sin(u), lambda u: -np.cos(u), np.sin))


def sin_fn(scale: float = 1.0) -> SmoothFn:
    return _entire_fn("sin", scale, (np.sin, np.cos, lambda u: -np.sin(u), lambda u: -np.cos(u)))


def abs_pow_fn(p: float) -> SmoothFn:
    """|x|^p; twice continuously differentiable only for p >= 2.  An even
    integer p up to SERIES_TERMS is the polynomial x^p, with its series."""
    if p < 2.0:
        raise ValueError(f"abs_pow needs p >= 2 for a continuous second derivative, got {p}")
    even = p <= SERIES_TERMS and p % 2.0 == 0.0
    return SmoothFn(f"abs_pow({p})",
                    lambda x: np.abs(np.asarray(x, dtype=float)) ** p,
                    lambda x: p * np.sign(x) * np.abs(np.asarray(x, dtype=float)) ** (p - 1.0),
                    lambda x: p * (p - 1.0) * np.abs(np.asarray(x, dtype=float)) ** (p - 2.0),
                    _poly_taylor(np.eye(int(p) + 1)[-1]) if even else None)  # x^p


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


# ---------------------------------------------------------------------------
# left and right sides


def _per_fn(fn, seg, n: int, value) -> np.ndarray:
    """value(f, rows) for each f of the group fn, concatenated: rows are the
    items whose replicate in the sorted seg lies in f's run, the runs of the
    n replicates equal and in f order.  A lone SmoothFn is a group of one."""
    fns = (fn,) if isinstance(fn, SmoothFn) else tuple(fn)
    if n % len(fns):
        raise ValueError(f"{n} replicates do not split into {len(fns)} equal runs")
    cuts = np.searchsorted(seg, np.arange(len(fns) + 1) * (n // len(fns)))
    return np.concatenate([value(f, slice(a, b)) for f, a, b in zip(fns, cuts[:-1], cuts[1:])])


def ito_lhs(fn, path: it.CadlagPath, t: float) -> np.ndarray:
    """f(Y(t)) - f(Y(0)), one value per path; fn a SmoothFn or a group (`_per_fn`)."""
    end, start = path.eval(t), path.eval(0.0)
    return _per_fn(fn, np.arange(len(end)), len(end),
                   lambda f, r: f.f(end[r]) - f.f(start[r]))


@dataclass(frozen=True)
class FourTermResult:
    """The four pieces of the big/small-split formula and their sum, one
    value per replicate."""

    g_term: np.ndarray
    big_jump_term: np.ndarray
    compensated_term: np.ndarray
    nu_term: np.ndarray

    @property
    def total(self) -> np.ndarray:
        return self.g_term + self.big_jump_term + self.compensated_term + self.nu_term


def ito_rhs_raw(fn, G: Integrand | None, K: Integrand, batch: PointBatch,
                measure: LevyMeasure, t: float, *, path=None) -> FourTermResult:
    """Right side of the no-small-jumps formula: drift term plus the raw
    jump sum of f-increments (needs only f'), i.e. the split form with every
    jump big, on 16 time nodes per interval; `path`: the built path
    (split=0), if any."""
    return ito_rhs_big_small(fn, G, K, None, batch, measure, t, split=0.0,
                             n_time=16, path=path)


def ito_rhs_big_small(fn, G: Integrand | None, K: Integrand | None, H: Integrand | None,
                      batch: PointBatch, measure: LevyMeasure, t: float, *,
                      split: float = 1.0, n_time: int = 8, path=None) -> FourTermResult:
    """Right side of the four-term formula: raw big jumps, compensated small
    jumps, and the second-order nu correction, each term one value per
    replicate; n_time Gauss-Legendre nodes per time interval, and 8 box by
    32 jump nodes for the nu correction; `path`: the built path, if any.
    fn is a SmoothFn or a group (`_per_fn`), which shares all else."""
    if path is None:
        path = it.build_path(G, K, H, batch, measure, split=split)
    w, n = batch.window, len(batch)
    small = w.shell.clip(0.0, split)
    extra = [v for X in (G, H) if X is not None for v in X.time_breakpoints()]
    g = it.ReplicateGrid(batch, t, extra, n_time)
    s, ws = g.s, g.ws
    y = path.csum[g.sseg, g.node_jumps] + path.drift(s)
    dfy = _per_fn(fn, g.sseg, n, lambda f, r: f.df(y[r]))

    def per_path(values, where=g.sseg):
        return np.bincount(where, weights=values, minlength=n)

    # the nu-side integrals over [0,t] x box x small, on one rule so that
    # their difference is consistent:
    #   A = integral of f(Y(s) + H) - f(Y(s)),  D = integral of H f'(Y(s))
    A = D = np.zeros(n)
    if H is not None and small is not None:
        # one box node integrates an H constant in x exactly
        xpts, xw = it.box_rule(w.box, 8 if any(tm.space for tm in H.terms) else 1)
        znod, zw = measure.nu_nodes(small, 32)
        if len(znod):
            factors = it.term_factors(H, s, xpts, znod)
            for term, (tv, _, _) in zip(H.terms, factors):
                D = D + (per_path(ws * dfy * tv) * it.space_factor(term, w.box)
                         * it.nu_factor(measure, term.jump, small))
            A = per_path(ws * _per_fn(fn, g.sseg, n, lambda f, r: nu_increments(
                f, y[r], [(tv[r], sv, jv) for tv, sv, jv in factors], xw, zw)))

    g_term = np.zeros(n) if G is None else per_path(
        ws * dfy * it.node_values(lambda u: G(u, 0.0, 0.0), s))
    tt, xx, zz, sg = g.tj, g.xj, g.zj, g.jseg
    yl = path.csum[sg, g.jump_left] + path.drift(tt)

    def jump_sum(part, X):  # per path, the sum of f(Y(t-) + X) - f(Y(t-))
        if X is None:
            return np.zeros(n)
        y0, seg = yl[part], sg[part]
        y1 = y0 + np.asarray(X(tt[part], xx[part], zz[part]), dtype=float)
        return per_path(_per_fn(fn, seg, n, lambda f, r: f.f(y1[r]) - f.f(y0[r])), seg)

    big = np.abs(zz) > split
    terms = (g_term, jump_sum(big, K), jump_sum(~big, H) - A, A - D)
    return FourTermResult(*terms)


def nu_increments(fn: SmoothFn, y, factors, xw, zw) -> np.ndarray:
    """Per time node i, the sum over box and jump nodes j, k of
    xw_j zw_k [f(y_i + V_ijk) - f(y_i)], V_ijk the sum over the (time,
    space, jump) factors of tv_i sv_j jv_k.

    For one term and a node where f's series is usable, the sum is
    sum_p f^(p)(y_i)/p! tv_i^p mu_p over the separable moments
    mu_p = (sum_j xw_j sv_j^p)(sum_k zw_k jv_k^p), O(P) per node; every
    other node goes through `integrate.tensor_fold`.  The choice is made
    node by node, so a replicate's values do not depend on its batch.
    """
    out, fold = np.empty(len(y)), np.ones(len(y), dtype=bool)
    if len(factors) == 1 and fn.taylor is not None:
        tv, sv, jv = factors[0]
        rows, ok = fn.taylor(y, np.abs(tv) * np.max(np.abs(sv)) * np.max(np.abs(jv)))
        p = np.arange(1, len(rows) + 1)
        mu = (xw @ sv[:, None] ** p) * (zw @ jv[:, None] ** p)
        acc = np.zeros(len(y))
        for q in range(len(rows) - 1, -1, -1):  # Horner in tv
            acc += rows[q] * mu[q]
            acc *= tv
        out[ok], fold = acc[ok], ~ok
    if fold.any():
        yf = y[fold]
        fy = fn.f(yf)

        def increment(v, b):  # f(y + V) - f(y) on a block of time nodes
            diff = fn.f(v)
            diff -= fy[b, None, None]
            return diff

        out[fold] = it.tensor_fold(increment, [(t[fold], x, z) for t, x, z in factors],
                                   xw, zw, start=yf)
    return out


def ito_rhs_all_compensated(fn, G: Integrand | None, H: Integrand, batch: PointBatch,
                            measure: LevyMeasure, t: float, *, path=None) -> FourTermResult:
    """Right side of the formula with every jump compensated (the whole
    working shell standing in for the punctured line): the split form with
    no big jumps, so its big-jump term is 0; `path`: the built path
    (split=inf), if any."""
    return ito_rhs_big_small(fn, G, None, H, batch, measure, t, split=math.inf,
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
