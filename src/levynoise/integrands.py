"""Deterministic integrands built from factorizable closed-form nodes.

An integrand is a finite sum of terms, each the product of a time factor
g(s), per-axis space factors b_a(x_a), and a jump factor j(z).  The algebra
is closed under sum, difference, and pointwise product, which keeps every
compensator a product of one-dimensional integrals.  Nodes carry exact
antiderivatives where they exist; Gauss-Legendre panels between their
breakpoints are the fallback.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


@functools.lru_cache(maxsize=None)
def gl_rule(n):
    """The n-point Gauss-Legendre nodes and weights on [-1, 1], cached."""
    t, w = np.polynomial.legendre.leggauss(n)
    t.flags.writeable = w.flags.writeable = False
    return t, w


@functools.lru_cache(maxsize=None)
def spectral_integration_matrix(n):
    """The n x n matrix S, cached and read-only, with S @ v the integral from
    -1 to each Gauss-Legendre node of the degree n-1 interpolant of the
    values v at the nodes (Greengard, SINUM 1991)."""
    leg = np.polynomial.legendre
    t, _ = gl_rule(n)
    int_basis = leg.legval(t, leg.legint(np.eye(n), lbnd=-1.0))  # (k, i): P_k over [-1, t_i]
    # S = int_basis.T times the inverse of the Legendre Vandermonde matrix
    S = np.linalg.solve(leg.legvander(t, n - 1).T, int_basis).T
    S.flags.writeable = False
    return S


# Gauss-Legendre nodes per panel of a node integral; the grid and the
# bisection tolerance of the sign-change search.
PANEL_NODES, SIGN_GRID, SIGN_TOL = 64, 1025, 1e-12


def sign_changes(f, lo: float, hi: float, edges=()) -> np.ndarray:
    """The points in (lo, hi) where the vectorized f changes sign between
    neighbouring nonzero values on a grid holding the `edges`, bisected to
    SIGN_TOL (relative beyond |x| = 1); exact for at most one per gap."""
    grid = np.unique(np.append(np.linspace(lo, hi, SIGN_GRID), [v for v in edges if lo < v < hi]))
    sign = np.sign(f(grid))
    nz = np.flatnonzero(sign)
    change = np.flatnonzero(sign[nz[1:]] != sign[nz[:-1]])
    a, b, side = grid[nz[change]], grid[nz[change + 1]], sign[nz[change]]
    while len(a) and np.max(b - a) > SIGN_TOL * max(1.0, -lo, hi):
        mid = 0.5 * (a + b)
        left = np.sign(f(mid)) == side  # the change lies right of mid
        a, b = np.where(left, mid, a), np.where(left, b, mid)
    return 0.5 * (a + b)


# ---------------------------------------------------------------------------
# factor nodes


class Node:
    """One-dimensional factor; subclasses are immutable dataclasses."""

    kind = "?"

    def __call__(self, u):
        raise NotImplementedError

    def antiderivative(self, u):
        """F with F' = self and F(0) = 0, vectorized; None when unavailable."""
        return None

    def integral(self, a, b):
        """The integral over finite (a, b), after a product's constants come
        out and its indicators clip (a, b): by the antiderivative where finite,
        else on Gauss-Legendre panels between the breakpoints, exponentially
        accurate where the node is smooth (Trefethen, SIAM Review 50, 2008)."""
        scale, node = 1.0, self
        if isinstance(self, Product):
            for f in self.factors:
                if isinstance(f, Indicator):
                    a, b = max(a, f.lo), min(b, f.hi)
            scale = math.prod(f.value for f in self.factors if isinstance(f, Const))
            if b <= a or scale == 0.0:
                return 0.0
            core = [f for f in self.factors if not isinstance(f, (Const, Indicator))]
            node = product_node(*core)
        F = node.antiderivative(np.array([a, b]))
        if F is not None and np.all(np.isfinite(F)):
            return scale * float(F[1] - F[0])
        cuts = [a, *sorted({v for v in breakpoints(node) if a < v < b}), b]
        t, w = gl_rule(PANEL_NODES)
        half = [(0.5 * (hi - lo), 0.5 * (hi + lo)) for lo, hi in zip(cuts, cuts[1:])]
        return scale * sum(h * float(np.sum(w * node(h * t + m))) for h, m in half)

    def abs_integral(self, a, b):
        """The integral of |node| over (a, b): |integral| for a node that
        keeps one sign on the line (`one_signed`), else summed between sign
        changes."""
        if one_signed(self):
            return abs(self.integral(a, b))
        cuts = [a, *sign_changes(self, a, b, breakpoints(self)), b]
        return sum(abs(self.integral(lo, hi)) for lo, hi in zip(cuts, cuts[1:]))


@dataclass(frozen=True)
class Const(Node):
    value: float
    kind = "const"

    def __call__(self, u):
        return np.full(np.shape(u), self.value) if np.ndim(u) else self.value

    def antiderivative(self, u):
        return self.value * np.asarray(u, dtype=float)


ONE_NODE = Const(1.0)


@dataclass(frozen=True)
class Poly(Node):
    """c0 + c1 u + c2 u^2 + ..."""

    coeffs: tuple[float, ...]
    kind = "poly"

    def __call__(self, u):
        return np.polynomial.polynomial.polyval(np.asarray(u, dtype=float), self.coeffs)

    def antiderivative(self, u):
        ac = [0.0] + [c / (k + 1) for k, c in enumerate(self.coeffs)]
        return np.polynomial.polynomial.polyval(np.asarray(u, dtype=float), ac)


@dataclass(frozen=True)
class Exp(Node):
    """e^(rate * u)"""

    rate: float
    kind = "exp"

    def __call__(self, u):
        return np.exp(self.rate * np.asarray(u, dtype=float))

    def antiderivative(self, u):
        return (np.exp(self.rate * np.asarray(u, dtype=float)) - 1.0) / self.rate


@dataclass(frozen=True)
class ExpAbs(Node):
    """e^(rate * |u|); rate < 0 gives an integrable two-sided bump."""

    rate: float
    kind = "exp_abs"

    def __call__(self, u):
        return np.exp(self.rate * np.abs(np.asarray(u, dtype=float)))

    def antiderivative(self, u):
        u = np.asarray(u, dtype=float)
        return np.sign(u) * (np.exp(self.rate * np.abs(u)) - 1.0) / self.rate


@dataclass(frozen=True)
class Cos(Node):
    freq: float
    kind = "cos"

    def __call__(self, u):
        return np.cos(self.freq * np.asarray(u, dtype=float))

    def antiderivative(self, u):
        return np.sin(self.freq * np.asarray(u, dtype=float)) / self.freq


@dataclass(frozen=True)
class Sin(Node):
    freq: float
    kind = "sin"

    def __call__(self, u):
        return np.sin(self.freq * np.asarray(u, dtype=float))

    def antiderivative(self, u):
        return (1.0 - np.cos(self.freq * np.asarray(u, dtype=float))) / self.freq


@dataclass(frozen=True)
class Indicator(Node):
    """1 on (lo, hi]; Lebesgue antiderivative ignores the endpoints."""

    lo: float
    hi: float
    kind = "indicator"

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        out = ((u > self.lo) & (u <= self.hi)).astype(float)
        return out if out.ndim else float(out)

    def antiderivative(self, u):
        u = np.asarray(u, dtype=float)
        return np.clip(u, self.lo, self.hi) - np.clip(0.0, self.lo, self.hi)


@dataclass(frozen=True)
class AbsIndicator(Node):
    """1 on {lo < |u| <= hi}."""

    lo: float
    hi: float
    kind = "abs_indicator"

    def __call__(self, u):
        a = np.abs(np.asarray(u, dtype=float))
        out = ((a > self.lo) & (a <= self.hi)).astype(float)
        return out if out.ndim else float(out)

    def antiderivative(self, u):
        u = np.asarray(u, dtype=float)
        return np.sign(u) * np.maximum(0.0, np.minimum(np.abs(u), self.hi) - self.lo)


@dataclass(frozen=True)
class AbsPow(Node):
    """|u|^power, power >= 0."""

    power: float
    kind = "abs_pow"

    def __call__(self, u):
        return np.abs(np.asarray(u, dtype=float)) ** self.power

    def antiderivative(self, u):
        u = np.asarray(u, dtype=float)
        return np.sign(u) * np.abs(u) ** (self.power + 1.0) / (self.power + 1.0)


@dataclass(frozen=True)
class SignPow(Node):
    """sign(u)|u|^power; SignPow(1) is the identity u."""

    power: float
    kind = "sign_pow"

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        if self.power == 1.0:  # sign(u)|u| is u, and 0.0 at -0.0, as u + 0.0 is
            return u + 0.0
        return np.sign(u) * np.abs(u) ** self.power

    def antiderivative(self, u):
        u = np.asarray(u, dtype=float)
        return np.abs(u) ** (self.power + 1.0) / (self.power + 1.0)


@dataclass(frozen=True)
class Product(Node):
    factors: tuple[Node, ...]
    kind = "product"

    def __call__(self, u):
        out = self.factors[0](u)
        for f in self.factors[1:]:
            out = out * f(u)
        return out

    def antiderivative(self, u):
        core = [f for f in self.factors if not isinstance(f, Const)]
        F = core[0].antiderivative(u) if len(core) == 1 else None
        return None if F is None else math.prod(
            f.value for f in self.factors if isinstance(f, Const)) * F


def _fuse(a: Node, b: Node) -> Node | None:
    """Closed-form product of two nodes, or None when no fusion applies."""
    if isinstance(a, Poly) and isinstance(b, Poly):
        return Poly(tuple(np.polynomial.polynomial.polymul(a.coeffs, b.coeffs)))
    if isinstance(a, Exp) and isinstance(b, Exp):
        return Exp(a.rate + b.rate)
    if isinstance(a, ExpAbs) and isinstance(b, ExpAbs):
        return ExpAbs(a.rate + b.rate)
    if isinstance(a, Indicator) and isinstance(b, Indicator):
        lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
        return Indicator(lo, hi) if lo < hi else Const(0.0)
    if isinstance(a, AbsIndicator) and isinstance(b, AbsIndicator):
        lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
        return AbsIndicator(lo, hi) if lo < hi else Const(0.0)
    # sign(u)|u|^p and |u|^q combine by adding powers, tracking the sign
    powers = {AbsPow: 0, SignPow: 1}
    if type(a) in powers and type(b) in powers:
        signed = (powers[type(a)] + powers[type(b)]) % 2
        p = a.power + b.power
        return SignPow(p) if signed else AbsPow(p)
    return None


def product_node(*factors: Node) -> Node:
    """Flatten nested products, fold constants, and fuse compatible nodes."""
    flat = []
    scale = 1.0
    stack = list(factors)
    while stack:
        f = stack.pop(0)
        if isinstance(f, Product):
            stack = list(f.factors) + stack
        elif isinstance(f, Const):
            scale *= f.value
        else:
            for i, g in enumerate(flat):
                fused = _fuse(g, f)
                if fused is not None:
                    if isinstance(fused, Const):
                        scale *= fused.value
                        flat.pop(i)
                    else:
                        flat[i] = fused
                    break
            else:
                flat.append(f)
    if scale == 0.0:
        return Const(0.0)
    if not flat:
        return Const(scale)
    if scale != 1.0:
        flat.insert(0, Const(scale))
    if len(flat) == 1:
        return flat[0]
    return Product(tuple(flat))


_NODE_KINDS = {
    "const": lambda d: Const(float(d["value"])),
    "poly": lambda d: Poly(tuple(float(c) for c in d["coeffs"])),
    "exp": lambda d: Exp(float(d["rate"])),
    "exp_abs": lambda d: ExpAbs(float(d["rate"])),
    "cos": lambda d: Cos(float(d["freq"])),
    "sin": lambda d: Sin(float(d["freq"])),
    "indicator": lambda d: Indicator(float(d["lo"]), float(d["hi"])),
    "abs_indicator": lambda d: AbsIndicator(float(d["lo"]), float(d["hi"])),
    "abs_pow": lambda d: AbsPow(float(d["power"])),
    "sign_pow": lambda d: SignPow(float(d["power"])),
}


def node_from_json(d: dict) -> Node:
    kind = d.get("kind")
    if kind == "product":
        return product_node(*(node_from_json(f) for f in d["factors"]))
    if kind not in _NODE_KINDS:
        raise ValueError(f"unknown node kind: {kind!r}")
    return _NODE_KINDS[kind](d)


# ---------------------------------------------------------------------------
# terms and integrands


def space_axes(x) -> tuple:
    """Normalize a space argument to per-axis arrays.

    Accepts a tuple/list of axis arrays, an array with last axis = dimension,
    or (for d = 1) a bare scalar/1-d array of coordinate values.
    """
    if isinstance(x, (tuple, list)):
        return tuple(np.asarray(a, dtype=float) for a in x)
    x = np.asarray(x, dtype=float)
    if x.ndim >= 2:
        return tuple(x[..., k] for k in range(x.shape[-1]))
    return (x,)


@dataclass(frozen=True)
class Term:
    time: Node = ONE_NODE
    space: tuple[Node, ...] = ()
    jump: Node = ONE_NODE

    def space_value(self, x):
        """Product of the axis factors; axes beyond len(space) contribute 1."""
        if not self.space:
            return 1.0
        axes = space_axes(x)
        if len(axes) < len(self.space):
            raise ValueError(
                f"integrand touches {len(self.space)} space axes, got {len(axes)}")
        out = self.space[0](axes[0])
        for a, node in enumerate(self.space[1:], start=1):
            out = out * node(axes[a])
        return out


@dataclass(frozen=True)
class Integrand:
    """Finite sum of factorized terms; evaluable at any (s, x, z)."""

    terms: tuple[Term, ...]

    def __call__(self, s, x, z):
        total = 0.0
        for t in self.terms:
            total = total + t.time(s) * t.space_value(x) * t.jump(z)
        return total

    # -- algebra ------------------------------------------------------------

    def __add__(self, other):
        other = as_integrand(other)
        return Integrand(self.terms + other.terms)

    def __neg__(self):
        return Integrand(tuple(
            Term(product_node(Const(-1.0), t.time), t.space, t.jump) for t in self.terms))

    def __sub__(self, other):
        return self + (-as_integrand(other))

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Integrand(tuple(
                Term(product_node(Const(float(other)), t.time), t.space, t.jump)
                for t in self.terms))
        other = as_integrand(other)
        out = []
        for a in self.terms:
            for b in other.terms:
                d = max(len(a.space), len(b.space))
                space = tuple(
                    product_node(
                        a.space[k] if k < len(a.space) else ONE_NODE,
                        b.space[k] if k < len(b.space) else ONE_NODE)
                    for k in range(d))
                out.append(Term(product_node(a.time, b.time), space,
                                product_node(a.jump, b.jump)))
        return Integrand(tuple(out))

    __rmul__ = __mul__

    def squared(self):
        return self * self

    # -- structure helpers ---------------------------------------------------

    def with_jump(self, node: Node) -> "Integrand":
        """Multiply every term's jump factor by `node`."""
        return Integrand(tuple(
            Term(t.time, t.space, product_node(t.jump, node)) for t in self.terms))

    def is_space_time_only(self) -> bool:
        return all(isinstance(t.jump, Const) for t in self.terms)

    def time_breakpoints(self) -> list[float]:
        """The positive breakpoints of the time factors."""
        return [v for t in self.terms for v in breakpoints(t.time) if v > 0.0]


def breakpoints(node: Node) -> list[float]:
    """The points where a node may not be smooth: the edges of its indicator
    factors (+-lo and +-hi for abs_indicator), and 0 for its exp_abs,
    abs_pow and sign_pow factors."""
    out = []
    for f in node.factors if isinstance(node, Product) else (node,):
        if isinstance(f, Indicator):
            out += [f.lo, f.hi]
        elif isinstance(f, AbsIndicator):
            out += [-f.hi, -f.lo, f.lo, f.hi]
        elif isinstance(f, (ExpAbs, AbsPow, SignPow)):
            out.append(0.0)
    return out


def one_signed(node: Node) -> bool:
    """Whether the node keeps one sign on the whole line: a product of
    constants, exponentials, exp_abs, abs_pow and indicator factors, which
    `sign_changes` would search in vain."""
    return all(isinstance(f, (Const, Exp, ExpAbs, AbsPow, Indicator, AbsIndicator))
               for f in (node.factors if isinstance(node, Product) else (node,)))


ZERO = Integrand((Term(Const(0.0)),))
ONE = Integrand((Term(),))


def as_integrand(x) -> Integrand:
    if isinstance(x, Integrand):
        return x
    if isinstance(x, (int, float)):
        return Integrand((Term(Const(float(x))),))
    raise TypeError(f"cannot interpret {x!r} as an integrand")


def term(time: Node = ONE_NODE, space: tuple[Node, ...] | Node = (),
         jump: Node = ONE_NODE) -> Integrand:
    if isinstance(space, Node):
        space = (space,)
    return Integrand((Term(time, tuple(space), jump),))


def integrand_from_json(d: dict) -> Integrand:
    terms = []
    for t in d["terms"]:
        terms.append(Term(
            node_from_json(t.get("time", {"kind": "const", "value": 1.0})),
            tuple(node_from_json(n) for n in t.get("space", [])),
            node_from_json(t.get("jump", {"kind": "const", "value": 1.0}))))
    return Integrand(tuple(terms))
