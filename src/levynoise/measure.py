"""Levy measure families on the punctured line.

Three families are supported: finite discrete atom sets, power-law densities
truncated at a radius, and exponentially tempered power laws.  Each family
provides shell masses and moments, samplers for the normalized restriction
to a shell, the compensated characteristic exponent, and fixed quadrature
rules against the measure for tensor integration.

The density families' shell integrals are closed forms or sums over one
composite Gauss-Legendre rule in log|z|, cached per (measure, shell); the
integrand is analytic on a finite shell, so the rule converges exponentially
(Trefethen, SIAM Review 50, 2008).  Below a small z0 a shell reaching 0 adds
a power series.  `nu_integral` runs any function of z on the same rule, so
its caller cuts the shell where the function is not smooth.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .integrands import gl_rule

# The shell rule: RULE_NODES-point panels at most RULE_LOG_WIDTH wide in
# log|z|; below z0, with z0 (rate + |u|) <= 1, SERIES_TERMS terms of 1/k!.
RULE_NODES, RULE_LOG_WIDTH, SERIES_TERMS = 32, 0.5, 30
_INV_FACTORIAL = 1.0 / np.cumprod(np.r_[1.0, np.arange(1, SERIES_TERMS)])
SAMPLE_ROUNDS = 1000  # rounds of TemperedStable's rejection sampler
MARK_CHUNK = 1 << 15  # marks TruncatedStable draws per pass, to stay in cache


class InfiniteMassError(ValueError):
    """The requested nu-mass diverges (shell touches 0 for a density family)."""


class InfiniteMomentError(ValueError):
    """The requested nu-moment diverges."""


@dataclass(frozen=True)
class Shell:
    """Jump-size annulus {z : lo < |z| <= hi}; hi may be math.inf."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (0.0 <= self.lo < self.hi):
            raise ValueError(f"shell needs 0 <= lo < hi, got ({self.lo}, {self.hi})")

    def contains(self, z):
        a = np.abs(z)
        return (a > self.lo) & (a <= self.hi)

    def clip(self, lo: float, hi: float) -> "Shell | None":
        """Intersection with {lo < |z| <= hi}, or None if empty."""
        a, b = max(self.lo, lo), min(self.hi, hi)
        if b <= a:
            return None
        return Shell(a, b)


FULL = Shell(0.0, math.inf)


class LevyMeasure:
    """Base interface; concrete families implement the _* hooks."""

    # -- public operations ------------------------------------------------

    def shell_mass(self, shell: Shell) -> float:
        """nu({lo < |z| <= hi}); raises InfiniteMassError on divergence."""
        raise NotImplementedError

    def shell_moment(self, shell: Shell, p: float, signed: bool = False) -> float:
        """integral over the shell of |z|^p (or sign(z)|z|^p when signed)."""
        raise NotImplementedError

    def sample_shell(self, shell: Shell, rng, n: int) -> np.ndarray:
        """n marks from nu restricted to the shell, normalized, drawn from
        the generator in order: the first k of n marks are the k marks a
        draw of k gives."""
        raise NotImplementedError

    def psi_shell(self, shell: Shell, u) -> complex:
        """Shell-truncated compensated exponent; `u` may be an array."""
        raise NotImplementedError

    def nu_integral(self, fn, shell: Shell) -> float:
        """Integral of fn, a function of a z array, against nu over the shell:
        exact for atoms, else the shell rule (for fn smooth on each side)."""
        raise NotImplementedError

    def z_range(self, shell: Shell) -> tuple[float, float]:
        """The |z| range (a, b] of the shell that carries the measure, b
        finite: beyond b the mass left is below double precision."""
        raise NotImplementedError

    def nu_nodes(self, shell: Shell, n_per_side: int = 32):
        """Fixed quadrature rule (z, w) with sum w_k phi(z_k) ~ integral of
        phi d nu over the shell.  Exact for atoms; Gauss-Legendre after a
        power-law substitution for the density families."""
        raise NotImplementedError


@dataclass(frozen=True)
class DiscreteAtoms(LevyMeasure):
    """nu = sum of w_j * delta(z_j) with z_j != 0, w_j > 0."""

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.atoms:
            raise ValueError("need at least one atom")
        for z, w in self.atoms:
            if z == 0.0:
                raise ValueError("atom at 0 is not allowed")
            if not (0.0 < w < math.inf):
                raise ValueError(f"atom weight must be finite positive, got {w}")

    def shell_mass(self, shell):
        return _atoms_in(self, shell).mass

    def shell_moment(self, shell, p, signed=False):
        hit = _atoms_in(self, shell).pairs
        if signed:
            return float(sum(w * math.copysign(abs(z) ** p, z) for z, w in hit))
        return float(sum(w * abs(z) ** p for z, w in hit))

    def sample_shell(self, shell, rng, n):
        hit = _atoms_in(self, shell)
        if not hit.pairs:
            raise ValueError(f"shell {shell} carries no mass")
        return hit.z[hit.cdf.searchsorted(rng.random(n), side="right")]

    def psi_shell(self, shell, u):
        u = np.asarray(u, dtype=float)
        out = np.zeros(u.shape, dtype=complex)
        for z, w in _atoms_in(self, shell).pairs:
            out += w * (np.exp(1j * u * z) - 1.0 - 1j * u * z)
        return complex(out) if out.ndim == 0 else out

    def nu_integral(self, fn, shell):
        hit = _atoms_in(self, shell)
        return float(fn(hit.z) @ hit.w)

    def z_range(self, shell):
        return shell.lo, float(np.max(np.abs(_atoms_in(self, shell).z), initial=shell.lo))

    def nu_nodes(self, shell, n_per_side=32):
        hit = _atoms_in(self, shell)
        return hit.z, hit.w


class _ShellAtoms(NamedTuple):
    """The atoms of a DiscreteAtoms measure inside one shell, in the order
    of `atoms`; the arrays are read-only."""

    pairs: tuple[tuple[float, float], ...]
    z: np.ndarray
    w: np.ndarray
    cdf: np.ndarray   # normalized cumulative weights
    mass: float


@functools.lru_cache(maxsize=128)
def _atoms_in(measure: DiscreteAtoms, shell: Shell) -> _ShellAtoms:
    """The shell's atoms, cached per (measure, shell)."""
    pairs = tuple((z, w) for z, w in measure.atoms if shell.lo < abs(z) <= shell.hi)
    z = np.array([a for a, _ in pairs], dtype=float)
    w = np.array([b for _, b in pairs], dtype=float)
    cdf = (w / w.sum()).cumsum()
    if pairs:
        cdf /= cdf[-1]
    for arr in (z, w, cdf):
        arr.flags.writeable = False
    return _ShellAtoms(pairs, z, w, cdf, float(sum(b for _, b in pairs)))


class _SymmetricDensity(LevyMeasure):
    """Shared machinery for the two-sided symmetric density families.

    The one-sided density is c |z|^(-alpha-1) exp(-rate |z|) on
    (0, support_hi]; subclasses set both and the closed forms they offer.
    """

    _rate = 0.0

    def _density_abs(self, a):
        """One-sided density value at |z| = a > 0 (vectorized)."""
        return self.c * a ** (-self.alpha - 1.0) * self._taper(a)

    def _bounds(self, shell):
        """Intersection of |z| in (shell.lo, shell.hi] with the support."""
        return shell.lo, min(shell.hi, self.support_hi)

    def shell_mass(self, shell):
        a, b = self._bounds(shell)
        if b <= a:
            return 0.0
        if a == 0.0:
            raise InfiniteMassError(f"{type(self).__name__} has infinite mass near 0 "
                                    f"(alpha={self.alpha}); use a shell with lo > 0")
        return self._mass(a, b)

    def shell_moment(self, shell, p, signed=False):
        a, b = self._bounds(shell)
        if signed or b <= a:
            return 0.0  # signed: a symmetric measure on a symmetric shell
        if a == 0.0 and p - self.alpha <= 0.0:
            raise InfiniteMomentError(f"moment p={p} diverges at 0 for alpha={self.alpha}")
        return self._moment(a, b, p)

    def nu_integral(self, fn, shell):
        a, b = self._bounds(shell)
        if b <= a:
            return 0.0
        if a == 0.0:
            raise InfiniteMassError("generic nu-integral needs a shell bounded away from 0")
        z, w = self._rule(a, b)
        return float((fn(z) + fn(-z)) @ w)

    def z_range(self, shell):
        a, b = self._bounds(shell)
        return a, b if b < math.inf else self._tail_cut(a)

    def _tail_cut(self, a):
        # beyond this point the remaining mass is below double precision
        return a + 60.0 / self._rate if self._rate else math.inf

    def _rule(self, a, b, z_width=math.inf):
        """The shell rule on (a, b], a > 0, with panels at most z_width and
        1 / rate wide in |z|; an infinite b is cut at _tail_cut(a)."""
        b = b if b < math.inf else self._tail_cut(a)
        return _density_rule(self, a, b, min(z_width, 1.0 / self._rate) if self._rate else z_width)

    def _factor_series(self):
        """Power-series coefficients of c exp(-rate t)."""
        return self.c * (-self._rate) ** np.arange(SERIES_TERMS) * _INV_FACTORIAL

    def psi_shell(self, shell, u):
        a, b = self._bounds(shell)
        u = np.asarray(u, dtype=float)
        out, top = np.zeros(u.shape), float(np.max(np.abs(u), initial=0.0))
        if b > a and top > 0.0:
            # symmetric measure: the odd (sine) part cancels exactly, and
            # cos(uz) - 1 = -2 sin^2(uz / 2) keeps its relative precision
            if a == 0.0:  # cos(ut) - 1 is the sum over even k >= 2 of (-1)^(k/2) (ut)^k / k!
                a, k = min(b, 1.0 / (1.0 + self._rate + top)), np.arange(SERIES_TERMS)
                cos_m1 = np.where(k % 2 | (k == 0), 0.0, (-1.0) ** (k // 2) * _INV_FACTORIAL)
                series = np.tril(self._factor_series()[k[:, None] - k]) @ (  # Cauchy product
                    cos_m1[:, None] * u.ravel() ** k[:, None])
                out += _series_integral(series[2:], 2.0 - self.alpha, a).reshape(u.shape)
            if a < b:
                z, w = self._rule(a, b, math.pi / top)
                out -= 2.0 * np.sin(0.5 * np.multiply.outer(u, z)) ** 2 @ w
            out *= 2.0
        return complex(out) if out.ndim == 0 else out.astype(complex)

    def nu_nodes(self, shell, n_per_side=32):
        a, b = self.z_range(shell)
        if b <= a:
            return np.empty(0), np.empty(0)
        if a == 0.0:
            raise InfiniteMassError("quadrature rule needs a shell bounded away from 0")
        alpha = self.alpha
        # substitute y = z^(-alpha); the pure power-law factor becomes flat
        y_lo, y_hi = b ** (-alpha), a ** (-alpha)
        t, w = gl_rule(n_per_side)
        y = 0.5 * (y_hi - y_lo) * t + 0.5 * (y_hi + y_lo)
        z = y ** (-1.0 / alpha)
        wz = 0.5 * (y_hi - y_lo) * w * (self.c / alpha) * self._taper(z)
        return np.concatenate([-z, z]), np.concatenate([wz, wz])

    def _power_law_abs(self, u, a, b):
        """|z| at CDF values u of the pure power law |z|^(-alpha-1) on
        (a, b], computed in place in u by the inverse CDF."""
        ia = a ** -self.alpha
        u *= ia - b ** -self.alpha  # inf ** -alpha is 0.0
        np.subtract(ia, u, out=u)
        u **= -1.0 / self.alpha
        return u

    def _taper(self, z):
        """Residual density factor after pulling out c |z|^(-alpha-1)."""
        return np.exp(-self._rate * z)


@dataclass(frozen=True)
class TruncatedStable(_SymmetricDensity):
    """Density c |z|^(-alpha-1) on 0 < |z| <= r, both signs."""

    alpha: float
    c: float
    r: float

    def __post_init__(self):
        if not (0.0 < self.alpha < 2.0):
            raise ValueError(f"alpha must lie in (0, 2), got {self.alpha}")
        if self.c <= 0 or self.r <= 0:
            raise ValueError("c and r must be positive")

    support_hi = property(lambda self: self.r)

    def _mass(self, a, b):
        return self._moment(a, b, 0.0)

    def _moment(self, a, b, p):
        q = p - self.alpha
        if a == 0.0:
            return 2.0 * self.c * b ** q / q
        if q == 0.0:
            return 2.0 * self.c * math.log(b / a)
        # (b^q - a^q) / q through expm1: no cancellation as q nears 0
        return 2.0 * self.c * a ** q * math.expm1(q * math.log(b / a)) / q

    def sample_shell(self, shell, rng, n):
        a, b = self._bounds(shell)
        if b <= a or a == 0.0:
            raise ValueError(f"shell {shell} is not samplable for {self}")
        # (magnitude, sign) uniforms a chunk at a time: the chunks continue one
        # stream, so no mark moves.  The sign is that of u - 0.5
        out, buf = np.empty(n), np.empty((min(n, MARK_CHUNK), 2))
        for i in range(0, n, MARK_CHUNK):
            mag, u = out[i:i + MARK_CHUNK], buf[:n - i]
            rng.random(out=u)
            mag[:] = u[:, 0]
            self._power_law_abs(mag, a, b)
            np.copysign(mag, np.subtract(u[:, 1], 0.5, out=u[:, 1]), out=mag)
        return out


@dataclass(frozen=True)
class TemperedStable(_SymmetricDensity):
    """Density c |z|^(-alpha-1) e^(-theta |z|) on the punctured line."""

    alpha: float
    c: float
    theta: float

    def __post_init__(self):
        if not (0.0 < self.alpha < 2.0):
            raise ValueError(f"alpha must lie in (0, 2), got {self.alpha}")
        if self.c <= 0 or self.theta <= 0:
            raise ValueError("c and theta must be positive")

    support_hi = math.inf

    _rate = property(lambda self: self.theta)

    def _mass(self, a, b):
        return 2.0 * float(np.sum(self._rule(a, b)[1]))

    def _moment(self, a, b, p):
        total = 0.0
        if a == 0.0:  # the power series below z0
            a = min(b, 1.0 / (1.0 + self.theta))
            total = float(_series_integral(self._factor_series(), p - self.alpha, a))
        if a < b:
            z, w = self._rule(a, b)
            total += float(z ** p @ w)
        return 2.0 * total

    def sample_shell(self, shell, rng, n):
        a, b = self._bounds(shell)
        if b <= a or a == 0.0:
            raise ValueError(f"shell {shell} is not samplable for {self}")
        # rejection from the pure power-law envelope on the same range:
        # accept |z| with probability exp(-theta (|z| - a)) <= 1.  Each round
        # draws (magnitude, accept, sign) rows, at least 16, and keeps the
        # first accepted rows in draw order, so the round sizes move no mark.
        out = np.empty(n)
        filled = drawn = accepted = 0
        for _ in range(SAMPLE_ROUNDS):
            if filled == n:
                break
            m = max(n - filled, 16)
            u = rng.random((m, 3))
            mag = self._power_law_abs(u[:, 0], a, b)
            good = np.flatnonzero(u[:, 1] < np.exp(-self.theta * (mag - a)))
            take = good[:n - filled]
            out[filled:filled + len(take)] = np.where(u[take, 2] < 0.5, -mag[take], mag[take])
            filled, drawn, accepted = filled + len(take), drawn + m, accepted + len(good)
        if filled < n:
            raise ValueError(
                f"shell {shell} is not samplable for theta={self.theta:g}: {SAMPLE_ROUNDS} "
                f"rounds accepted {accepted} of {drawn} draws (rate {accepted / drawn:.3g})")
        return out


@functools.lru_cache(maxsize=128)
def _density_rule(measure: _SymmetricDensity, a: float, b: float, z_width: float):
    """The shell rule of a density family on (a, b], 0 < a < b < inf: |z|
    nodes and their weights times the one-sided density, read-only; cached
    per (measure, range, width)."""
    n = math.ceil(math.log(b / a) / RULE_LOG_WIDTH)
    geo = np.append(a * (b / a) ** (np.arange(n) / n), b)
    edges = np.log(np.append(np.concatenate([np.linspace(
        lo, hi, max(1, math.ceil((hi - lo) / z_width)), endpoint=False)
        for lo, hi in zip(geo, geo[1:])]), b))
    (t, w), half = gl_rule(RULE_NODES), 0.5 * np.diff(edges)
    z = np.exp(np.multiply.outer(half, t) + (edges[:-1] + half)[:, None]).ravel()
    wz = np.multiply.outer(half, w).ravel() * z * measure._density_abs(z)  # dz = z d(log z)
    z.flags.writeable = wz.flags.writeable = False
    return z, wz


def _series_integral(coeffs, s: float, z0: float):
    """The integral over (0, z0] of t^(s-1) times the power series
    sum_k coeffs[k] t^k, term by term (s > 0); coeffs may have a second axis."""
    k = np.arange(len(coeffs))
    return (z0 ** (s + k) / (s + k)) @ coeffs


def measure_from_json(spec: dict) -> LevyMeasure:
    """Build a measure from its config-file description."""
    fam = spec.get("family")
    if fam == "discrete":
        return DiscreteAtoms(tuple((float(z), float(w)) for z, w in spec["atoms"]))
    if fam == "truncated_stable":
        return TruncatedStable(float(spec["alpha"]), float(spec["c"]), float(spec["r"]))
    if fam == "tempered_stable":
        return TemperedStable(float(spec["alpha"]), float(spec["c"]), float(spec["theta"]))
    raise ValueError(f"unknown measure family: {fam!r}")

