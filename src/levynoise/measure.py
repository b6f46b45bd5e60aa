"""Levy measure families on the punctured line.

Three families are supported: finite discrete atom sets, power-law densities
truncated at a radius, and exponentially tempered power laws.  Each family
provides shell masses and moments (closed form where possible, tight
quadrature otherwise), samplers for the normalized restriction to a shell,
the compensated characteristic exponent, and fixed quadrature rules against
the measure for tensor integration.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .integrands import gl_rule

# Default tolerances for the adaptive quadratures; callers may override.
QUAD_ABS_TOL = 1e-13
QUAD_REL_TOL = 1e-11


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


def _quad(fn, a, b, *, abs_tol=QUAD_ABS_TOL, rel_tol=QUAD_REL_TOL):
    """Adaptive quadrature split at 1 so the 0+ singularity and the tail
    never share a panel."""
    from scipy.integrate import quad

    pieces = []
    if a < 1.0 < b:
        pieces = [(a, 1.0), (1.0, b)]
    else:
        pieces = [(a, b)]
    total = 0.0
    for lo, hi in pieces:
        val, _ = quad(fn, lo, hi, epsabs=abs_tol, epsrel=rel_tol, limit=200)
        total += val
    return total


class LevyMeasure:
    """Base interface; concrete families implement the _* hooks."""

    symmetric: bool = False

    # -- public operations ------------------------------------------------

    def shell_mass(self, shell: Shell) -> float:
        """nu({lo < |z| <= hi}); raises InfiniteMassError on divergence."""
        raise NotImplementedError

    def shell_moment(self, shell: Shell, p: float, signed: bool = False) -> float:
        """integral over the shell of |z|^p (or sign(z)|z|^p when signed)."""
        raise NotImplementedError

    def sample_shell(self, shell: Shell, rng: np.random.Generator, size=None):
        """Draw from nu restricted to the shell, normalized.

        `size=None` returns a scalar, otherwise an array of that shape.
        """
        raise NotImplementedError

    def psi_shell(self, shell: Shell, u) -> complex:
        """Shell-truncated compensated exponent; `u` may be an array."""
        raise NotImplementedError

    def nu_integral(self, fn, shell: Shell) -> float:
        """Generic integral of a scalar function against nu over the shell.

        Used as the quadrature fallback and by test oracles; exact finite
        sum for atoms.
        """
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

    def _in_shell(self, shell):
        return [(z, w) for z, w in self.atoms if shell.lo < abs(z) <= shell.hi]

    def shell_mass(self, shell):
        return float(sum(w for _, w in self._in_shell(shell)))

    def shell_moment(self, shell, p, signed=False):
        if signed:
            return float(sum(w * math.copysign(abs(z) ** p, z) for z, w in self._in_shell(shell)))
        return float(sum(w * abs(z) ** p for z, w in self._in_shell(shell)))

    def sample_shell(self, shell, rng, size=None):
        hit = self._in_shell(shell)
        if not hit:
            raise ValueError(f"shell {shell} carries no mass")
        zs = np.array([z for z, _ in hit])
        ws = np.array([w for _, w in hit])
        idx = rng.choice(len(zs), size=size, p=ws / ws.sum())
        return zs[idx]

    def psi_shell(self, shell, u):
        u = np.asarray(u, dtype=float)
        out = np.zeros(u.shape, dtype=complex)
        for z, w in self._in_shell(shell):
            out += w * (np.exp(1j * u * z) - 1.0 - 1j * u * z)
        return complex(out) if out.ndim == 0 else out

    def nu_integral(self, fn, shell):
        return float(sum(w * fn(z) for z, w in self._in_shell(shell)))

    def nu_nodes(self, shell, n_per_side=32):
        hit = self._in_shell(shell)
        z = np.array([a for a, _ in hit])
        w = np.array([b for _, b in hit])
        return z, w


class _SymmetricDensity(LevyMeasure):
    """Shared machinery for the two-sided symmetric density families.

    Subclasses define the one-sided density on (0, support_hi] and the
    closed forms they can offer.
    """

    symmetric = True

    @property
    def support_hi(self) -> float:
        raise NotImplementedError

    def _density_abs(self, a):
        """One-sided density value at |z| = a > 0 (vectorized)."""
        raise NotImplementedError

    def _bounds(self, shell):
        """Intersection of |z| in (shell.lo, shell.hi] with the support."""
        return shell.lo, min(shell.hi, self.support_hi)

    def nu_integral(self, fn, shell):
        a, b = self._bounds(shell)
        if b <= a:
            return 0.0
        if a == 0.0:
            raise InfiniteMassError("generic nu-integral needs a shell bounded away from 0")
        hi = b if b < math.inf else self._tail_cut(a)
        pos = _quad(lambda t: fn(t) * self._density_abs(t), a, hi)
        return pos + _quad(lambda t: fn(-t) * self._density_abs(t), a, hi)

    def _tail_cut(self, a):
        return math.inf  # overridden where the support is unbounded

    def psi_shell(self, shell, u):
        a, b = self._bounds(shell)
        u = np.asarray(u, dtype=float)
        scalar = u.ndim == 0
        u = np.atleast_1d(u)
        out = np.empty(u.shape, dtype=complex)
        for i, ui in enumerate(u):
            # symmetric measure: the odd (sine) part cancels exactly
            out[i] = 0.0 if b <= a or ui == 0.0 else complex(2.0 * self._psi_quad(ui, a, b), 0.0)
        return complex(out[0]) if scalar else out

    def _psi_quad(self, u, a, b):
        fn = lambda t: (math.cos(u * t) - 1.0) * self._density_abs(t)
        hi = b if b < math.inf else self._tail_cut(max(a, 1e-12))
        return _quad(fn, a, hi)

    def nu_nodes(self, shell, n_per_side=32):
        a, b = self._bounds(shell)
        if b <= a:
            return np.empty(0), np.empty(0)
        if a == 0.0:
            raise InfiniteMassError("quadrature rule needs a shell bounded away from 0")
        if b == math.inf:
            b = self._tail_cut(a)
        alpha = self.alpha
        # substitute y = z^(-alpha); the pure power-law factor becomes flat
        y_lo, y_hi = b ** (-alpha), a ** (-alpha)
        t, w = gl_rule(n_per_side)
        y = 0.5 * (y_hi - y_lo) * t + 0.5 * (y_hi + y_lo)
        z = y ** (-1.0 / alpha)
        wz = 0.5 * (y_hi - y_lo) * w * (self.c / alpha) * self._taper(z)
        return np.concatenate([-z, z]), np.concatenate([wz, wz])

    def _taper(self, z):
        """Residual density factor after pulling out c |z|^(-alpha-1)."""
        return np.ones_like(z)

    def sample_shell(self, shell, rng, size=None):
        raise NotImplementedError


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

    @property
    def support_hi(self):
        return self.r

    def _density_abs(self, a):
        return self.c * a ** (-self.alpha - 1.0)

    def shell_mass(self, shell):
        a, b = self._bounds(shell)
        if b <= a:
            return 0.0
        if a == 0.0:
            raise InfiniteMassError(
                f"stable-type density has infinite mass near 0 (alpha={self.alpha}); "
                "use a shell with lo > 0")
        return 2.0 * self.c * (a ** (-self.alpha) - b ** (-self.alpha)) / self.alpha

    def shell_moment(self, shell, p, signed=False):
        if signed:
            return 0.0  # symmetric measure, symmetric shell
        a, b = self._bounds(shell)
        if b <= a:
            return 0.0
        q = p - self.alpha
        if a == 0.0:
            if q <= 0.0:
                raise InfiniteMomentError(
                    f"moment p={p} diverges at 0 for alpha={self.alpha}")
            return 2.0 * self.c * b ** q / q
        if q == 0.0:
            return 2.0 * self.c * math.log(b / a)
        return 2.0 * self.c * (b ** q - a ** q) / q

    def sample_shell(self, shell, rng, size=None):
        a, b = self._bounds(shell)
        if b <= a or a == 0.0:
            raise ValueError(f"shell {shell} is not samplable for {self}")
        alpha = self.alpha
        u = rng.uniform(size=size)
        mag = (a ** -alpha - u * (a ** -alpha - b ** -alpha)) ** (-1.0 / alpha)
        sign = np.where(rng.uniform(size=size) < 0.5, -1.0, 1.0)
        return sign * mag


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

    @property
    def support_hi(self):
        return math.inf

    def _density_abs(self, a):
        return self.c * a ** (-self.alpha - 1.0) * np.exp(-self.theta * a)

    def _taper(self, z):
        return np.exp(-self.theta * z)

    def _tail_cut(self, a):
        # beyond this point the remaining mass is below double precision
        return a + 60.0 / self.theta

    def shell_mass(self, shell):
        return _tempered_shell_mass(self, shell)

    def shell_moment(self, shell, p, signed=False):
        if signed:
            return 0.0
        a, b = self._bounds(shell)
        if b <= a:
            return 0.0
        if a == 0.0 and p - self.alpha <= 0.0:
            raise InfiniteMomentError(
                f"moment p={p} diverges at 0 for alpha={self.alpha}")
        hi = b if b < math.inf else self._tail_cut(max(a, 1e-12))
        fn = lambda t: t ** (p - self.alpha - 1.0) * math.exp(-self.theta * t)
        return 2.0 * self.c * _quad(fn, a, hi)

    def sample_shell(self, shell, rng, size=None):
        a, b = self._bounds(shell)
        if b <= a or a == 0.0:
            raise ValueError(f"shell {shell} is not samplable for {self}")
        scalar = size is None
        n = 1 if scalar else int(np.prod(size))
        out = np.empty(n)
        filled = 0
        alpha = self.alpha
        # rejection from the pure power-law envelope on the same range:
        # accept |z| with probability exp(-theta (|z| - a)) <= 1
        ia, ib = a ** -alpha, (b ** -alpha if b < math.inf else 0.0)
        while filled < n:
            m = max(n - filled, 16)
            u = rng.uniform(size=m)
            mag = (ia - u * (ia - ib)) ** (-1.0 / alpha)
            acc = rng.uniform(size=m) < np.exp(-self.theta * (mag - a))
            good = mag[acc]
            take = min(len(good), n - filled)
            out[filled:filled + take] = good[:take]
            filled += take
        out = np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0) * out
        return float(out[0]) if scalar else out.reshape(size)


@functools.lru_cache(maxsize=64)
def _tempered_shell_mass(measure: TemperedStable, shell: Shell) -> float:
    """The shell mass of a tempered stable measure, an adaptive quadrature;
    cached per (measure, shell)."""
    a, b = measure._bounds(shell)
    if b <= a:
        return 0.0
    if a == 0.0:
        raise InfiniteMassError(
            f"tempered stable density has infinite mass near 0 (alpha={measure.alpha}); "
            "use a shell with lo > 0")
    hi = b if b < math.inf else measure._tail_cut(a)
    return 2.0 * _quad(measure._density_abs, a, hi)


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

