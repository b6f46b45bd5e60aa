"""Space-time integrals against the PRM, its compensator, and cadlag paths.

All stochastic analysis happens at a fixed truncation shell, where the model
is an exact finite-activity semimartingale: jump integrals are finite sums,
compensators factor into products of one-dimensional integrals, and every
pathwise identity can be demanded to quadrature precision.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .integrands import (
    AbsIndicator,
    AbsPow,
    Const,
    Indicator,
    Integrand,
    Node,
    Poly,
    Product,
    SignPow,
    Term,
    gl_rule,
    product_node,
)
from .measure import InfiniteMassError, InfiniteMomentError, LevyMeasure, Shell
from .prm import PointBatch, PointConfiguration, Window


class InfiniteCompensatorError(ValueError):
    """The nu-factor of a compensator diverges on the requested region."""


# ---------------------------------------------------------------------------
# factor integrals


def nu_factor(measure: LevyMeasure, node: Node, shell: Shell,
              absolute: bool = False) -> float:
    """Integral of a jump node, or of its absolute value, against nu over a
    shell.

    Closed forms for constants, (signed) powers, polynomials, and indicator
    clips; generic adaptive quadrature otherwise.  With `absolute` the
    closed forms are kept for the sign-definite nodes only.
    """
    try:
        return _nu_factor(measure, node, shell, absolute)
    except (InfiniteMassError, InfiniteMomentError) as exc:
        raise InfiniteCompensatorError(str(exc)) from exc


def _nu_factor(measure, node, shell, absolute):
    if isinstance(node, Const):
        if node.value == 0.0:
            return 0.0
        return (abs(node.value) if absolute else node.value) * measure.shell_mass(shell)
    if isinstance(node, SignPow):
        return measure.shell_moment(shell, node.power, signed=not absolute)
    if isinstance(node, AbsPow):
        return measure.shell_moment(shell, node.power)
    if isinstance(node, Poly) and not absolute:
        total = 0.0
        for k, c in enumerate(node.coeffs):
            if c == 0.0:
                continue
            if k == 0:
                total += c * measure.shell_mass(shell)
            else:
                total += c * measure.shell_moment(shell, float(k), signed=(k % 2 == 1))
        return total
    if isinstance(node, AbsIndicator):
        sub = shell.clip(node.lo, node.hi)
        return measure.shell_mass(sub) if sub else 0.0
    if isinstance(node, Indicator):
        return _one_sided_mass(measure, shell, node.lo, node.hi)
    scale = 1.0
    if isinstance(node, Product):
        sub, core = shell, []
        for f in node.factors:
            if isinstance(f, Const):
                scale *= abs(f.value) if absolute else f.value
            elif isinstance(f, AbsIndicator):
                sub = sub.clip(f.lo, f.hi) if sub else None
            else:
                core.append(f)
        if sub is None or scale == 0.0:
            return 0.0
        if not core:
            return scale * measure.shell_mass(sub)
        if len(core) == 1:
            return scale * _nu_factor(measure, core[0], sub, absolute)
        node, shell = product_node(*core), sub
    if absolute:
        return scale * measure.nu_integral(lambda z: abs(float(node(z))), shell)
    return scale * measure.nu_integral(lambda z: float(node(z)), shell)


def _one_sided_mass(measure, shell, lo, hi):
    """nu(shell intersect (lo, hi]) for a plain interval, either sign."""
    from .measure import DiscreteAtoms

    if isinstance(measure, DiscreteAtoms):
        return float(sum(w for z, w in measure.atoms
                         if lo < z <= hi and shell.lo < abs(z) <= shell.hi))
    if not measure.symmetric:
        return measure.nu_integral(lambda z: 1.0 if lo < z <= hi else 0.0, shell)
    total = 0.0
    pos = shell.clip(max(lo, 0.0), hi) if hi > 0 else None
    if pos:
        total += 0.5 * measure.shell_mass(pos)
    if lo < 0:
        neg = shell.clip(-min(hi, 0.0), -lo)
        if neg:
            total += 0.5 * measure.shell_mass(neg)
    return total


def space_factor(term: Term, box) -> float:
    """Integral of the space factors over the box; untouched axes contribute
    their side lengths."""
    val = 1.0
    for k, (lo, hi) in enumerate(box):
        if k < len(term.space):
            val *= term.space[k].integral(lo, hi)
        else:
            val *= hi - lo
    return val


def _jump_const(term: Term) -> float:
    if not isinstance(term.jump, Const):
        raise ValueError("integrand has a non-constant jump factor where a "
                         "time/space-only integrand is required")
    return term.jump.value


def _space_const(term: Term) -> float:
    val = 1.0
    for node in term.space:
        if not isinstance(node, Const):
            raise ValueError("integrand has a non-constant space factor where "
                             "a time-only integrand is required")
        val *= node.value
    return val


def _time_pieces(G: Integrand) -> list:
    """The (coefficient, time node) pairs of a time-only integrand."""
    return [(_jump_const(term) * _space_const(term), term.time) for term in G.terms]


def drift_function(pieces) -> Callable[[np.ndarray], np.ndarray]:
    """t -> sum over the (coefficient, time node) pairs of the coefficient
    times the integral of the node over [0, t]."""
    pieces = tuple((c, node) for c, node in pieces if c != 0.0)

    def drift(ts):
        ts = np.asarray(ts, dtype=float)
        out = np.zeros(ts.shape)
        for coef, node in pieces:
            F = node.antiderivative(ts)
            if F is None:
                vals = np.array([node.integral(0.0, float(v)) for v in np.atleast_1d(ts)])
                out = out + coef * vals.reshape(ts.shape)
            else:
                out = out + coef * (F - node.antiderivative(np.zeros(())))
        return out

    return drift


# ---------------------------------------------------------------------------
# the four integral operations


def int_time(G: Integrand, t: float, n: int = 64) -> float:
    """Integral of a time-only integrand over [0, t]."""
    total = 0.0
    for scale, node in _time_pieces(G):
        if scale != 0.0:
            total += scale * node.integral(0.0, t, n)
    return total


def time_cumulative(G: Integrand, ts) -> np.ndarray:
    """Vectorized t -> integral over [0, t] for a time-only integrand."""
    return drift_function(_time_pieces(G))(ts)


def int_N(K: Integrand, config: PointConfiguration | PointBatch, t: float):
    """Finite jump sum of K over the points with t_i <= t; on a batch, the
    array of per-replicate sums."""
    batch = config if isinstance(config, PointBatch) else PointBatch.of(config)
    mask = batch.t <= t
    values = K(batch.t[mask], batch.x[mask], batch.z[mask]) if mask.any() else 0.0
    sums = _segment_sum(batch, mask, values)
    return sums if batch is config else float(sums[0])


def _segment_sum(batch: PointBatch, mask, values) -> np.ndarray:
    """Per-replicate sums of the values at the masked points, each added in
    time order."""
    values = np.broadcast_to(np.asarray(values, dtype=float), (np.count_nonzero(mask),))
    return np.bincount(batch.segment[mask], weights=values, minlength=len(batch))


def compensator(H: Integrand, window: Window, measure: LevyMeasure, t: float) -> float:
    """The deterministic triple integral of H over [0,t] x box x shell."""
    total = 0.0
    for term in H.terms:
        nu = nu_factor(measure, term.jump, window.shell)
        if nu == 0.0:
            continue
        total += term.time.integral(0.0, t) * space_factor(term, window.box) * nu
    return total


def int_Nhat(H: Integrand, config: PointConfiguration | PointBatch,
             measure: LevyMeasure, t: float):
    """Compensated integral: jump sum minus compensator on the same window."""
    return int_N(H, config, t) - compensator(H, config.window, measure, t)


def l_integral(X: Integrand, config: PointConfiguration | PointBatch,
               measure: LevyMeasure, t: float):
    """Integral of X(s, x) against the finite-variance noise: the compensated
    integral of X(s, x) z."""
    if not X.is_space_time_only():
        raise ValueError("the noise integrand must depend on (s, x) only")
    return int_Nhat(X.with_jump(SignPow(1.0)), config, measure, t)


def z_of_set(a: float, box, interval, config: PointConfiguration | PointBatch,
             measure: LevyMeasure):
    """The noise charge of a space-time set (interval x box); on a batch,
    the array of per-replicate charges.

    Uses the standard form with drift term i*u*a in the exponent; big jumps
    enter raw, small jumps compensated.
    """
    t1, t2 = interval
    w = config.window
    if not (0.0 <= t1 < t2 <= w.horizon):
        raise ValueError(f"time interval {interval} outside the window")
    if len(box) != w.dim:
        raise ValueError("box dimension mismatch")
    for (lo, hi), (wlo, whi) in zip(box, w.box):
        if lo < wlo or hi > whi:
            raise ValueError("box not contained in the window")
    vol = t2 - t1
    for lo, hi in box:
        vol *= hi - lo
    total = a * vol
    batch = config if isinstance(config, PointBatch) else PointBatch.of(config)
    keep = (batch.t > t1) & (batch.t <= t2)
    for k, (lo, hi) in enumerate(box):
        keep &= (batch.x[:, k] >= lo) & (batch.x[:, k] <= hi)
    big = np.abs(batch.z) > 1.0
    total = np.full(len(batch), total)
    for part in (keep & big, keep & ~big):
        total += _segment_sum(batch, part, batch.z[part])
    small = w.shell.clip(0.0, 1.0)
    if small:
        total -= vol * measure.shell_moment(small, 1.0, signed=True)
    return total if batch is config else float(total[0])


# ---------------------------------------------------------------------------
# cadlag paths


@dataclass(frozen=True)
class CadlagPath:
    """Drift evaluator plus a sorted jump list, with left-limit access."""

    times: np.ndarray
    jumps: np.ndarray
    drift: Callable[[np.ndarray], np.ndarray]
    window: Window

    def __post_init__(self):
        object.__setattr__(self, "_csum", np.concatenate([[0.0], np.cumsum(self.jumps)]))

    def eval(self, t):
        idx = np.searchsorted(self.times, np.asarray(t, dtype=float), side="right")
        out = self._csum[idx] + self.drift(t)
        return float(out) if np.ndim(t) == 0 else out

    def eval_left(self, t):
        idx = np.searchsorted(self.times, np.asarray(t, dtype=float), side="left")
        out = self._csum[idx] + self.drift(t)
        return float(out) if np.ndim(t) == 0 else out

    def sup_abs(self, t: float, scan: int = 0) -> float:
        """sup over [0, t] of |path|.

        Candidates are 0, the terminal value, and left/right values at every
        jump time; exact when the drift is monotone between jumps.  `scan`
        adds a uniform grid plus a local refinement for wiggly drifts.
        """
        k = int(np.searchsorted(self.times, t, side="right"))
        ts = self.times[:k]
        if np.all(ts[1:] > ts[:-1]):  # untied: jump i takes _csum[i] to _csum[i+1]
            d = self.drift(ts)
            sides = (self._csum[1:k + 1] + d, self._csum[:k] + d)
        else:
            sides = (self.eval(ts), self.eval_left(ts))
        best = max(0.0, abs(self.eval(t)), *(float(np.max(np.abs(v), initial=0.0)) for v in sides))
        if scan > 1:
            grid = np.linspace(0.0, t, scan)
            vals = np.abs(self.eval(grid))
            g = int(np.argmax(vals))
            best = max(best, float(vals[g]))
            lo = grid[max(g - 1, 0)]
            hi = grid[min(g + 1, scan - 1)]
            # keep the refinement bracket inside one inter-jump interval
            inner = self.times[(self.times > lo) & (self.times < hi)]
            if len(inner):
                hi = float(inner[0])
            if hi > lo:
                from scipy import optimize

                res = optimize.minimize_scalar(
                    lambda s: -abs(self.eval(min(s, t))),
                    bounds=(lo, hi), method="bounded",
                    options={"xatol": 1e-12})
                best = max(best, float(-res.fun))
        return best


@dataclass(frozen=True)
class PathBatch:
    """Paths with one shared drift and their own jumps: row k of `times`
    holds path k's jump times in order, padded with inf, and row k of
    `csum` its running jump sums from 0, each as CadlagPath sums its own."""

    times: np.ndarray  # (n, J)
    csum: np.ndarray   # (n, J + 1)
    drift: Callable[[np.ndarray], np.ndarray]

    @staticmethod
    def of(path: CadlagPath) -> "PathBatch":
        return PathBatch(path.times[None], path._csum[None], path.drift)

    def eval(self, s, seg=None, left: bool = False) -> np.ndarray:
        """Path seg[i] at time s[i], or its left limit there with `left`;
        without seg, every path at the one time s."""
        if seg is None:
            seg, s = np.arange(len(self.times)), np.full(len(self.times), float(s))
        idx = np.zeros(len(s), dtype=np.intp)
        for col in self.times.T:  # counts the jumps at or before s, as searchsorted
            idx += (col[seg] < s) if left else (col[seg] <= s)
        return self.csum[seg, idx] + self.drift(s)


def build_path(G: Integrand, K: Integrand, H: Integrand,
               config: PointConfiguration | PointBatch, measure: LevyMeasure,
               split: float = 1.0) -> CadlagPath | PathBatch:
    """Realize the integral process: drift + big jumps via K + compensated
    small jumps via H, the split at |z| = `split`; a CadlagPath, or on a
    batch the PathBatch of its replicates.

    split=0 sends every jump through K (no compensation); split=inf sends
    every jump through H with the compensator over the whole shell.
    """
    w = config.window
    if len(config.t):
        big = np.abs(config.z) > split
        sizes = np.where(
            big,
            np.asarray(K(config.t, config.x, config.z), dtype=float) if K is not None else 0.0,
            np.asarray(H(config.t, config.x, config.z), dtype=float) if H is not None else 0.0,
        )
        times = config.t
    else:
        times, sizes = np.empty(0), np.empty(0)

    # continuous part: time integral of G minus the small-jump compensator
    pieces = _time_pieces(G) if G is not None else []
    small = w.shell.clip(0.0, split)
    if H is not None and small is not None:
        for term in H.terms:
            c = nu_factor(measure, term.jump, small) * space_factor(term, w.box)
            pieces.append((-c, term.time))
    if not isinstance(config, PointBatch):
        return jump_path(times, sizes, pieces, w)
    n, col = len(config), np.arange(len(times)) - config.offsets[config.segment]
    padded = np.full((n, int(config.counts.max(initial=0))), np.inf)
    jumps = np.zeros(padded.shape)
    padded[config.segment, col], jumps[config.segment, col] = times, sizes
    csum = np.concatenate([np.zeros((n, 1)), np.cumsum(jumps, axis=1)], axis=1)
    return PathBatch(padded, csum, drift_function(pieces))


def jump_path(times, jumps, pieces, window: Window) -> CadlagPath:
    """The path with the given jumps, in any time order, plus the drift of
    the (coefficient, time node) pairs."""
    times, jumps = np.asarray(times, dtype=float), np.asarray(jumps, dtype=float)
    if np.any(times[1:] < times[:-1]):
        order = np.argsort(times, kind="stable")
        times, jumps = times[order], jumps[order]
    return CadlagPath(times, jumps, drift_function(pieces), window)


@functools.lru_cache(maxsize=64)
def project_time(H: Integrand, window: Window, measure: LevyMeasure,
                 shell: Shell | None = None) -> Integrand:
    """Collapse the space and jump factors of H by integration, leaving a
    time-only integrand s -> integral of H(s, x, z) over box x shell; cached."""
    shell = shell if shell is not None else window.shell
    terms = []
    for term in H.terms:
        c = nu_factor(measure, term.jump, shell) * space_factor(term, window.box)
        terms.append(Term(time=product_node(Const(c), term.time)))
    return Integrand(tuple(terms))


# ---------------------------------------------------------------------------
# quadrature rules shared by the pathwise evaluators


def interval_rule(breaks, n_per_interval: int):
    """Concatenated Gauss-Legendre nodes/weights over consecutive intervals.

    Returns (s, w); nodes are strictly interior so cadlag left/right values
    agree at them.
    """
    t, w = gl_rule(n_per_interval)
    breaks = np.asarray(breaks, dtype=float)
    keep = ~(breaks[1:] <= breaks[:-1])  # drops empty intervals, keeps NaN ones
    a, b = breaks[:-1][keep], breaks[1:][keep]
    half = 0.5 * (b - a)
    s = half[:, None] * t + (0.5 * (b + a))[:, None]
    return s.ravel(), (half[:, None] * w).ravel()


def box_rule(box, n_per_axis: int):
    """Tensor Gauss-Legendre rule over a box: points (m, d), weights (m,);
    cached per box and node count, so the arrays are read-only."""
    return _box_rule(tuple((float(lo), float(hi)) for lo, hi in box), n_per_axis)


@functools.lru_cache(maxsize=64)
def _box_rule(box, n_per_axis):
    t, w = gl_rule(n_per_axis)
    half = [0.5 * (hi - lo) for lo, hi in box]
    axes = [h * t + 0.5 * (hi + lo) for h, (lo, hi) in zip(half, box)]
    pts = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
    ww = np.ones(pts.shape[0])
    for g in np.meshgrid(*[h * w for h in half], indexing="ij"):
        ww = ww * g.ravel()
    pts.flags.writeable = ww.flags.writeable = False
    return pts, ww


def node_values(fn, pts) -> np.ndarray:
    """fn at the points as a float array of len(pts); constants broadcast."""
    return np.asarray(fn(pts), dtype=float) + np.zeros(len(pts))


def space_time_grid(X: Integrand, s, xpts) -> np.ndarray:
    """X on the grid of times s and space points xpts: the sum over its
    terms of the outer product of the time and space factor values, each
    scaled by its jump factor, which must be constant."""
    grid = np.zeros((len(s), len(xpts)))
    for term in X.terms:
        grid += (np.multiply.outer(node_values(term.time, s), node_values(term.space_value, xpts))
                 * _jump_const(term))
    return grid


def batch_breaks(batch: PointBatch, t: float, extra):
    """The path_breaks of every replicate, one replicate after another: the
    breaks, the replicate of each, and for each point at or before t, in
    batch order, the index of the break at its time."""
    fixed = [0.0, float(t)] + [float(v) for v in extra if 0.0 < v < t]
    mask = batch.t <= t
    pts = np.concatenate([np.tile(fixed, len(batch)), batch.t[mask]])
    seg = np.concatenate([np.repeat(np.arange(len(batch)), len(fixed)), batch.segment[mask]])
    order = np.lexsort((pts, seg))  # stable: the points keep their batch order
    pts, seg = pts[order], seg[order]
    new = np.ones(len(pts), dtype=bool)
    new[1:] = (pts[1:] != pts[:-1]) | (seg[1:] != seg[:-1])
    run = np.cumsum(new) - 1
    return pts[new], seg[new], run[order >= len(batch) * len(fixed)]


def batch_rule(batch: PointBatch, t: float, extra, n_per_interval: int):
    """interval_rule over the path_breaks of every replicate at once: the
    nodes s, weights w and the replicate index of each node."""
    breaks, seg, _ = batch_breaks(batch, t, extra)
    # each replicate's breaks run from 0 up to t > 0, so interval_rule drops
    # each step from t back to 0
    s, w = interval_rule(breaks, n_per_interval)
    return s, w, np.repeat(seg[:-1][~(breaks[1:] <= breaks[:-1])], n_per_interval)


def path_breaks(config: PointConfiguration, t: float, extra=()) -> np.ndarray:
    """Sorted break points: 0, the jump times up to t, integrand time
    discontinuities, and t itself."""
    pts = [0.0, float(t)]
    pts.extend(float(v) for v in config.t[config.t <= t])
    pts.extend(float(v) for v in extra if 0.0 < v < t)
    return np.unique(np.array(pts))
