"""Space-time integrals against the PRM, its compensator, and cadlag paths.

All stochastic analysis happens at a fixed truncation shell, where the model
is an exact finite-activity semimartingale: jump integrals are finite sums,
compensators factor into products of one-dimensional integrals, and every
pathwise identity can be demanded to quadrature precision.  Every operation
takes a `PointBatch` and gives one value, or one path, per replicate; one
configuration is the batch of one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

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
    ZERO,
    breakpoints,
    gl_rule,
    product_node,
    sign_changes,
)
from .measure import (DiscreteAtoms, InfiniteMassError, InfiniteMomentError, LevyMeasure,
                      Shell)
from .prm import PointBatch, Window


class InfiniteCompensatorError(ValueError):
    """The nu-factor of a compensator diverges on the requested region."""


# ---------------------------------------------------------------------------
# factor integrals


def nu_factor(measure: LevyMeasure, node: Node, shell: Shell,
              absolute: bool = False) -> float:
    """Integral of a jump node, or of its absolute value, against nu over a
    shell.

    Closed forms for constants, (signed) powers, polynomials, and indicator
    clips; the measure's shell rule otherwise.  With `absolute` the closed
    forms are kept for the sign-definite nodes only.
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
        node, shell = product_node(*core), sub
        if not isinstance(node, Product):
            return scale * _nu_factor(measure, node, shell, absolute)
    fn = (lambda z: np.abs(node(z))) if absolute else node
    if isinstance(measure, DiscreteAtoms):  # the atom sum is exact without cuts
        return scale * measure.nu_integral(fn, shell)
    # the shell rule on the pieces of the |z| range where the node, or |node|, is smooth
    a, b = measure.z_range(shell)
    if b <= a:
        return 0.0
    cuts = {abs(v) for v in breakpoints(node)}
    if absolute:
        cuts.update(v for side in (-1.0, 1.0)
                    for v in sign_changes(lambda u: node(side * u), a, b, cuts))
    edges = [a, *sorted(v for v in cuts if a < v < b), b]
    return scale * sum(measure.nu_integral(fn, Shell(lo, hi)) for lo, hi in zip(edges, edges[1:]))


def _one_sided_mass(measure, shell, lo, hi):
    """nu(shell intersect (lo, hi]) for a plain interval, either sign."""
    if isinstance(measure, DiscreteAtoms):
        return float(sum(w for z, w in measure.atoms
                         if lo < z <= hi and shell.lo < abs(z) <= shell.hi))
    # both density families are symmetric
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


@dataclass(frozen=True)
class Drift:
    """t -> sum over the (coefficient, time node) pairs of the coefficient
    times the integral of the node over [0, t]; its slope is the sum of the
    coefficients times the nodes."""

    pieces: tuple

    def __call__(self, ts):
        ts = np.asarray(ts, dtype=float)
        out = np.zeros(ts.shape)
        for coef, node in self.pieces:
            F = node.antiderivative(ts)
            if F is None:
                vals = np.array([node.integral(0.0, float(v)) for v in np.atleast_1d(ts)])
                out = out + coef * vals.reshape(ts.shape)
            else:
                out = out + coef * (F - node.antiderivative(np.zeros(())))
        return out

    def slope(self, ts) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        out = np.zeros(ts.shape)
        for coef, node in self.pieces:
            out = out + coef * node(ts)
        return out

    def turning_points(self, t: float) -> np.ndarray:
        """The times in (0, t) where the slope changes sign (`sign_changes`
        on a grid that holds the nodes' breakpoints)."""
        return sign_changes(self.slope, 0.0, t,
                            [v for _, node in self.pieces for v in breakpoints(node)])


def drift_function(pieces) -> Drift:
    """The drift of the (coefficient, time node) pairs; zero coefficients
    are dropped."""
    return Drift(tuple((c, node) for c, node in pieces if c != 0.0))


# ---------------------------------------------------------------------------
# the four integral operations


def time_cumulative(G: Integrand, ts) -> np.ndarray:
    """Vectorized t -> integral over [0, t] for a time-only integrand."""
    return drift_function(_time_pieces(G))(ts)


def int_N(K: Integrand, batch: PointBatch, t: float) -> np.ndarray:
    """Per replicate, the finite jump sum of K over the points with t_i <= t."""
    mask = batch.t <= t
    values = K(batch.t[mask], batch.x[mask], batch.z[mask]) if mask.any() else 0.0
    return _segment_sum(batch, mask, values)


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


def int_Nhat(H: Integrand, batch: PointBatch, measure: LevyMeasure, t: float) -> np.ndarray:
    """Compensated integral: jump sum minus compensator on the same window."""
    return int_N(H, batch, t) - compensator(H, batch.window, measure, t)


def l_integral(X: Integrand, batch: PointBatch, measure: LevyMeasure, t: float) -> np.ndarray:
    """Integral of X(s, x) against the finite-variance noise: the compensated
    integral of X(s, x) z."""
    if not X.is_space_time_only():
        raise ValueError("the noise integrand must depend on (s, x) only")
    return int_Nhat(X.with_jump(SignPow(1.0)), batch, measure, t)


def z_of_set(a: float, box, interval, batch: PointBatch, measure: LevyMeasure) -> np.ndarray:
    """Per replicate, the noise charge of a space-time set (interval x box).

    Uses the standard form with drift term i*u*a in the exponent; big jumps
    enter raw, small jumps compensated.
    """
    t1, t2 = interval
    w = batch.window
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
    keep = (batch.t > t1) & (batch.t <= t2)
    for k, (lo, hi) in enumerate(box):
        keep &= (batch.x[:, k] >= lo) & (batch.x[:, k] <= hi)
    big = np.abs(batch.z) > 1.0
    total = np.full(len(batch), a * vol)
    for part in (keep & big, keep & ~big):
        total += _segment_sum(batch, part, batch.z[part])
    small = w.shell.clip(0.0, 1.0)
    if small:
        total -= vol * measure.shell_moment(small, 1.0, signed=True)
    return total


# ---------------------------------------------------------------------------
# cadlag paths


@dataclass(frozen=True)
class CadlagPath:
    """Paths with one shared drift and their own jumps: row k of `times`
    holds path k's jump times in order, padded with inf, and row k of `csum`
    its running jump sums from 0, no jump time past `horizon`.  `times` may
    be a function that gives it on first read.  Every query gives one value
    per path."""

    _times: object     # (n, J)
    csum: np.ndarray   # (n, J + 1)
    drift: Drift
    horizon: float = np.inf

    times = functools.cached_property(
        lambda self: self._times() if callable(self._times) else self._times)

    def eval(self, s, seg=None, left: bool = False) -> np.ndarray:
        """Path seg[i] at time s[i], or its left limit there with `left`; with
        one row seg, that path at every time s; without seg, every path at
        the one time s."""
        if seg is None:
            n = len(self.csum)
            s, seg = np.full(n, float(s)), np.arange(n)
        real = self.times < np.inf
        idx = jumps_before(s, seg, self.times[real], np.nonzero(real)[0], left)
        return self.csum[seg, idx] + self.drift(s)

    def sup_abs(self, t: float) -> np.ndarray:
        """Per path, the sup over [0, t] of |path|.

        Between jumps a path is a constant plus the shared drift, so |path|
        peaks at 0, at t, on either side of a jump, or where the drift's
        slope changes sign; those turning points are found once for all
        paths.  With no drift and t at or past `horizon` it is the row's
        largest |running sum|, read without the times; that counts a sum
        between tied jumps, which the path skips, so it may be larger."""
        if not self.drift.pieces and t >= self.horizon:
            return np.maximum(-self.csum.min(axis=1), self.csum.max(axis=1))  # 0s give +0.0
        k = np.count_nonzero(self.times <= t, axis=1)  # a prefix of each row
        J = int(k.max(initial=0))
        ts, prefix = self.times[:, :J], np.arange(J) < k[:, None]
        # one row, or rows cut alike, read as views
        pick = (lambda a: a.reshape(-1)) if prefix.all() else (lambda a: a[prefix])
        tj = pick(ts)
        if np.any((ts[:, 1:] == ts[:, :-1]) & prefix[:, 1:]):  # tied: eval counts them
            rows = np.nonzero(prefix)[0]
            right, left = self.eval(tj, rows), self.eval(tj, rows, left=True)
        else:  # untied: jump i takes csum[i] to csum[i + 1]
            d = self.drift(tj)
            right, left = pick(self.csum[:, 1:J + 1]) + d, pick(self.csum[:, :J]) + d
        cand = np.maximum(np.abs(right, out=right), np.abs(left, out=left), out=right)
        best, some = np.abs(self.eval(t)), k > 0
        if some.any():  # each row's largest candidate
            row_max = np.maximum.reduceat(cand, (np.cumsum(k) - k)[some])
            best[some] = np.maximum(best[some], row_max)
        for s in self.drift.turning_points(t):
            best = np.maximum(best, np.abs(self.eval(s)))
        return best


def jumps_before(s, sseg, tj, jseg, left: bool = True) -> np.ndarray:
    """Per node i, the jumps of replicate sseg[i] before time s[i], or at or
    before it without `left`: np.searchsorted within each replicate, for
    jump times tj of replicates jseg in (replicate, time) order."""
    # complex numbers sort by real part, then imaginary part: as (replicate,
    # time) pairs, exactly
    key, query = np.empty(len(tj), dtype=complex), np.empty(len(s), dtype=complex)
    key.real, key.imag = jseg, tj
    query.real, query.imag = sseg, s
    return (np.searchsorted(key, query, side="left" if left else "right")
            - np.searchsorted(jseg, sseg))


def _rows(times, jumps, counts, drift, horizon: float = np.inf) -> CadlagPath:
    """The paths whose row k holds the next counts[k] of the jump times and
    sizes, each row in time order; `times` may be a function that gives
    them, called on the paths' first read of their times."""
    n, J = len(counts), int(counts.max(initial=0))
    real = None if np.all(counts == J) else np.arange(J) < counts[:, None]

    def pad(values):  # with no row short, the rows are views of the values
        if real is None:
            return values.reshape(n, J)
        out = np.full((n, J), np.inf)
        out[real] = values
        return out

    csum = np.zeros((n, J + 1))  # column 0 stays 0; the rest sums the jumps in place
    body = csum[:, 1:]
    if real is None:
        body[:] = np.reshape(jumps, (n, J))
    else:
        body[real] = jumps
    np.cumsum(body, axis=1, out=body)
    return CadlagPath(lambda: pad(times() if callable(times) else times), csum,
                      drift, horizon)


def _at_points(f: Integrand | None, batch: PointBatch) -> np.ndarray:
    """f at the batch's points (zeros without f), from z alone when no term reads t or x."""
    if f is None or not f.terms:
        return np.zeros(int(batch.offsets[-1]))
    if all(isinstance(term.time, Const) and not term.space for term in f.terms):
        return np.asarray(f(0.0, 0.0, batch.z), dtype=float)
    return np.asarray(f(batch.t, batch.x, batch.z), dtype=float)


def build_path(G: Integrand, K: Integrand, H: Integrand, batch: PointBatch,
               measure: LevyMeasure, split: float = 1.0) -> CadlagPath:
    """Realize the integral process of every replicate: drift + big jumps via
    K + compensated small jumps via H, the split at |z| = `split`.

    split=0 sends every jump through K (no compensation); split=inf sends
    every jump through H with the compensator over the whole shell.
    """
    w = batch.window
    if split == np.inf:  # no |z| exceeds it: K is never read
        sizes = _at_points(H, batch)
    else:
        sizes = np.where(np.abs(batch.z) > split, _at_points(K, batch), _at_points(H, batch))

    # continuous part: time integral of G minus the small-jump compensator
    pieces = _time_pieces(G) if G is not None else []
    small = w.shell.clip(0.0, split)
    if H is not None and small is not None:
        for term in H.terms:
            c = nu_factor(measure, term.jump, small) * space_factor(term, w.box)
            pieces.append((-c, term.time))
    return _rows(lambda: batch.t, sizes, batch.counts, drift_function(pieces), w.horizon)


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


def term_factors(X: Integrand, s, xpts, z) -> list:
    """The (time, space, jump) factor values of each term of X at the time
    nodes s, space points xpts and jump nodes z: the factors of tensor_fold;
    an X without terms is the zero term."""
    return [(node_values(term.time, s), node_values(term.space_value, xpts),
             node_values(term.jump, z)) for term in X.terms or ZERO.terms]


# Elements per block of the (time x box x jump node) tensors of tensor_fold;
# a block holds at least one time node, and never moves a result.
TENSOR_BLOCK = 1 << 14


@functools.lru_cache(maxsize=1)
def _tensor_scratch(size: int) -> np.ndarray:
    """Two blocks of `size` floats kept for the process, each written before it
    is read: freed after every call, they let malloc trim and refault the heap."""
    return np.empty((2, size))


def tensor_fold(phi, factors, xw, zw, start=None) -> np.ndarray:
    """Per time node i, the sum over box and jump nodes j, k of phi(V, b)_ijk
    xw_j zw_k, with V_ijk = start_i (0 without start) plus the sum over the
    (time, space, jump) factors of their products tv_i sv_j jv_k.

    V is built in blocks of TENSOR_BLOCK elements, in place in the scratch
    blocks, and b is the slice of the time nodes a block holds.  phi gets V
    to read, not to keep; a stack of tensors from it gives the stack of
    sums.
    """
    n = len(start) if start is not None else len(factors[0][0])
    shape = (len(xw), len(zw))
    size = shape[0] * shape[1]
    step, scratch = max(1, TENSOR_BLOCK // max(1, size)), _tensor_scratch(max(TENSOR_BLOCK, size))
    out = []
    for a in range(0, max(n, 1), step):  # one empty block when there are no time nodes
        b = slice(a, min(n, a + step))
        v, prod = (w[:(b.stop - a) * size].reshape(b.stop - a, *shape) for w in scratch)
        v[...] = 0.0 if start is None else start[b, None, None]
        for tv, sv, jv in factors:
            np.add(v, np.multiply.outer(np.multiply.outer(tv[b], sv), jv, out=prod), out=v)
        out.append(np.einsum("...ijk,j,k->...i", phi(v, b), xw, zw))
    return np.concatenate(out, axis=-1)


def batch_breaks(batch: PointBatch, t: float, extra):
    """The sorted break points of every replicate (0, its jump times up to
    t, the integrand time discontinuities `extra` and t), one replicate
    after another: the breaks, the replicate of each, and for each point at
    or before t, in batch order, the index of the break at its time."""
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


class ReplicateGrid:
    """The interval_rule grid over the breaks of every replicate of a batch
    (0, its jumps up to T, the time discontinuities `extra` and T), one
    replicate after another: nodes s, weights ws and the replicate sseg of
    each node; and the jumps up to T in batch order, with the replicate
    jseg of each."""

    def __init__(self, batch: PointBatch, T: float, extra, n_time: int):
        n, self.n_time = len(batch), n_time
        self.breaks, self.bseg, self.jump_break = batch_breaks(batch, T, extra)
        # each replicate's breaks run from 0 up to T > 0, so interval_rule
        # drops each step from T back to 0
        self.s, self.ws = interval_rule(self.breaks, n_time)
        self.inner = ~(self.breaks[1:] <= self.breaks[:-1])
        self.sseg = np.repeat(self.bseg[:-1][self.inner], n_time)
        self.first = np.searchsorted(self.bseg, np.arange(n))  # each replicate's 0
        self.last = np.searchsorted(self.bseg, np.arange(n), side="right") - 1  # and T
        mask = batch.t <= T
        self.tj, self.xj, self.zj = batch.t[mask], batch.x[mask], batch.z[mask]
        self.jseg = batch.segment[mask]
