"""Applications at the working truncation: moment-inequality reports,
exponential martingales with their integral representation, and multiple
integrals with chaos isometries.

Every expectation identity here pairs a Monte Carlo side with an analytic
side computed on the same shell; the vanishing-floor limit is never asserted
numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import integrate as it
from .integrands import Integrand, SignPow, gl_rule, spectral_integration_matrix
from .mc import estimate, replicate_values
from .measure import LevyMeasure
from .prm import PointBatch, Window


# ---------------------------------------------------------------------------
# space-time quadrature


def _space_time_fold(X: Integrand, window: Window, t: float, phi, n_time: int,
                     n_space: int, z=np.ones(1), zw=np.ones(1)):
    """Integral over [0,t] x box x the jump rule (z, zw) of phi(V), with V =
    X(s, x) z on the tensor rule; the default rule is one unit node, which
    integrates phi(X(s, x)) over [0,t] x box."""
    if not X.is_space_time_only():
        raise ValueError("integrand has a non-constant jump factor where a "
                         "space-time integrand is required")
    breaks = np.unique(np.array([0.0, t] + [v for v in X.time_breakpoints()
                                            if 0.0 < v < t]))
    s, ws = it.interval_rule(breaks, n_time)
    xpts, wx = it.box_rule(window.box, n_space)
    factors = it.term_factors(X.with_jump(SignPow(1.0)), s, xpts, z)
    return ws @ it.tensor_fold(lambda v, _b: phi(v), factors, wx, zw)


def psi_space_time_integral(h: Integrand, window: Window, measure: LevyMeasure,
                            t: float) -> complex:
    """Integral over [0,t] x box of the compensated exponent of h(s, x), on
    24 time nodes per interval, 16 box nodes, and the 48-node rule
    measure.nu_nodes for its nu integral."""
    z, zw = measure.nu_nodes(window.shell, 48)
    return complex(_space_time_fold(h, window, t, lambda v: np.exp(1j * v) - 1.0 - 1j * v,
                                    24, 16, z, zw))


def cumulative_on_grid(breaks, n_per_interval, values):
    """Cumulative integral of a piecewise-smooth function sampled at the
    interval_rule nodes.

    Per interval the sampled values are interpolated by the degree n-1
    Legendre polynomial and integrated exactly, by the spectral integration
    matrix; returns the cumulative at every node and at every break.  The
    breaks may hold several paths one after another: the cumulative starts
    from 0 again where the breaks step back, the values of that step unread.
    Paths of one length share one stack of the matrix products each would
    get alone, so a path's floats do not depend on the others.
    """
    _, w = gl_rule(n_per_interval)
    S = spectral_integration_matrix(n_per_interval)
    breaks = np.asarray(breaks, dtype=float)
    scale = 0.5 * (breaks[1:] - breaks[:-1])
    vals = np.asarray(values).reshape(len(scale), n_per_interval)
    first = np.flatnonzero(np.append(True, breaks[1:] < breaks[:-1]))
    size = np.append(first[1:], len(breaks)) - first - 1  # intervals per path
    cum_breaks = np.zeros(len(breaks), dtype=np.result_type(vals, w))
    cum_nodes = np.zeros(vals.shape, dtype=cum_breaks.dtype)
    for k in np.unique(size[size > 0]):
        iv = first[size == k][:, None] + np.arange(k)  # (paths, k) intervals
        v, h = vals[iv], scale[iv]
        cum_breaks[iv + 1] = np.cumsum((v @ w) * h, axis=1)
        cum_nodes[iv] = cum_breaks[iv][..., None] + (v @ S.T) * h[..., None]
    return cum_nodes.ravel(), cum_breaks


# ---------------------------------------------------------------------------
# maximal-moment report


@dataclass(frozen=True)
class MomentBoundRow:
    """One cell of the maximal-inequality sweep."""

    p: float
    lhs_mean: float
    lhs_se: float
    bracket: float
    ratio: float
    moment_scale: float  # max(v^{p/2}, m_p) on the working shell
    isometry_mean: float  # terminal second moment (exact target: v * ||X||^2)
    isometry_se: float


def space_time_norm_sq(X: Integrand, window: Window, t: float) -> float:
    """Integral of X^2 over [0,t] x box, on 32 nodes per time interval and
    per box axis."""
    return float(_space_time_fold(X, window, t, lambda v: v * v, 32, 32))


def lp_bracket(X: Integrand, window: Window, t: float, p: float) -> float:
    """(integral of X^2)^{p/2} + integral of |X|^p over [0,t] x box, both
    on the rule of space_time_norm_sq."""
    pp = float(_space_time_fold(X, window, t, lambda v: np.abs(v) ** p, 32, 32))
    return space_time_norm_sq(X, window, t) ** (p / 2.0) + pp


def noise_path(X: Integrand, batch: PointBatch, measure: LevyMeasure) -> it.CadlagPath:
    """The integral process of X against the finite-variance noise, one path
    per replicate."""
    if not X.is_space_time_only():
        raise ValueError("the noise integrand must depend on (s, x) only")
    return it.build_path(None, None, X.with_jump(SignPow(1.0)), batch,
                         measure, split=math.inf)


def moment_bound_cell(X: Integrand, measure: LevyMeasure, p: float, t: float,
                      window: Window, replicates: int, master_seed: int) -> MomentBoundRow:
    """Monte Carlo estimate of the maximal p-th moment against its bracket.

    The universal constant in the inequality is not explicit, so the report
    carries the observed ratio rather than asserting one.
    """
    if p < 2.0:
        raise ValueError("the maximal inequality needs p >= 2")
    m_p = measure.shell_moment(window.shell, p)
    if not math.isfinite(m_p):
        raise ValueError(f"p-th jump moment diverges at p={p}")
    v_shell = measure.shell_moment(window.shell, 2.0)

    def stat(batch):
        # powers of Python floats, path by path: numpy's vector power can
        # differ from them in the last bit
        path = noise_path(X, batch, measure)
        return ([s ** p for s in path.sup_abs(t).tolist()],
                [e ** 2 for e in path.eval(t).tolist()])

    sups, ends = replicate_values(stat, window, measure, replicates, master_seed)
    lhs, terminal = estimate(sups, master_seed), estimate(ends, master_seed)
    bracket = lp_bracket(X, window, t, p)
    ratio = lhs.mean / bracket if bracket > 0 else math.nan
    return MomentBoundRow(p, lhs.mean, lhs.se, bracket, ratio,
                          max(v_shell ** (p / 2.0), m_p), terminal.mean, terminal.se)


# ---------------------------------------------------------------------------
# exponential martingale and its integral representation


def exp_martingale(h: Integrand, batch: PointBatch, measure: LevyMeasure, t: float,
                   psi_integral: complex) -> np.ndarray:
    """exp(i L_h(t) - psi_integral), psi_integral from psi_space_time_integral:
    the mean-one complex martingale, one value per replicate."""
    return np.exp(1j * it.l_integral(h, batch, measure, t) - psi_integral)


def representation_residual(h: Integrand, batch: PointBatch,
                            measure: LevyMeasure, T: float) -> np.ndarray:
    """|M(T) - (1 + compensated integral of (e^{ihz}-1) M(s-))|, one value
    per replicate, each from the floats of its configuration alone.

    The pre-jump values of M between jumps follow the closed-form continuous
    evolution, so the only slack is tensor quadrature: 8 time nodes per
    interval, 16 box nodes and the 48-node rule measure.nu_nodes.
    """
    n, g = len(batch), it.ReplicateGrid(batch, T, h.time_breakpoints(), 8)
    path = noise_path(h, batch, measure)
    xpts, wx = it.box_rule(batch.window.box, 16)
    z, zw = measure.nu_nodes(batch.window.shell, 48)
    factors = it.term_factors(h.with_jump(SignPow(1.0)), g.s, xpts, z)
    # per time node, the nu-rule sums of e^{ihz} - 1 and e^{ihz} - 1 - ihz
    phase_nodes, psi_nodes = it.tensor_fold(_phase_and_psi, factors, wx, zw)
    # cumulative Psi integral along the same grid
    psi_cum_nodes, psi_cum_breaks = _cumulative(g, psi_nodes)
    m_nodes = np.exp(1j * (path.csum[g.sseg, g.node_jumps] + path.drift(g.s)) - psi_cum_nodes)
    lhs = np.exp(1j * path.eval(T) - psi_cum_breaks[g.last])
    m_left = np.exp(1j * (path.csum[g.jseg, g.jump_left] + path.drift(g.tj))
                    - psi_cum_breaks[g.jump_break])
    hj = np.asarray(h(g.tj, g.xj, g.zj), dtype=float)
    jump_sum = _by_replicate(g.jseg, (np.exp(1j * hj * g.zj) - 1.0) * m_left, n)
    comp = _by_replicate(g.sseg, phase_nodes * g.ws * m_nodes, n)
    d = lhs - (1.0 + jump_sum - comp)
    return np.hypot(d.real, d.imag)


def _phase_and_psi(v, _b):
    """e^{iv} - 1 and e^{iv} - 1 - iv, stacked."""
    out = np.empty((2,) + v.shape, dtype=complex)
    np.exp(1j * v, out=out[0])
    out[0] -= 1.0
    np.subtract(out[0], 1j * v, out=out[1])
    return out


def _by_replicate(seg, values, n: int) -> np.ndarray:
    """Per replicate, the sum of its complex values, added in order."""
    return np.bincount(seg, values.real, n) + 1j * np.bincount(seg, values.imag, n)


def modulus_gap(h: Integrand, batch: PointBatch, measure: LevyMeasure,
                t: float, psi_integral: complex) -> np.ndarray:
    """| |M(t)| - exp(-Re Psi-integral) |, one value per replicate; zero for
    real h up to rounding."""
    m = exp_martingale(h, batch, measure, t, psi_integral)
    # |m| by hypot, as Python's abs takes it: numpy's vectorised abs of a
    # complex array can differ from it in the last bit
    return np.abs(np.hypot(m.real, m.imag) - math.exp(-psi_integral.real))


# ---------------------------------------------------------------------------
# multiple integrals and chaos identities


class OverlapError(ValueError):
    """Slot functions share support; diagonal terms are out of scope."""


@dataclass(frozen=True)
class ChaosFunction:
    """The symmetrization (1/n!) sum over permutations of f_1 x ... x f_n.

    Slot functions live on the product of n copies of the window; pairwise
    disjoint supports keep the multiple integral diagonal-free.
    """

    factors: tuple[Integrand, ...]

    @property
    def order(self) -> int:
        return len(self.factors)


def chaos_norm_sq(f: ChaosFunction, window: Window, measure: LevyMeasure,
                  T: float) -> float:
    """Squared norm of the symmetrized tensor product in the n-fold product
    space: (1/n!) sum over permutations of the Gram products."""
    import itertools

    n = f.order
    gram = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            gram[i, j] = gram[j, i] = it.compensator(f.factors[i] * f.factors[j],
                                                     window, measure, T)
    total = 0.0
    for perm in itertools.permutations(range(n)):
        prod = 1.0
        for i, j in enumerate(perm):
            prod *= gram[i, j]
        total += prod
    return total / math.factorial(n)


def check_disjoint(f: ChaosFunction, window: Window, measure: LevyMeasure,
                   T: float) -> None:
    """Raise OverlapError when two slot functions share support: the
    compensator of their squared product exceeds 1e-12."""
    for i in range(f.order):
        for j in range(i + 1, f.order):
            mass = it.compensator((f.factors[i] * f.factors[j]).squared(),
                                  window, measure, T)
            if abs(mass) > 1e-12:
                raise OverlapError(
                    f"slot functions {i} and {j} overlap (mass {mass:.3e}); "
                    "diagonal handling is out of scope")


def second_order_square_variance(f: ChaosFunction, window: Window, measure: LevyMeasure,
                                 T: float) -> float:
    """Var(I2^2) of an order-2 chaos function with disjoint slots A and B.

    Then I2 = N~(A) N~(B) with independent factors, and a compensated
    integral X of g has E X^2 = k2 and E X^4 = k4 + 3 k2^2, with k_p the
    compensator of g^p: Var(I2^2) = prod (k4 + 3 k2^2) - prod k2^2."""
    k2 = np.array([it.compensator(g.squared(), window, measure, T) for g in f.factors])
    k4 = np.array([it.compensator(g.squared().squared(), window, measure, T) for g in f.factors])
    return float(np.prod(k4 + 3.0 * k2 * k2) - np.prod(k2 * k2))


def noise_square_variance(g: Integrand, window: Window, measure: LevyMeasure,
                          T: float) -> float:
    """Var(N~(g)^2) of the compensated integral N~(g) over the window up to T.

    E N~(g)^2 = k2 and E N~(g)^4 = k4 + 3 k2^2, with k_p the compensator of
    g^p: Var(N~(g)^2) = k4 + 2 k2^2.  A noise integral X(T) is N~(X z)."""
    g2 = g.squared()
    k2 = it.compensator(g2, window, measure, T)
    return it.compensator(g2.squared(), window, measure, T) + 2.0 * k2 * k2


def _cumulative(g: it.ReplicateGrid, values):
    """The integral of the node values of a replicate grid at every node and
    break, less its value at the replicate's 0, so a cumulative_on_grid that
    ran on across paths would serve as well."""
    q = np.zeros((len(g.inner), g.n_time), dtype=values.dtype)
    q[g.inner] = values.reshape(-1, g.n_time)
    nodes, at_breaks = cumulative_on_grid(g.breaks, g.n_time, q.ravel())
    zero = at_breaks[g.first]
    return (nodes.reshape(-1, g.n_time)[g.inner].ravel() - zero[g.sseg],
            at_breaks - zero[g.bseg])


def _iterated(slots, batch: PointBatch, measure: LevyMeasure, T: float) -> np.ndarray:
    """Iterated compensated integral over the ordered time simplex for one
    ordered tuple of slot functions, one value per replicate of the batch,
    each the floats of its configuration alone; 8 time nodes per interval."""
    n, g = len(batch), it.ReplicateGrid(batch, T, [v for f in slots for v in f.time_breakpoints()],
                                        8)
    counts = np.bincount(g.jseg, minlength=n)
    col = np.arange(len(g.tj)) - (np.cumsum(counts) - counts)[g.jseg]
    projs = [it.project_time(f, batch.window, measure) for f in slots]

    def running(f, weight=1.0):  # per replicate, 0 and the partial sums of weight * f
        values = weight * np.asarray(f(g.tj, g.xj, g.zj), dtype=float)  # 0-d without terms
        return it._rows(g.tj, np.broadcast_to(values, g.tj.shape), counts, None).csum

    # level 1
    csum = running(slots[0])
    C_breaks = it.time_cumulative(projs[0], g.breaks)
    P_nodes = csum[g.sseg, g.node_jumps] - it.time_cumulative(projs[0], g.s)
    # value just before each jump: jumps strictly earlier, compensator up to it
    P_left = csum[g.jseg, col] - C_breaks[g.jump_break]
    P_end = csum[np.arange(n), counts] - C_breaks[g.last]

    for k in range(1, len(slots)):
        ck_nodes = np.asarray(projs[k](g.s, 0.0, 0.0), dtype=float) + np.zeros(len(g.s))
        D_nodes, D_breaks = _cumulative(g, P_nodes * ck_nodes)
        inc = running(slots[k], P_left)
        P_nodes = inc[g.sseg, g.node_jumps] - D_nodes
        P_left = inc[g.jseg, col] - D_breaks[g.jump_break]
        P_end = inc[np.arange(n), counts] - D_breaks[g.last]
    return P_end


def multiple_integral(f: ChaosFunction, batch: PointBatch, measure: LevyMeasure,
                      T: float | None = None) -> np.ndarray:
    """The order-n multiple integral of a disjoint-support chaos function,
    computed as the permutation sum of iterated simplex integrals, one value
    per replicate.  The slots are not checked: `check_disjoint` does that
    for slots read from a config; on overlapping slots the sum leaves out
    the diagonal."""
    import itertools

    T = T if T is not None else batch.window.horizon
    total = np.zeros(len(batch))
    for perm in itertools.permutations(f.factors):
        total = total + _iterated(perm, batch, measure, T)
    return total


def second_chaos_expansion_residual(set_indicator: Integrand, batch: PointBatch,
                                    measure: LevyMeasure,
                                    T: float | None = None) -> np.ndarray:
    """Residual of the explicit two-term expansion of the squared centered
    count of a space-time-jump box, one value per replicate.

    The expansion F = E F + I1 + I2 with slot functions equal to the box
    indicator holds path by path, so the residual is numerical dust.
    """
    T = T if T is not None else batch.window.horizon
    mu = it.compensator(set_indicator, batch.window, measure, T)
    nhat = it.int_Nhat(set_indicator, batch, measure, T)
    i2 = multiple_integral(ChaosFunction((set_indicator, set_indicator)), batch, measure, T)
    return nhat * nhat - mu - nhat - i2
