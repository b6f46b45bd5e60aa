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
from .mc import estimate, map_replicates
from .measure import LevyMeasure, Shell
from .prm import PointConfiguration, Window


# ---------------------------------------------------------------------------
# quadrature helpers shared by the complex-valued machinery


def psi_shell_rule(measure: LevyMeasure, shell: Shell, u, n_per_side: int = 48):
    """Compensated exponent on a shell, evaluated through the fixed nu-rule
    so tensor integrands and analytic targets share one discretization.

    `u` may be any array; the result matches measure.psi_shell to the rule's
    accuracy (exact for atom families).
    """
    z, w = measure.nu_nodes(shell, n_per_side)
    u = np.asarray(u, dtype=float)
    if len(z) == 0:
        return np.zeros(u.shape, dtype=complex)
    uz = np.multiply.outer(u, z)
    vals = np.exp(1j * uz) - 1.0 - 1j * uz
    return vals @ w


def space_time_integral(X: Integrand, window: Window, t: float, phi,
                        n_time: int, n_space: int):
    """Integral over [0,t] x box of phi(X(s, x)); `phi` maps the array of
    X values on the tensor rule to the integrand values."""
    breaks = np.unique(np.array([0.0, t] + [v for v in X.time_breakpoints()
                                            if 0.0 < v < t]))
    s, ws = it.interval_rule(breaks, n_time)
    xpts, wx = it.box_rule(window.box, n_space)
    return np.einsum("ij,i,j->", phi(it.space_time_grid(X, s, xpts)), ws, wx)


def psi_space_time_integral(h: Integrand, window: Window, measure: LevyMeasure,
                            t: float, n_time: int = 24, n_space: int = 16,
                            n_jump: int = 48) -> complex:
    """Integral over [0,t] x box of the compensated exponent of h(s, x)."""
    return complex(space_time_integral(
        h, window, t, lambda g: psi_shell_rule(measure, window.shell, g, n_jump),
        n_time, n_space))


def cumulative_on_grid(breaks, n_per_interval, values):
    """Cumulative integral of a piecewise-smooth function sampled at the
    interval_rule nodes.

    Per interval the sampled values are interpolated by the degree n-1
    Legendre polynomial and integrated exactly, by the spectral integration
    matrix; returns the cumulative at every node and at every break.
    """
    _, w = gl_rule(n_per_interval)
    S = spectral_integration_matrix(n_per_interval)
    scale = 0.5 * np.diff(breaks)
    vals = np.asarray(values).reshape(len(scale), n_per_interval)
    cum_breaks = np.concatenate([[0.0], np.cumsum((vals @ w) * scale)])
    cum_nodes = cum_breaks[:-1, None] + (vals @ S.T) * scale[:, None]
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


def space_time_norm_sq(X: Integrand, window: Window, t: float, n: int = 32) -> float:
    """Integral of X^2 over [0,t] x box."""
    return float(space_time_integral(X, window, t, lambda g: g * g, n, n))


def lp_bracket(X: Integrand, window: Window, t: float, p: float,
               n: int = 32) -> float:
    """(integral of X^2)^{p/2} + integral of |X|^p over [0,t] x box."""
    pp = float(space_time_integral(X, window, t, lambda g: np.abs(g) ** p, n, n))
    return space_time_norm_sq(X, window, t, n) ** (p / 2.0) + pp


def noise_path(X: Integrand, config: PointConfiguration,
               measure: LevyMeasure) -> it.CadlagPath:
    """The integral process of X against the finite-variance noise."""
    if not X.is_space_time_only():
        raise ValueError("the noise integrand must depend on (s, x) only")
    return it.build_path(None, None, X.with_jump(SignPow(1.0)), config,
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

    def one(_k, config):
        path = noise_path(X, config, measure)
        return path.sup_abs(t) ** p, path.eval(t) ** 2

    draws = map_replicates(one, window, measure, replicates, master_seed)
    lhs = estimate([s for s, _ in draws], master_seed)
    terminal = estimate([e for _, e in draws], master_seed)
    bracket = lp_bracket(X, window, t, p)
    ratio = lhs.mean / bracket if bracket > 0 else math.nan
    return MomentBoundRow(p, lhs.mean, lhs.se, bracket, ratio,
                          max(v_shell ** (p / 2.0), m_p), terminal.mean, terminal.se)


# ---------------------------------------------------------------------------
# exponential martingale and its integral representation


def exp_martingale(h: Integrand, config: PointConfiguration,
                   measure: LevyMeasure, t: float,
                   psi_integral: complex | None = None) -> complex:
    """exp(i L_h(t) - Psi-integral), the mean-one complex martingale."""
    if psi_integral is None:
        psi_integral = psi_space_time_integral(h, config.window, measure, t)
    L = it.l_integral(h, config, measure, t)
    return complex(np.exp(1j * L - psi_integral))


def representation_residual(h: Integrand, config: PointConfiguration,
                            measure: LevyMeasure, T: float, *,
                            n_time: int = 8, n_space: int = 16,
                            n_jump: int = 48) -> float:
    """|M(T) - (1 + compensated integral of (e^{ihz}-1) M(s-))|.

    The pre-jump values of M between jumps follow the closed-form continuous
    evolution, so the only slack is tensor quadrature.
    """
    w = config.window
    path = noise_path(h, config, measure)
    breaks = it.path_breaks(config, T, h.time_breakpoints())
    s, ws = it.interval_rule(breaks, n_time)
    xpts, wx = it.box_rule(w.box, n_space)
    znod, zw = measure.nu_nodes(w.shell, n_jump)

    hgrid = it.space_time_grid(h, s, xpts)
    # cumulative Psi integral along the same grid
    psi_nodes = psi_shell_rule(measure, w.shell, hgrid, n_jump) @ wx
    psi_cum_nodes, psi_cum_breaks = cumulative_on_grid(breaks, n_time, psi_nodes)

    m_nodes = np.exp(1j * path.eval(s) - psi_cum_nodes)
    lhs = np.exp(1j * path.eval(T) - psi_cum_breaks[-1])

    mask = config.t <= T
    jump_sum = 0.0 + 0.0j
    if mask.any():
        tj, xj, zj = config.t[mask], config.x[mask], config.z[mask]
        idx = np.searchsorted(breaks, tj)
        psi_at_j = psi_cum_breaks[idx]
        m_left = np.exp(1j * path.eval_left(tj) - psi_at_j)
        hj = np.asarray(h(tj, xj, zj), dtype=float)
        jump_sum = complex(np.sum((np.exp(1j * hj * zj) - 1.0) * m_left))

    phase = np.exp(1j * np.multiply.outer(hgrid, znod)) - 1.0  # (S, P, Z)
    comp = complex(np.einsum("ijk,i,j,k,i->", phase, ws, wx, zw, m_nodes))
    rhs = 1.0 + jump_sum - comp
    return abs(complex(lhs) - rhs)


def modulus_gap(h: Integrand, config: PointConfiguration, measure: LevyMeasure,
                t: float, psi_integral: complex | None = None) -> float:
    """| |M(t)| - exp(-Re Psi-integral) |; zero for real h up to rounding."""
    if psi_integral is None:
        psi_integral = psi_space_time_integral(h, config.window, measure, t)
    m = exp_martingale(h, config, measure, t, psi_integral)
    return abs(abs(m) - math.exp(-psi_integral.real))


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


def inner_product(f: Integrand, g: Integrand, window: Window,
                  measure: LevyMeasure, T: float) -> float:
    return it.compensator(f * g, window, measure, T)


def chaos_norm_sq(f: ChaosFunction, window: Window, measure: LevyMeasure,
                  T: float) -> float:
    """Squared norm of the symmetrized tensor product in the n-fold product
    space: (1/n!) sum over permutations of the Gram products."""
    import itertools

    n = f.order
    gram = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            gram[i, j] = gram[j, i] = inner_product(f.factors[i], f.factors[j],
                                                    window, measure, T)
    total = 0.0
    for perm in itertools.permutations(range(n)):
        prod = 1.0
        for i, j in enumerate(perm):
            prod *= gram[i, j]
        total += prod
    return total / math.factorial(n)


def check_disjoint(f: ChaosFunction, window: Window, measure: LevyMeasure,
                   T: float, tol: float = 1e-12) -> None:
    for i in range(f.order):
        for j in range(i + 1, f.order):
            mass = it.compensator((f.factors[i] * f.factors[j]).squared(),
                                  window, measure, T)
            if abs(mass) > tol:
                raise OverlapError(
                    f"slot functions {i} and {j} overlap (mass {mass:.3e}); "
                    "diagonal handling is out of scope")


def _slot_values(g: Integrand, config, mask):
    if not mask.any():
        return np.empty(0)
    return np.asarray(g(config.t[mask], config.x[mask], config.z[mask]),
                      dtype=float)


def _iterated(slots, config: PointConfiguration, measure: LevyMeasure,
              T: float, n_time: int = 8) -> float:
    """Iterated compensated integral over the ordered time simplex for one
    ordered tuple of slot functions."""
    w = config.window
    extra = []
    for g in slots:
        extra.extend(g.time_breakpoints())
    breaks = it.path_breaks(config, T, extra)
    s, ws = it.interval_rule(breaks, n_time)
    mask = config.t <= T
    tj = config.t[mask]
    node_jumps = np.searchsorted(tj, s, side="left")    # jumps strictly before node
    jump_break_idx = np.searchsorted(breaks, tj)        # each jump time is a break

    projs = [it.project_time(g, w, measure) for g in slots]

    # level 1
    g_vals = _slot_values(slots[0], config, mask)
    csum = np.concatenate([[0.0], np.cumsum(g_vals)])
    C_nodes = it.time_cumulative(projs[0], s)
    P_nodes = csum[node_jumps] - C_nodes
    C_breaks = it.time_cumulative(projs[0], breaks)
    # value just before jump j: jumps strictly earlier, compensator up to t_j
    P_left = csum[:len(tj)] - C_breaks[jump_break_idx]
    P_end = csum[-1] - C_breaks[-1]

    for k in range(1, len(slots)):
        ck_nodes = np.asarray(projs[k](s, 0.0, 0.0), dtype=float) + np.zeros(len(s))
        q = P_nodes * ck_nodes
        D_nodes, D_breaks = cumulative_on_grid(breaks, n_time, q)
        gk = _slot_values(slots[k], config, mask)
        inc = np.concatenate([[0.0], np.cumsum(P_left * gk)])
        P_nodes = inc[node_jumps] - D_nodes
        P_left = inc[:len(tj)] - D_breaks[jump_break_idx]
        P_end = inc[-1] - D_breaks[-1]
    return float(P_end)


def multiple_integral(f: ChaosFunction, config: PointConfiguration,
                      measure: LevyMeasure, T: float | None = None,
                      n_time: int = 8, validate: bool = True) -> float:
    """The order-n multiple integral of a disjoint-support chaos function,
    computed as the permutation sum of iterated simplex integrals."""
    import itertools

    T = T if T is not None else config.window.horizon
    if validate:
        check_disjoint(f, config.window, measure, T)
    total = 0.0
    for perm in itertools.permutations(f.factors):
        total += _iterated(perm, config, measure, T, n_time)
    return total


def second_chaos_expansion_residual(set_indicator: Integrand,
                                    config: PointConfiguration,
                                    measure: LevyMeasure,
                                    T: float | None = None) -> float:
    """Residual of the explicit two-term expansion of the squared centered
    count of a space-time-jump box.

    The expansion F = E F + I1 + I2 with slot functions equal to the box
    indicator holds path by path, so the residual is numerical dust.
    """
    T = T if T is not None else config.window.horizon
    w = config.window
    mu = it.compensator(set_indicator, w, measure, T)
    nhat = it.int_Nhat(set_indicator, config, measure, T)
    F = nhat * nhat
    i1 = nhat
    i2 = multiple_integral(ChaosFunction((set_indicator, set_indicator)),
                           config, measure, T, validate=False)
    return F - mu - i1 - i2
