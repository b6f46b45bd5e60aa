"""Threshold ladders for the approximation of small jumps and large space.

The ladders are defined by monotone root-finding on residual integrals: the
small-jump ladder shrinks the shell floor until the residual second moment
falls below a geometric target, the spatial ladders grow the box until the
outside contribution does.  Consecutive levels differ by the process of
one ring, and the diagnostics draw each ring on its own: the points of a
Poisson random measure on disjoint sets are independent Poisson random
measures (Kingman, *Poisson Processes*, 1993, 2.2), so every ring keeps
its law.  The empirical sup-norm differences are compared against the
explicit Doob/Chebyshev bounds.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import integrate as it
from .integrands import (AbsIndicator, Const, Exp, ExpAbs, Indicator, Integrand, Node, Product,
                         one_signed)
from .mc import estimate, replicate_values
from .measure import LevyMeasure, Shell
from .prm import Window, replicate_seed, select

GEOMETRIC_BASE = 8.0  # targets are BASE^-n, kept literal from the construction


@dataclass(frozen=True)
class LadderLevel:
    n: int
    threshold: float
    i_value: float


@dataclass(frozen=True)
class Ladder:
    kind: str  # "small-jump" | "spatial-I" | "spatial-II"
    levels: tuple[LadderLevel, ...]
    truncated: bool = False
    truncation_point: float | None = None
    violation: str | None = None

    @property
    def thresholds(self):
        return [lv.threshold for lv in self.levels]


def _bisect(ok, good, bad):
    """Bisect between `good`, where `ok` holds, and `bad`, where it fails,
    for a predicate that changes once on the nonnegative segment between
    them; returns the last good point once the bracket is within 1e-10 of
    its larger end, relatively."""
    while abs(bad - good) > 1e-10 * max(good, bad, 1e-300):
        mid = 0.5 * (good + bad)
        if ok(mid):
            good = mid
        else:
            bad = mid
    return good


def _ladder(kind, I, edge, good, floor, at_floor, n_max) -> Ladder:
    """The level loop both ladders share.  Level n's threshold is `edge` while
    I(edge) <= 8^-n, else the point nearest the edge where I <= 8^-n, bisected
    from good(8^-n), a point where it holds (None: there is none).  The first
    threshold that `at_floor` accepts ends the ladder at the support floor."""
    top = I(edge)
    levels = []
    for n in range(1, n_max + 1):
        target = GEOMETRIC_BASE ** -n
        x = edge
        if top > target:
            start = good(target)
            if start is None:
                return Ladder(kind, tuple(levels),
                              violation="assumption violated: residual does not vanish")
            x = _bisect(lambda u: I(u) <= target, start, edge)
        if at_floor(x):
            levels.append(LadderLevel(n, floor, 0.0))
            return Ladder(kind, tuple(levels), True, floor)
        levels.append(LadderLevel(n, x, top if x == edge else I(x)))
    return Ladder(kind, tuple(levels))


def eps_sequence(H: Integrand, box, T: float, measure: LevyMeasure,
                 n_max: int = 6, small_hi: float = 1.0) -> Ladder:
    """Small-jump thresholds: the n-th level is the largest shell floor whose
    residual second moment I(eps) stays below 8^-n.

    The ladder truncates with a finite-activity flag as soon as I vanishes at
    a floor above 1e-12 small_hi (the integrand is inactive below it).
    """
    Hsq = H.squared()

    @functools.cache  # every level's bisection starts from (0, small_hi)
    def I(eps):
        if eps <= 0.0:
            return 0.0
        w = Window(T, tuple(box), Shell(0.0, eps))
        return it.compensator(Hsq, w, measure, T)

    # activity floor: the largest eps with I(eps) = 0, sought only where it
    # could truncate the ladder
    if I(small_hi) == 0.0:
        floor = small_hi  # integrand inactive on the whole small-jump set
    elif I(1e-12 * small_hi) == 0.0:
        floor = _bisect(lambda e: I(e) == 0.0, 0.0, small_hi)
    else:
        floor = 0.0
    floor_tol = max(1e-8 * small_hi, 1e-6 * floor)
    return _ladder("small-jump", I, small_hi, lambda target: 0.0, floor,
                   lambda e: floor > 1e-12 * small_hi and e <= floor + floor_tol,
                   n_max)


def _reach(node: Node) -> float | None:
    """The a of the narrowest [-a, a] that holds its indicator factors, if any."""
    factors = node.factors if isinstance(node, Product) else (node,)
    return min((max(-f.lo, f.hi) for f in factors
                if isinstance(f, (Indicator, AbsIndicator))), default=None)


def _full_line_integral(node: Node, use_abs: bool):
    """The integral of the node, or of |node| with `use_abs`, over the whole
    line; None when no indicator bounds it and its exp and exp_abs rates do
    not make it decay on both sides.  By the antiderivative where finite,
    else summed over the panels between cuts from 0 on each side at 2^-20,
    ..., 2^-1, 1, 2, ..., 64 steps, graded toward 0 for a kink or singularity
    there; the step is the decay length or the indicators' reach.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        F = node.antiderivative(np.array([-math.inf, math.inf]))
    if F is not None and np.all(np.isfinite(F)) and (not use_abs or one_signed(node)):
        return abs(float(F[1] - F[0])) if use_abs else float(F[1] - F[0])
    factors = node.factors if isinstance(node, Product) else (node,)
    reach = _reach(node)
    # the exponent's slope on the side where it falls more slowly
    rate = (sum(f.rate for f in factors if isinstance(f, ExpAbs))
            + abs(sum(f.rate for f in factors if isinstance(f, Exp))))
    if reach is None and rate >= 0.0:
        return None
    cuts = (reach if reach is not None else -1.0 / rate) * np.append(
        [0.0, *2.0 ** np.arange(-20, 0)], np.arange(1, 65))
    part = node.abs_integral if use_abs else node.integral
    return float(sum(part(lo, hi) + part(-hi, -lo) for lo, hi in zip(cuts, cuts[1:])))


def a_sequence(H: Integrand, K: Integrand | None, T: float,
               measure: LevyMeasure, n_max: int = 6, *,
               kind: str = "spatial-I", shell: Shell, dim: int = 1,
               small_hi: float = 1.0) -> Ladder:
    """Spatial thresholds: the n-th level is the smallest box half-width
    whose outside residual I(a) stays below 8^-n.

    kind "spatial-I" combines the small-jump second moment of H with the
    big-jump first absolute moment of K; kind "spatial-II" uses the second
    moment of H over the whole working shell.  For sums, the absolute big-
    jump part integrates term-by-term, an upper bound on |K| that keeps the
    ladder conservative.  Each term's space factors integrate over the
    complement of [-a, a]^dim to the product of their whole-line integrals,
    computed once, less the product of their box integrals.
    """
    if kind not in ("spatial-I", "spatial-II"):
        raise ValueError(f"unknown spatial ladder kind {kind!r}")
    Hsq = H.squared()
    small = shell.clip(0.0, small_hi) if kind == "spatial-I" else shell
    big = shell.clip(small_hi, math.inf) if kind == "spatial-I" else None

    parts = [(term, term.time.integral(0.0, T)
              * (it.nu_factor(measure, term.jump, small) if small else 0.0), False)
             for term in Hsq.terms]
    if kind == "spatial-I" and K is not None and big is not None:
        parts += [(term, term.time.abs_integral(0.0, T)
                   * it.nu_factor(measure, term.jump, big, absolute=True), True)
                  for term in K.terms]
    # (coefficient, space nodes, product of their whole-line integrals, use_abs)
    tails = []
    for term, coef, use_abs in parts:
        if coef == 0.0:
            continue
        nodes, full = [], 1.0
        for k in range(dim):
            node = term.space[k] if k < len(term.space) else Const(1.0)
            if isinstance(node, Const) and node.value == 0.0:
                break  # the term vanishes
            line = None if isinstance(node, Const) else _full_line_integral(node, use_abs)
            if line is None:
                return Ladder(kind, (), violation="assumption violated: "
                              "space factor does not decay")
            nodes.append(node)
            full *= line
        else:
            tails.append((coef, nodes, full, use_abs))

    @np.errstate(over="ignore", invalid="ignore")  # far out, a product may read 0 * inf
    def I(a):
        total = 0.0
        for coef, nodes, full, use_abs in tails:
            inside = 1.0
            for node in nodes:
                inside *= node.abs_integral(-a, a) if use_abs else node.integral(-a, a)
            total += coef * (full - inside)
        return total

    # support bound: the smallest a with I(a) = 0, sought below the indicators'
    # reach when every node has one (far out, a decaying factor's I rounds to 0)
    reaches = [_reach(node) for _, nodes, _, _ in tails for node in nodes]
    floor = None
    if None not in reaches:
        reach = max(reaches, default=0.0)
        if I(reach) == 0.0:
            floor = _bisect(lambda a: I(a) == 0.0, reach, 0.0)
    floor_tol = 1e-6 * floor if floor else 0.0

    def good(target):
        hi = 1.0
        while not I(hi) <= target:  # nan is no good point
            hi *= 2.0
            if hi > 2.0 ** 60:
                return None
        return hi

    return _ladder(kind, I, 0.0, good, floor,
                   lambda a: floor is not None and a >= floor - floor_tol, n_max)


# ---------------------------------------------------------------------------
# ring diagnostics


@dataclass(frozen=True)
class LadderProblem:
    """Everything the diagnostic needs to rebuild the processes."""

    H: Integrand
    measure: LevyMeasure
    T: float
    box: tuple[tuple[float, float], ...] | None = None  # small-jump kind
    K: Integrand | None = None
    shell: Shell | None = None  # working shell for spatial kinds
    small_hi: float = 1.0
    dim: int = 1


@dataclass
class DiagnosticRow:
    level: int
    threshold: float
    i_value: float
    empirical_sup2: float
    sup2_se: float
    bound: float
    exceed_freq: float
    exceed_se: float
    bound_freq: float


@dataclass
class DiagnosticReport:
    kind: str
    rows: list[DiagnosticRow]
    replicates: int
    master_seed: int


def rings(ladder: Ladder, problem: LadderProblem):
    """(j, window, statistic) for each non-stagnant ring j between levels j
    and j + 1, in order.  The ring's points are a Poisson random measure of
    their own on `window`, and statistic(batch) gives, per replicate, the
    sup over [0, T] of the ring's process and the sup its exceedance is
    judged by: of the H- plus K-process for spatial-I with K, else the
    same.  A box ring is the outer box less the inner one; its drift is
    the outer box's compensator less the inner box's (G)."""
    H, K, m, T = problem.H, problem.K, problem.measure, problem.T
    th = ladder.thresholds
    if ladder.kind == "small-jump":
        def small_jump(batch):
            s = it.build_path(None, None, H, batch, m, split=math.inf).sup_abs(T)
            return s, s

        for j in range(len(th) - 1):
            if th[j + 1] < th[j]:
                yield j, Window(T, tuple(problem.box), Shell(th[j + 1], th[j])), small_jump
        return
    kind_i = ladder.kind == "spatial-I"
    small = problem.shell.clip(0.0, problem.small_hi) if kind_i else problem.shell
    split = problem.small_hi if kind_i else math.inf

    def box(a):
        return tuple((-a, a) for _ in range(problem.dim))

    def box_ring(G, inner):
        def stat(batch):
            ring = select(batch, np.max(np.abs(batch.x), axis=1) > inner, batch.window)
            s = it.build_path(G, None, H, ring, m, split).sup_abs(T)
            if kind_i and K is not None:
                return s, it.build_path(G, K, H, ring, m, split).sup_abs(T)
            return s, s

        return stat

    for j in range(len(th) - 1):
        if th[j] < th[j + 1]:
            G = (it.project_time(H, Window(T, box(th[j]), problem.shell), m, small)
                 if th[j] > 0.0 and small is not None else None)
            yield j, Window(T, box(th[j + 1]), problem.shell), box_ring(G, th[j])


def interlacing_diagnostic(ladder: Ladder, problem: LadderProblem,
                           replicates: int, master_seed: int) -> DiagnosticReport:
    """Empirical sup-norm differences between consecutive ladder levels
    against the Doob and Chebyshev bounds: one (sup2, exceed) column per
    ring, ring j drawn alone from master seed replicate_seed(master_seed,
    j).  A stagnant level's ring is empty (identical processes), so its
    column is 0."""
    if ladder.violation:
        raise ValueError(f"cannot run diagnostics: {ladder.violation}")
    if len(ladder.levels) < 2:
        raise ValueError("need at least two ladder levels")
    sup2 = np.zeros((replicates, len(ladder.levels) - 1))
    exceed = np.zeros(sup2.shape, dtype=bool)
    for j, window, statistic in rings(ladder, problem):
        s, s_exceed = replicate_values(statistic, window, problem.measure, replicates,
                                       replicate_seed(master_seed, j))
        sup2[:, j] = s * s
        exceed[:, j] = s_exceed > 2.0 ** -(j + 1)
    return _assemble(ladder, sup2, exceed, replicates, master_seed)


def _assemble(ladder, sup2, exceed, replicates, master_seed):
    if ladder.kind == "spatial-I":
        exceed_bound = lambda n: 2.0 ** (-n + 4) + 2.0 ** (-2 * n + 1)
    else:
        exceed_bound = lambda n: 2.0 ** (-n + 2)
    rows = []
    for j in range(sup2.shape[1]):
        n = ladder.levels[j].n
        sup2_j = estimate(sup2[:, j], master_seed)
        mean, se = sup2_j.mean, sup2_j.se
        freq = float(exceed[:, j].mean())
        fse = math.sqrt(max(freq * (1 - freq), 1.0 / replicates) / replicates)
        bound = 4.0 * GEOMETRIC_BASE ** -n
        bfreq = exceed_bound(n)
        rows.append(DiagnosticRow(n, ladder.levels[j].threshold,
                                  ladder.levels[j].i_value, mean, se, bound,
                                  freq, fse, min(bfreq, 1.0)))
    return DiagnosticReport(ladder.kind, rows, replicates, master_seed)
