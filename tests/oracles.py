"""Per-configuration reference code for the tests: the one-path forms that
the batched operations replaced, the per-replicate loop they ran in, and
small helpers on batches of one."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import integrate as si

from levynoise import apps, integrands as ig, integrate as it, prm
from levynoise.mc import estimate
from levynoise.measure import DiscreteAtoms, Shell, TemperedStable, TruncatedStable


def replayed_batches(window, measure, n: int, master_seed: int):
    """mc.batches with each replicate drawn alone, by the row-by-row
    reference of its stream block: yields (k, config_k)."""
    size = block_size(prm.intensity(window, measure))
    for k0 in range(0, n, size):
        rows = stream_rows(window, measure, master_seed, k0 // size)
        for j in range(min(size, n - k0)):
            yield k0 + j, next(rows)


def map_replicates(experiment, window, measure, n: int, master_seed: int) -> list:
    """[experiment(k, config_k) for k in range(n)], config_k the replicate k
    of `mc.batches` drawn alone."""
    return [experiment(k, c) for k, c in replayed_batches(window, measure, n, master_seed)]


def per_config_replicate_values(statistic, window, measure, n: int, master_seed: int) -> list:
    """mc.replicate_values with the statistic applied to each configuration
    alone."""
    rows = map_replicates(lambda _k, c: statistic(c), window, measure, n, master_seed)
    return [np.concatenate(col) for col in zip(*rows)]


def replicate(batch: prm.PointBatch, k: int) -> prm.PointBatch:
    """Replicate k of a batch as the batch of one, its arrays read-only views."""
    a, b = batch.offsets[k], batch.offsets[k + 1]
    seed, first = batch.seeds
    return prm.PointBatch(batch.t[a:b], batch.x[a:b], batch.z[a:b], np.array([0, b - a]),
                          batch.window, (seed, first + k))


def same_points(a: prm.PointBatch, b: prm.PointBatch) -> bool:
    """The same window, provenance, replicate sizes and points, bit for bit."""
    return (a.window == b.window and a.seeds == b.seeds
            and np.array_equal(a.offsets, b.offsets) and np.array_equal(a.t, b.t)
            and np.array_equal(a.x, b.x) and np.array_equal(a.z, b.z))


def is_time_only(X: ig.Integrand) -> bool:
    """True if no term of X has a space factor or a non-constant jump factor."""
    return all(not t.space and isinstance(t.jump, ig.Const) for t in X.terms)


def path_breaks(config: prm.PointBatch, t: float, extra=()) -> np.ndarray:
    """Sorted break points of one configuration: 0, the jump times up to t,
    integrand time discontinuities, and t itself."""
    pts = [0.0, float(t)]
    pts.extend(float(v) for v in config.t[config.t <= t])
    pts.extend(float(v) for v in extra if 0.0 < v < t)
    return np.unique(np.array(pts))


@dataclass(frozen=True)
class OnePath:
    """A drift evaluator plus one sorted jump list, with left-limit access:
    the one-path CadlagPath that the row-wise one replaced.  `_csum` holds
    the running jump sums from 0."""

    times: np.ndarray
    _csum: np.ndarray
    drift: Callable[[np.ndarray], np.ndarray]

    @staticmethod
    def of(times, jumps, drift) -> "OnePath":
        """The path of jumps in time order, summed as the one-path code did."""
        return OnePath(times, np.concatenate([[0.0], np.cumsum(jumps)]), drift)

    @staticmethod
    def row(path, k: int) -> "OnePath":
        """Row k of a CadlagPath, on its own running sums."""
        n = int(np.count_nonzero(path.times[k] < np.inf))
        return OnePath(path.times[k, :n], path.csum[k, :n + 1], path.drift)

    def eval(self, t):
        idx = np.searchsorted(self.times, np.asarray(t, dtype=float), side="right")
        out = self._csum[idx] + self.drift(t)
        return float(out) if np.ndim(t) == 0 else out

    def eval_left(self, t):
        idx = np.searchsorted(self.times, np.asarray(t, dtype=float), side="left")
        out = self._csum[idx] + self.drift(t)
        return float(out) if np.ndim(t) == 0 else out

    def sup_abs(self, t: float, scan: int = 0) -> float:
        k = int(np.searchsorted(self.times, t, side="right"))
        ts = self.times[:k]
        if np.all(ts[1:] > ts[:-1]):  # untied: jump i takes _csum[i] to _csum[i+1]
            d = self.drift(ts)
            sides = (self._csum[1:k + 1] + d, self._csum[:k] + d)
        else:
            sides = (self.eval(ts), self.eval_left(ts))
        best = max(0.0, abs(self.eval(t)),
                   *(float(np.max(np.abs(v), initial=0.0)) for v in sides))
        if scan > 1:
            grid = np.linspace(0.0, t, scan)
            vals = np.abs(self.eval(grid))
            g = int(np.argmax(vals))
            best = max(best, float(vals[g]))
            j = int(np.searchsorted(self.times, grid[g], side="right"))
            lo = max(grid[max(g - 1, 0)], self.times[j - 1] if j else 0.0)
            hi = min(grid[min(g + 1, scan - 1)],
                     self.times[j] if j < len(self.times) else np.inf)
            if hi > lo:
                from scipy import optimize

                res = optimize.minimize_scalar(
                    lambda s: -abs(self.eval(min(s, t))),
                    bounds=(lo, hi), method="bounded", options={"xatol": 1e-12})
                best = max(best, float(-res.fun))
        return best


def one_path(G, K, H, config: prm.PointBatch, measure, split: float = 1.0) -> OnePath:
    """build_path on a configuration alone, as the one-path code built it."""
    w = config.window
    if len(config.t):
        big = np.abs(config.z) > split
        sizes = np.where(
            big,
            np.asarray(K(config.t, config.x, config.z), dtype=float) if K is not None else 0.0,
            np.asarray(H(config.t, config.x, config.z), dtype=float) if H is not None else 0.0)
    else:
        sizes = np.empty(0)
    pieces = it._time_pieces(G) if G is not None else []
    small = w.shell.clip(0.0, split)
    if H is not None and small is not None:
        for term in H.terms:
            c = it.nu_factor(measure, term.jump, small) * it.space_factor(term, w.box)
            pieces.append((-c, term.time))
    return OnePath.of(config.t, sizes, it.drift_function(pieces))


def moment_bound_cell_per_path(X, measure, p, t, window, replicates, master_seed):
    """apps.moment_bound_cell path by path, one configuration at a time and
    through the one-path sup, as it ran before the row-wise paths."""
    m_p = measure.shell_moment(window.shell, p)
    v_shell = measure.shell_moment(window.shell, 2.0)

    def one(_k, config):
        path = one_path(None, None, X.with_jump(ig.SignPow(1.0)), config, measure, math.inf)
        return path.sup_abs(t) ** p, path.eval(t) ** 2

    draws = map_replicates(one, window, measure, replicates, master_seed)
    lhs = estimate([s for s, _ in draws], master_seed)
    terminal = estimate([e for _, e in draws], master_seed)
    bracket = apps.lp_bracket(X, window, t, p)
    ratio = lhs.mean / bracket if bracket > 0 else math.nan
    return apps.MomentBoundRow(p, lhs.mean, lhs.se, bracket, ratio,
                               max(v_shell ** (p / 2.0), m_p), terminal.mean, terminal.se)


def jump_path(times, jumps, pieces) -> it.CadlagPath:
    """The one path with the given jumps, in any time order, plus the drift
    of the (coefficient, time node) pairs."""
    times, jumps = np.asarray(times, dtype=float), np.asarray(jumps, dtype=float)
    order = np.argsort(times, kind="stable")
    return it._rows(times[order], jumps[order], np.array([len(times)]), it.drift_function(pieces))


def representation_residual_one(h, config: prm.PointBatch, measure, T: float, *,
                                n_time: int = 8, n_space: int = 16, n_jump: int = 48) -> float:
    """apps.representation_residual on one configuration, with its tensors
    whole and its sums in the one-configuration order."""
    w = config.window
    path = apps.noise_path(h, config, measure)
    breaks = it.batch_breaks(config, T, h.time_breakpoints())[0]
    s, ws = it.interval_rule(breaks, n_time)
    xpts, wx = it.box_rule(w.box, n_space)
    znod, zw = measure.nu_nodes(w.shell, n_jump)
    hgrid = space_time_grid(h, s, xpts)
    psi_nodes = psi_shell_rule(measure, w.shell, hgrid, n_jump) @ wx
    psi_cum_nodes, psi_cum_breaks = apps.cumulative_on_grid(breaks, n_time, psi_nodes)
    m_nodes = np.exp(1j * path.eval(s, 0) - psi_cum_nodes)
    lhs = np.exp(1j * path.eval(T)[0] - psi_cum_breaks[-1])
    mask = config.t <= T
    jump_sum = 0.0 + 0.0j
    if mask.any():
        tj, xj, zj = config.t[mask], config.x[mask], config.z[mask]
        m_left = np.exp(1j * path.eval(tj, 0, left=True)
                        - psi_cum_breaks[np.searchsorted(breaks, tj)])
        hj = np.asarray(h(tj, xj, zj), dtype=float)
        jump_sum = complex(np.sum((np.exp(1j * hj * zj) - 1.0) * m_left))
    phase = np.exp(1j * np.multiply.outer(hgrid, znod)) - 1.0  # (S, P, Z)
    comp = complex(np.einsum("ijk,i,j,k,i->", phase, ws, wx, zw, m_nodes))
    return abs(complex(lhs) - (1.0 + jump_sum - comp))


def nu_quad(measure, fn, shell, points=()) -> float:
    """The integral of a scalar fn against nu over the shell, the generic
    nu-integral before the shell rule: the sum over the atoms in the shell,
    or for a density family adaptive quadrature of fn(t) + fn(-t) times the
    one-sided density over the |z| range, split at 1 and at the |z| `points`
    where fn is not smooth, an infinite tempered shell cut where e^(-80) is
    left."""
    if isinstance(measure, DiscreteAtoms):
        return float(sum(w * fn(z) for z, w in measure.atoms if shell.lo < abs(z) <= shell.hi))
    lo, hi = measure._bounds(shell)
    if hi == math.inf:
        hi = lo + 80.0 / measure.theta
    cuts = sorted({lo, hi} | {c for c in (1.0, *points) if lo < c < hi})
    return sum(si.quad(lambda t: (fn(t) + fn(-t)) * measure._density_abs(t), a, b,
                       epsabs=1e-13, epsrel=1e-11, limit=200)[0] for a, b in zip(cuts, cuts[1:]))


# ---------------------------------------------------------------------------
# The space-time quadratures that integrate.tensor_fold replaced, each with
# its tensor whole or in its own blocks.


def space_time_grid(X: ig.Integrand, s, xpts) -> np.ndarray:
    """X on the grid of times s and space points xpts: the sum over its
    terms of the outer product of the time and space factor values, each
    scaled by its jump factor, which must be constant."""
    grid = np.zeros((len(s), len(xpts)))
    for term in X.terms:
        grid += (np.multiply.outer(it.node_values(term.time, s),
                                   it.node_values(term.space_value, xpts))
                 * it._jump_const(term))
    return grid


def psi_shell_rule(measure, shell, u, n_per_side: int = 48):
    """The compensated exponent e^{iuz} - 1 - iuz of any array u, summed on
    the nu-rule measure.nu_nodes(shell, n_per_side)."""
    z, w = measure.nu_nodes(shell, n_per_side)
    u = np.asarray(u, dtype=float)
    if len(z) == 0:
        return np.zeros(u.shape, dtype=complex)
    uz = np.multiply.outer(u, z)
    return (np.exp(1j * uz) - 1.0 - 1j * uz) @ w


def space_time_integral(X: ig.Integrand, window, t: float, phi, n_time: int, n_space: int):
    """Integral over [0,t] x box of phi(grid), the grid of X values on the
    whole tensor rule."""
    breaks = np.unique(np.array([0.0, t] + [v for v in X.time_breakpoints() if 0.0 < v < t]))
    s, ws = it.interval_rule(breaks, n_time)
    xpts, wx = it.box_rule(window.box, n_space)
    return np.einsum("ij,i,j->", phi(space_time_grid(X, s, xpts)), ws, wx)


def psi_space_time_integral(h, window, measure, t, n_time=24, n_space=16, n_jump=48) -> complex:
    return complex(space_time_integral(
        h, window, t, lambda g: psi_shell_rule(measure, window.shell, g, n_jump), n_time, n_space))


def space_time_norm_sq(X, window, t, n=32) -> float:
    return float(space_time_integral(X, window, t, lambda g: g * g, n, n))


def lp_bracket(X, window, t, p, n=32) -> float:
    pp = float(space_time_integral(X, window, t, lambda g: np.abs(g) ** p, n, n))
    return space_time_norm_sq(X, window, t, n) ** (p / 2.0) + pp


def nu_tensor(fn, y, factors, xw, zw, block: int):
    """Per time node i, the sum over box and jump nodes j, k of (f(y_i +
    H_ijk) - f(y_i)) xw_j zw_k, with H_ijk the sum of the terms' factor
    products: ito's form before tensor_fold, a fresh tensor per factor and
    per block of `block` elements."""
    fy, out = fn.f(y), np.empty(len(y))
    step = max(1, block // (len(xw) * len(zw)))
    for a in range(0, len(y), step):
        b = slice(a, a + step)
        yh = y[b, None, None]
        for tv, sv, jv in factors:
            yh = yh + np.multiply.outer(np.multiply.outer(tv[b], sv), jv)
        diff = fn.f(yh)
        diff -= fy[b, None, None]
        out[b] = np.einsum("ijk,j,k->i", diff, xw, zw)
    return out


def shell_sums(hgrid, wx, z, zw, block: int):
    """Per time node i, the sums over box and nu-rule nodes j, k, with their
    weights, of e^{i h_ij z_k} - 1 - i h_ij z_k and of e^{i h_ij z_k} - 1:
    the representation's form before tensor_fold, in blocks of `block`
    elements."""
    psi, phase = np.zeros((2, len(hgrid)), dtype=complex)
    step = max(1, block // max(1, len(wx) * len(z)))
    for a in range(0, len(hgrid), step):
        b = slice(a, a + step)
        uz = np.multiply.outer(hgrid[b], z)
        vals = np.exp(1j * uz) - 1.0
        phase[b] = np.einsum("ijk,j,k->i", vals, wx, zw)
        vals -= 1j * uz
        psi[b] = np.einsum("ijk,j,k->i", vals, wx, zw)
    return psi, phase


def tensor_fold_whole(phi, factors, xw, zw, start=None) -> np.ndarray:
    """integrate.tensor_fold with its tensor whole: phi on all time nodes at
    once, b the slice of them all."""
    n = len(start) if start is not None else len(factors[0][0])
    v = np.zeros((n, len(xw), len(zw)))
    if start is not None:
        v += start[:, None, None]
    for tv, sv, jv in factors:
        v += np.multiply.outer(np.multiply.outer(tv, sv), jv)
    vals = phi(v, slice(0, n))
    out = [np.einsum("ijk,j,k->i", x, xw, zw) for x in (vals if vals.ndim > 3 else [vals])]
    return np.array(out) if vals.ndim > 3 else out[0]


def batch_rule(batch: prm.PointBatch, t: float, extra, n_per_interval: int):
    """interval_rule over the batch_breaks of every replicate at once: the
    nodes s, weights w and the replicate index of each node."""
    breaks, seg, _ = it.batch_breaks(batch, t, extra)
    s, w = it.interval_rule(breaks, n_per_interval)
    return s, w, np.repeat(seg[:-1][~(breaks[1:] <= breaks[:-1])], n_per_interval)


def interlacing_rows_per_config(ladder, problem, replicates: int, master_seed: int):
    """The (sup2, exceed) rows of il.interlacing_diagnostic, one ring at a
    time and one configuration at a time: ring j drawn alone on its own
    window from master seed replicate_seed(master_seed, j), small-jump rings
    built as one path each, box rings summed as one path of their jumps
    sorted in time, with the compensator of the outer box less the inner."""
    H, K, m, T = problem.H, problem.K, problem.measure, problem.T
    th = ladder.thresholds
    sup2 = np.zeros((replicates, len(th) - 1))
    exceed = np.zeros((replicates, len(th) - 1), dtype=bool)
    shell, d = problem.shell, problem.dim
    kind_i = ladder.kind == "spatial-I"
    small = shell.clip(0.0, problem.small_hi) if kind_i else shell
    split = problem.small_hi if kind_i else math.inf

    def small_jump(j):
        def one(_k, config):
            s = it.build_path(None, None, H, config, m, split=math.inf).sup_abs(T)[0]
            return s, s

        return prm.Window(T, tuple(problem.box), Shell(th[j + 1], th[j])), one

    def box_ring(j):
        outer, inner = (tuple((-a, a) for _ in range(d)) for a in (th[j + 1], th[j]))
        drift = [(-it.nu_factor(m, term.jump, small)
                  * (it.space_factor(term, outer) - it.space_factor(term, inner)), term.time)
                 for term in H.terms] if small is not None else []

        def one(_k, config):
            mask = np.max(np.abs(config.x), axis=1) > th[j]
            t, x, z = config.t[mask], config.x[mask], config.z[mask]
            sm = np.abs(z) <= split
            h_jumps = np.asarray(H(t[sm], x[sm], z[sm]), dtype=float) \
                if sm.any() else np.empty(0)
            s = jump_path(t[sm], h_jumps, drift).sup_abs(T)[0]
            if not (kind_i and K is not None):
                return s, s
            k_jumps = np.asarray(K(t[~sm], x[~sm], z[~sm]), dtype=float) \
                if (~sm).any() else np.empty(0)
            return s, jump_path(np.concatenate([t[sm], t[~sm]]),
                                np.concatenate([h_jumps, k_jumps]), drift).sup_abs(T)[0]

        return prm.Window(T, outer, shell), one

    for j in range(len(th) - 1):
        if ladder.kind == "small-jump" and th[j + 1] < th[j]:
            window, one = small_jump(j)
        elif ladder.kind != "small-jump" and th[j] < th[j + 1]:
            window, one = box_ring(j)
        else:
            continue
        rows = map_replicates(one, window, m, replicates, prm.replicate_seed(master_seed, j))
        sup2[:, j] = [s * s for s, _ in rows]
        exceed[:, j] = [s > 2.0 ** -(j + 1) for _, s in rows]
    return sup2, exceed


# ---------------------------------------------------------------------------
# The stream contract row by row: the reference of prm's block draw, and
# the CSV reader of prm.dump_csv.


def block_size(lam: float) -> int:
    """The replicates of a stream block: max(1, 2^floor(log2(BLOCK_POINTS /
    lam))), and BLOCK_POINTS at lam = 0."""
    return max(1, 2 ** math.floor(math.log2(prm.BLOCK_POINTS / lam))) if lam else prm.BLOCK_POINTS


def stream_rows(window, measure, seed: int, block: int):
    """The replicates of stream block `block` of master seed `seed`, as
    batches of one, one at a time from the four generators of the block's
    fields; the marks of the tempered family one (magnitude, accept, sign)
    row at a time."""
    lam = prm.intensity(window, measure)
    size = block_size(lam)
    counts, times, locations, marks = (
        np.random.Generator(np.random.Philox(key=int(seed) % 2 ** 64, counter=[0, 0, block, f]))
        for f in range(4))
    lo, hi = np.array(window.box).T
    total = 0.0  # the running sum of the block's exponentials
    for k in range(block * size, (block + 1) * size):
        n = int(counts.poisson(lam)) if lam else 0
        if lam:
            cum = np.cumsum(np.concatenate([[total], times.standard_exponential(n + 1)]))[1:]
            t = (cum[:n] - total) / (cum[n] - total) * window.horizon
            total = cum[n]
            x = locations.random((n, window.dim)) * (hi - lo) + lo
            z = mark_row(measure, window.shell, marks, n)
        else:
            t, x, z = np.empty(0), np.empty((0, window.dim)), np.empty(0)
        yield prm.PointBatch(t, x, z, np.array([0, n]), window, (int(seed) % 2 ** 64, k))


def stream_block(window, measure, seed: int, block: int, rows: int) -> prm.PointBatch:
    """simulate(window, measure, seed, block, rows), row by row."""
    parts = [c for c, _ in zip(stream_rows(window, measure, seed, block), range(rows))]
    empty = (np.empty(0), np.empty((0, window.dim)), np.empty(0))
    t, x, z = (np.concatenate(col) for col in zip(empty, *((c.t, c.x, c.z) for c in parts)))
    offsets = np.cumsum([0] + [len(c.t) for c in parts])
    first = block * block_size(prm.intensity(window, measure))
    return prm.PointBatch(t, x, z, offsets, window, (int(seed) % 2 ** 64, first))


def mark_row(measure, shell, rng, n: int) -> np.ndarray:
    """n marks of one replicate, the next from the marks generator."""
    if isinstance(measure, DiscreteAtoms):
        hit = [(z, w) for z, w in measure.atoms if shell.lo < abs(z) <= shell.hi]
        zs, ws = np.array([z for z, _ in hit]), np.array([w for _, w in hit])
        cdf = (ws / ws.sum()).cumsum()
        return zs[np.searchsorted(cdf / cdf[-1], rng.random(n), side="right")]
    a, b = measure._bounds(shell)
    ia, ib = a ** -measure.alpha, (b ** -measure.alpha if b < math.inf else 0.0)

    def magnitude(u):
        return (ia - u * (ia - ib)) ** (-1.0 / measure.alpha)

    if isinstance(measure, TruncatedStable):
        u = rng.random((n, 2))
        return np.where(u[:, 1] < 0.5, -1.0, 1.0) * magnitude(u[:, 0])
    assert isinstance(measure, TemperedStable)
    out = []
    while len(out) < n:
        u = rng.random((1, 3))
        mag = magnitude(u[:, 0])
        if (u[:, 1] < np.exp(-measure.theta * (mag - a)))[0]:
            out.append(-mag[0] if u[0, 2] < 0.5 else mag[0])
    return np.array(out, dtype=float)


def parse_csv(text: str) -> prm.PointBatch:
    """The batch of one that `prm.dump_csv` wrote, checked."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("#"):
        raise ValueError("missing JSON header line")
    header = json.loads(lines[0][1:].strip())
    window = prm.Window.from_json(header["window"])
    d = window.dim
    rows = [ln.split(",") for ln in lines[2:]]
    n = len(rows)
    t = np.array([float(r[0]) for r in rows])
    x = np.array([[float(r[1 + k]) for k in range(d)] for r in rows]).reshape(n, d)
    z = np.array([float(r[1 + d]) for r in rows])
    lo, hi = np.array(window.box).T
    inside = np.all((x >= lo) & (x <= hi), axis=1) & window.shell.contains(z)
    inside &= (t >= 0.0) & (t <= window.horizon)
    if not (inside.all() and np.all(t[1:] >= t[:-1])):
        raise ValueError("points must lie inside the header's window, in time order")
    return prm.PointBatch(t, x, z, np.array([0, n]), window,
                          (int(header["seed"]), int(header["replicate"])))
