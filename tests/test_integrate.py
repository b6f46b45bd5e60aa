import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate as si

from levynoise import integrands as ig
from levynoise import integrate as it
from levynoise import prm
from levynoise.measure import DiscreteAtoms, Shell, TemperedStable, TruncatedStable
from levynoise.prm import Window, replicate_seed, simulate
import oracles
from oracles import OnePath, is_time_only, replicate

ATOMS = DiscreteAtoms(((0.6, 1.0), (-1.1, 0.7), (1.7, 0.4)))
TSTABLE = TruncatedStable(alpha=1.0, c=1.0, r=1.0)
TEMPERED = TemperedStable(alpha=0.5, c=0.8, theta=1.5)
WIN = Window(1.0, ((-0.5, 0.5),), Shell(0.3, 2.0))

H_GEN = ig.term(time=ig.Exp(-1.0), space=ig.Poly((1.0, 0.5)), jump=ig.SignPow(1.0)) \
    + ig.term(time=ig.Cos(2.0), space=ig.ExpAbs(-0.8), jump=ig.AbsPow(2.0)) * 0.3


def brute_compensator(H, window, measure, t):
    """Independent tensor-product oracle: adaptive quadrature in s and x,
    generic nu-integration in z (no factorization shortcuts)."""
    def nu_slice(s, x):
        return oracles.nu_quad(measure, lambda z: float(H(s, x, z)), window.shell)

    (xlo, xhi), = window.box

    def over_x(s):
        val, _ = si.quad(lambda x: nu_slice(s, x), xlo, xhi, epsabs=1e-12, limit=200)
        return val

    val, _ = si.quad(over_x, 0.0, t, epsabs=1e-12, limit=200)
    return val


class TestIntTime:
    def test_trivial(self):
        assert it.time_cumulative(ig.term(time=ig.Const(0.0)), 2.0) == 0.0
        assert it.time_cumulative(ig.term(time=ig.Const(3.0)), 2.0) == pytest.approx(6.0)
        assert it.time_cumulative(ig.term(time=ig.Poly((0.0, 1.0))), 2.0) == pytest.approx(2.0)

    def test_exponential_vs_oracle(self):
        got = it.time_cumulative(ig.term(time=ig.Exp(-1.0)), 1.0)
        oracle, _ = si.quad(lambda s: math.exp(-s), 0.0, 1.0, epsabs=1e-14)
        assert got == pytest.approx(oracle, abs=1e-12)
        assert got == pytest.approx(1.0 - math.exp(-1.0), abs=1e-13)

    def test_rejects_space_dependence(self):
        with pytest.raises(ValueError):
            it.time_cumulative(H_GEN, 1.0)


class TestCompensator:
    def test_constant_integrand(self):
        H = ig.ONE
        for m in (ATOMS, TSTABLE):
            got = it.compensator(H, WIN, m, 0.7)
            assert got == pytest.approx(0.7 * 1.0 * m.shell_mass(WIN.shell), rel=1e-14)

    def test_linear_jump_factorizes(self):
        H = ig.term(jump=ig.SignPow(1.0))
        got = it.compensator(H, WIN, ATOMS, 1.0)
        assert got == pytest.approx(ATOMS.shell_moment(WIN.shell, 1.0, signed=True),
                                    rel=1e-14)
        assert it.compensator(H, WIN, TSTABLE, 1.0) == 0.0  # symmetric

    @pytest.mark.parametrize("m", [ATOMS, TSTABLE, TEMPERED],
                             ids=["atoms", "tstable", "tempered"])
    def test_generic_vs_brute_tensor_oracle(self, m):
        got = it.compensator(H_GEN, WIN, m, 1.0)
        assert got == pytest.approx(brute_compensator(H_GEN, WIN, m, 1.0), rel=1e-10)

    def test_product_space_factor(self):
        # e^-2|x| cos x squared has no antiderivative: a single panel over the
        # box, across the kink at 0, was off by 4.8e-4
        Hsq = ig.term(space=ig.product_node(ig.ExpAbs(-2.0), ig.Cos(1.0)),
                      jump=ig.SignPow(1.0)).squared()
        got = it.compensator(Hsq, WIN, TSTABLE, 1.0)
        assert got == pytest.approx(brute_compensator(Hsq, WIN, TSTABLE, 1.0), rel=1e-10)

    def test_cos_jump_routes_through_quadrature(self):
        H = ig.term(jump=ig.Cos(3.0))
        got = it.compensator(H, WIN, TSTABLE, 1.0)
        assert got == pytest.approx(brute_compensator(H, WIN, TSTABLE, 1.0), rel=1e-9)

    def test_infinite_compensator(self):
        w = Window(1.0, ((-0.5, 0.5),), Shell(0.0, 1.0))
        with pytest.raises(it.InfiniteCompensatorError):
            it.compensator(ig.ONE, w, TSTABLE, 1.0)

    def test_one_sided_indicator(self):
        H = ig.term(jump=ig.Indicator(0.5, 2.0))
        got = it.compensator(H, WIN, TSTABLE, 1.0)
        # positive side of {0.5 < z <= 1}: half the symmetric shell mass
        assert got == pytest.approx(0.5 * TSTABLE.shell_mass(Shell(0.5, 1.0)), rel=1e-12)
        got_atoms = it.compensator(H, WIN, ATOMS, 1.0)
        assert got_atoms == pytest.approx(1.0 + 0.4, rel=1e-14)  # atoms 0.6, 1.7


class TestNuFactorAbsolute:
    # (node, the |z| where it or its absolute value is not smooth)
    NODES = {
        "sign_pow": (ig.SignPow(1.0), ()),
        "sign_pow_3": (ig.SignPow(3.0), ()),
        "abs_pow": (ig.AbsPow(1.5), ()),
        "neg_const": (ig.Const(-0.7), ()),
        "product_abs_indicator": (ig.Product((ig.Const(-2.0), ig.SignPow(1.0),
                                              ig.AbsIndicator(0.5, 1.5))), (0.5, 1.5)),
        # sign-changing nodes: the closed forms do not apply
        "cos_3z": (ig.Cos(3.0), math.pi / 6.0 + np.arange(100) * math.pi / 3.0),
        "half_minus_z": (ig.Poly((0.5, -1.0)), (0.5,)),
        "damped_cos": (ig.product_node(ig.Exp(-0.5), ig.Cos(2.0)),
                       math.pi / 4.0 + np.arange(70) * math.pi / 2.0),
        "indicator_cos": (ig.product_node(ig.Indicator(-0.8, 1.2), ig.Cos(2.0)),
                          (math.pi / 4.0, 0.8, 1.2)),
    }

    @pytest.mark.parametrize("m", [ATOMS, TSTABLE, TEMPERED],
                             ids=["atoms", "tstable", "tempered"])
    @pytest.mark.parametrize("name", sorted(NODES))
    def test_matches_abs_oracle(self, m, name):
        node, kinks = self.NODES[name]
        for shell in (WIN.shell, Shell(0.05, 2.0), Shell(0.1, math.inf)):
            got = it.nu_factor(m, node, shell, absolute=True)
            oracle = oracles.nu_quad(m, lambda z: abs(float(node(z))), shell, kinks)
            assert got == pytest.approx(oracle, rel=1e-9, abs=1e-13)
            assert got >= abs(it.nu_factor(m, node, shell)) - 1e-12
            signed = oracles.nu_quad(m, lambda z: float(node(z)), shell, kinks)
            assert it.nu_factor(m, node, shell) == pytest.approx(signed, rel=1e-9, abs=1e-13)

    @pytest.mark.parametrize("name", sorted(NODES))
    def test_atoms_need_no_cuts(self, monkeypatch, name):
        # over atoms the sum of fn(z) w is exact: no sign-change search
        calls = []
        monkeypatch.setattr(it, "sign_changes",
                            lambda *a, **k: calls.append(a) or ig.sign_changes(*a, **k))
        node, _ = self.NODES[name]
        for shell in (WIN.shell, Shell(0.05, 2.0), Shell(0.1, math.inf)):
            hit = [(z, w) for z, w in ATOMS.atoms if shell.lo < abs(z) <= shell.hi]
            for absolute in (False, True):
                want = sum(w * (abs(float(node(z))) if absolute else float(node(z)))
                           for z, w in hit)
                got = it.nu_factor(ATOMS, node, shell, absolute=absolute)
                assert got == pytest.approx(want, rel=1e-15, abs=1e-15)
        assert calls == []


class TestIntN:
    def test_empty_configuration(self):
        c = simulate(Window(1.0, ((-0.5, 0.5),), Shell(3.0, 9.0)), ATOMS, 0)
        assert it.int_N(ig.ONE, c, 1.0) == 0.0

    def test_counting(self):
        c = simulate(WIN, ATOMS, 21)
        assert it.int_N(ig.ONE, c, 1.0) == len(c.t)
        tcut = 0.5
        assert it.int_N(ig.ONE, c, tcut) == int(np.sum(c.t <= tcut))

    @pytest.mark.parametrize("m", [ATOMS, TSTABLE], ids=["atoms", "tstable"])
    def test_mean_identity_eq3(self, m):
        H = H_GEN.squared()  # nonnegative, generic
        n = 10 ** 4
        vals = np.empty(n)
        for k in range(n):
            c = simulate(WIN, m, replicate_seed(100, k))
            vals[k] = it.int_N(H, c, 1.0)[0]
        target = it.compensator(H, WIN, m, 1.0)
        se = vals.std(ddof=1) / math.sqrt(n)
        assert abs(vals.mean() - target) <= 4 * se


class TestIntNhat:
    def test_zero_integrand(self):
        c = simulate(WIN, ATOMS, 3)
        assert it.int_Nhat(ig.ONE * 0.0, c, ATOMS, 1.0) == 0.0

    @pytest.mark.parametrize("m", [ATOMS, TSTABLE], ids=["atoms", "tstable"])
    def test_isometry_eq2(self, m):
        H = H_GEN
        n = 10 ** 4
        vals = np.empty(n)
        for k in range(n):
            c = simulate(WIN, m, replicate_seed(200, k))
            vals[k] = it.int_Nhat(H, c, m, 1.0)[0]
        # zero mean
        se = vals.std(ddof=1) / math.sqrt(n)
        assert abs(vals.mean()) <= 4 * se
        # variance = compensator of |H|^2
        target = it.compensator(H.squared(), WIN, m, 1.0)
        sq = vals ** 2
        se2 = sq.std(ddof=1) / math.sqrt(n)
        assert abs(sq.mean() - target) <= 4 * se2


class TestBuildPath:
    def test_pure_step_function(self):
        c = simulate(WIN, ATOMS, 31)
        K = ig.term(jump=ig.SignPow(1.0))
        path = it.build_path(None, K, None, c, ATOMS, split=0.0)
        partial = np.cumsum(c.z)
        for i, t in enumerate(c.t):
            assert path.eval(t) == pytest.approx(partial[i], rel=1e-14)
            assert path.eval([t], 0, left=True) == pytest.approx(partial[i] - c.z[i],
                                                                   rel=1e-13, abs=1e-13)

    def test_left_limits_chain(self):
        c = simulate(WIN, TSTABLE, 32)
        path = it.build_path(None, ig.term(jump=ig.SignPow(1.0)), None, c, TSTABLE, split=0.0)
        for i in range(1, len(c.t)):
            assert path.eval([c.t[i]], 0, left=True) == pytest.approx(path.eval(c.t[i - 1]),
                                                                        rel=1e-13)

    @pytest.mark.parametrize("m", [ATOMS, TSTABLE], ids=["atoms", "tstable"])
    def test_consistency_identity(self, m):
        G = ig.term(time=ig.Cos(1.0)) * 0.7
        K = ig.term(time=ig.Poly((1.0, 0.3)), jump=ig.SignPow(1.0))
        H = H_GEN
        for seed in range(20):
            c = simulate(WIN, m, replicate_seed(300, seed))
            path = it.build_path(G, K, H, c, m, split=1.0)
            lhs = path.eval(1.0)
            rhs = (it.time_cumulative(G, 1.0)
                   + it.int_N(K.with_jump(ig.AbsIndicator(1.0, math.inf)), c, 1.0)
                   + it.int_Nhat(H.with_jump(ig.AbsIndicator(0.0, 1.0)), c, m, 1.0))
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_jump_reconstruction(self):
        c = simulate(WIN, ATOMS, 33)
        path = it.build_path(ig.term(time=ig.Const(0.5)), ig.term(jump=ig.SignPow(1.0)),
                             H_GEN, c, ATOMS, split=1.0)
        assert path.csum[0, -1] == pytest.approx(
            path.eval(1.0)[0] - path.drift(np.asarray(1.0)), abs=1e-12)

    def test_sup_abs_linear_drift_exact(self):
        c = simulate(WIN, ATOMS, 34)
        path = it.build_path(ig.term(time=ig.Const(-0.4)), ig.term(jump=ig.SignPow(1.0)),
                             None, c, ATOMS, split=0.0)
        # brute force on a very fine grid as oracle
        grid = np.linspace(0.0, 1.0, 200001)
        oracle = np.max(np.abs(path.eval(grid, 0)))
        assert path.sup_abs(1.0) >= oracle - 1e-9
        assert path.sup_abs(1.0) == pytest.approx(oracle, abs=1e-4)

    def test_drift_without_antiderivative_integrates_node(self):
        node = ig.Product((ig.Cos(2.0), ig.Exp(-0.5)))
        assert node.antiderivative(np.zeros(())) is None
        ts = np.array([0.0, 0.2, 0.55, 1.0])
        got = it.drift_function([(1.5, node)])(ts)
        assert np.array_equal(got, [1.5 * node.integral(0.0, float(t)) for t in ts])
        G = ig.term(time=node) * 1.5
        assert np.array_equal(it.time_cumulative(ig.term(time=node), ts),
                              [node.integral(0.0, float(t)) for t in ts])
        path = it.build_path(G, None, None, simulate(WIN, ATOMS, 35), ATOMS)
        assert path.drift(0.55) == pytest.approx(G.terms[0].time.integral(0.0, 0.55),
                                                 rel=1e-14)

    def test_unsorted_jumps_equal_sorted(self):
        # the rows of a masked batch, each in its replicate's time order (as
        # the interlacing box rings build them), against the one path of
        # each replicate's jumps handed over in shuffled order
        rng = np.random.default_rng(36)
        batch = prm.simulate(WIN, ATOMS, 36, rows=12)
        ring = prm.select(batch, rng.uniform(size=len(batch.t)) < 0.6, WIN)
        jumps = rng.normal(size=len(ring.t))
        pieces = [(-0.3, ig.Cos(1.0)), (0.8, ig.Const(1.0))]
        rows = it._rows(ring.t, jumps, ring.counts, it.drift_function(pieces))
        grid = np.linspace(0.0, 1.0, 101)
        for k, (a, b) in enumerate(zip(ring.offsets[:-1], ring.offsets[1:])):
            order = rng.permutation(b - a)
            one = oracles.jump_path(ring.t[a:b][order], jumps[a:b][order], pieces)
            assert np.array_equal(one.times[0], rows.times[k, :b - a])
            assert np.array_equal(one.csum[0], rows.csum[k, :b - a + 1])
            assert np.array_equal(one.eval(grid, np.zeros(101, dtype=int)),
                                  rows.eval(grid, np.full(101, k)))
            assert one.sup_abs(1.0)[0] == rows.sup_abs(1.0)[k]
            assert one.eval(1.0) == pytest.approx(jumps[a:b].sum() + one.drift(1.0))

    @given(st.lists(st.floats(0.0, 1.0) | st.sampled_from([0.25, 0.5]), max_size=25),
           st.floats(-3.0, 3.0), st.integers(0, 2 ** 32 - 1), st.floats(0.0, 1.2))
    @settings(max_examples=80, deadline=None)
    def test_sup_abs_matches_candidate_oracle(self, times, slope, seed, t):
        # t before, between, at and after the jump times; ties from the sampled
        # times.  The drift is linear, so it has no turning point and the
        # sup lies on a candidate.
        times = np.array(times)
        jumps = np.random.default_rng(seed).normal(size=len(times))
        path = oracles.jump_path(times, jumps, [(slope, ig.Const(1.0))])
        for u in [t, *times[:3]]:
            ts = path.times[0][path.times[0] <= u]
            cand = [0.0, abs(path.eval(u)[0])]
            if len(ts):
                cand += [np.max(np.abs(path.eval(ts, 0))),
                         np.max(np.abs(path.eval(ts, 0, left=True)))]
            assert path.sup_abs(u) == max(cand)

    def test_sup_abs_scan_refines_nonmonotone_drift(self):
        # the jump-free path c sin(freq s): |c| once freq t reaches pi / 2,
        # else |c sin(freq t)|, the turning point or the terminal value
        for c, freq, t in [(1.0, 3.0, 1.0), (-0.7, 3.0, 0.4), (2.5, 11.0, 1.0), (0.3, 1.0, 1.0)]:
            path = it.CadlagPath(np.empty((1, 0)), np.zeros((1, 1)),
                                 it.drift_function([(c * freq, ig.Cos(freq))]))
            want = abs(c) if freq * t >= math.pi / 2 else abs(c * math.sin(freq * t))
            assert path.sup_abs(t)[0] == pytest.approx(want, abs=1e-12)

    def test_sup_abs_scan_matches_dense_grid_with_jumps(self):
        # |sin(20 s) + jumps| peaks at 1.4 inside the last inter-jump
        # interval, at a turning point of the drift.  The oracle is a
        # 2e6-point grid plus both sides of every jump, off by at most
        # 400 h^2 / 8 ~ 1e-11; the one-path oracle's scan finds no more.
        times, jumps = np.array([0.2, 0.6]), np.array([0.3, -0.7])
        path = oracles.jump_path(times, jumps, [(20.0, ig.Cos(20.0))])
        grid = np.linspace(0.0, 1.0, 2_000_001)
        oracle = max(np.max(np.abs(path.eval(grid, 0))),
                     np.max(np.abs(path.eval(times, 0, left=True))))
        assert oracle == pytest.approx(1.4, abs=1e-10)
        assert path.sup_abs(1.0) == pytest.approx(oracle, abs=1e-9)
        assert OnePath.row(path, 0).sup_abs(1.0, scan=200) <= path.sup_abs(1.0)[0] + 1e-12

    def test_sup_abs_scan_brackets_the_interval_of_the_grid_max(self):
        # the drift sin(pi s) / pi peaks at 0.5, just after a jump at 0.4999
        path = it._rows(np.array([0.4999]), np.array([0.01]), np.array([1]),
                        it.drift_function([(1.0, ig.Cos(math.pi))]))
        assert path.sup_abs(1.0)[0] == pytest.approx(1.0 / math.pi + 0.01, abs=1e-12)


TIMES = st.floats(0.0, 1.0) | st.sampled_from([0.25, 0.5])


def rowwise(rows, jumps, drift):
    """The CadlagPath of rows of jump times and sizes, each row summed as the
    one-path code sums it, and the one-path oracle of each row."""
    ones = [OnePath.of(np.array(r, dtype=float), j, drift) for r, j in zip(rows, jumps)]
    J = max(len(r) for r in rows)
    times, csum = np.full((len(rows), J), np.inf), np.zeros((len(rows), J + 1))
    for k, one in enumerate(ones):
        n = len(one.times)
        times[k, :n], csum[k, :n + 1], csum[k, n + 1:] = one.times, one._csum, one._csum[-1]
    return it.CadlagPath(times, csum, drift), ones


class TestRowwisePaths:
    """A CadlagPath of many rows answers, row for row and bit for bit, as the
    one-path code answers on each row alone, and so does a CadlagPath of
    that row alone: rows of different lengths, an empty row, tied times, t
    before, at and after the jumps."""

    @given(st.lists(st.lists(TIMES, max_size=8), min_size=1, max_size=4),
           st.integers(0, 2 ** 32 - 1), st.floats(0.0, 1.2) | st.sampled_from([0.25, 0.5]),
           st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_match_one_path_oracle(self, rows, seed, t, wiggly):
        rng = np.random.default_rng(seed)
        rows = [sorted(r) for r in rows]
        rows.insert(int(rng.integers(0, len(rows) + 1)), [])
        jumps = [rng.normal(size=len(r)) for r in rows]
        if wiggly:  # sin(9 s): interior maxima between the jumps
            drift = it.drift_function([(9.0, ig.Cos(9.0))])
        else:
            drift = it.drift_function([(float(rng.normal()), ig.Const(1.0))])
        path, ones = rowwise(rows, jumps, drift)
        sups = path.sup_abs(t)
        if wiggly:
            # at least the one-path oracle's scanned sup, and within 1e-9 of
            # a grid of step h (off by at most 81 h^2 / 8 ~ 6e-11)
            grid = np.linspace(0.0, t, 400_001)
            for sup, one in zip(sups, ones):
                ts = one.times[one.times <= t]
                dense = max(np.max(np.abs(one.eval(np.concatenate([grid, ts])))),
                            np.max(np.abs(one.eval_left(ts)), initial=0.0))
                assert one.sup_abs(t, scan=50) <= sup + 1e-12
                assert dense - 1e-12 <= sup <= dense + 1e-9
        else:
            assert sups.tolist() == [one.sup_abs(t) for one in ones]
        assert path.eval(t).tolist() == [one.eval(t) for one in ones]
        assert path.eval(t, left=True).tolist() == [one.eval_left(t) for one in ones]
        # any (row, time) pairs in any order, the jump times among them
        pool = np.concatenate([[0.0, t, 0.25, 0.5]] + [np.array(r, dtype=float) for r in rows])
        s, seg = rng.choice(pool, size=30), rng.integers(0, len(rows), size=30)
        assert path.eval(s, seg).tolist() == [ones[g].eval(v) for g, v in zip(seg, s)]
        assert (path.eval(s, seg, left=True).tolist()
                == [ones[g].eval_left(v) for g, v in zip(seg, s)])
        # every path at one time, and each row as a path of one row, at the
        # pool's times and before and after every jump
        at = np.concatenate([[-0.5, 1.5], pool])
        for r, j, one in zip(rows, jumps, ones):
            alone, _ = rowwise([r], [j], drift)
            for left, want in ((False, one.eval), (True, one.eval_left)):
                assert alone.eval(at, np.zeros(len(at), dtype=int), left).tolist() == \
                    want(at).tolist()
                assert [alone.eval(v, left=left)[0] for v in at] == want(at).tolist()
        for v in at:
            assert path.eval(v).tolist() == [one.eval(v) for one in ones]
            assert path.eval(v, left=True).tolist() == [one.eval_left(v) for one in ones]

    @pytest.mark.parametrize("m", [ATOMS, TSTABLE], ids=["atoms", "tstable"])
    def test_build_path_rows_are_one_paths(self, m):
        # a padded batch, and a batch of one whose row is its own arrays
        w = Window(0.4, WIN.box, WIN.shell)  # about 1.7 points: some replicates empty
        batch = prm.simulate(w, m, 700, rows=40)
        assert len(set(batch.counts.tolist())) > 1 and 0 in batch.counts
        K = ig.term(time=ig.Poly((1.0, 0.3)), jump=ig.SignPow(1.0))
        G = ig.term(time=ig.Cos(1.0)) * 0.7
        for c in [batch] + [replicate(batch, k) for k in range(3)]:
            path = it.build_path(G, K, H_GEN, c, m, split=1.0)
            for k in range(len(c)):
                one, want = OnePath.row(path, k), oracles.one_path(
                    G, K, H_GEN, replicate(c, k), m, split=1.0)
                assert np.array_equal(one.times, want.times)
                assert np.array_equal(one._csum, want._csum)
        one = simulate(w, m, 701)
        path = it.build_path(G, K, H_GEN, one, m)
        assert np.shares_memory(path.times, one.t)


class TestZeroDriftSup:
    """With no drift and t at or past the horizon, sup_abs is the row's
    largest |running sum| and reads no times; the general branch, taken
    under the default horizon inf, skips the sums inside a run of tied
    times, which the path never takes."""

    @given(st.lists(st.lists(TIMES, max_size=8), min_size=1, max_size=4),
           st.integers(0, 2 ** 32 - 1), st.floats(1.0, 1.2))
    @settings(max_examples=80, deadline=None)
    def test_equals_general_branch(self, rows, seed, t):
        # rows of different lengths (padded), an empty row, tied times
        rng = np.random.default_rng(seed)
        rows = [sorted(r) for r in rows]
        rows.insert(int(rng.integers(0, len(rows) + 1)), [])
        times = np.concatenate([np.array(r, dtype=float) for r in rows])
        jumps, counts = rng.normal(size=len(times)), np.array([len(r) for r in rows])
        no_drift = it.drift_function([])
        fast = it._rows(times, jumps, counts, no_drift, horizon=1.0)
        got = fast.sup_abs(t)
        assert "times" not in vars(fast)
        assert got.tobytes() == np.abs(fast.csum).max(axis=1).tobytes()
        want = it._rows(times, jumps, counts, no_drift).sup_abs(t)
        for k, r in enumerate(rows):
            sums = np.abs(fast.csum[k, :len(r) + 1])
            inside = np.zeros(len(r) + 1, dtype=bool)
            inside[1:len(r)] = np.diff(r) == 0.0
            assert want[k] == sums[~inside].max()
            assert got[k] == want[k] if want[k] == sums.max() else got[k] > want[k]

    def test_opposite_tied_jumps(self):
        # two jumps at one time that cancel: the path stays at 0
        path = it._rows(np.array([0.5, 0.5]), np.array([2.0, -2.0]), np.array([2]),
                        it.drift_function([]), horizon=1.0)
        assert path.sup_abs(1.0)[0] == 2.0 and path.sup_abs(0.99)[0] == 0.0


class TestRowsInPlace:
    """_rows builds the running sums in place, bit for bit the sums of the
    padded jump matrix, and a NaN jump still reaches sup_abs."""

    @given(st.lists(st.lists(st.floats(-1e3, 1e3) | st.sampled_from([np.nan, -0.0]),
                             max_size=6), min_size=1, max_size=5))
    @example([[1.0, 2.0]])  # one row
    @example([[], [], []])  # only empty rows
    @example([[1.0, -0.0], [np.nan, 3.0], [0.5, 0.25]])  # equal counts, a NaN
    @settings(max_examples=80, deadline=None)
    def test_equals_padded_cumsum(self, rows):
        counts = np.array([len(r) for r in rows])
        jumps = np.array([z for r in rows for z in r], dtype=float)
        n, J = len(rows), int(counts.max())
        padded = np.zeros((n, J))
        padded[np.arange(J) < counts[:, None]] = jumps
        want = np.concatenate([np.zeros((n, 1)), np.cumsum(padded, axis=1)], axis=1)
        times = np.concatenate([np.linspace(0.1, 0.9, len(r)) for r in rows])
        fast = it._rows(times, jumps, counts, it.drift_function([]), horizon=1.0)
        assert fast.csum.shape == want.shape and fast.csum.tobytes() == want.tobytes()
        nan = np.isnan(want).any(axis=1)
        for path in (fast, it._rows(times, jumps, counts, it.drift_function([]))):
            assert np.array_equal(np.isnan(path.sup_abs(1.0)), nan)


class TestZofSet:
    def test_empty_config_drift_only(self):
        c = simulate(Window(1.0, ((0.0, 1.0),), Shell(3.0, 9.0)), ATOMS, 0)
        got = it.z_of_set(1.0, ((0.0, 1.0),), (0.0, 1.0), c, ATOMS)
        assert got == pytest.approx(1.0)

    def test_additivity_exact(self):
        c = simulate(WIN, ATOMS, 55)
        whole = it.z_of_set(0.7, ((-0.5, 0.5),), (0.0, 1.0), c, ATOMS)
        left = it.z_of_set(0.7, ((-0.5, 0.0),), (0.0, 1.0), c, ATOMS)
        right = it.z_of_set(0.7, ((0.0, 0.5),), (0.0, 1.0), c, ATOMS)
        boundary = np.sum(c.z[c.x[:, 0] == 0.0])
        assert whole == pytest.approx(left + right - boundary, abs=1e-12)
        early = it.z_of_set(0.7, ((-0.5, 0.5),), (0.0, 0.5), c, ATOMS)
        late = it.z_of_set(0.7, ((-0.5, 0.5),), (0.5, 1.0), c, ATOMS)
        assert whole == pytest.approx(early + late, abs=1e-12)

    @pytest.mark.parametrize("m", [ATOMS, TSTABLE], ids=["atoms", "tstable"])
    def test_characteristic_function(self, m):
        # E e^{iuZ} = exp{|Bt|(iua + shell Levy-Khintchine exponent)}
        a = 0.4
        box, interval = ((-0.5, 0.5),), (0.0, 1.0)
        n = 2 * 10 ** 4
        us = np.array([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])
        acc = np.zeros(len(us), dtype=complex)
        for k in range(n):
            c = simulate(WIN, m, replicate_seed(400, k))
            zval = it.z_of_set(a, box, interval, c, m)
            acc += np.exp(1j * us * zval)
        emp = acc / n
        vol = 1.0
        big = WIN.shell.clip(1.0, math.inf)
        big_m1 = m.shell_moment(big, 1.0, signed=True) if big else 0.0
        for u, e in zip(us, emp):
            exact = cmath.exp(vol * (1j * u * a + m.psi_shell(WIN.shell, u)
                                     + 1j * u * big_m1))
            assert abs(e - exact) <= 4.0 / math.sqrt(n)


class TestLIntegral:
    def test_zero_and_definitional(self):
        c = simulate(WIN, ATOMS, 66)
        assert it.l_integral(ig.ONE * 0.0, c, ATOMS, 1.0) == 0.0
        # X = 1 on the whole window equals the noise charge with a = 0
        got = it.l_integral(ig.ONE, c, ATOMS, 1.0)
        want = it.z_of_set(0.0, ((-0.5, 0.5),), (0.0, 1.0), c, ATOMS)
        # z_of_set compensates only small jumps; on this shell both sides
        # differ by the big-jump compensator
        big = WIN.shell.clip(1.0, math.inf)
        want -= ATOMS.shell_moment(big, 1.0, signed=True)
        assert got == pytest.approx(want, rel=1e-12)

    def test_rejects_jump_dependence(self):
        c = simulate(WIN, ATOMS, 67)
        with pytest.raises(ValueError):
            it.l_integral(ig.term(jump=ig.SignPow(1.0)), c, ATOMS, 1.0)

    @pytest.mark.parametrize("m", [ATOMS, TSTABLE], ids=["atoms", "tstable"])
    def test_isometry(self, m):
        X = ig.term(time=ig.Exp(-0.5), space=ig.Poly((1.0, 0.4)))
        n = 10 ** 4
        vals = np.empty(n)
        for k in range(n):
            c = simulate(WIN, m, replicate_seed(500, k))
            vals[k] = it.l_integral(X, c, m, 1.0)[0]
        v_shell = m.shell_moment(WIN.shell, 2.0)
        target = v_shell * it.compensator(X.squared(), WIN, m, 1.0) / m.shell_mass(WIN.shell)
        # compensator of X^2 * 1 integrates the constant jump factor: divide
        # the shell mass back out to get the plain (s, x) integral
        sq = vals ** 2
        se = sq.std(ddof=1) / math.sqrt(n)
        assert abs(sq.mean() - target) <= 4 * se


WIN3 = Window(3.0, ((-0.5, 0.5), (0.0, 1.0)), Shell(0.3, 2.0))


class TestBatch:
    """The jump sums on a PointBatch are the per-configuration values: equal
    for replicates of under 8 points, which add in the same order, and
    within 1e-12 relative otherwise."""

    @staticmethod
    def assert_per_config(got, want, counts):
        assert got.shape == (len(want),)
        for g, w, n in zip(got, want, counts):
            if n < 8:
                assert g == w
            else:
                assert abs(g - w) <= 1e-12 * max(1.0, abs(w))

    @pytest.mark.parametrize("m", [ATOMS, TSTABLE, TEMPERED],
                             ids=["atoms", "tstable", "tempered"])
    def test_matches_per_config(self, m):
        batch = prm.simulate(WIN3, m, 600, rows=150)
        configs = [replicate(batch, k) for k in range(len(batch))]
        counts = batch.counts
        assert counts.min() < 8 <= counts.max()
        X = ig.term(time=ig.Exp(-0.5), space=ig.Poly((1.0, 0.4)))
        box, interval = ((-0.2, 0.4), (0.1, 0.8)), (0.5, 2.5)
        for t in (2.0, WIN3.horizon):  # t = 2 leaves points past t
            self.assert_per_config(it.int_N(H_GEN, batch, t),
                                   [it.int_N(H_GEN, c, t)[0] for c in configs], counts)
            self.assert_per_config(it.int_Nhat(H_GEN, batch, m, t),
                                   [it.int_Nhat(H_GEN, c, m, t)[0] for c in configs], counts)
            self.assert_per_config(it.l_integral(X, batch, m, t),
                                   [it.l_integral(X, c, m, t)[0] for c in configs], counts)
        for b, iv in ((WIN3.box, (0.0, WIN3.horizon)), (box, interval)):
            self.assert_per_config(it.z_of_set(0.4, b, iv, batch, m),
                                   [it.z_of_set(0.4, b, iv, c, m)[0] for c in configs], counts)

    def test_empty_replicates(self):
        w = Window(1.0, ((-0.5, 0.5),), Shell(3.0, 9.0))
        batch = prm.simulate(w, ATOMS, 0, rows=4)
        assert np.array_equal(it.int_N(H_GEN, batch, 1.0), np.zeros(4))
        got = it.z_of_set(1.0, w.box, (0.0, 1.0), batch, ATOMS)
        assert np.array_equal(got, [it.z_of_set(1.0, w.box, (0.0, 1.0), replicate(batch, k),
                                                ATOMS)[0] for k in range(4)])


def int_N_loop(K, config, t):
    """The per-configuration jump sum that the batch of one replaced, with
    the values it adds."""
    mask = config.t <= t
    v = np.asarray(K(config.t[mask], config.x[mask], config.z[mask]), dtype=float)
    return float(np.sum(v)), v


def z_of_set_loop(a, box, interval, config, measure):
    """The per-configuration charge that the batch of one replaced, with the
    values it adds."""
    t1, t2 = interval
    vol = t2 - t1
    for lo, hi in box:
        vol *= hi - lo
    keep = (config.t > t1) & (config.t <= t2)
    for k, (lo, hi) in enumerate(box):
        keep &= (config.x[:, k] >= lo) & (config.x[:, k] <= hi)
    z = config.z[keep]
    total = a * vol
    total += float(np.sum(z[np.abs(z) > 1.0]))
    total += float(np.sum(z[np.abs(z) <= 1.0]))
    small = config.window.shell.clip(0.0, 1.0)
    drift = vol * measure.shell_moment(small, 1.0, signed=True) if small else 0.0
    return total - drift, np.concatenate([[a * vol, drift], z])


@st.composite
def configurations(draw):
    """0 to 12 points of WIN in time order, with ties and jumps at |z| = 1."""
    n = draw(st.integers(0, 12))
    pts = st.tuples(st.floats(0.0, 1.0) | st.sampled_from([0.25, 0.5, 1.0]),
                    st.floats(-0.5, 0.5),
                    st.floats(-2.0, 2.0).filter(lambda v: abs(v) > 0.3)
                    | st.sampled_from([1.0, -1.0, 2.0]))
    rows = sorted(draw(st.lists(pts, min_size=n, max_size=n)), key=lambda r: r[0])
    t, x, z = (np.array(col, dtype=float) for col in zip(*rows)) if rows else \
        (np.empty(0), np.empty(0), np.empty(0))
    return prm.PointBatch(t, x.reshape(n, 1), z, np.array([0, n]), WIN, (0, 0))


class TestBatchOfOne:
    """A configuration runs through the batch code as the batch of one: equal
    to the per-configuration code when under 8 points are summed, since both
    then add in order, else within 4 n eps sum|v| over the n values v added,
    since np.sum adds in pairs from 8 terms up."""

    @staticmethod
    def assert_close(got, want, points, values):
        assert got.shape == (1,)
        got = float(got[0])
        if points < 8:
            assert got == want
        else:
            eps = np.finfo(float).eps
            assert abs(got - want) <= 4 * len(values) * eps * np.sum(np.abs(values))

    @given(configurations(), st.floats(0.0, 1.0) | st.sampled_from([0.25, 0.5, 1.0]),
           st.sampled_from([ATOMS, TSTABLE]))
    @settings(max_examples=60, deadline=None)
    def test_equals_per_configuration_code(self, c, t, m):
        X = ig.term(time=ig.Exp(-0.5), space=ig.Poly((1.0, 0.4)))
        want, v = int_N_loop(H_GEN, c, t)
        self.assert_close(it.int_N(H_GEN, c, t), want, len(v), v)
        for H in (H_GEN, X.with_jump(ig.SignPow(1.0))):
            want, v = int_N_loop(H, c, t)
            comp = it.compensator(H, WIN, m, t)
            self.assert_close(it.int_Nhat(H, c, m, t), want - comp, len(v), np.append(v, comp))
        self.assert_close(it.l_integral(X, c, m, t), want - comp, len(v), np.append(v, comp))
        for box, interval in ((WIN.box, (0.0, 1.0)), (((-0.2, 0.4),), (0.1, 0.8))):
            want, v = z_of_set_loop(0.4, box, interval, c, m)
            self.assert_close(it.z_of_set(0.4, box, interval, c, m), want, len(v) - 2, v)


class TestProjectTime:
    def test_cached_per_problem(self):
        proj = it.project_time(H_GEN, WIN, TSTABLE)
        # equal problems, not only the same objects, share the entry
        assert it.project_time(H_GEN, Window.from_json(WIN.to_json()), TSTABLE) is proj
        assert it.project_time(H_GEN, WIN, TSTABLE, WIN.shell) == proj

    def test_collapses_to_time_only(self):
        proj = it.project_time(H_GEN, WIN, TSTABLE)
        assert is_time_only(proj)
        # spot value: time slice s=0.3 of the brute nu/space integral
        s = 0.3
        def nu_slice(x):
            return oracles.nu_quad(TSTABLE, lambda z: float(H_GEN(s, x, z)), WIN.shell)
        want, _ = si.quad(nu_slice, -0.5, 0.5, epsabs=1e-12)
        got = proj(s, 0.0, 0.0)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def interval_rule_loop(breaks, n_per_interval):
    """The per-interval loop that interval_rule's broadcast replaced."""
    t, w = ig.gl_rule(n_per_interval)
    ss, ws = [], []
    for a, b in zip(breaks[:-1], breaks[1:]):
        if b <= a:
            continue
        ss.append(0.5 * (b - a) * t + 0.5 * (b + a))
        ws.append(0.5 * (b - a) * w)
    if not ss:
        return np.empty(0), np.empty(0)
    return np.concatenate(ss), np.concatenate(ws)


def box_rule_loop(box, n_per_axis):
    """The uncached tensor rule, axis by axis."""
    t, w = ig.gl_rule(n_per_axis)
    axes, wts = [], []
    for lo, hi in box:
        axes.append(0.5 * (hi - lo) * t + 0.5 * (hi + lo))
        wts.append(0.5 * (hi - lo) * w)
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    wgrid = np.meshgrid(*wts, indexing="ij")
    ww = np.ones(pts.shape[0])
    for g in wgrid:
        ww = ww * g.ravel()
    return pts, ww


class TestQuadratureRules:
    @given(st.lists(st.floats(-3.0, 3.0) | st.sampled_from([0.0, 0.5]), max_size=12),
           st.booleans(), st.integers(1, 24))
    @settings(max_examples=100, deadline=None)
    def test_interval_rule_matches_loop_bitwise(self, pts, ordered, n):
        # sorted lists with repeats give zero-length intervals, unsorted
        # ones decreasing pairs; both are skipped
        breaks = np.array(sorted(pts) if ordered else pts, dtype=float)
        for got, want in zip(it.interval_rule(breaks, n), interval_rule_loop(breaks, n)):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("box", [((-0.5, 0.5),), ((0.0, 1.0), (-2.0, 0.5)),
                                     ((0.0, 1.0), (-1.0, 1.0), (0.25, 0.75))])
    def test_box_rule_matches_loop_bitwise(self, box):
        for got, want in zip(it.box_rule(box, 6), box_rule_loop(box, 6)):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_box_rule_cached_read_only(self):
        pts, w = it.box_rule(WIN.box, 8)
        again = it.box_rule([list(axis) for axis in WIN.box], 8)
        assert again[0] is pts and again[1] is w
        with pytest.raises(ValueError):
            pts[0, 0] = 1.0
        with pytest.raises(ValueError):
            w[0] = 1.0
        assert float(np.sum(w)) == pytest.approx(WIN.box_volume, rel=1e-14)


def _increment(fy):
    """f(y + V) - f(y) for f = exp(0.4 .), as the Ito nu term folds it."""
    def phi(v, b):
        diff = np.exp(0.4 * v)
        diff -= fy[b, None, None]
        return diff
    return phi


def _phase_and_psi(v, _b):
    return np.stack([np.exp(1j * v) - 1.0, np.exp(1j * v) - 1.0 - 1j * v])


class TestTensorFold:
    """tensor_fold's blocks, built in place in the reused scratch, give the
    bytes of the whole tensor at once, whatever the block size."""

    SHAPES = ((700, 8, 64, 2), (37, 1, 48, 1), (300, 3, 5, 3), (20, 4, 0, 2))

    @pytest.mark.parametrize("block", [1, 7, None], ids=["1", "7", "default"])
    def test_blocked_matches_whole_tensor(self, block, monkeypatch):
        if block is not None:
            monkeypatch.setattr(it, "TENSOR_BLOCK", block)
        rng = np.random.default_rng(12)
        for n_s, n_x, n_z, n_terms in self.SHAPES:  # the last: an empty jump rule
            y, xw, zw = rng.normal(size=n_s), rng.uniform(size=n_x), rng.uniform(size=n_z)
            factors = [(rng.normal(size=n_s), rng.normal(size=n_x), rng.normal(size=n_z))
                       for _ in range(n_terms)]
            real = it.tensor_fold(_increment(np.exp(0.4 * y)), factors, xw, zw, start=y)
            want = oracles.tensor_fold_whole(_increment(np.exp(0.4 * y)), factors, xw, zw, y)
            assert real.shape == (n_s,) and real.tobytes() == want.tobytes()
            stacked = it.tensor_fold(_phase_and_psi, factors, xw, zw)
            want = oracles.tensor_fold_whole(_phase_and_psi, factors, xw, zw)
            assert stacked.shape == (2, n_s) and stacked.dtype == complex
            assert stacked.tobytes() == want.tobytes()
            if n_z == 0:
                assert not real.any() and not stacked.any()


def test_replicate_grid_matches_batch_rule():
    # the one replicate grid gives batch_rule's nodes, weights and replicates
    batch = simulate(WIN, ATOMS, 37, rows=9)
    g = it.ReplicateGrid(batch, 0.8, [0.25, 0.5], 6)
    s, w, seg = oracles.batch_rule(batch, 0.8, [0.25, 0.5], 6)
    for got, want in ((g.s, s), (g.ws, w), (g.sseg, seg)):
        assert got.tobytes() == want.tobytes()
    mask = batch.t <= 0.8
    assert np.array_equal(g.tj, batch.t[mask]) and np.array_equal(g.jseg, batch.segment[mask])
