import dataclasses
import hashlib
import json
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import integrate as si

from levynoise import integrands as ig
from levynoise import integrate as it
from levynoise import ito, prm
from levynoise.cli import bundled_config_text, write_artifacts
from levynoise.experiments import parse_config, run_experiment
from levynoise.measure import DiscreteAtoms, Shell, TruncatedStable
from levynoise.prm import Window, replicate_seed, simulate
from oracles import jump_path, nu_tensor, path_breaks, replicate

ATOMS = DiscreteAtoms(((0.6, 1.0), (-1.1, 0.7), (1.7, 0.4)))
TSTABLE = TruncatedStable(alpha=1.0, c=1.0, r=1.5)
WIN = Window(1.0, ((-0.5, 0.5),), Shell(0.3, 2.0))

G_CONST = ig.term(time=ig.Const(0.5))
G_EXP = ig.term(time=ig.Exp(-1.0))
K_Z = ig.term(jump=ig.SignPow(1.0))
K_MIX = ig.term(time=ig.Poly((1.0, 0.3)), space=ig.Poly((1.0, 0.5)), jump=ig.SignPow(1.0))
H_MIX = ig.term(time=ig.Cos(1.0), space=ig.Poly((1.0, 0.4)), jump=ig.SignPow(1.0)) * 0.6

FNS = [ito.poly_fn(0.0, 0.0, 1.0), ito.exp_fn(0.4), ito.cos_fn(1.0)]


def derivative_gap(fn, xs, h=1e-6):
    """Max deviation between df and the central difference of f."""
    xs = np.asarray(xs, dtype=float)
    fd = (fn.f(xs + h) - fn.f(xs - h)) / (2 * h)
    return float(np.max(np.abs(fn.df(xs) - fd)))


class TestSmoothFns:
    def test_registry_finite_difference_self_test(self):
        xs = np.linspace(-3.0, 3.0, 61)
        for fn in FNS + [ito.sin_fn(0.7), ito.abs_pow_fn(2.0), ito.abs_pow_fn(3.5),
                         ito.poly_fn(1.0, -2.0, 0.5, 0.25)]:
            assert derivative_gap(fn, xs) < 1e-6

    def test_abs_pow_second_derivative_continuity(self):
        fn = ito.abs_pow_fn(2.0)
        np.testing.assert_allclose(fn.d2f(np.array([-0.1, 0.0, 0.1])), 2.0)
        with pytest.raises(ValueError):
            ito.abs_pow_fn(1.5)


class TestLhs:
    def test_identity_and_empty(self):
        c = simulate(WIN, ATOMS, 1)
        path = it.build_path(None, K_Z, None, c, ATOMS, split=0.0)
        assert ito.ito_lhs(ito.IDENTITY, path, 1.0) == pytest.approx(
            path.eval(1.0) - path.eval(0.0), abs=1e-14)
        empty = simulate(Window(1.0, ((-0.5, 0.5),), Shell(3.0, 5.0)), ATOMS, 1)
        epath = it.build_path(None, K_Z, None, empty, ATOMS, split=0.0)
        assert ito.ito_lhs(ito.exp_fn(1.0), epath, 1.0) == 0.0

    def test_square_of_two_jump_path(self):
        # jumps 1 then -2 before t: f(-1) - f(0) = 1 for f = x^2
        path = jump_path([0.2, 0.7], [1.0, -2.0], [])
        assert ito.ito_lhs(ito.poly_fn(0.0, 0.0, 1.0), path, 1.0) == pytest.approx(1.0)


class TestPrebuiltPath:
    def test_prebuilt_path_gives_same_right_side(self):
        c = simulate(WIN, TSTABLE, 7)
        fn = ito.exp_fn(0.4)
        raw = it.build_path(G_EXP, K_MIX, None, c, TSTABLE, split=0.0)
        assert (ito.ito_rhs_raw(fn, G_EXP, K_MIX, c, TSTABLE, 1.0, path=raw)
                == ito.ito_rhs_raw(fn, G_EXP, K_MIX, c, TSTABLE, 1.0))
        split = it.build_path(G_EXP, K_MIX, H_MIX, c, TSTABLE, split=1.0)
        assert (ito.ito_rhs_big_small(fn, G_EXP, K_MIX, H_MIX, c, TSTABLE, 1.0, path=split)
                == ito.ito_rhs_big_small(fn, G_EXP, K_MIX, H_MIX, c, TSTABLE, 1.0))
        comp = it.build_path(G_EXP, None, H_MIX, c, TSTABLE, split=math.inf)
        assert (ito.ito_rhs_all_compensated(fn, G_EXP, H_MIX, c, TSTABLE, 1.0, path=comp)
                == ito.ito_rhs_all_compensated(fn, G_EXP, H_MIX, c, TSTABLE, 1.0))


class TestOneSplitForm:
    """The raw and all-compensated right sides are the split form at split 0
    and at split inf, field by field."""

    @pytest.mark.parametrize("fn", FNS, ids=lambda f: f.name)
    @pytest.mark.parametrize("m", [ATOMS, TSTABLE], ids=["atoms", "tstable"])
    def test_raw_is_split_zero(self, fn, m):
        for seed in range(5):
            c = simulate(WIN, m, replicate_seed(904, seed))
            raw = ito.ito_rhs_raw(fn, G_EXP, K_MIX, c, m, 1.0)
            split = ito.ito_rhs_big_small(fn, G_EXP, K_MIX, None, c, m, 1.0,
                                          split=0.0, n_time=16)
            assert dataclasses.astuple(raw) == dataclasses.astuple(split)
            assert raw.compensated_term == 0.0 and raw.nu_term == 0.0

    @pytest.mark.parametrize("fn", FNS, ids=lambda f: f.name)
    @pytest.mark.parametrize("m", [ATOMS, TSTABLE], ids=["atoms", "tstable"])
    def test_all_compensated_is_split_inf(self, fn, m):
        for seed in range(5):
            c = simulate(WIN, m, replicate_seed(905, seed))
            comp = ito.ito_rhs_all_compensated(fn, G_EXP, H_MIX, c, m, 1.0)
            split = ito.ito_rhs_big_small(fn, G_EXP, None, H_MIX, c, m, 1.0,
                                          split=math.inf)
            assert dataclasses.astuple(comp) == dataclasses.astuple(split)
            assert comp.big_jump_term == 0.0


class TestRawJumpFormula:
    def test_identity_telescopes(self):
        for seed in range(10):
            c = simulate(WIN, ATOMS, seed)
            path = it.build_path(G_CONST, K_MIX, None, c, ATOMS, split=0.0)
            lhs = ito.ito_lhs(ito.IDENTITY, path, 1.0)
            rhs = ito.ito_rhs_raw(ito.IDENTITY, G_CONST, K_MIX, c, ATOMS, 1.0).total
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_square_pure_jump_exact(self):
        fn = ito.poly_fn(0.0, 0.0, 1.0)
        for seed in range(10):
            c = simulate(WIN, TSTABLE, seed)
            path = it.build_path(None, K_Z, None, c, TSTABLE, split=0.0)
            lhs = ito.ito_lhs(fn, path, 1.0)
            rhs = ito.ito_rhs_raw(fn, None, K_Z, c, TSTABLE, 1.0).total
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_exp_with_drift_vs_adaptive_oracle(self):
        fn = ito.exp_fn(1.0)
        c = simulate(WIN, ATOMS, 42)
        path = it.build_path(G_CONST, K_Z, None, c, ATOMS, split=0.0)
        rhs = ito.ito_rhs_raw(fn, G_CONST, K_Z, c, ATOMS, 1.0).total
        # oracle: adaptive quadrature of f'(Y(s)) G(s) between jumps,
        # intervals shrunk a hair so no node lands on a jump time
        total = 0.0
        breaks = path_breaks(c, 1.0)
        for a, b in zip(breaks[:-1], breaks[1:]):
            val, _ = si.quad(lambda s: math.exp(path.eval([s], 0)[0]) * 0.5,
                             a + 1e-12, b - 1e-12, epsabs=1e-13, limit=200)
            total += val
        mask = c.t <= 1.0
        yl = path.eval(c.t[mask], 0, left=True)
        total += float(np.sum(np.exp(yl + c.z[mask]) - np.exp(yl)))
        assert rhs == pytest.approx(total, abs=1e-8)
        lhs = ito.ito_lhs(fn, path, 1.0)
        assert abs(lhs - rhs) < 1e-8

    @pytest.mark.parametrize("fn", FNS, ids=lambda f: f.name)
    @pytest.mark.parametrize("m", [ATOMS, TSTABLE], ids=["atoms", "tstable"])
    def test_pathwise_identity_matrix(self, fn, m):
        for seed in range(25):
            c = simulate(WIN, m, replicate_seed(900, seed))
            path = it.build_path(G_EXP, K_MIX, None, c, m, split=0.0)
            lhs = ito.ito_lhs(fn, path, 1.0)
            rhs = ito.ito_rhs_raw(fn, G_EXP, K_MIX, c, m, 1.0).total
            assert abs(lhs - rhs) <= 1e-8


class TestFourTermFormula:
    def test_identity_linear_case(self):
        for seed in range(10):
            c = simulate(WIN, ATOMS, seed)
            path = it.build_path(G_CONST, K_Z, H_MIX, c, ATOMS, split=1.0)
            res = ito.ito_rhs_big_small(ito.IDENTITY, G_CONST, K_Z, H_MIX, c, ATOMS, 1.0)
            assert abs(res.nu_term) < 1e-10
            assert res.total == pytest.approx(ito.ito_lhs(ito.IDENTITY, path, 1.0),
                                              abs=1e-10)

    def test_h_zero_reduces_to_raw_formula(self):
        # all jumps big: the four-term formula collapses to the raw one
        win = Window(1.0, ((-0.5, 0.5),), Shell(1.2, 2.0))
        m = DiscreteAtoms(((1.5, 2.0), (-1.4, 1.0)))
        fn = ito.exp_fn(0.3)
        for seed in range(10):
            c = simulate(win, m, seed)
            res = ito.ito_rhs_big_small(fn, G_CONST, K_Z, None, c, m, 1.0)
            assert res.compensated_term == 0.0 and res.nu_term == 0.0
            raw = ito.ito_rhs_raw(fn, G_CONST, K_Z, c, m, 1.0).total
            assert res.total == pytest.approx(raw, abs=1e-10)

    @pytest.mark.parametrize("fn", FNS, ids=lambda f: f.name)
    @pytest.mark.parametrize("m", [ATOMS, TSTABLE], ids=["atoms", "tstable"])
    def test_pathwise_identity(self, fn, m):
        for seed in range(20):
            c = simulate(WIN, m, replicate_seed(901, seed))
            path = it.build_path(G_EXP, K_MIX, H_MIX, c, m, split=1.0)
            lhs = ito.ito_lhs(fn, path, 1.0)
            res = ito.ito_rhs_big_small(fn, G_EXP, K_MIX, H_MIX, c, m, 1.0)
            assert abs(lhs - res.total) <= 1e-6

    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([ATOMS, TSTABLE]),
           st.sampled_from([1, 3, 8, 16]))
    @settings(max_examples=40, deadline=None)
    def test_quadrature_nodes_see_no_jump(self, seed, m, n_time):
        # the nu-side integrals read Y(s) at interior Gauss-Legendre nodes
        # between jump times, where the left limit is the value itself
        c = simulate(WIN, m, seed)
        assume(len(c.t) > 0)
        path = it.build_path(G_EXP, K_MIX, H_MIX, c, m, split=1.0)
        s, _ = it.interval_rule(path_breaks(c, 1.0, H_MIX.time_breakpoints()), n_time)
        assert len(s) >= n_time
        np.testing.assert_array_equal(path.eval(s, 0, left=True), path.eval(s, 0))


class TestAllCompensatedFormula:
    def test_identity(self):
        for seed in range(10):
            c = simulate(WIN, ATOMS, seed)
            path = it.build_path(G_CONST, None, H_MIX, c, ATOMS, split=math.inf)
            res = ito.ito_rhs_all_compensated(ito.IDENTITY, G_CONST, H_MIX, c, ATOMS, 1.0)
            assert res.total == pytest.approx(ito.ito_lhs(ito.IDENTITY, path, 1.0),
                                              abs=1e-10)

    @pytest.mark.parametrize("m", [ATOMS, TSTABLE], ids=["atoms", "tstable"])
    def test_agreement_with_four_term_form(self, m):
        # same underlying process written both ways (K = H on the big set)
        fn = ito.poly_fn(0.0, 0.0, 1.0)
        for seed in range(15):
            c = simulate(WIN, m, replicate_seed(902, seed))
            res1 = ito.ito_rhs_big_small(fn, G_CONST, H_MIX, H_MIX, c, m, 1.0)
            g2 = ito.equivalent_time_drift(G_CONST, H_MIX, WIN, m, split=1.0)
            res2 = ito.ito_rhs_all_compensated(fn, g2, H_MIX, c, m, 1.0)
            assert abs(res1.total - res2.total) <= 1e-10

    def test_abs_pow_residuals(self):
        fn = ito.abs_pow_fn(2.0)
        for seed in range(30):
            c = simulate(WIN, TSTABLE, replicate_seed(903, seed))
            path = it.build_path(G_EXP, None, H_MIX, c, TSTABLE, split=math.inf)
            lhs = ito.ito_lhs(fn, path, 1.0)
            res = ito.ito_rhs_all_compensated(fn, G_EXP, H_MIX, c, TSTABLE, 1.0)
            assert abs(lhs - res.total) <= 1e-6


# points on a coarse grid: tied times, jumps at t = 1 and at the indicator
# breaks of G_STEP, both sides of the split at |z| = 1
POINT = st.tuples(st.sampled_from([0.1, 0.25, 0.5, 0.5, 0.75, 1.0]),
                  st.sampled_from([-0.4, 0.0, 0.3]),
                  st.sampled_from([-1.9, -1.2, -0.5, 0.4, 0.8, 1.5]))
G_STEP = ig.term(time=ig.Indicator(0.25, 0.75)) + G_EXP
H_FLAT = ig.term(time=ig.Indicator(0.1, 0.5), jump=ig.SignPow(1.0)) * 0.7


def point_batch(replicates):
    """The replicates, each a list of (t, x, z), as a PointBatch in time order."""
    rows = sorted(((k, p) for k, pts in enumerate(replicates) for p in pts),
                  key=lambda r: (r[0], r[1][0]))
    t, x, z = (np.array([p[i] for _, p in rows], dtype=float) for i in range(3))
    offsets = np.cumsum([0] + [len(pts) for pts in replicates])
    return prm.PointBatch(t, x.reshape(-1, 1), z, offsets, WIN, (0, 0))


class TestBatchEqualsBatchOfOne:
    """On a batch every right side and the left side hold, per replicate,
    exactly the floats of that replicate's configuration alone."""

    @given(st.lists(st.lists(POINT, max_size=5), min_size=1, max_size=5),
           st.sampled_from([ATOMS, TSTABLE]), st.sampled_from(FNS))
    @settings(max_examples=40, deadline=None)
    def test_every_form(self, replicates, m, fn):
        batch = point_batch(replicates)
        forms = [
            (0.0, G_STEP, K_MIX, None, lambda c, p: ito.ito_rhs_raw(fn, G_STEP, K_MIX, c, m, 1.0, path=p)),
            (1.0, G_STEP, K_MIX, H_MIX, lambda c, p: ito.ito_rhs_big_small(
                fn, G_STEP, K_MIX, H_MIX, c, m, 1.0, path=p)),
            (math.inf, None, None, H_FLAT, lambda c, p: ito.ito_rhs_all_compensated(
                fn, None, H_FLAT, c, m, 1.0, path=p)),
        ]
        for split, G, K, H, rhs in forms:
            path = it.build_path(G, K, H, batch, m, split=split)
            lhs, got = ito.ito_lhs(fn, path, 1.0), dataclasses.astuple(rhs(batch, path))
            assert all(v.shape == (len(batch),) for v in (lhs, *got))
            for k in range(len(batch)):
                c = replicate(batch, k)
                one = it.build_path(G, K, H, c, m, split=split)
                assert [lhs[k]] == ito.ito_lhs(fn, one, 1.0).tolist()
                want = [v[0] for v in dataclasses.astuple(rhs(c, None))]
                assert [v[k] for v in got] == want
                assert [v[k] for v in got] == [v[0] for v in dataclasses.astuple(rhs(c, one))]


def test_nu_tensor_scratch_matches_reference():
    # the Ito nu term through tensor_fold gives the bytes of ito's own
    # allocating form; successive calls of other shapes reuse the process's
    # scratch blocks
    rng = np.random.default_rng(11)
    fn = ito.exp_fn(0.4)
    for n_y, n_x, n_z, n_terms in ((700, 8, 64, 2), (37, 1, 48, 1), (300, 3, 5, 3)):
        y, xw, zw = rng.normal(size=n_y), rng.uniform(size=n_x), rng.uniform(size=n_z)
        factors = [(rng.normal(size=n_y), rng.normal(size=n_x), rng.normal(size=n_z))
                   for _ in range(n_terms)]
        fy = fn.f(y)

        def increment(v, b):
            diff = fn.f(v)
            diff -= fy[b, None, None]
            return diff

        np.testing.assert_array_equal(it.tensor_fold(increment, factors, xw, zw, start=y),
                                      nu_tensor(fn, y, factors, xw, zw, it.TENSOR_BLOCK))


def _reference(fn, y, factors, xw, zw):
    """Per time node, the sum over box and jump nodes of the weights times
    |f(V)| + |f(y)| + |V f'(V)| + |y f'(y)|, V = y + H: the scale the nu
    increments are judged at.  The derivative terms carry the rounding of
    the arguments: the fold's cos(scale V) misses the bound without them by
    up to 3e-13 where cos is small, against 50-digit sums."""
    y = y[:, None, None]
    v = y + sum(np.multiply.outer(np.multiply.outer(tv, sv), jv) for tv, sv, jv in factors)
    size = np.abs(fn.f(v)) + np.abs(fn.f(y)) + np.abs(v * fn.df(v)) + np.abs(y * fn.df(y))
    return np.einsum("ijk,j,k->i", size, xw, zw)


def _fold_calls(call):
    """The result of call() and the number of tensor_fold calls it made."""
    with mock.patch.object(it, "tensor_fold", wraps=it.tensor_fold) as fold:
        out = call()
    return out, fold.call_count


# (kind, scale) -> the SmoothFn; poly kinds ignore the scale
SERIES_KINDS = {
    "poly2": lambda a: ito.poly_fn(0.0, 0.0, 1.0),
    "poly3": lambda a: ito.poly_fn(1.0, -2.0, 0.5, 0.25),
    "abs_pow4": lambda a: ito.abs_pow_fn(4.0),
    "exp": ito.exp_fn,
    "cos": ito.cos_fn,
    "sin": ito.sin_fn,
}


class TestNuSeries:
    """ito.nu_increments sums f's Taylor series over the separable moments
    for a one-term H, node by node where the series is usable, and folds
    the tensor everywhere else."""

    @given(st.sampled_from(sorted(SERIES_KINDS)), st.floats(0.05, 3.0) | st.floats(-3.0, -0.05),
           st.integers(0, 60), st.integers(1, 8), st.integers(1, 64),
           st.floats(0.0, 0.999), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_series_matches_fold(self, kind, scale, n, n_x, n_z, x, seed):
        # x = |scale| rho <= 1 for exp, cos and sin; any rho (up to 50) for
        # the polynomials, whose series is exact
        rng = np.random.default_rng(seed)
        fn = SERIES_KINDS[kind](scale)
        y = rng.normal(scale=2.0, size=n)
        tv, sv, jv = rng.normal(size=n), rng.normal(size=n_x), rng.normal(size=n_z)
        rho = np.max(np.abs(tv), initial=0.0) * np.max(np.abs(sv)) * np.max(np.abs(jv))
        radius = 50.0 * x if kind.startswith(("poly", "abs_pow")) else x / abs(scale)
        tv *= radius / rho if rho > 0.0 else 0.0
        factors = [(tv, sv, jv)]
        xw, zw = rng.uniform(size=n_x), rng.uniform(size=n_z)
        got, folds = _fold_calls(lambda: ito.nu_increments(fn, y, factors, xw, zw))
        assert folds == 0
        want = nu_tensor(fn, y, factors, xw, zw, it.TENSOR_BLOCK)
        assert np.all(np.abs(got - want) <= 1e-13 * _reference(fn, y, factors, xw, zw))

    @pytest.mark.parametrize("fn, n_terms, scale", [
        (ito.exp_fn(0.4), 2, 1.0),      # a two-term H
        (ito.abs_pow_fn(3.0), 1, 1.0),  # no series
        (ito.cos_fn(1.0), 1, 4.0),      # x > 1 at every node
    ], ids=["two_terms", "abs_pow3", "x_above_1"])
    def test_fold_keeps_its_bytes(self, fn, n_terms, scale):
        rng = np.random.default_rng(12)
        y, xw, zw = rng.normal(size=300), rng.uniform(size=8), rng.uniform(size=64)
        factors = [(scale * (1.0 + rng.uniform(size=300)), 1.0 + rng.uniform(size=8),
                    1.0 + rng.uniform(size=64)) for _ in range(n_terms)]
        got, folds = _fold_calls(lambda: ito.nu_increments(fn, y, factors, xw, zw))
        assert folds == 1
        np.testing.assert_array_equal(got, nu_tensor(fn, y, factors, xw, zw, it.TENSOR_BLOCK))

    def test_nodes_choose_alone(self):
        # nodes with x > 1 keep the fold's bytes beside nodes on the series
        fn, rng = ito.exp_fn(1.0), np.random.default_rng(13)
        y, xw, zw = rng.normal(size=200), rng.uniform(size=8), rng.uniform(size=64)
        factors = [(np.linspace(-2.0, 2.0, 200), rng.uniform(size=8), rng.uniform(0.5, 1.0, 64))]
        rho = np.abs(factors[0][0]) * np.max(factors[0][1]) * np.max(factors[0][2])
        got = ito.nu_increments(fn, y, factors, xw, zw)
        want = nu_tensor(fn, y, factors, xw, zw, it.TENSOR_BLOCK)
        series = rho <= 1.0
        assert 0 < series.sum() < len(y)
        np.testing.assert_array_equal(got[~series], want[~series])
        ref = _reference(fn, y, factors, xw, zw)
        assert np.all(np.abs(got - want)[series] <= 1e-13 * ref[series])

    @pytest.mark.parametrize("fn", FNS + [ito.abs_pow_fn(2.0), ito.sin_fn(0.7)],
                             ids=lambda f: f.name)
    def test_split_form_folds_nothing(self, fn):
        # the ito1 and ito2 shapes: a one-term H with x <= 1 on the small shell
        c = simulate(WIN, TSTABLE, replicate_seed(906, 0), 0, 8)
        _, folds = _fold_calls(lambda: ito.ito_rhs_big_small(fn, G_EXP, K_MIX, H_MIX, c,
                                                             TSTABLE, 1.0))
        assert folds == 0


class TestGroups:
    def test_runs_must_be_equal(self):
        batch = simulate(WIN, ATOMS, 3, rows=3)
        path = it.build_path(None, K_Z, None, batch, ATOMS, split=0.0)
        with pytest.raises(ValueError, match="equal runs"):
            ito.ito_rhs_raw(FNS[:2], None, K_Z, batch, ATOMS, 1.0)
        with pytest.raises(ValueError, match="equal runs"):
            ito.ito_lhs(FNS[:2], path, 1.0)

    def test_group_reads_each_run_with_its_f(self):
        # rows in f order, each run the bytes of its f alone on those rows
        batch = simulate(WIN, TSTABLE, 5, rows=6)
        path = it.build_path(G_EXP, K_MIX, H_MIX, batch, TSTABLE, split=1.0)
        grouped = ito.ito_rhs_big_small(FNS, G_EXP, K_MIX, H_MIX, batch, TSTABLE, 1.0, path=path)
        lhs = ito.ito_lhs(FNS, path, 1.0)
        for i, fn in enumerate(FNS):
            alone = ito.ito_rhs_big_small(fn, G_EXP, K_MIX, H_MIX, batch, TSTABLE, 1.0, path=path)
            rows = slice(2 * i, 2 * i + 2)
            assert lhs[rows].tobytes() == ito.ito_lhs(fn, path, 1.0)[rows].tobytes()
            for got, want in zip(dataclasses.astuple(grouped), dataclasses.astuple(alone)):
                assert got[rows].tobytes() == want[rows].tobytes()


class TestPinnedOutputs:
    @pytest.mark.parametrize("name", ["ito-lemma", "ito1", "ito2"])
    def test_small_run_bytes(self, name, tmp_path):
        # the sizes of CI's *-small runs (paths 2, and agreement_paths 2 for
        # ito1), every output file against its digest in ito_digests.json
        raw = json.loads(bundled_config_text(name))
        raw["params"].update(paths=2, **({"agreement_paths": 2} if name == "ito1" else {}))
        out = write_artifacts(run_experiment(parse_config(raw)), str(tmp_path))
        pinned = json.loads((Path(__file__).parent / "ito_digests.json").read_text())[name]
        assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in out.iterdir()} == pinned
