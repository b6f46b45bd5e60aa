import cmath
import collections
import functools
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from levynoise import apps
from levynoise import integrands as ig
from levynoise import integrate as it
from levynoise import mc
from levynoise.cli import bundled_config_text
from levynoise.experiments import parse_config, run_experiment
from levynoise.measure import DiscreteAtoms, Shell, TemperedStable, TruncatedStable
from levynoise.prm import PointBatch, Window, replicate_seed, simulate
import oracles
from oracles import (moment_bound_cell_per_path, path_breaks, replicate,
                     representation_residual_one)

ATOMS = DiscreteAtoms(((0.6, 1.0), (-1.1, 0.7), (1.7, 0.4)))
TSTABLE = TruncatedStable(alpha=1.0, c=1.0, r=1.5)
WIN = Window(1.0, ((-0.5, 0.5),), Shell(0.3, 2.0))
X_SMOOTH = ig.term(time=ig.Exp(-0.5), space=ig.Poly((1.0, 0.4)))
H_CONST = ig.ONE * 0.9


class TestMomentBound:
    def test_zero_integrand_degenerate(self):
        row = apps.moment_bound_cell(ig.ONE * 0.0, ATOMS, 2.0, 1.0, WIN,
                                     replicates=10, master_seed=1)
        assert row.lhs_mean == 0.0
        assert row.bracket == 0.0
        assert math.isnan(row.ratio)

    def test_lp_bracket_oracle(self):
        from scipy import integrate as si
        got = apps.lp_bracket(X_SMOOTH, WIN, 1.0, 3.0)
        f2, _ = si.dblquad(lambda x, s: (math.exp(-0.5 * s) * (1 + 0.4 * x)) ** 2,
                           0, 1, -0.5, 0.5, epsabs=1e-12)
        f3, _ = si.dblquad(lambda x, s: abs(math.exp(-0.5 * s) * (1 + 0.4 * x)) ** 3,
                           0, 1, -0.5, 0.5, epsabs=1e-12)
        assert got == pytest.approx(f2 ** 1.5 + f3, rel=1e-10)

    @pytest.mark.parametrize("m", [ATOMS, TSTABLE], ids=["atoms", "tstable"])
    def test_p2_isometry(self, m):
        row = apps.moment_bound_cell(X_SMOOTH, m, 2.0, 1.0, WIN,
                                     replicates=4000, master_seed=7)
        v_shell = m.shell_moment(WIN.shell, 2.0)
        target = v_shell * it.compensator(X_SMOOTH.squared(), WIN, m, 1.0) \
            / m.shell_mass(WIN.shell)
        assert abs(row.isometry_mean - target) <= 4 * row.isometry_se

    @pytest.mark.parametrize("m", [ATOMS, TSTABLE, TemperedStable(alpha=0.5, c=0.8, theta=1.5)],
                             ids=["atoms", "tstable", "tempered"])
    def test_equals_per_path_oracle(self, m):
        # the row-wise paths of each block give the floats of one path at a
        # time, and the same folds
        want = moment_bound_cell_per_path(X_SMOOTH, m, 3.0, 1.0, WIN, 30, 21)
        assert apps.moment_bound_cell(X_SMOOTH, m, 3.0, 1.0, WIN, 30, 21) == want

    def test_sup_monotone_in_t(self):
        config = simulate(WIN, ATOMS, 5)
        path = apps.noise_path(X_SMOOTH, config, ATOMS)
        sups = [path.sup_abs(t) for t in (0.25, 0.5, 0.75, 1.0)]
        assert all(a <= b + 1e-15 for a, b in zip(sups, sups[1:]))

    def test_infinite_moment_rejected(self):
        import levynoise.measure as me
        m = me.TemperedStable(alpha=0.5, c=1.0, theta=1.0)
        w = Window(1.0, ((-0.5, 0.5),), Shell(0.2, math.inf))
        # moments of every order are finite for the tempered family; the
        # guard trips only on p < 2
        with pytest.raises(ValueError):
            apps.moment_bound_cell(X_SMOOTH, m, 1.5, 1.0, w, 10, 0)


class TestExpMartingale:
    def test_h_zero_is_one(self):
        c = simulate(WIN, ATOMS, 3)
        psi = apps.psi_space_time_integral(ig.ONE * 0.0, WIN, ATOMS, 1.0)
        assert apps.exp_martingale(ig.ONE * 0.0, c, ATOMS, 1.0, psi) == 1.0 + 0.0j

    def test_psi_rule_matches_measure_psi(self):
        for m in (ATOMS, TSTABLE):
            us = np.array([-1.5, -0.3, 0.0, 0.7, 2.0])
            rule = oracles.psi_shell_rule(m, WIN.shell, us, n_per_side=64)
            exact = np.array([m.psi_shell(WIN.shell, u) for u in us])
            np.testing.assert_allclose(rule, exact, atol=1e-9)

    def test_mean_one(self):
        n = 4000
        psi_int = apps.psi_space_time_integral(H_CONST, WIN, ATOMS, 1.0)
        vals = np.empty(n, dtype=complex)
        for k in range(n):
            c = simulate(WIN, ATOMS, replicate_seed(800, k))
            vals[k] = apps.exp_martingale(H_CONST, c, ATOMS, 1.0, psi_int)[0]
        for comp in (vals.real - 1.0, vals.imag):
            se = comp.std(ddof=1) / math.sqrt(n)
            assert abs(comp.mean()) <= 4 * se

    def test_modulus_identity(self):
        psi_int = apps.psi_space_time_integral(X_SMOOTH, WIN, TSTABLE, 1.0)
        for seed in range(20):
            c = simulate(WIN, TSTABLE, replicate_seed(801, seed))
            assert apps.modulus_gap(X_SMOOTH, c, TSTABLE, 1.0, psi_int) <= 1e-10


class TestRepresentation:
    @pytest.mark.parametrize("m", [ATOMS, TSTABLE], ids=["atoms", "tstable"])
    def test_node_sums_match_shell_sums_oracle(self, m):
        # for a one-term h with jump factor 1, the one tensor_fold pass gives
        # the bytes of the two sums the representation took before it
        s, _ = it.interval_rule(np.linspace(0.0, 1.0, 6), 8)
        xpts, wx = it.box_rule(WIN.box, 16)
        z, zw = m.nu_nodes(WIN.shell, 48)
        factors = it.term_factors(X_SMOOTH.with_jump(ig.SignPow(1.0)), s, xpts, z)
        phase, psi = it.tensor_fold(apps._phase_and_psi, factors, wx, zw)
        want_psi, want_phase = oracles.shell_sums(oracles.space_time_grid(X_SMOOTH, s, xpts),
                                                  wx, z, zw, it.TENSOR_BLOCK)
        assert phase.tobytes() == want_phase.tobytes() and psi.tobytes() == want_psi.tobytes()

    def test_h_zero_residual_zero(self):
        c = simulate(WIN, ATOMS, 4)
        assert apps.representation_residual(ig.ONE * 0.0, c, ATOMS, 1.0) <= 1e-14

    def test_single_atom_constant_h_recursion_oracle(self):
        z0, wgt, cc = 0.8, 1.2, 0.9
        m = DiscreteAtoms(((z0, wgt),))
        win = Window(1.0, ((-0.5, 0.5),), Shell(0.5, 1.0))
        h = ig.ONE * cc
        vol = 1.0  # |B|
        psi_atom = wgt * (cmath.exp(1j * cc * z0) - 1 - 1j * cc * z0)
        kappa = -1j * vol * cc * wgt * z0 - vol * psi_atom  # continuous log-slope
        jump_factor = cmath.exp(1j * cc * z0)
        for seed in range(10):
            c = simulate(win, m, replicate_seed(802, seed))
            # oracle: piecewise closed-form recursion between jumps
            mval, rhs, prev = 1.0 + 0.0j, 1.0 + 0.0j, 0.0
            for tj in c.t:
                seg = tj - prev
                rhs -= vol * (jump_factor - 1) * wgt * mval \
                    * (cmath.exp(kappa * seg) - 1) / kappa
                mval *= cmath.exp(kappa * seg)   # continuous evolution to tj-
                rhs += (jump_factor - 1) * mval  # jump term uses the left limit
                mval *= jump_factor
                prev = tj
            seg = 1.0 - prev
            rhs -= vol * (jump_factor - 1) * wgt * mval \
                * (cmath.exp(kappa * seg) - 1) / kappa
            mval *= cmath.exp(kappa * seg)
            got = apps.exp_martingale(h, c, m, 1.0,
                                      apps.psi_space_time_integral(h, c.window, m, 1.0))
            assert got == pytest.approx(mval, abs=1e-10)
            assert abs(got - rhs) <= 1e-10
            assert apps.representation_residual(h, c, m, 1.0) <= 1e-10

    @pytest.mark.parametrize("m", [ATOMS, TSTABLE], ids=["atoms", "tstable"])
    def test_random_paths_residual(self, m):
        for seed in range(30):
            c = simulate(WIN, m, replicate_seed(803, seed))
            assert apps.representation_residual(X_SMOOTH, c, m, 1.0) <= 1e-6

    @pytest.mark.parametrize("win", [WIN, Window(0.7, ((-0.5, 0.5), (0.0, 1.5)), Shell(0.3, 2.0))],
                             ids=["d1", "d2"])
    @pytest.mark.parametrize("m", [ATOMS, TSTABLE, TemperedStable(alpha=0.5, c=0.8, theta=1.5)],
                             ids=["atoms", "tstable", "tempered"])
    def test_batch_matches_per_config_oracle(self, m, win, monkeypatch):
        # each replicate of a block gets the floats it gets alone, with the
        # tensors built one time node at a time as well; against the
        # per-configuration form only the summation order differs
        batch = simulate(win, m, 809, rows=12)
        T = win.horizon
        psi = apps.psi_space_time_integral(X_SMOOTH, win, m, T)
        resid = apps.representation_residual(X_SMOOTH, batch, m, T)
        gaps = apps.modulus_gap(X_SMOOTH, batch, m, T, psi)
        for k in range(len(batch)):
            c = replicate(batch, k)
            assert resid[k] == apps.representation_residual(X_SMOOTH, c, m, T)[0]
            assert abs(resid[k] - representation_residual_one(X_SMOOTH, c, m, T)) <= 1e-13
            m_k = complex(apps.exp_martingale(X_SMOOTH, c, m, T, psi)[0])
            assert gaps[k] == abs(abs(m_k) - math.exp(-psi.real))
        monkeypatch.setattr(it, "TENSOR_BLOCK", 1)
        assert np.array_equal(apps.representation_residual(X_SMOOTH, batch, m, T), resid)



class TestConstantJumpFactor:
    """A constant jump factor c scales X(s, x) in every space-time quantity
    exactly as the same c in the time factor does."""

    X2 = ig.term(time=ig.Cos(1.0), jump=ig.Const(2.0))
    X2_TIME = ig.term(time=ig.Cos(1.0)) * 2.0

    def test_norm_and_psi_integral(self):
        assert apps.space_time_norm_sq(self.X2, WIN, 1.0) == pytest.approx(
            apps.space_time_norm_sq(self.X2_TIME, WIN, 1.0), rel=1e-14)
        assert apps.psi_space_time_integral(self.X2, WIN, ATOMS, 1.0) == pytest.approx(
            apps.psi_space_time_integral(self.X2_TIME, WIN, ATOMS, 1.0), rel=1e-14)

    def test_representation_residual(self):
        for seed in range(10):
            c = simulate(WIN, ATOMS, replicate_seed(804, seed))
            assert apps.representation_residual(self.X2, c, ATOMS, 1.0) <= 1e-6

    def test_p2_isometry_target(self):
        row = apps.moment_bound_cell(self.X2, ATOMS, 2.0, 1.0, WIN,
                                     replicates=2000, master_seed=8)
        target = ATOMS.shell_moment(WIN.shell, 2.0) \
            * apps.space_time_norm_sq(self.X2, WIN, 1.0)
        assert abs(row.isometry_mean - target) <= 4 * row.isometry_se

    def test_jump_dependent_factor_rejected(self):
        X = ig.term(jump=ig.SignPow(1.0))
        for quantity in (lambda: apps.space_time_norm_sq(X, WIN, 1.0),
                         lambda: apps.lp_bracket(X, WIN, 1.0, 3.0),
                         lambda: apps.psi_space_time_integral(X, WIN, ATOMS, 1.0)):
            with pytest.raises(ValueError, match="non-constant jump factor"):
                quantity()


class TestSpaceTimeFold:
    """The space-time quantities folded by integrate.tensor_fold against the
    whole-grid forms they replaced: only the summation order differs."""

    CASES = [
        (X_SMOOTH, WIN),
        (ig.term(time=ig.Indicator(0.2, 0.7), space=ig.Poly((1.0, -0.3))) * 1.3
         + ig.term(time=ig.Cos(2.0), jump=ig.Const(0.5)), WIN),
        (ig.term(time=ig.Exp(-0.5), space=(ig.Poly((1.0, 0.4)), ig.Cos(1.0))),
         Window(0.7, ((-0.5, 0.5), (0.0, 1.5)), Shell(0.3, 2.0))),
    ]

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_matches_whole_grid_oracle(self, case):
        X, win = self.CASES[case]
        T = win.horizon
        assert apps.space_time_norm_sq(X, win, T) == pytest.approx(
            oracles.space_time_norm_sq(X, win, T), rel=1e-14)
        assert apps.lp_bracket(X, win, T, 3.0) == pytest.approx(
            oracles.lp_bracket(X, win, T, 3.0), rel=1e-14)
        for m in (ATOMS, TSTABLE, TemperedStable(alpha=0.5, c=0.8, theta=1.5)):
            got = apps.psi_space_time_integral(X, win, m, T)
            want = oracles.psi_space_time_integral(X, win, m, T)
            assert abs(got - want) <= 1e-14 * abs(want)

    def test_empty_jump_rule(self):
        # a shell that holds no atom: the compensated exponent integrates to 0
        win = Window(1.0, ((-0.5, 0.5),), Shell(2.0, 3.0))
        assert apps.psi_space_time_integral(X_SMOOTH, win, ATOMS, 1.0) == 0.0

    def test_no_terms_is_zero(self):
        X = ig.Integrand(())
        assert apps.space_time_norm_sq(X, WIN, 1.0) == 0.0
        assert apps.psi_space_time_integral(X, WIN, ATOMS, 1.0) == 0.0
        c = simulate(WIN, ATOMS, replicate_seed(805, 0))
        assert apps.representation_residual(X, c, ATOMS, 1.0)[0] <= 1e-14


def box_slot(t0, t1, x0, x1, zlo, zhi):
    return ig.term(time=ig.Indicator(t0, t1), space=ig.Indicator(x0, x1),
                   jump=ig.AbsIndicator(zlo, zhi))


SLOT_A = box_slot(0.0, 0.5, -0.5, 0.0, 0.3, 1.0)
SLOT_B = box_slot(0.5, 1.0, 0.0, 0.5, 1.0, 2.0)
SLOT_C = box_slot(0.0, 1.0, -0.5, 0.5, 2.0, 3.0)


class TestMultipleIntegral:
    def test_order_one_is_compensated_integral(self):
        f = apps.ChaosFunction((SLOT_A,))
        for seed in range(10):
            c = simulate(WIN, ATOMS, seed)
            got = apps.multiple_integral(f, c, ATOMS)
            want = it.int_Nhat(SLOT_A, c, ATOMS, 1.0)
            assert got == pytest.approx(want, abs=1e-11)

    def test_disjoint_product_identity(self):
        f = apps.ChaosFunction((SLOT_A, SLOT_B))
        for seed in range(25):
            c = simulate(WIN, ATOMS, replicate_seed(804, seed))
            got = apps.multiple_integral(f, c, ATOMS)
            want = it.int_Nhat(SLOT_A, c, ATOMS, 1.0) * it.int_Nhat(SLOT_B, c, ATOMS, 1.0)
            assert got == pytest.approx(want, abs=1e-10)

    def test_order_three_product_identity(self):
        win = Window(1.0, ((-0.5, 0.5),), Shell(0.3, 3.0))
        m = DiscreteAtoms(((0.6, 1.0), (-1.1, 0.7), (2.5, 0.8)))
        f = apps.ChaosFunction((SLOT_A, SLOT_B, SLOT_C))
        for seed in range(10):
            c = simulate(win, m, replicate_seed(805, seed))
            got = apps.multiple_integral(f, c, m)
            want = (it.int_Nhat(SLOT_A, c, m, 1.0)
                    * it.int_Nhat(SLOT_B, c, m, 1.0)
                    * it.int_Nhat(SLOT_C, c, m, 1.0))
            assert got == pytest.approx(want, abs=1e-9)

    def test_empty_configuration_collapses(self):
        # a configuration on the working window that happens to hold no points
        empty = simulate(WIN, DiscreteAtoms(((3.0, 1e-12),)), 0)
        assert len(empty.t) == 0
        f1 = apps.ChaosFunction((SLOT_A,))
        got1 = apps.multiple_integral(f1, empty, ATOMS)
        mu_a = it.compensator(SLOT_A, WIN, ATOMS, 1.0)
        assert got1 == pytest.approx(-mu_a, rel=1e-12)
        f2 = apps.ChaosFunction((SLOT_A, SLOT_B))
        got2 = apps.multiple_integral(f2, empty, ATOMS)
        mu_b = it.compensator(SLOT_B, WIN, ATOMS, 1.0)
        assert got2 == pytest.approx(mu_a * mu_b, rel=1e-10)

    def test_overlap_rejected(self):
        apps.check_disjoint(apps.ChaosFunction((SLOT_A, SLOT_B, SLOT_C)), WIN, ATOMS, 1.0)
        with pytest.raises(apps.OverlapError):
            apps.check_disjoint(apps.ChaosFunction((SLOT_A, SLOT_A)), WIN, ATOMS, 1.0)

    def test_norm_closed_form(self):
        f = apps.ChaosFunction((SLOT_A, SLOT_B))
        got = apps.chaos_norm_sq(f, WIN, ATOMS, 1.0)
        mu_a = it.compensator(SLOT_A, WIN, ATOMS, 1.0)
        mu_b = it.compensator(SLOT_B, WIN, ATOMS, 1.0)
        assert got == pytest.approx(0.5 * mu_a * mu_b, rel=1e-12)

    def test_second_chaos_expansion_exact(self):
        for seed in range(20):
            c = simulate(WIN, ATOMS, replicate_seed(806, seed))
            res = apps.second_chaos_expansion_residual(SLOT_A, c, ATOMS)
            assert abs(res) <= 1e-10


class TestChaosMoments:
    def test_isometry_and_orthogonality(self):
        n = 1500
        f2 = apps.ChaosFunction((SLOT_A, SLOT_B))
        f1 = apps.ChaosFunction((SLOT_C,))
        win = Window(1.0, ((-0.5, 0.5),), Shell(0.3, 3.0))
        m = DiscreteAtoms(((0.6, 1.0), (-1.1, 0.7), (2.5, 0.8)))
        i1 = np.empty(n)
        i2 = np.empty(n)
        for k in range(n):
            c = simulate(win, m, replicate_seed(807, k))
            i1[k] = it.int_Nhat(SLOT_C, c, m, 1.0)[0]
            i2[k] = (it.int_Nhat(SLOT_A, c, m, 1.0)
                     * it.int_Nhat(SLOT_B, c, m, 1.0))[0]
        # E I1 = 0
        se = i1.std(ddof=1) / math.sqrt(n)
        assert abs(i1.mean()) <= 4 * se
        # E I2^2 = 2 ||f2||^2
        target = 2.0 * apps.chaos_norm_sq(f2, win, m, 1.0)
        sq = i2 ** 2
        se2 = math.sqrt(apps.second_order_square_variance(f2, win, m, 1.0) / n)
        assert abs(sq.mean() - target) <= 4 * se2
        # E I1 I2 = 0
        cross = i1 * i2
        se3 = cross.std(ddof=1) / math.sqrt(n)
        assert abs(cross.mean()) <= 4 * se3


class TestChaosCalibration:
    """chaos's second_order_isometry verdict, judged by the exact standard
    error of I2^2 = (N~(A) N~(B))^2, keeps a small false-alarm rate over
    many master seeds and still fails a target moved by 5 standard errors.
    At 400 replicates the sample standard error fails about 6 % of the
    seeds, since it collapses whenever a run misses the rare large I2^2."""

    SEEDS, N = 500, 400

    @pytest.fixture(scope="class")
    def runs(self):
        cfg = parse_config(json.loads(bundled_config_text("chaos")))
        w, m, T = cfg.window, cfg.measure(), cfg.window.horizon
        a, b = cfg.params["slot_a"], cfg.params["slot_b"]
        f2 = apps.ChaosFunction((a, b))

        def stat(batch):
            return ((it.int_Nhat(a, batch, m, T) * it.int_Nhat(b, batch, m, T)) ** 2,)

        sq = np.array([mc.replicate_values(stat, w, m, self.N, seed)[0]
                       for seed in range(self.SEEDS)])
        exact_se = math.sqrt(apps.second_order_square_variance(f2, w, m, T) / self.N)
        return sq, 2.0 * apps.chaos_norm_sq(f2, w, m, T), exact_se

    def fail_fraction(self, sq, target, se):
        return float(np.mean([not mc.verdict(float(v.mean()), s, target).passed
                              for v, s in zip(sq, np.broadcast_to(se, len(sq)))]))

    def test_shipped_slots_variance(self):
        cfg = parse_config(json.loads(bundled_config_text("chaos")))
        f2 = apps.ChaosFunction((cfg.params["slot_a"], cfg.params["slot_b"]))
        a, b = 0.25, 0.175  # the slots' compensators
        want = (a + 3 * a * a) * (b + 3 * b * b) - a * a * b * b
        assert apps.second_order_square_variance(f2, cfg.window, cfg.measure(),
                                                 1.0) == pytest.approx(want, rel=1e-14)

    def test_null_false_alarm_rate(self, runs):
        sq, target, exact_se = runs
        assert np.mean(sq) == pytest.approx(target, rel=0.05)
        assert self.fail_fraction(sq, target, exact_se) <= 0.02
        sample_se = sq.std(axis=1, ddof=1) / math.sqrt(self.N)
        assert self.fail_fraction(sq, target, sample_se) > 0.02

    @pytest.mark.parametrize("shift", [5.0, -5.0])
    def test_planted_bias_fails(self, runs, shift):
        sq, target, exact_se = runs
        assert self.fail_fraction(sq, target + shift * exact_se, exact_se) >= 0.75


class TestKunitaCalibration:
    """kunita's p2_isometry verdict, judged by the exact standard error of
    X(T)^2, keeps a small false-alarm rate over many master seeds in every
    cell of the bundled sweep and still fails a target moved by 5 standard
    errors.  At 40 replicates the sample standard error fails more seeds in
    every cell (3 to 22 of 500), since it shrinks with the mean when a run
    misses the large values of X(T)^2."""

    SEEDS, N = 500, 40
    CELLS = [(mk, xn) for mk in ("atoms", "tempered", "tstable") for xn in ("X1", "X2", "X3")]

    @pytest.fixture(scope="class")
    def cfg(self):
        return parse_config(json.loads(bundled_config_text("kunita")))

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def runs(mk, xn):
        # one sweep per cell, shared by the null and the planted-bias cases
        cfg = parse_config(json.loads(bundled_config_text("kunita")))
        w, m, T = cfg.window, cfg.measures[mk], cfg.window.horizon
        X = dict(cfg.params["x_names"])[xn]
        n = TestKunitaCalibration.N

        def stat(batch):
            return (apps.noise_path(X, batch, m).eval(T) ** 2,)

        sq = np.array([mc.replicate_values(stat, w, m, n, seed)[0]
                       for seed in range(TestKunitaCalibration.SEEDS)])
        target = m.shell_moment(w.shell, 2.0) * apps.space_time_norm_sq(X, w, T)
        g = X.with_jump(ig.SignPow(1.0))
        return sq, target, math.sqrt(apps.noise_square_variance(g, w, m, T) / n)

    def fails(self, sq, target, se):
        return sum(not mc.verdict(float(v.mean()), s, target).passed
                   for v, s in zip(sq, np.broadcast_to(se, len(sq))))

    def test_constant_integrand_variance(self, cfg):
        # X2 = 0.8 on the atoms: k_p = 0.8^p sum_i w_i z_i^p on a unit box and horizon
        atoms = [(0.6, 1.0), (-1.1, 0.7), (1.7, 0.4)]
        k2, k4 = (0.8 ** p * sum(wt * z ** p for z, wt in atoms) for p in (2, 4))
        X2 = dict(cfg.params["x_names"])["X2"]
        assert apps.noise_square_variance(X2.with_jump(ig.SignPow(1.0)), cfg.window,
                                          cfg.measures["atoms"],
                                          1.0) == pytest.approx(k4 + 2 * k2 * k2, rel=1e-14)

    @pytest.mark.parametrize("mk, xn", CELLS)
    def test_null_false_alarm_rate(self, mk, xn):
        sq, target, exact_se = self.runs(mk, xn)
        exact = self.fails(sq, target, exact_se)
        assert exact <= 0.01 * self.SEEDS
        assert self.fails(sq, target, sq.std(axis=1, ddof=1) / math.sqrt(self.N)) > exact

    @pytest.mark.parametrize("mk, xn", [("atoms", "X3"), ("tstable", "X3")])
    @pytest.mark.parametrize("shift", [5.0, -5.0])
    def test_planted_bias_fails(self, mk, xn, shift):
        sq, target, exact_se = self.runs(mk, xn)
        assert self.fails(sq, target + shift * exact_se, exact_se) >= 0.75 * self.SEEDS


class TestVerdictCalibration:
    """isometry's, charfn's and martingale's verdicts, run through
    run_experiment over many master seeds at cut-down replicate counts:
    each verdict kind fails at most once.  isometry's second_moment, judged
    by the exact standard error of N~(H)^2, still fails a target moved by 5
    standard errors.  With the sample standard error, second_moment failed
    2 of the 1,800 verdicts of this isometry sweep (|z| up to 5.8)."""

    SWEEPS = {"isometry": (600, 300), "charfn": (1200, 200), "martingale": (1200, 200)}

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def sweep(name):
        reps, seeds = TestVerdictCalibration.SWEEPS[name]
        raw = json.loads(bundled_config_text(name))
        raw["replicates"] = reps
        if name == "martingale":
            raw["params"]["representation_paths"] = 1  # a pathwise, not a Monte Carlo, verdict
        rows = []
        for seed in range(1000, 1000 + seeds):
            raw["seed"] = seed
            rows += run_experiment(parse_config(raw)).verdicts
        return rows

    @pytest.mark.parametrize("name", sorted(SWEEPS))
    def test_null_false_alarm_rate(self, name):
        kinds = collections.Counter(v.name.split("[")[0] for v in self.sweep(name))
        fails = collections.Counter(v.name.split("[")[0] for v in self.sweep(name)
                                    if not v.passed)
        assert min(kinds.values()) >= self.SWEEPS[name][1]
        assert max(fails.values(), default=0) <= 1, fails

    @pytest.mark.parametrize("shift", [5.0, -5.0])
    def test_planted_bias_fails(self, shift):
        cells = collections.defaultdict(list)
        for v in self.sweep("isometry"):
            if v.name.startswith("second_moment["):
                moved = v.target + shift * v.se
                cells[v.name].append(not mc.verdict(v.estimate, v.se, moved).passed)
        assert len(cells) == 6
        for name, failed in cells.items():
            assert np.mean(failed) >= 0.75, name


# ---------------------------------------------------------------------------
# the per-path multiple integral that the batched one replaced


def one_path_cumulative(breaks, n_per_interval, values):
    """cumulative_on_grid as it was for one path: one product per rule."""
    _, w = ig.gl_rule(n_per_interval)
    S = ig.spectral_integration_matrix(n_per_interval)
    scale = 0.5 * np.diff(breaks)
    vals = np.asarray(values).reshape(len(scale), n_per_interval)
    cum_breaks = np.concatenate([[0.0], np.cumsum((vals @ w) * scale)])
    return (cum_breaks[:-1, None] + (vals @ S.T) * scale[:, None]).ravel(), cum_breaks


def per_path_iterated(slots, config, measure, T, n_time=8):
    """The iterated simplex integral of one configuration, path by path."""
    extra = [v for g in slots for v in g.time_breakpoints()]
    breaks = path_breaks(config, T, extra)
    s, _ = it.interval_rule(breaks, n_time)
    mask = config.t <= T
    tj = config.t[mask]
    node_jumps = np.searchsorted(tj, s, side="left")
    jump_break_idx = np.searchsorted(breaks, tj)
    projs = [it.project_time(g, config.window, measure) for g in slots]

    def values(g):
        return (np.asarray(g(tj, config.x[mask], config.z[mask]), dtype=float)
                if mask.any() else np.empty(0))

    csum = np.concatenate([[0.0], np.cumsum(values(slots[0]))])
    C_breaks = it.time_cumulative(projs[0], breaks)
    P_nodes = csum[node_jumps] - it.time_cumulative(projs[0], s)
    P_left = csum[:len(tj)] - C_breaks[jump_break_idx]
    P_end = csum[-1] - C_breaks[-1]
    for k in range(1, len(slots)):
        ck = np.asarray(projs[k](s, 0.0, 0.0), dtype=float) + np.zeros(len(s))
        D_nodes, D_breaks = one_path_cumulative(breaks, n_time, P_nodes * ck)
        inc = np.concatenate([[0.0], np.cumsum(P_left * values(slots[k]))])
        P_nodes = inc[node_jumps] - D_nodes
        P_left = inc[:len(tj)] - D_breaks[jump_break_idx]
        P_end = inc[-1] - D_breaks[-1]
    return float(P_end)


def per_path_multiple_integral(f, config, measure, T):
    total = 0.0
    for perm in itertools.permutations(f.factors):
        total += per_path_iterated(perm, config, measure, T)
    return total


def per_path_expansion_residual(A, config, measure, T):
    nhat = it.int_Nhat(A, config, measure, T)[0]
    i2 = per_path_multiple_integral(apps.ChaosFunction((A, A)), config, measure, T)
    return nhat * nhat - it.compensator(A, config.window, measure, T) - nhat - i2


SMOOTH_A = ig.term(time=ig.Exp(-0.5), space=ig.Poly((1.0, 0.4)), jump=ig.AbsIndicator(0.3, 1.0))
SMOOTH_B = ig.term(time=ig.Poly((0.2, 1.0)), jump=ig.AbsIndicator(1.0, 2.0)) * 1.3
# replicates of up to 5 points on a coarse grid: tied times, times on the
# slot breakpoint 0.5 and at 0 and 1, and jumps on the slot boundary |z| = 1
POINT = st.tuples(st.integers(0, 8).map(lambda k: k / 8.0),
                  st.sampled_from([-0.375, -0.125, 0.0, 0.125, 0.375]),
                  st.sampled_from([0.6, -1.1, 1.7, 0.4, -0.9, 1.0, -1.0]))
BATCH = st.lists(st.lists(POINT, max_size=5).map(sorted), min_size=1, max_size=5)


def point_batch(replicates):
    pts = [p for rep in replicates for p in rep]
    t, x, z = (np.array([p[i] for p in pts], dtype=float) for i in range(3))
    offsets = np.cumsum([0] + [len(rep) for rep in replicates])
    return PointBatch(t, x.reshape(-1, 1), z, offsets, WIN, (0, 0))


class TestBatchedChaos:
    @given(BATCH, st.sampled_from([1.0, 0.75, 0.5, 0.3]))
    @settings(max_examples=150, deadline=None)
    def test_batch_equals_each_configuration_alone(self, replicates, T):
        batch = point_batch(replicates)
        fs = [apps.ChaosFunction((SLOT_A,)), apps.ChaosFunction((SMOOTH_B,)),
              apps.ChaosFunction((SLOT_A, SLOT_B)), apps.ChaosFunction((SMOOTH_A, SMOOTH_B))]
        for f in fs:
            got = apps.multiple_integral(f, batch, ATOMS, T)
            assert got.shape == (len(batch),)
            for k in range(len(batch)):
                c = replicate(batch, k)
                alone, = apps.multiple_integral(f, c, ATOMS, T)
                assert got[k] == alone == per_path_multiple_integral(f, c, ATOMS, T)
        got = apps.second_chaos_expansion_residual(SLOT_A, batch, ATOMS, T)
        for k in range(len(batch)):
            c = replicate(batch, k)
            alone, = apps.second_chaos_expansion_residual(SLOT_A, c, ATOMS, T)
            assert got[k] == alone == per_path_expansion_residual(SLOT_A, c, ATOMS, T)

    def test_simulated_blocks_match_per_path_code(self):
        # the bundled chaos measure and slots, in blocks of 40 replicates
        win = Window(1.0, ((-0.5, 0.5),), Shell(0.3, 3.0))
        m = DiscreteAtoms(((0.6, 1.0), (-1.1, 0.7), (2.5, 0.8)))
        f2, f3 = apps.ChaosFunction((SLOT_A, SLOT_B)), apps.ChaosFunction((SLOT_A, SLOT_B, SLOT_C))
        batch = simulate(win, m, 808, rows=40)
        for f in (f2, f3):
            got = apps.multiple_integral(f, batch, m)
            want = [per_path_multiple_integral(f, replicate(batch, k), m, 1.0) for k in range(40)]
            assert got.tolist() == want
        got = apps.second_chaos_expansion_residual(SLOT_A, batch, m)
        assert got.tolist() == [per_path_expansion_residual(SLOT_A, replicate(batch, k), m, 1.0)
                                for k in range(40)]


def cumulative_reference(breaks, n_per_interval, values):
    """Oracle for cumulative_on_grid: per interval, a least-squares Legendre
    fit of the values, integrated and evaluated at the nodes and the end."""
    tt, _ = ig.gl_rule(n_per_interval)
    n_int = len(breaks) - 1
    vals = np.asarray(values).reshape(n_int, n_per_interval)
    cum_nodes = np.empty_like(vals)
    cum_breaks = np.zeros(len(breaks), dtype=vals.dtype)
    total = vals.dtype.type(0)
    for i in range(n_int):
        a, b = breaks[i], breaks[i + 1]
        scale = 0.5 * (b - a)
        coef = np.polynomial.legendre.legfit(tt, vals[i], n_per_interval - 1)
        icoef = np.polynomial.legendre.legint(coef, lbnd=-1.0)
        cum_nodes[i] = total + scale * np.polynomial.legendre.legval(tt, icoef)
        total = total + scale * np.polynomial.legendre.legval(1.0, icoef)
        cum_breaks[i + 1] = total
    return cum_nodes.ravel(), cum_breaks


WIDTHS = st.lists(st.floats(1e-3, 2.0), min_size=1, max_size=20)


class TestSpectralCumulative:
    @given(st.integers(2, 24), st.floats(-5.0, 5.0), WIDTHS,
           st.integers(0, 2 ** 32 - 1), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_matches_legfit_reference(self, n, start, widths, seed, is_complex):
        breaks = start + np.concatenate([[0.0], np.cumsum(widths)])
        rng = np.random.default_rng(seed)
        vals = rng.normal(size=len(widths) * n)
        if is_complex:
            vals = vals + 1j * rng.normal(size=vals.shape)
        got = apps.cumulative_on_grid(breaks, n, vals)
        want = cumulative_reference(breaks, n, vals)
        # relative to the rule's integral of |values|, which bounds every
        # cumulative up to the interpolant's Lebesgue constant
        _, w = ig.gl_rule(n)
        scale = float(np.sum(0.5 * np.diff(breaks) * (np.abs(vals).reshape(-1, n) @ w)))
        for g, r in zip(got, want):
            assert g.dtype == r.dtype and g.shape == r.shape
            assert np.max(np.abs(g - r)) <= 1e-13 * scale

    @given(st.integers(2, 24), WIDTHS, st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_polynomials_integrate_exactly(self, n, widths, seed):
        breaks = np.concatenate([[0.0], np.cumsum(widths)])
        coef = np.random.default_rng(seed).normal(size=n)  # degree n - 1
        p = np.polynomial.Legendre(coef, domain=[0.0, breaks[-1]])
        P = p.integ(lbnd=0.0)
        s, _ = it.interval_rule(breaks, n)
        at_nodes, at_breaks = apps.cumulative_on_grid(breaks, n, p(s))
        tol = 1e-13 * np.sum(np.abs(coef)) * breaks[-1]
        assert np.max(np.abs(at_nodes - P(s))) <= tol
        assert np.max(np.abs(at_breaks - P(breaks))) <= tol

    @given(st.integers(2, 16), st.lists(WIDTHS, min_size=1, max_size=6),
           st.integers(0, 2 ** 32 - 1), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_paths_in_one_call_match_each_alone(self, n, paths, seed, is_complex):
        # each path's breaks run up from 0, so the breaks step back between
        # paths; the values of those steps are not read
        rng = np.random.default_rng(seed)
        vals = [rng.normal(size=len(widths) * n) for widths in paths]
        if is_complex:
            vals = [v + 1j * rng.normal(size=v.shape) for v in vals]
        breaks = [np.concatenate([[0.0], np.cumsum(widths)]) for widths in paths]
        step = [rng.normal(size=n)] * (len(paths) - 1)
        joined = [v for pair in itertools.zip_longest(vals, step) for v in pair if v is not None]
        nodes, at_breaks = apps.cumulative_on_grid(np.concatenate(breaks), n,
                                                   np.concatenate(joined))
        a = 0
        for b, v in zip(breaks, vals):
            alone = apps.cumulative_on_grid(b, n, v)
            want = one_path_cumulative(b, n, v)
            got = (nodes[a * n:(a + len(b) - 1) * n], at_breaks[a:a + len(b)])
            for g, x, y in zip(got, alone, want):
                assert g.dtype == x.dtype == y.dtype
                assert g.tobytes() == x.tobytes() == y.tobytes()
            a += len(b)

    def test_matrix_cached_read_only(self):
        S = ig.spectral_integration_matrix(8)
        assert ig.spectral_integration_matrix(8) is S
        with pytest.raises(ValueError):
            S[0, 0] = 1.0


class TestSpectralMovesRoundingOnly:
    """The bundled chaos and martingale experiments, whose multiple integrals
    and representation residuals go through cumulative_on_grid, give the same
    verdicts and the same estimates to rounding with the legfit reference in
    its place."""

    @pytest.mark.parametrize("name,sizes,params", [
        ("chaos", {"replicates": 40}, {}),
        ("martingale", {"replicates": 200}, {"representation_paths": 5}),
    ], ids=["chaos", "martingale"])
    def test_verdicts_and_estimates_agree(self, name, sizes, params, monkeypatch):
        def verdicts():
            raw = json.loads(bundled_config_text(name))
            raw.update(sizes)
            raw["params"].update(params)
            return run_experiment(parse_config(raw)).verdicts

        calls = []

        def reference(*args):
            calls.append(1)
            return cumulative_reference(*args)

        spectral = verdicts()
        monkeypatch.setattr(apps, "cumulative_on_grid", reference)
        legfit = verdicts()
        assert calls
        assert [v.name for v in spectral] == [v.name for v in legfit]
        for a, b in zip(spectral, legfit):
            assert a.passed == b.passed, a.name
            assert abs(a.estimate - b.estimate) <= 1e-12 * max(1.0, abs(b.estimate)), a.name
