import cmath
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate as si

from levynoise import measure
from levynoise.measure import (
    FULL,
    MARK_CHUNK,
    DiscreteAtoms,
    InfiniteMassError,
    InfiniteMomentError,
    Shell,
    TemperedStable,
    TruncatedStable,
)
from oracles import nu_quad

ATOMS = DiscreteAtoms(((1.0, 0.5), (-2.0, 0.25)))
TSTABLE = TruncatedStable(alpha=1.0, c=1.0, r=1.0)
TEMPERED = TemperedStable(alpha=0.5, c=1.0, theta=2.0)

ALL = [ATOMS, TSTABLE, TEMPERED]


def quad_mass_oracle(m, shell):
    """Independent adaptive-quadrature mass for the density families."""
    lo, hi = shell.lo, min(shell.hi, m.support_hi)
    val, _ = si.quad(lambda t: 2 * m._density_abs(t), lo, hi, epsabs=1e-13, limit=400)
    return val


def quad_moment_oracle(m, shell, p):
    lo, hi = shell.lo, min(shell.hi, m.support_hi)
    if hi == math.inf:
        hi = lo + 80.0 / m.theta
    val, _ = si.quad(lambda t: 2 * t ** p * m._density_abs(t), lo, hi,
                     epsabs=1e-13, limit=400)
    return val


class TestShell:
    def test_validation(self):
        with pytest.raises(ValueError):
            Shell(1.0, 0.5)
        with pytest.raises(ValueError):
            Shell(-0.1, 1.0)

    def test_contains(self):
        s = Shell(0.5, 1.0)
        assert s.contains(0.75) and s.contains(-1.0)
        assert not s.contains(0.5) and not s.contains(1.5)

    def test_clip(self):
        s = Shell(0.2, 2.0)
        assert s.clip(0.5, 1.0) == Shell(0.5, 1.0)
        assert s.clip(3.0, 4.0) is None


class TestShellMass:
    def test_atom_counting(self):
        assert ATOMS.shell_mass(Shell(1.5, math.inf)) == 0.25

    def test_truncated_stable_closed_form(self):
        # antiderivative: 2c (lo^-a - hi^-a)/a
        got = TSTABLE.shell_mass(Shell(0.5, 1.0))
        assert got == pytest.approx(2.0, rel=1e-14)
        assert got == pytest.approx(quad_mass_oracle(TSTABLE, Shell(0.5, 1.0)), rel=1e-11)

    def test_above_support(self):
        assert TSTABLE.shell_mass(Shell(1.0, 5.0)) == 0.0
        assert ATOMS.shell_mass(Shell(2.0, 9.0)) == 0.0

    def test_tempered_vs_gamma_recursion(self):
        # Independent oracle via the incomplete-gamma recursion
        # Gamma(s, x) = (Gamma(s+1, x) - x^s e^-x)/s applied twice.
        from scipy.special import gammaincc, gamma as gfun, exp1

        m = TEMPERED
        a, b = 0.3, 4.0

        def upper_gamma(s, x):
            if s > 0:
                return gammaincc(s, x) * gfun(s)
            if s == 0:
                return exp1(x)
            return (upper_gamma(s + 1.0, x) - x ** s * math.exp(-x)) / s

        alpha, c, th = m.alpha, m.c, m.theta
        exact = 2 * c * th ** alpha * (upper_gamma(-alpha, th * a) - upper_gamma(-alpha, th * b))
        assert m.shell_mass(Shell(a, b)) == pytest.approx(exact, rel=1e-10)

    def test_infinite_mass_requests(self):
        for m in (TSTABLE, TEMPERED):
            with pytest.raises(InfiniteMassError):
                m.shell_mass(Shell(0.0, 1.0))

    def test_tempered_cached_per_shell(self):
        from levynoise import measure

        shell = Shell(0.37, 2.9)
        first = TEMPERED.shell_mass(shell)
        before = measure._density_rule.cache_info()
        again = TemperedStable(alpha=0.5, c=1.0, theta=2.0).shell_mass(shell)
        after = measure._density_rule.cache_info()
        assert again == first == pytest.approx(quad_mass_oracle(TEMPERED, shell), rel=1e-11)
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)

    @given(st.floats(0.01, 0.9), st.floats(0.0, 1.0), st.floats(0.0, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_shell_additivity(self, lo, fmid, fhi):
        hi = lo + 0.05 + fhi
        mid = lo + (hi - lo) * (0.01 + 0.98 * fmid)
        for m in ALL:
            whole = m.shell_mass(Shell(lo, hi))
            parts = m.shell_mass(Shell(lo, mid)) + m.shell_mass(Shell(mid, hi))
            assert whole == pytest.approx(parts, rel=1e-12, abs=1e-12)

    @given(st.floats(0.01, 1.0), st.floats(0.01, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_mass_monotone_in_lo(self, lo1, lo2):
        a, b = sorted([lo1, lo2])
        for m in ALL:
            assert m.shell_mass(Shell(a, 3.0)) >= m.shell_mass(Shell(b + 1e-12, 3.0))


class TestShellMoment:
    def test_atoms_p2(self):
        assert ATOMS.shell_moment(FULL, 2.0) == pytest.approx(1.5, rel=1e-15)

    def test_truncated_stable_full_p2(self):
        # z^2 against |z|^-2 on |z| <= 1 integrates to 2
        got = TSTABLE.shell_moment(FULL, 2.0)
        assert got == pytest.approx(2.0, rel=1e-14)
        assert got == pytest.approx(quad_moment_oracle(TSTABLE, Shell(1e-12, 1.0), 2.0), rel=1e-9)

    def test_symmetric_signed_is_zero(self):
        assert TSTABLE.shell_moment(Shell(0.2, 1.0), 3.0, signed=True) == 0.0
        assert TEMPERED.shell_moment(Shell(0.2, 5.0), 1.0, signed=True) == 0.0

    def test_atoms_signed(self):
        # sign(z)|z|^1: 0.5*1 - 0.25*2 = 0
        assert ATOMS.shell_moment(FULL, 1.0, signed=True) == pytest.approx(0.0, abs=1e-15)
        assert ATOMS.shell_moment(Shell(1.5, 3.0), 1.0, signed=True) == pytest.approx(-0.5)

    def test_divergent_moment(self):
        with pytest.raises(InfiniteMomentError):
            TSTABLE.shell_moment(FULL, 0.5)  # p < alpha at 0
        with pytest.raises(InfiniteMomentError):
            TemperedStable(1.5, 1.0, 1.0).shell_moment(FULL, 1.0)

    def test_tempered_vs_quadrature(self):
        got = TEMPERED.shell_moment(Shell(0.1, math.inf), 2.0)
        assert got == pytest.approx(quad_moment_oracle(TEMPERED, Shell(0.1, math.inf), 2.0), rel=1e-10)

    def test_variance_monotone_limit(self):
        # moment(shell, 2) increases to v as the shell fills out
        for m in ALL:
            v = m.shell_moment(FULL, 2.0)
            prev = -1.0
            for lo in (0.5, 0.1, 0.01, 1e-4):
                cur = m.shell_moment(Shell(lo, math.inf), 2.0)
                assert cur >= prev - 1e-14
                prev = cur
            assert prev <= v + 1e-12
            assert m.shell_moment(Shell(1e-8, math.inf), 2.0) == pytest.approx(v, rel=1e-6)


class TestSampler:
    def test_single_atom_shell(self):
        rng = np.random.default_rng(0)
        z = ATOMS.sample_shell(Shell(1.5, 3.0), rng, 50)
        assert np.all(z == -2.0)

    def test_truncated_stable_mean_abs(self):
        rng = np.random.default_rng(1)
        shell = Shell(0.5, 1.0)
        n = 10 ** 5
        z = TSTABLE.sample_shell(shell, rng, n)
        target = TSTABLE.shell_moment(shell, 1.0) / TSTABLE.shell_mass(shell)
        se = np.abs(z).std(ddof=1) / math.sqrt(n)
        assert abs(np.abs(z).mean() - target) <= 4 * se

    def test_symmetric_mean_zero(self):
        rng = np.random.default_rng(2)
        n = 10 ** 5
        for m, shell in ((TSTABLE, Shell(0.3, 1.0)), (TEMPERED, Shell(0.2, math.inf))):
            z = m.sample_shell(shell, rng, n)
            se = z.std(ddof=1) / math.sqrt(n)
            assert abs(z.mean()) <= 4 * se

    @pytest.mark.parametrize("m,shell", [
        (TSTABLE, Shell(0.4, 1.0)),
        (TEMPERED, Shell(0.3, 6.0)),
    ])
    def test_sampler_ks(self, m, shell):
        # CDF implied by shell_mass: for a symmetric measure,
        # F(v) = upper(|v|)/(2 mass) for v < 0 and 1 - upper(v)/(2 mass) for v >= 0,
        # where upper(a) = nu({z in shell : |z| > a}).
        from scipy.stats import kstest
        rng = np.random.default_rng(3)
        z = m.sample_shell(shell, rng, 10 ** 4)
        mass = m.shell_mass(shell)

        def upper(a):
            a = max(a, shell.lo)
            if a >= shell.hi:
                return 0.0
            return m.shell_mass(Shell(a, shell.hi))

        def cdf(x):
            return np.array([
                upper(-v) / (2 * mass) if v < 0 else 1.0 - upper(v) / (2 * mass)
                for v in np.atleast_1d(x)
            ])

        res = kstest(z, cdf)
        assert res.pvalue > 1e-3

    def test_rejection_budget_raises(self):
        # the envelope accepts about 2e-11 of its draws at theta = 1e11:
        # SAMPLE_ROUNDS rounds of 100 draws, then the error names them
        m, shell = TemperedStable(alpha=0.5, c=1.0, theta=1e11), Shell(0.3, 6.0)
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"Shell\(lo=0\.3, hi=6\.0\).*theta=1e\+11.*rate 0\)") as block:
            m.sample_shell(shell, np.random.default_rng(1), 100)
        assert time.perf_counter() - start < 1.0
        assert "accepted 0 of 100000 draws" in str(block.value)

    def test_truncated_stable_sign_is_the_product(self):
        # the in-place sign gives the floats of sign * magnitude, the
        # product it replaced, on 10^6 marks, and the marks own their memory
        shell, n = Shell(1.9e-6, 1.5e-5), 10 ** 6
        z = TSTABLE.sample_shell(shell, np.random.default_rng(5), n)
        u = np.random.default_rng(5).random((n, 2))
        mag = TSTABLE._power_law_abs(u[:, 0], *TSTABLE._bounds(shell))
        want = np.where(u[:, 1] < 0.5, -1.0, 1.0) * mag
        assert z.tobytes() == want.tobytes() and z.base is None
        assert 0 < np.count_nonzero(z < 0) < n

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("chunk", [7, MARK_CHUNK])
    def test_chunked_marks_are_one_draw(self, monkeypatch, chunk, alpha):
        # the marks drawn a chunk at a time are bit for bit those of one draw
        # of every (magnitude, sign) pair, and the stream ends where it did
        monkeypatch.setattr(measure, "MARK_CHUNK", chunk)
        m, shell = TruncatedStable(alpha=alpha, c=1.0, r=1.0), Shell(1e-3, 0.9)
        for n in (0, 1, chunk - 1, chunk, chunk + 1, 3 * chunk + 5):
            rng, one_rng = np.random.default_rng(n), np.random.default_rng(n)
            z = m.sample_shell(shell, rng, n)
            u = one_rng.random((n, 2))
            mag = m._power_law_abs(u[:, 0].copy(), *m._bounds(shell))
            want = np.copysign(mag, u[:, 1] - 0.5)
            assert z.shape == (n,)
            assert np.array_equal(z.view(np.uint64), want.view(np.uint64))
            assert rng.random() == one_rng.random()

    def test_deepest_ring_marks_memory(self):
        # the worked ladder's deepest ring draws 917,504 marks: 8 bytes each
        # and one chunk's buffer, no whole-ring temporaries
        n = 917_504
        tracemalloc.start()
        try:
            TSTABLE.sample_shell(Shell(1.9e-6, 1.5e-5), np.random.default_rng(6), n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 8 * n

    def test_zero_mass_shell_errors(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError):
            ATOMS.sample_shell(Shell(5.0, 9.0), rng, 1)
        with pytest.raises(ValueError):
            TSTABLE.sample_shell(Shell(2.0, 3.0), rng, 1)


class TestPsi:
    def test_u_zero(self):
        for m in ALL:
            assert m.psi_shell(FULL, 0.0) == 0.0

    def test_atoms_definition(self):
        u = 1.0
        expected = 0.5 * (cmath.exp(1j) - 1 - 1j) + 0.25 * (cmath.exp(-2j) - 1 + 2j)
        assert ATOMS.psi_shell(FULL, u) == pytest.approx(expected, rel=1e-14)

    def test_symmetric_real_and_taylor(self):
        for m in (TSTABLE, TEMPERED):
            v = m.shell_moment(FULL, 2.0)
            for u in (0.3, 1.7):
                val = m.psi_shell(FULL, u)
                assert val.imag == 0.0
                assert val.real <= 0.0
            # small-u Taylor: psi(u) = -u^2 v / 2 + o(u^2)
            u = 1e-3
            assert m.psi_shell(FULL, u).real == pytest.approx(-u * u * v / 2, rel=1e-4)

    @given(st.floats(-4.0, 4.0))
    @settings(max_examples=25, deadline=None)
    def test_conjugate_symmetry(self, u):
        for m in ALL:
            a, b = m.psi_shell(FULL, u), m.psi_shell(FULL, -u)
            assert a == pytest.approx(b.conjugate(), rel=1e-10, abs=1e-12)
            assert a.real <= 1e-12

    def test_psi_shell_additivity(self):
        for m in ALL:
            full = m.psi_shell(Shell(0.1, 2.0), 1.3)
            parts = m.psi_shell(Shell(0.1, 0.7), 1.3) + m.psi_shell(Shell(0.7, 2.0), 1.3)
            assert full == pytest.approx(parts, rel=1e-10, abs=1e-12)


class TestNuNodes:
    @pytest.mark.parametrize("m,shell", [
        (ATOMS, FULL),
        (TSTABLE, Shell(0.05, 1.0)),
        (TEMPERED, Shell(0.1, math.inf)),
    ])
    def test_rule_matches_moments(self, m, shell):
        z, w = m.nu_nodes(shell, n_per_side=48)
        for p in (0.0, 1.0, 2.0):
            rule = float(np.sum(w * np.abs(z) ** p))
            exact = m.shell_moment(shell, p) if p > 0 else m.shell_mass(shell)
            assert rule == pytest.approx(exact, rel=1e-9)

    def test_rule_matches_generic_integral(self):
        shell = Shell(0.2, 1.0)
        oracle = nu_quad(TSTABLE, lambda z: math.cos(3 * z) * z + 0.1 * z * z, shell)
        z, w = TSTABLE.nu_nodes(shell, n_per_side=48)
        rule = float(np.sum(w * (np.cos(3 * z) * z + 0.1 * z * z)))
        assert rule == pytest.approx(oracle, rel=1e-9)
        # nu_integral takes a function of a z array
        got = TSTABLE.nu_integral(lambda z: np.cos(3 * z) * z + 0.1 * z * z, shell)
        assert got == pytest.approx(oracle, rel=1e-12)


def quad_oracle(m, shell, phi):
    """2 x the integral of phi(t) times the one-sided density over the shell's
    |z| range by tight adaptive quadrature: split at 1, near 0 at 1e-3, and an
    infinite tempered shell cut where e^(-80) is left."""
    lo, hi = m._bounds(shell)
    if hi == math.inf:
        hi = lo + 80.0 / m.theta
    cuts = sorted({lo, hi} | {c for c in (1e-3, 1.0) if lo < c < hi and (c == 1.0 or lo == 0.0)})
    with warnings.catch_warnings():  # roundoff at this epsrel is expected
        warnings.simplefilter("ignore", si.IntegrationWarning)
        return 2 * sum(si.quad(lambda t: phi(t) * m._density_abs(t), a, b, epsabs=0.0,
                               epsrel=2e-14, limit=400)[0] for a, b in zip(cuts, cuts[1:]))


def cos_m1(u):
    # cos(ut) - 1 without the cancellation at small ut
    return lambda t: -2.0 * math.sin(0.5 * u * t) ** 2


class TestShellRule:
    """The shell mass, moments and psi of the density families, on the
    composite Gauss-Legendre rule, against scipy's adaptive quad."""

    @given(st.floats(0.1, 1.9), st.floats(0.2, 10.0), st.floats(0.01, 4.99),
           st.floats(1e-3, 1.0), st.floats(0.0, 4.0), st.floats(-10.0, 10.0))
    @settings(max_examples=60, deadline=None)
    # p = 1 next to alpha: (b^q - a^q) / q with q = p - alpha near 0
    @example(alpha=0.99999, theta=1.0, lo=1.0, frac=1.0, p=1.0, u=0.0)
    def test_finite_shells_match_quad(self, alpha, theta, lo, frac, p, u):
        shell = Shell(lo, lo + frac * (5.0 - lo))
        for m in (TemperedStable(alpha, 1.0, theta), TruncatedStable(alpha, 1.0, 5.0)):
            assert m.shell_mass(shell) == pytest.approx(
                quad_oracle(m, shell, lambda t: 1.0), rel=1e-13)
            assert m.shell_moment(shell, p) == pytest.approx(
                quad_oracle(m, shell, lambda t: t ** p), rel=1e-13)
            assert m.psi_shell(shell, u).real == pytest.approx(
                quad_oracle(m, shell, cos_m1(u)), rel=1e-13)

    @pytest.mark.parametrize("m", [TruncatedStable(1.0, 1.0, 100.0),
                                   TemperedStable(0.5, 1.0, 0.05)])
    def test_psi_wide_shell_high_frequency(self, m):
        # panels wider than pi / |u| in |z| would miss part of the oscillation
        shell, us = Shell(0.5, 100.0), np.array([10.0, 50.0])
        for u, val in zip(us, m.psi_shell(shell, us)):
            assert val.real == pytest.approx(quad_oracle(m, shell, cos_m1(u)), rel=1e-11)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("theta", [0.2, 10.0])
    @pytest.mark.parametrize("shell", [Shell(0.05, math.inf), FULL])
    def test_infinite_and_full_shells_match_quad(self, alpha, theta, shell):
        for m in (TemperedStable(alpha, 1.0, theta), TruncatedStable(alpha, 1.0, 2.0)):
            if shell.lo > 0.0:
                assert m.shell_mass(shell) == pytest.approx(
                    quad_oracle(m, shell, lambda t: 1.0), rel=1e-11)
            for p in (2.0, 4.0):
                assert m.shell_moment(shell, p) == pytest.approx(
                    quad_oracle(m, shell, lambda t: t ** p), rel=1e-11)
            us = np.array([-10.0, -0.5, 1e-3, 2.0, 10.0])
            got = m.psi_shell(shell, us)
            assert got.shape == us.shape and np.all(got.imag == 0.0)
            for u, val in zip(us, got):
                assert val.real == pytest.approx(quad_oracle(m, shell, cos_m1(u)), rel=1e-11)
