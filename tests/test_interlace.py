import functools
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate as si, optimize as sopt

from levynoise import integrands as ig
from levynoise import integrate as it
from levynoise import interlace as il
from levynoise import mc, prm
from levynoise.cli import bundled_config_text, write_artifacts
from levynoise.experiments import _ladder_rows, _ladder_table, parse_config, run_experiment
from levynoise.measure import DiscreteAtoms, Shell, TruncatedStable
from levynoise.prm import Window
from oracles import interlacing_rows_per_config, one_path

TSTABLE = TruncatedStable(alpha=1.0, c=1.0, r=1.0)
TSTABLE2 = TruncatedStable(alpha=1.0, c=1.0, r=2.0)
BOX = ((-0.5, 0.5),)
H_Z = ig.term(jump=ig.SignPow(1.0))  # H(s, x, z) = z


class TestBisect:
    @pytest.mark.parametrize("root", [1e-7, 0.3, 0.7309, 0.999])
    def test_increasing_predicate(self, root):
        # ok below the root: the good side is [0, root], approached from below
        got = il._bisect(lambda u: u <= root, 0.0, 1.0)
        assert got <= root and root - got <= 1e-10

    @pytest.mark.parametrize("root", [1e-7, 0.3, 0.7309, 0.999])
    def test_decreasing_predicate(self, root):
        # ok above the root: the good side is [root, 1], approached from above
        got = il._bisect(lambda u: u >= root, 1.0, 0.0)
        assert got >= root and got - root <= 1e-10 * got


class TestEpsSequence:
    def test_worked_closed_form(self):
        # I(eps) = 2 eps for this family, so eps_n = 8^-n / 2 exactly
        ladder = il.eps_sequence(H_Z, BOX, 1.0, TSTABLE, n_max=6)
        for lv in ladder.levels:
            assert lv.threshold == pytest.approx(8.0 ** -lv.n / 2.0, rel=1e-8)
            assert lv.i_value <= 8.0 ** -lv.n
        assert not ladder.truncated

    def test_monotone_nonincreasing(self):
        for m in (TSTABLE, DiscreteAtoms(((0.01, 5.0), (0.3, 1.0), (-0.07, 2.0)))):
            ladder = il.eps_sequence(H_Z, BOX, 1.0, m, n_max=5)
            th = ladder.thresholds
            assert all(a >= b for a, b in zip(th, th[1:]))

    def test_sup_characterization(self):
        ladder = il.eps_sequence(H_Z, BOX, 1.0, TSTABLE, n_max=4)

        def I(eps):
            w = Window(1.0, BOX, Shell(0.0, eps))
            return it.compensator(H_Z.squared(), w, TSTABLE, 1.0)

        for lv in ladder.levels:
            assert I(lv.threshold) <= 8.0 ** -lv.n
            assert I(lv.threshold * (1 + 1e-6)) > 8.0 ** -lv.n

    def test_finite_activity_truncation(self):
        # H vanishes for |z| <= 0.1: the ladder must stop there with a flag
        H = ig.term(jump=ig.product_node(ig.SignPow(1.0), ig.AbsIndicator(0.1, 1.0)))
        ladder = il.eps_sequence(H, BOX, 1.0, TSTABLE, n_max=8)
        assert ladder.truncated
        assert ladder.truncation_point == pytest.approx(0.1, rel=1e-6)
        assert ladder.levels[-1].i_value == 0.0


class TestASequence:
    def h_and_k(self):
        H = ig.term(space=ig.ExpAbs(-1.0), jump=ig.SignPow(1.0))
        K = ig.term(space=ig.ExpAbs(-1.0), jump=ig.AbsPow(2.0)) * 0.5
        return H, K

    def test_closed_form_tail(self):
        H, K = self.h_and_k()
        shell = Shell(0.05, 2.0)
        ladder = il.a_sequence(H, K, 1.0, TSTABLE2, n_max=6, kind="spatial-I",
                               shell=shell, dim=1)
        m2_small = TSTABLE2.shell_moment(Shell(0.05, 1.0), 2.0)
        m2_big = TSTABLE2.shell_moment(Shell(1.0, 2.0), 2.0)

        def I(a):
            return m2_small * math.exp(-2 * a) + 0.5 * m2_big * 2 * math.exp(-a)

        for lv in ladder.levels:
            root = sopt.brentq(lambda a: I(a) - 8.0 ** -lv.n, 0.0, 80.0, xtol=1e-13)
            assert lv.threshold == pytest.approx(root, rel=1e-8)

    def test_product_space_factor_tail(self):
        # H's space factor e^-|x| cos x: its square has no antiderivative, so
        # the box integrals run on panels split at the kink at 0
        H = ig.term(space=ig.product_node(ig.ExpAbs(-1.0), ig.Cos(1.0)), jump=ig.SignPow(1.0))
        _, K = self.h_and_k()
        ladder = il.a_sequence(H, K, 1.0, TSTABLE2, n_max=4, kind="spatial-I",
                               shell=Shell(0.05, 2.0))
        m2_small = TSTABLE2.shell_moment(Shell(0.05, 1.0), 2.0)
        m2_big = TSTABLE2.shell_moment(Shell(1.0, 2.0), 2.0)

        def I(a):
            tail, _ = si.quad(lambda x: math.exp(-2 * x) * math.cos(x) ** 2, a, math.inf,
                              epsabs=1e-15, epsrel=1e-13, limit=400)
            return m2_small * 2 * tail + 0.5 * m2_big * 2 * math.exp(-a)

        assert ladder.violation is None and len(ladder.levels) == 4
        for lv in ladder.levels:
            assert lv.i_value <= 8.0 ** -lv.n
            assert abs(lv.i_value - I(lv.threshold)) <= 1e-9

    def test_nondecreasing(self):
        H, K = self.h_and_k()
        ladder = il.a_sequence(H, K, 1.0, TSTABLE2, n_max=5, kind="spatial-I",
                               shell=Shell(0.05, 2.0))
        th = ladder.thresholds
        assert all(a <= b for a, b in zip(th, th[1:]))

    def test_spatial_ii_variant(self):
        H, _ = self.h_and_k()
        shell = Shell(0.05, 2.0)
        ladder = il.a_sequence(H, None, 1.0, TSTABLE2, n_max=4, kind="spatial-II",
                               shell=shell)
        m2 = TSTABLE2.shell_moment(shell, 2.0)
        for lv in ladder.levels:
            root = math.log(m2 * 8.0 ** lv.n) / 2.0
            assert lv.threshold == pytest.approx(root, rel=1e-8)

    def test_compact_support_truncates(self):
        H = ig.term(space=ig.AbsIndicator(0.0, 2.0), jump=ig.SignPow(1.0))
        ladder = il.a_sequence(H, None, 1.0, TSTABLE2, n_max=10, kind="spatial-II",
                               shell=Shell(0.05, 2.0))
        assert ladder.truncated
        assert ladder.truncation_point == pytest.approx(2.0, rel=1e-6)

    @pytest.mark.parametrize("kind", ["spatial-I", "spatial-II"])
    def test_indicator_floor_at_reach(self, kind):
        # every space factor is an indicator: the ladder ends at the widest
        # reach, 2, where I first vanishes
        H = ig.term(space=(ig.Indicator(-0.3, 0.7), ig.AbsIndicator(0.0, 2.0)),
                    jump=ig.SignPow(1.0))
        K = ig.term(space=(ig.Indicator(-0.3, 0.7), ig.Indicator(-0.5, 1.0)),
                    jump=ig.AbsPow(2.0)) * 0.5
        ladder = il.a_sequence(H, K if kind == "spatial-I" else None, 1.0, TSTABLE2,
                               n_max=10, kind=kind, shell=Shell(0.05, 2.0), dim=2)
        assert ladder.truncated and ladder.truncation_point == 2.0
        assert len(ladder.levels) == 6 and ladder.thresholds[-2] < 2.0

    def test_decaying_factor_has_no_floor(self):
        # e^-|x| bounds no support: far out its box integral rounds to its
        # whole-line one and I reads 0 from about a = 37.4, which ends no ladder
        H, K = self.h_and_k()
        ladder = il.a_sequence(H, K, 1.0, TSTABLE2, n_max=20, kind="spatial-I",
                               shell=Shell(0.05, 2.0))
        assert not ladder.truncated and ladder.truncation_point is None
        assert len(ladder.levels) == 20 and ladder.violation is None

    def test_non_decaying_flagged(self):
        H = ig.term(space=ig.Poly((1.0, 0.5)), jump=ig.SignPow(1.0))
        ladder = il.a_sequence(H, None, 1.0, TSTABLE2, n_max=4, kind="spatial-II",
                               shell=Shell(0.05, 2.0))
        assert ladder.violation is not None
        assert not ladder.levels


def _split_quad(f, cuts):
    """The integral of f over the line by scipy quad between the cuts, at
    f's kinks and zeros, and beyond them out to +-200, where every case
    below has decayed past e^-100."""
    edges = [-200.0, *sorted(cuts), 200.0]
    return math.fsum(si.quad(f, lo, hi, epsabs=0.0, epsrel=2e-14, limit=200)[0]
                     for lo, hi in zip(edges, edges[1:]))


def _zeros_of_cos(freq, reach=200.0):
    """The zeros of cos(freq x) in [-reach, reach]."""
    k = np.arange(math.ceil(freq * reach / math.pi) + 1)
    z = (math.pi / 2.0 + k * math.pi) / freq
    z = z[z <= reach]
    return [*z, *-z]


class TestFullLineIntegral:
    """The whole-line space integrals of the spatial ladders run on node
    panels: the antiderivative where finite, else summed between cuts at
    steps of the decay length or the indicators' reach, graded toward 0."""

    CASES = {  # (factors, the cuts of their product's split-quad reference)
        "exp_abs_cos1": ((ig.ExpAbs(-1.0), ig.Cos(1.0)), [0.0, *_zeros_of_cos(1.0)]),
        "exp_abs_cos5": ((ig.ExpAbs(-1.0), ig.Cos(5.0)), [0.0, *_zeros_of_cos(5.0)]),
        "abs_indicator_cos3": ((ig.AbsIndicator(0.2, 0.7), ig.Cos(3.0)),
                               [-0.7, -math.pi / 6, -0.2, 0.2, math.pi / 6, 0.7]),
        "skewed": ((ig.ExpAbs(-1.0), ig.Exp(0.5)), [0.0]),
        "quartic": ((ig.ExpAbs(-0.5), ig.Poly((0.0, 0.0, 0.0, 0.0, 1.0))), [0.0]),
        "sqrt": ((ig.ExpAbs(-1.0), ig.AbsPow(0.5)), [0.0]),
    }

    def test_exp_abs_exact(self):
        for use_abs in (False, True):
            assert il._full_line_integral(ig.ExpAbs(-1.0), use_abs) == 2.0

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matches_split_quad(self, name):
        factors, cuts = self.CASES[name]
        node = ig.product_node(*factors)
        for use_abs in (False, True):
            f = (lambda x: abs(float(node(x)))) if use_abs else (lambda x: float(node(x)))
            got = il._full_line_integral(node, use_abs)
            assert type(got) is float
            assert got == pytest.approx(_split_quad(f, cuts), rel=1e-12)

    def test_closed_forms(self):
        def full(*factors):
            return il._full_line_integral(ig.product_node(*factors), False)

        assert full(ig.AbsIndicator(0.2, 0.7), ig.Cos(3.0)) == pytest.approx(
            2.0 / 3.0 * (math.sin(2.1) - math.sin(0.6)), rel=1e-12)
        assert full(ig.ExpAbs(-1.0), ig.Exp(0.5)) == pytest.approx(8.0 / 3.0, rel=1e-12)
        assert full(ig.ExpAbs(-0.5), ig.Poly((0.0, 0.0, 0.0, 0.0, 1.0))) == pytest.approx(
            1536.0, rel=1e-12)
        assert full(ig.ExpAbs(-1.0), ig.AbsPow(0.5)) == pytest.approx(math.sqrt(math.pi),
                                                                      rel=1e-12)

    @pytest.mark.parametrize("node", [ig.product_node(ig.ExpAbs(-1.0), ig.Exp(2.0)),
                                      ig.Cos(1.0), ig.AbsPow(2.0)],
                             ids=["exp_abs_exp2", "cos", "abs_pow2"])
    def test_diverges(self, node):
        for use_abs in (False, True):
            assert il._full_line_integral(node, use_abs) is None


def _counted(monkeypatch, module, name):
    """The arguments of every call of module.name from now on."""
    calls, fn = [], getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


class TestResidualEvaluations:
    """The bundled ladders (interlace.json) evaluate their residuals about as
    often as their bisections need: the small-jump ladder seeks an activity
    floor only where one could truncate it and evaluates I once per eps, and
    the spatial ladder takes each whole-line space integral once per
    problem and searches no sign change of its one-signed |K| factor."""

    def test_small_jump_compensator_calls(self, monkeypatch):
        calls = _counted(monkeypatch, il.it, "compensator")
        ladder = il.eps_sequence(H_Z, BOX, 1.0, TSTABLE, n_max=6)
        assert len(ladder.levels) == 6 and not ladder.truncated
        assert 0 < len(calls) <= 225
        assert len({args[1].shell for args in calls}) == len(calls)

    def test_spatial_full_line_integral_once_per_term_axis(self, monkeypatch):
        calls = _counted(monkeypatch, il, "_full_line_integral")
        searches = _counted(monkeypatch, ig, "sign_changes")
        ladder = il.a_sequence(HS, KS, 1.0, TSTABLE2, n_max=4, kind="spatial-I",
                               shell=Shell(0.05, 2.0))
        assert len(ladder.levels) == 4 and ladder.violation is None
        # one term of H^2 and one of K, each with one space axis
        assert [use_abs for _, use_abs in calls] == [False, True]
        assert searches == []


class TestSmallJumpDiagnostic:
    def test_bounds_hold_on_worked_example(self):
        ladder = il.eps_sequence(H_Z, BOX, 1.0, TSTABLE, n_max=4)
        problem = il.LadderProblem(H=H_Z, measure=TSTABLE, T=1.0, box=BOX)
        rep = il.interlacing_diagnostic(ladder, problem, replicates=100, master_seed=7)
        assert len(rep.rows) == 3
        for row in rep.rows:
            assert row.empirical_sup2 <= row.bound + 4 * row.sup2_se
            assert row.exceed_freq <= row.bound_freq + 4 * row.exceed_se
            # Doob: E sup^2 <= 4 I(eps_n) within noise
            assert row.empirical_sup2 <= 4 * row.i_value + 4 * row.sup2_se

    def test_finite_activity_levels_are_exact_zero(self):
        # rings strictly below the smallest atom are empty, so consecutive
        # approximations agree path by path
        m = DiscreteAtoms(((0.5, 1.0), (-0.9, 1.0)))
        ladder = il.eps_sequence(H_Z, BOX, 1.0, m, n_max=8)
        assert ladder.truncated  # no activity below 0.5
        assert ladder.truncation_point == pytest.approx(0.5, rel=1e-6)
        manual = il.Ladder("small-jump", tuple(
            il.LadderLevel(n, th, 0.0) for n, th in enumerate((0.45, 0.3, 0.2, 0.1), 1)))
        problem = il.LadderProblem(H=H_Z, measure=m, T=1.0, box=BOX)
        rep = il.interlacing_diagnostic(manual, problem, replicates=50, master_seed=3)
        for row in rep.rows:
            assert row.empirical_sup2 == 0.0
            assert row.exceed_freq == 0.0

    def test_csv_columns(self):
        ladder = il.eps_sequence(H_Z, BOX, 1.0, TSTABLE, n_max=3)
        problem = il.LadderProblem(H=H_Z, measure=TSTABLE, T=1.0, box=BOX)
        rep = il.interlacing_diagnostic(ladder, problem, replicates=20, master_seed=1)
        lines = _ladder_table(rep).splitlines()
        assert lines[0] == "level,threshold,I,empirical_sup2,bound,exceed_freq,bound_freq"
        assert len(lines) == 1 + len(rep.rows)


class TestDeepestRing:
    def test_reads_only_the_marks(self):
        # the worked example's deepest ring, (1.9e-6, 1.5e-5], about 917,504
        # points: H = z on a symmetric measure has no drift, and every jump
        # lies before T, so its statistic draws neither times nor locations
        ladder = il.eps_sequence(H_Z, BOX, 1.0, TSTABLE, n_max=6)
        problem = il.LadderProblem(H=H_Z, measure=TSTABLE, T=1.0, box=BOX)
        j, window, stat = list(il.rings(ladder, problem))[-1]
        assert j == 4 and window.shell == Shell(8.0 ** -6 / 2.0, 8.0 ** -5 / 2.0)
        batch = prm.simulate(window, TSTABLE, 17)
        s, s_exceed = stat(batch)
        assert {"t", "x"}.isdisjoint(vars(batch)) and "z" in vars(batch)
        assert len(batch.z) > 900_000 and s_exceed is s
        assert s[0] == one_path(None, None, H_Z, batch, TSTABLE, math.inf).sup_abs(1.0)


class TestPinnedOutputs:
    def test_small_run_bytes(self, tmp_path):
        # the bundled interlace at diag_replicates 2 and spatial_replicates 3,
        # every output file against its digest in interlace_digests.json.
        # The marks pass through a power, so a numpy or libm build that
        # rounds it otherwise fails here too.
        raw = json.loads(bundled_config_text("interlace"))
        raw["params"].update(diag_replicates=2, spatial_replicates=3)
        out = write_artifacts(run_experiment(parse_config(raw)), str(tmp_path))
        pinned = json.loads((Path(__file__).parent / "interlace_digests.json").read_text())
        got = {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in pinned["small"]}
        assert got == pinned["small"]
        assert sorted(p.name for p in out.iterdir()) == sorted(pinned["small"])


class TestSpatialDiagnostic:
    def test_bounds_hold(self):
        H = ig.term(space=ig.ExpAbs(-1.0), jump=ig.SignPow(1.0))
        K = ig.term(space=ig.ExpAbs(-1.0), jump=ig.AbsPow(2.0)) * 0.5
        shell = Shell(0.05, 2.0)
        ladder = il.a_sequence(H, K, 1.0, TSTABLE2, n_max=4, kind="spatial-I",
                               shell=shell)
        problem = il.LadderProblem(H=H, K=K, measure=TSTABLE2, T=1.0,
                                   shell=shell, dim=1)
        rep = il.interlacing_diagnostic(ladder, problem, replicates=60, master_seed=11)
        for row in rep.rows:
            assert row.empirical_sup2 <= row.bound + 4 * row.sup2_se
            assert row.exceed_freq <= row.bound_freq + 4 * row.exceed_se


def _spatial(kind, H, K):
    """The ladder of a_sequence for spatial-II; for spatial-I, box rings
    near the centre and a small H, so that the big jumps through K decide
    some exceedances."""
    shell = Shell(0.05, 2.0)
    if kind == "spatial-II":
        ladder = il.a_sequence(H, K, 1.0, TSTABLE2, n_max=3, kind=kind, shell=shell)
    else:
        ladder = il.Ladder(kind, tuple(il.LadderLevel(n, a, 0.0)
                                       for n, a in enumerate((0.25, 0.5, 1.0, 2.0), 1)))
    return ladder, il.LadderProblem(H=H, K=K, measure=TSTABLE2, T=1.0, shell=shell, dim=1)


H_T = ig.term(time=ig.Cos(3.0), jump=ig.SignPow(1.0))
HS = ig.term(space=ig.ExpAbs(-1.0), jump=ig.SignPow(1.0))
HS_T = ig.term(time=ig.Cos(3.0), space=ig.ExpAbs(-1.0), jump=ig.SignPow(1.0))
KS = ig.term(space=ig.ExpAbs(-1.0), jump=ig.AbsPow(2.0)) * 0.5
DIAGNOSTICS = {
    "small-jump": lambda: (il.eps_sequence(H_Z, BOX, 1.0, TSTABLE, n_max=3),
                           il.LadderProblem(H=H_Z, measure=TSTABLE, T=1.0, box=BOX)),
    "small-jump-scan": lambda: (il.eps_sequence(H_T, BOX, 1.0, TSTABLE, n_max=3),
                                il.LadderProblem(H=H_T, measure=TSTABLE, T=1.0, box=BOX)),
    "spatial-I": lambda: _spatial("spatial-I", HS * 0.1, KS),
    "spatial-I-scan": lambda: _spatial("spatial-I", HS_T * 0.1, KS),
    "spatial-II": lambda: _spatial("spatial-II", HS, None),
}
# Every H above has an odd jump factor on a symmetric measure, so its
# compensator, and every box ring's drift, is 0; a z^2 jump factor gives
# the box rings a drift.
HS_SQ = ig.term(space=ig.ExpAbs(-1.0), jump=ig.AbsPow(2.0))
DRIFT_DIAGNOSTICS = {
    "spatial-I-drift": lambda: _spatial("spatial-I", HS_SQ * 0.1, KS),
    "spatial-II-drift": lambda: _spatial("spatial-II", HS_SQ, None),
}


ALL_DIAGNOSTICS = {**DIAGNOSTICS, **DRIFT_DIAGNOSTICS}


class TestBatchedDiagnostic:
    @pytest.mark.parametrize("budget", [None, 1])
    @pytest.mark.parametrize("case", sorted(ALL_DIAGNOSTICS))
    def test_rows_equal_per_config_oracle(self, case, budget, monkeypatch):
        # blocks of several replicates (default budget) and of one give the
        # (sup2, exceed) rows of one ring and one configuration at a time,
        # each ring on its own seed, replayed under the same budget: bit for
        # bit without a drift; with one, build_path subtracts the outer box's
        # compensator and G adds the inner one back, where the oracle
        # subtracts their difference in one coefficient, so to rounding
        ladder, problem = ALL_DIAGNOSTICS[case]()
        rtol = 1e-12 if case in DRIFT_DIAGNOSTICS else 0.0
        if budget is not None:
            monkeypatch.setattr(prm, "BLOCK_POINTS", budget)
        sizes = [len(b) for _, w, _ in il.rings(ladder, problem)
                 for _, b in mc.batches(w, problem.measure, 9, 5)]
        assert (max(sizes) == 1) == (budget == 1)
        want_sup2, want_exceed = interlacing_rows_per_config(ladder, problem, 9, 5)
        assert want_sup2.shape == (9, len(ladder.levels) - 1) and want_exceed.dtype == bool
        assert want_sup2.any() and want_exceed.any() and not want_exceed.all()
        sup2, exceed = np.zeros_like(want_sup2), np.zeros_like(want_exceed)
        for j, window, stat in il.rings(ladder, problem):
            if rtol:
                assert it.compensator(problem.H, window, problem.measure, problem.T) != 0.0
            s, s_exceed = mc.replicate_values(stat, window, problem.measure, 9,
                                              prm.replicate_seed(5, j))
            sup2[:, j], exceed[:, j] = s * s, s_exceed > 2.0 ** -(j + 1)
        np.testing.assert_allclose(sup2, want_sup2, rtol=rtol, atol=0.0)
        assert np.array_equal(exceed, want_exceed)
        rep = il.interlacing_diagnostic(ladder, problem, 9, 5)
        assert rep == il._assemble(ladder, sup2, exceed, 9, 5)


class TestNullSweep:
    """The ladders of DIAGNOSTICS and DRIFT_DIAGNOSTICS over many master
    seeds.  The Doob and
    Chebyshev bounds hold with room, so a 4-sigma bound verdict fails at
    most once per case.  The pooled mean of each ring's sup^2 lies between
    the ring's E M(T)^2 = I(level j) - I(level j + 1), which E sup^2 is at
    least, and Doob's 4 I(level j)."""

    SEEDS, N, K_SIGMA = 200, 16, 4.0

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def sweep(case):
        ladder, problem = ALL_DIAGNOSTICS[case]()
        return ladder, [il.interlacing_diagnostic(ladder, problem, TestNullSweep.N, seed)
                        for seed in range(TestNullSweep.SEEDS)]

    @pytest.mark.parametrize("case", sorted(ALL_DIAGNOSTICS))
    def test_bound_verdicts_rarely_fail(self, case):
        _, reps = self.sweep(case)
        rows = [v for rep in reps for v in _ladder_rows("", rep, self.K_SIGMA)]
        assert len(rows) >= 800
        assert sum(not v.passed for v in rows) <= 1

    # the spatial-I cases run hand-set ladders, with no residual I
    @pytest.mark.parametrize("case", ["small-jump", "small-jump-scan", "spatial-II",
                                      "spatial-II-drift"])
    def test_pooled_sup2_between_ring_moment_and_doob(self, case):
        ladder, reps = self.sweep(case)
        i = [lv.i_value for lv in ladder.levels]
        for j in range(len(i) - 1):
            mean = np.mean([rep.rows[j].empirical_sup2 for rep in reps])
            se = math.sqrt(np.sum([rep.rows[j].sup2_se ** 2 for rep in reps])) / self.SEEDS
            assert i[j] - i[j + 1] - self.K_SIGMA * se <= mean <= 4 * i[j] + self.K_SIGMA * se
