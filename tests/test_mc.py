import dataclasses
import math
import weakref

import numpy as np
import pytest

from levynoise import interlace as il, mc, prm
from levynoise.experiments import _ladder_rows
from levynoise.mc import estimate, run_replicates, verdict
from levynoise.measure import DiscreteAtoms, Shell
from levynoise.prm import Window, simulate
from oracles import map_replicates, replicate

ATOMS = DiscreteAtoms(((0.6, 1.0), (-1.1, 0.7), (1.7, 0.4)))
WIN = Window(1.0, ((-0.5, 0.5),), Shell(0.3, 2.0))
LAM = WIN.horizon * WIN.box_volume * ATOMS.shell_mass(WIN.shell)  # 2.1 points


def replicates(exp, n, master_seed):
    """run_replicates of exp(k, config) on each configuration of a batch
    (k counts within the batch)."""
    return run_replicates(lambda b: [exp(k, replicate(b, k)) for k in range(len(b))],
                          WIN, ATOMS, n, master_seed)


class TestRunReplicates:
    def test_constant_experiment(self):
        est = replicates(lambda k, c: 3.25, 50, master_seed=1)
        assert est.mean == 3.25
        assert est.se == 0.0
        assert est.n == 50

    @pytest.mark.parametrize("budget,size", [(1, 1), (7, 2), (None, 400)])
    def test_run_equals_replay_under_budget(self, budget, size, monkeypatch):
        # budgets of one point, of seven points (blocks of 2 replicates of
        # 2.1 expected points) and the default, which holds all 400 in one
        # block: the run is its replicates replayed one at a time
        exp = lambda k, c: float(np.sum(c.z) + 0.1 * np.sum(c.t))
        if budget is not None:
            monkeypatch.setattr(prm, "BLOCK_POINTS", budget)
        sizes = [len(b) for _, b in mc.batches(WIN, ATOMS, 400, 9)]
        assert sum(sizes) == 400 and set(sizes) == {size}
        want = estimate(map_replicates(exp, WIN, ATOMS, 400, 9), 9)
        assert replicates(exp, 400, master_seed=9) == want

    def test_se_scales_like_sqrt_n(self):
        exp = lambda k, c: float(np.sum(c.z))
        small = replicates(exp, 10 ** 3, master_seed=4)
        large = replicates(exp, 10 ** 4, master_seed=5)
        ratio = small.se / large.se
        assert abs(ratio - math.sqrt(10)) / math.sqrt(10) < 0.2

    def test_vector_experiment(self):
        est = replicates(lambda k, c: np.array([np.sum(c.t), 2.0]), 100, 3)
        assert est.mean.shape == (2,)
        assert est.se[0] > 0.0
        assert est.se[1] == 0.0

    def test_complex_experiment(self):
        est = replicates(lambda k, c: complex(np.sum(c.t), np.sum(c.z)), 100, 3)
        assert isinstance(est.mean, complex)
        assert est.se.real > 0 and est.se.imag > 0

    def test_failure_reports_replicate(self):
        def exp(k, c):
            if len(c.t) > 4:
                raise ValueError("boom")
            return float(len(c.t))

        with pytest.raises(RuntimeError, match=r"replicate \d+"):
            replicates(exp, 200, master_seed=12)

    def test_needs_two(self):
        with pytest.raises(ValueError):
            replicates(lambda k, c: 1.0, 1, 0)

    def test_chunked_merge_matches(self):
        # accumulating in any grouping agrees with the canonical fold
        exp = lambda k, c: float(np.sum(c.z) + 0.1 * np.sum(c.t))
        est = replicates(exp, 1000, master_seed=77)
        vals = np.array(map_replicates(exp, WIN, ATOMS, 1000, 77))
        chunks = np.array_split(vals, 7)
        n = sum(len(c) for c in chunks)
        mean = sum(c.sum() for c in chunks) / n
        ssq = sum(((c - mean) ** 2).sum() for c in chunks)
        se = math.sqrt(ssq / (n - 1)) / math.sqrt(n)
        assert abs(mean - est.mean) <= 1e-14
        assert abs(se - est.se) <= 1e-14


class TestReplicateValues:
    @pytest.mark.parametrize("budget", [1, 7, prm.BLOCK_POINTS])
    def test_one_value_per_replicate_in_order(self, budget, monkeypatch):
        # row k is replicate k replayed alone: row k mod S of the first
        # k mod S + 1 rows of stream block k // S
        monkeypatch.setattr(prm, "BLOCK_POINTS", budget)
        counts, sums = mc.replicate_values(
            lambda b: (b.counts, np.bincount(b.segment, b.z, len(b))), WIN, ATOMS, 120, 6)
        S = prm.block_rows(LAM)
        want = [replicate(simulate(WIN, ATOMS, 6, k // S, k % S + 1), k % S) for k in range(120)]
        assert [c.seeds for c in want] == [(6, k) for k in range(120)]
        assert counts.tolist() == [len(c.t) for c in want]
        assert sums.tolist() == [float(np.bincount(np.zeros(len(c.t), dtype=int), c.z, 1)[0])
                                 for c in want]

    def test_no_configuration_outlives_its_replicate(self, monkeypatch):
        # blocks of one replicate: the previous block is gone before the
        # next is drawn, and none outlives the loop
        monkeypatch.setattr(prm, "BLOCK_POINTS", 1)
        refs = []

        def stat(b):
            assert len(b) == 1 and all(r() is None for r in refs)
            refs.append(weakref.ref(b))
            return (b.counts,)

        mc.replicate_values(stat, WIN, ATOMS, 20, 5)
        assert len(refs) == 20 and all(r() is None for r in refs)


class TestEstimate:
    def test_is_the_fold_of_run_replicates(self):
        exp = lambda k, c: float(np.sum(c.z) + 0.1 * np.sum(c.t))
        vals = map_replicates(exp, WIN, ATOMS, 300, 31)
        assert estimate(vals, 31) == replicates(exp, 300, master_seed=31)

    def test_one_dimensional_floats(self):
        vals = np.array([[1.0, 2.0], [3.0, 5.0], [4.0, 11.0]])
        est = estimate(vals[:, 1], 7)
        assert type(est.mean) is float and type(est.se) is float
        assert est.mean == float(vals[:, 1].mean())
        assert est.se == float(vals[:, 1].std(ddof=1) / math.sqrt(3))
        assert (est.n, est.master_seed) == (3, 7)


class TestVerdict:
    def test_exact_match(self):
        v = verdict(1.0, 0.5, 1.0)
        assert v.passed and v.z == 0.0

    def test_clear_failure(self):
        v = verdict(1.0, 0.1, 0.0)
        assert not v.passed
        assert v.z == pytest.approx(10.0)

    def test_zero_se_requires_equality(self):
        assert verdict(2.0, 0.0, 2.0).passed
        v = verdict(2.0, 0.0, 2.1)
        assert not v.passed and math.isinf(v.z)

    def test_absolute_floor(self):
        v = verdict(1e-30, 1e-32, 0.0, atol=1e-20)
        assert v.passed

    def test_complex_componentwise(self):
        est = (1.0 + 0.5j, 0.1 + 0.01j)
        assert verdict(*est, 1.0 + 0.5j).passed
        assert not verdict(*est, 1.0 + 0.6j).passed  # imag off by 10 sigma
        assert verdict(*est, 1.2 + 0.5j).passed      # real off by 2 sigma only

    def test_vector_verdict(self):
        est = (np.array([0.0, 1.0]), np.array([0.1, 0.1]))
        assert verdict(*est, np.array([0.1, 1.1])).passed
        assert not verdict(*est, np.array([0.0, 2.0])).passed

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["mean", "se", "target"])
    @pytest.mark.parametrize("kind", ["real", "vector", "complex-re", "complex-im"])
    def test_nonfinite_never_passes(self, kind, field, bad):
        shape = {"real": lambda v, w: w, "vector": lambda v, w: np.array([v, w]),
                 "complex-re": lambda v, w: complex(w, v),
                 "complex-im": lambda v, w: complex(v, w)}[kind]
        vals = {"mean": 1.0, "se": 0.5, "target": 1.0}
        args = {k: shape(v, v) for k, v in vals.items()}
        assert verdict(args["mean"], args["se"], args["target"]).passed
        args[field] = shape(vals[field], bad)
        v = verdict(args["mean"], args["se"], args["target"], atol=1.0)
        assert not v.passed

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["empirical_sup2", "sup2_se", "exceed_freq", "exceed_se"])
    def test_nonfinite_bound_rows_never_pass(self, field, bad):
        # interlace's sup2_bound and exceed_bound verdicts: clean, both
        # pass; a non-finite estimate or se fails its row
        clean = il.DiagnosticRow(level=2, threshold=0.01, i_value=0.02, empirical_sup2=0.05,
                                 sup2_se=0.01, bound=0.1, exceed_freq=0.2, exceed_se=0.05,
                                 bound_freq=0.25)
        rows = lambda row: list(_ladder_rows("", [row]))
        assert [v.passed for v in rows(clean)] == [True, True]
        of_sup2 = field in ("empirical_sup2", "sup2_se")
        got = rows(dataclasses.replace(clean, **{field: bad}))
        assert [v.passed for v in got] == [not of_sup2, of_sup2]

    def test_calibration_under_true_null(self):
        # a 4-sigma rule should essentially never fail a centered experiment
        fails = 0
        for trial in range(200):
            # the point count minus its exact mean
            est = replicates(lambda k, c: len(c.t) - LAM, 250, master_seed=1000 + trial)
            if not verdict(est.mean, est.se, 0.0).passed:
                fails += 1
        assert fails <= 4  # 2% of 200
