import hashlib
import itertools
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from levynoise.measure import DiscreteAtoms, Shell, TemperedStable, TruncatedStable
from levynoise import mc, prm
import oracles
from oracles import replicate, same_points

ATOMS = DiscreteAtoms(((1.0, 0.5), (-2.0, 0.25), (0.3, 1.25)))
TSTABLE = TruncatedStable(alpha=1.0, c=1.0, r=1.0)
WIN = prm.Window(1.0, ((-0.5, 0.5),), Shell(0.1, 2.0))


class TestWindow:
    def test_validation(self):
        with pytest.raises(ValueError):
            prm.Window(0.0, ((-1, 1),), Shell(0.1, 1.0))
        with pytest.raises(ValueError):
            prm.Window(1.0, ((1.0, 1.0),), Shell(0.1, 1.0))
        with pytest.raises(ValueError):
            prm.Window(1.0, ((0, 1),) * 4, Shell(0.1, 1.0))

    def test_volume_and_containment(self):
        w = prm.Window(2.0, ((-1.0, 1.0), (0.0, 3.0)), Shell(0.1, 1.0))
        assert w.box_volume == 6.0
        assert w.contains(prm.Window(1.0, ((-0.5, 0.5), (1.0, 2.0)), Shell(0.2, 0.9)))
        assert not w.contains(prm.Window(3.0, ((-0.5, 0.5), (1.0, 2.0)), Shell(0.2, 0.9)))


class TestSimulate:
    def test_replay_bit_for_bit(self):
        a = prm.simulate(WIN, ATOMS, 42)
        b = prm.simulate(WIN, ATOMS, 42)
        assert len(a) == 1 and a.seeds == (42, 0)
        assert same_points(a, b)
        c = prm.simulate(WIN, ATOMS, 43)
        assert not same_points(c, a)

    def test_zero_mass_shell_empty(self):
        w = prm.Window(1.0, ((-0.5, 0.5),), Shell(3.0, 9.0))
        for seed in range(5):
            assert len(prm.simulate(w, ATOMS, seed).t) == 0
        batch = prm.simulate(w, ATOMS, 0, 2, 5)
        assert len(batch) == 5 and batch.seeds == (0, 2 * prm.BLOCK_POINTS)
        assert batch.offsets.tolist() == [0] * 6

    def test_infinite_intensity_rejected(self):
        w = prm.Window(1.0, ((-0.5, 0.5),), Shell(0.0, 1.0))
        with pytest.raises((ValueError, Exception)):
            prm.simulate(w, TSTABLE, 0)

    def test_points_inside_window_sorted(self):
        c = prm.simulate(prm.Window(2.0, ((-1.0, 2.0),), Shell(0.05, 1.0)), TSTABLE, 7)
        assert np.all(np.diff(c.t) > 0)
        assert np.all((c.t >= 0) & (c.t <= 2.0))
        assert np.all((c.x[:, 0] >= -1.0) & (c.x[:, 0] <= 2.0))
        assert np.all((np.abs(c.z) > 0.05) & (np.abs(c.z) <= 1.0))

    def test_poisson_mean(self):
        # lam = T |B| nu(shell) = 2 for this window
        w = prm.Window(1.0, ((0.0, 1.0),), Shell(0.5, math.inf))
        m = DiscreteAtoms(((1.0, 1.0), (-2.0, 1.0)))
        counts = prm.simulate(w, m, 11, rows=10 ** 4).counts
        se = counts.std(ddof=1) / math.sqrt(len(counts))
        assert abs(counts.mean() - 2.0) <= 4 * se

    def test_halves_independent_chi2(self):
        w = prm.Window(1.0, ((0.0, 1.0),), Shell(0.5, math.inf))
        m = DiscreteAtoms(((1.0, 2.0), (-2.0, 2.0)))  # lam = 4
        batch = prm.simulate(w, m, 5, rows=4000)
        first = np.bincount(batch.segment[batch.t <= 0.5], minlength=len(batch))
        second = batch.counts - first
        # each half is Poisson(2)
        for half in (first, second):
            se = half.std(ddof=1) / math.sqrt(len(half))
            assert abs(half.mean() - 2.0) <= 4 * se
        cap = 5
        table = np.zeros((cap + 1, cap + 1))
        for a, b in zip(np.minimum(first, cap), np.minimum(second, cap)):
            table[a, b] += 1
        table = table[table.sum(axis=1) > 0][:, table.sum(axis=0) > 0]
        res = stats.chi2_contingency(table)
        assert res.pvalue > 1e-3

    def test_spatial_marginal_uniform_ks(self):
        # and the times uniform on [0, T], over 300 replicates in blocks of 128
        w = prm.Window(1.5, ((-1.0, 3.0), (0.0, 2.0)), Shell(0.1, 1.0))
        parts = [b for _, b in mc.batches(w, TSTABLE, 300, 3)]
        assert len(parts) == 3
        t, x = np.concatenate([b.t for b in parts]), np.concatenate([b.x for b in parts])
        assert stats.kstest(t, "uniform", args=(0.0, 1.5)).pvalue > 1e-3
        assert stats.kstest(x[:, 0], "uniform", args=(-1.0, 4.0)).pvalue > 1e-3
        assert stats.kstest(x[:, 1], "uniform", args=(0.0, 2.0)).pvalue > 1e-3

    @pytest.mark.parametrize("name", ["atoms", "tstable", "tempered"])
    def test_mark_law(self, name):
        # the marks of simulated points follow nu on the shell, normalized
        m, shell = MEASURES[name], WIN2.shell
        z = np.concatenate([b.z for _, b in mc.batches(WIN2, m, 2000, 19)])
        if name == "atoms":
            hit = [(a, w) for a, w in m.atoms if shell.lo < abs(a) <= shell.hi]
            freq = np.array([np.mean(z == a) for a, _ in hit])
            p = np.array([w for _, w in hit]) / sum(w for _, w in hit)
            assert np.all(np.abs(freq - p) <= 4 * np.sqrt(p * (1 - p) / len(z)))
            return
        mass = m.shell_mass(shell)

        def cdf(v):  # of a symmetric measure: nu(|z| > |v|) / (2 mass) below 0
            tail = np.array([m.shell_mass(Shell(max(abs(a), shell.lo), shell.hi))
                             if abs(a) < shell.hi else 0.0 for a in np.atleast_1d(v)])
            return np.where(np.atleast_1d(v) < 0, tail / (2 * mass), 1.0 - tail / (2 * mass))

        assert stats.kstest(z[:4000], cdf).pvalue > 1e-3


WIN2 = prm.Window(1.0, ((-0.5, 0.5), (0.0, 2.0)), Shell(0.1, 1.0))
MEASURES = {"atoms": ATOMS, "tstable": TSTABLE,
            "tempered": TemperedStable(alpha=0.5, c=0.8, theta=1.5),
            # a first rejection round falls short of its marks
            "short": TemperedStable(alpha=0.5, c=6.0, theta=20.0)}
SEEDS = st.integers(-2 ** 65, 2 ** 66)


def window(d, axes, horizon):
    return prm.Window(horizon, tuple((lo, lo + width) for lo, width in axes[:d]), WIN2.shell)


AXES = st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(0.1, 2.0)), min_size=3, max_size=3)


class TestSimulateBatch:
    """The stream contract: a block draw against its row-by-row reference,
    prefix stability, time order, and the block sizes."""

    @given(st.sampled_from(sorted(MEASURES)), st.integers(1, 3), AXES, SEEDS,
           st.integers(0, 2 ** 20), st.integers(0, 25), st.sampled_from([0.01, 0.37, 1.9]))
    @settings(max_examples=80, deadline=None)
    def test_config_is_simulate(self, name, d, axes, seed, block, rows, horizon):
        # horizon 0.01 leaves most replicates empty; the block is bit for
        # bit the reference that draws one replicate at a time
        w, m = window(d, axes, horizon), MEASURES[name]
        batch = prm.simulate(w, m, seed, block, rows)
        size = oracles.block_size(prm.intensity(w, m))
        assert prm.block_rows(prm.intensity(w, m)) == size
        assert len(batch) == rows and batch.seeds == (seed % 2 ** 64, block * size)
        assert np.array_equal(batch.segment, np.repeat(np.arange(rows), batch.counts))
        assert same_points(batch, oracles.stream_block(w, m, seed, block, rows))

    @given(st.sampled_from(sorted(MEASURES)), st.integers(1, 3), AXES, SEEDS,
           st.integers(0, 3), st.integers(0, 40), st.sampled_from([0.37, 1.9, 6.0]))
    @settings(max_examples=60, deadline=None)
    def test_prefix_stable(self, name, d, axes, seed, block, rows, horizon):
        # the first r rows of a block are the same whether r or S rows are drawn
        w, m = window(d, axes, horizon), MEASURES[name]
        size = prm.block_rows(prm.intensity(w, m))
        whole = prm.simulate(w, m, seed, block, size)
        r = min(rows, size)
        part = prm.simulate(w, m, seed, block, r)
        assert same_points(part, prm.PointBatch(
            whole.t[:whole.offsets[r]], whole.x[:whole.offsets[r]], whole.z[:whole.offsets[r]],
            whole.offsets[:r + 1], w, whole.seeds))

    @given(st.sampled_from(sorted(MEASURES)), st.integers(1, 3), AXES, SEEDS,
           st.integers(0, 2 ** 20), st.sampled_from([0.01, 0.37, 1.9, 40.0]))
    @settings(max_examples=60, deadline=None)
    def test_times_in_order(self, name, d, axes, seed, block, horizon):
        w, m = window(d, axes, horizon), MEASURES[name]
        batch = prm.simulate(w, m, seed, block, min(50, prm.block_rows(prm.intensity(w, m))))
        assert np.all((batch.t >= 0.0) & (batch.t <= horizon))
        later = batch.t[1:] >= batch.t[:-1]
        assert np.all(later | (batch.segment[1:] != batch.segment[:-1]))

    def test_block_rows(self):
        assert prm.block_rows(0.0) == prm.BLOCK_POINTS
        assert prm.block_rows(5.33) == 4096
        assert prm.block_rows(4.0) == prm.BLOCK_POINTS // 4
        assert prm.block_rows(4.0 + 1e-9) == prm.BLOCK_POINTS // 8
        assert prm.block_rows(prm.BLOCK_POINTS) == prm.block_rows(1e9) == 1
        with pytest.raises(ValueError, match="holds 512 replicates"):
            prm.simulate(WIN2, TSTABLE, 0, rows=513)

    def test_configs_are_read_only_views(self):
        batch = prm.simulate(WIN2, ATOMS, 8, rows=6)
        assert len(batch.t) > 0
        for k in range(len(batch)):
            c = replicate(batch, k)
            for arr, whole in ((c.t, batch.t), (c.x, batch.x), (c.z, batch.z)):
                assert not arr.flags.writeable
                assert arr.size == 0 or np.shares_memory(arr, whole)
        with pytest.raises(ValueError):
            batch.t[0] = 0.0

    def test_shell_mass_once_per_batch(self):
        m = MEASURES["tempered"]
        with mock.patch.object(TemperedStable, "shell_mass", autospec=True,
                               side_effect=TemperedStable.shell_mass) as spy:
            prm.simulate(WIN2, m, 0, rows=50)
        assert spy.call_count == 1


class CountingRng:
    """A generator that counts its `random` calls."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def random(self, size):
        self.calls += 1
        return self.rng.random(size)


class TestBlockDraw:
    """The block draw's rejection rounds and streams."""

    def test_tempered_rounds_past_the_first(self):
        # "short" accepts a few per cent of its envelope draws: many rounds,
        # and the marks of one (magnitude, accept, sign) row at a time
        m, shell = MEASURES["short"], WIN2.shell
        rng = CountingRng(np.random.Generator(np.random.Philox(key=3)))
        got = m.sample_shell(shell, rng, 300)
        assert rng.calls >= 2
        want = oracles.mark_row(m, shell, np.random.Generator(np.random.Philox(key=3)), 300)
        assert np.array_equal(got, want)
        # a block of many replicates takes its rounds over all their marks
        batch = prm.simulate(WIN2, m, 3, rows=60)
        assert same_points(batch, oracles.stream_block(WIN2, m, 3, 0, 60))

    def test_pinned_streams(self):
        # the offsets, times and positions, and the atoms' marks, of the 256
        # first replicates of block 0 and of block 3.  The marks of the
        # density families pass through a power, which may move with libm;
        # the rest is the generators' output under +, -, x and /, apart from
        # the exponential's rare tail and the Poisson's exp(-lam).  A change
        # that moves the streams fails here.
        want = {
            "atoms": {
                "offsets": "2fb3406f0a6029f25fa3f5582bed4b46e141299e959d8b8f9f8ba536f434ebad",
                "t": "176989dd7db2d724bdab47f86721445d4b2de0c1e69b60241b1e5b6d03e7ae12",
                "x": "22b1b7c9295a275e0dc509e1e0bd8da0eea372a77848e2de96fa7bcabd2cfc3b",
                "z": "41253c7faf407005d7df64042f07dc1500724d0c74c817234902cadf779b339e"},
            "tstable": {
                "offsets": "ab47e5cb5515863245838d6cb1c99791beed47bd40bd94625cb7a032dbaa53c5",
                "t": "103b2cfb8943b446b4e056b144c41a35278be6c2a20e749b2984d30731eaf399",
                "x": "ddc548fdc6719917c43b845f0ad5f568c06bd9624f56ec891152dce169790b15"},
            "tempered": {
                "offsets": "31d0c8d0f3faf657e80ea7af2eca3b9fd6f60436c5b93a2bc29313967bcc4697",
                "t": "ae5a6fb647666dd9326d49c9d50a47cefa5dc7373632a28903b28ba305e5a0e9",
                "x": "ef0d45e740cd57235430cc27a4d3498e4db8fa2846427dc4101fdf2ed56db78c"},
        }
        got = {}
        for name, fields in want.items():
            blocks = [prm.simulate(WIN2, MEASURES[name], 20260808, b, 256) for b in (0, 3)]
            got[name] = {f: hashlib.sha256(b"".join(np.ascontiguousarray(
                getattr(batch, f), dtype="<i8" if f == "offsets" else "<f8").tobytes()
                for batch in blocks)).hexdigest() for f in fields}
        assert got == want


class TestLazyFields:
    """simulate draws the counts at once and t, x and z each on its first
    read, each from its own stream, so no read order moves a byte."""

    @pytest.mark.parametrize("order", ["".join(p) for p in itertools.permutations("txz")])
    @pytest.mark.parametrize("rows", [1, 40])
    @pytest.mark.parametrize("name", ["atoms", "tstable", "tempered", "empty"])
    def test_any_read_order(self, name, rows, order):
        # "empty" is a shell without mass: lam = 0, the fields given as arrays
        w = prm.Window(1.0, WIN2.box, Shell(3.0, 9.0)) if name == "empty" else WIN2
        m = ATOMS if name == "empty" else MEASURES[name]
        full = prm.simulate(w, m, 31, 2, rows)
        want = {f: getattr(full, f).tobytes() for f in "txz"}
        batch = prm.simulate(w, m, 31, 2, rows)
        for k, f in enumerate(order):
            assert not set(order[k:]) & set(vars(batch))  # not drawn yet
            assert getattr(batch, f).tobytes() == want[f]
            assert not getattr(batch, f).flags.writeable
        assert same_points(batch, oracles.stream_block(w, m, 31, 2, rows))
        assert (len(batch.t) == 0) == (name == "empty")


def restrict_oracle(c, sub):
    keep = (c.t <= sub.horizon) & sub.shell.contains(c.z)
    for k, (lo, hi) in enumerate(sub.box):
        keep &= (c.x[:, k] >= lo) & (c.x[:, k] <= hi)
    return prm.PointBatch(c.t[keep], c.x[keep], c.z[keep], np.array([0, np.count_nonzero(keep)]),
                          sub, c.seeds)


def narrowed(cut, which):
    """WIN2 with one bound pulled in by the fraction `cut`, or none."""
    box, shell, horizon = list(WIN2.box), WIN2.shell, WIN2.horizon
    if which == "shell":
        shell = Shell(0.1 + 0.9 * cut, 1.0)
    elif which == "horizon":
        horizon = cut
    elif which == "box-lo":
        box[0] = (-0.5 + cut, 0.5)
    elif which == "box-hi":
        box[1] = (0.0, 2.0 * cut)
    return prm.Window(horizon, tuple(box), shell)


class TestRestrict:
    @given(st.integers(0, 2 ** 32 - 1), st.floats(0.05, 0.95),
           st.sampled_from(["none", "shell", "horizon", "box-lo", "box-hi"]))
    @settings(max_examples=60, deadline=None)
    def test_matches_full_mask_oracle(self, seed, cut, which):
        c = prm.simulate(WIN2, TSTABLE, seed)
        sub = narrowed(cut, which)
        assert same_points(prm.restrict(c, sub), restrict_oracle(c, sub))

    def test_points_on_the_window_bounds_kept(self):
        c = prm.PointBatch(np.array([0.0, 1.0]), np.array([[-0.5, 2.0], [0.5, 0.0]]),
                           np.array([1.0, -1.0]), np.array([0, 2]), WIN2, (0, 0))
        assert same_points(prm.restrict(c, WIN2), c)
        sub = narrowed(0.5, "horizon")
        assert same_points(prm.restrict(c, sub), restrict_oracle(c, sub))

    def test_identity(self):
        c = prm.simulate(WIN, ATOMS, 9)
        assert same_points(prm.restrict(c, WIN), c)

    def test_shell_restriction_membership(self):
        c = prm.simulate(WIN, ATOMS, 10)
        sub = prm.Window(1.0, ((-0.5, 0.5),), Shell(0.5, 2.0))
        r = prm.restrict(c, sub)
        assert np.all(np.abs(r.z) > 0.5)
        assert len(r.t) == int(np.sum(np.abs(c.z) > 0.5))

    def test_box_partition_additivity(self):
        c = prm.simulate(WIN, ATOMS, 11)
        left = prm.restrict(c, prm.Window(1.0, ((-0.5, 0.0),), WIN.shell))
        right = prm.restrict(c, prm.Window(1.0, ((0.0, 0.5),), WIN.shell))
        # the shared face x = 0 has probability zero of holding a point
        assert len(left.t) + len(right.t) == len(c.t) + int(np.sum(c.x[:, 0] == 0.0))

    def test_batch_restricts_each_replicate(self):
        batch = prm.simulate(WIN2, TSTABLE, 13, rows=30)
        sub = narrowed(0.4, "box-hi")
        got = prm.restrict(batch, sub)
        assert got.seeds == batch.seeds and got.window == sub
        for k in range(len(batch)):
            assert same_points(replicate(got, k), restrict_oracle(replicate(batch, k), sub))

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=8), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_select_counts_each_replicate(self, counts, seed):
        # empty replicates first, between and last, and masks that keep none
        rng = np.random.default_rng(seed)
        m = sum(counts)
        batch = prm.PointBatch(np.sort(rng.uniform(size=m)), rng.uniform(size=(m, 2)),
                               rng.uniform(0.3, 2.0, size=m), np.cumsum([0] + counts), WIN2,
                               (seed, 0))
        keep = rng.uniform(size=m) < rng.choice([0.0, 0.5, 1.0])
        got = prm.select(batch, keep, WIN2)
        kept = [int(np.count_nonzero(keep[a:b]))
                for a, b in zip(batch.offsets[:-1], batch.offsets[1:])]
        assert got.offsets.tolist() == np.cumsum([0] + kept).tolist()
        assert np.array_equal(got.t, batch.t[keep]) and got.seeds == batch.seeds

    def test_batch_of_one_builds_no_segment(self):
        # a deep configuration goes through restrict, build_path and sup_abs
        # without a per-point replicate index
        from levynoise import integrands as ig, integrate as it

        c = prm.simulate(WIN2, TSTABLE, 14)
        ring = prm.restrict(c, narrowed(0.3, "shell"))
        path = it.build_path(None, None, ig.term(jump=ig.SignPow(1.0)), ring, TSTABLE,
                             split=math.inf)
        path.sup_abs(1.0)
        assert "segment" not in vars(c) and "segment" not in vars(ring)

    def test_not_contained_raises(self):
        c = prm.simulate(WIN, ATOMS, 12)
        with pytest.raises(ValueError):
            prm.restrict(c, prm.Window(2.0, ((-0.5, 0.5),), WIN.shell))

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_restrict_commutes_with_nesting(self, seed):
        c = prm.simulate(WIN, ATOMS, seed)
        mid = prm.Window(0.8, ((-0.4, 0.5),), Shell(0.2, 2.0))
        small = prm.Window(0.5, ((-0.1, 0.3),), Shell(0.2, 1.5))
        once = prm.restrict(c, small)
        twice = prm.restrict(prm.restrict(c, mid), small)
        assert same_points(once, twice)


class TestSeeds:
    def test_replicate_seeds_distinct_and_stable(self):
        seeds = [prm.replicate_seed(123, k) for k in range(100)]
        assert len(set(seeds)) == 100
        assert seeds == [prm.replicate_seed(123, k) for k in range(100)]

    def test_pinned_streams(self):
        # a numpy upgrade or a change that moves the derived seeds fails here
        want = {0: 17310914835580284859, 1: 6653754648352695335,
                10900: 17965983928862618922}
        assert {k: prm.replicate_seed(20260808, k) for k in want} == want


class TestCsv:
    def test_round_trip(self):
        c = prm.simulate(WIN, ATOMS, 77)
        assert same_points(oracles.parse_csv(prm.dump_csv(c)), c)

    def test_rejects_point_outside_window_or_out_of_order(self):
        batch = prm.simulate(WIN, ATOMS, 78, rows=20)
        c = replicate(batch, int(np.argmax(batch.counts >= 2)))  # the first of 2 points or more
        assert len(c.t) >= 2
        head, columns, *rows = prm.dump_csv(c).splitlines()
        t, _, z = rows[-1].split(",")
        outside = rows[:-1] + [f"{t},0.75,{z}"]
        swapped = [rows[1], rows[0]] + rows[2:]
        for bad in (outside, swapped):
            with pytest.raises(ValueError, match="window, in time order"):
                oracles.parse_csv("\n".join([head, columns] + bad))

    def test_one_configuration_only(self):
        batch = prm.simulate(WIN, ATOMS, 1, rows=2)
        with pytest.raises(ValueError, match="one configuration"):
            prm.dump_csv(batch)
        assert same_points(oracles.parse_csv(prm.dump_csv(replicate(batch, 1))),
                           replicate(batch, 1))

    def test_golden_format(self):
        w = prm.Window(1.0, ((0.0, 1.0),), Shell(0.5, math.inf))
        m = DiscreteAtoms(((1.0, 1.0),))
        c = replicate(prm.simulate(w, m, 1, 5, 3), 2)  # replicate 5 S + 2 of master seed 1
        text = prm.dump_csv(c)
        lines = text.splitlines()
        assert lines[0].startswith("# {")
        assert json.loads(lines[0][2:]) == {"replicate": 5 * prm.block_rows(1.0) + 2,
                                            "seed": 1, "window": w.to_json()}
        assert lines[1] == "t,x1,z"
        assert len(lines) == 2 + len(c.t)
