import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from levynoise.measure import DiscreteAtoms, Shell, TemperedStable, TruncatedStable
from levynoise import prm
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
        a = prm.simulate(WIN, ATOMS, seeds=[42])
        b = prm.simulate(WIN, ATOMS, seeds=[42])
        assert len(a) == 1 and a.seeds == (42,)
        assert same_points(a, b)
        c = prm.simulate(WIN, ATOMS, seeds=[43])
        assert not same_points(c, a)

    def test_zero_mass_shell_empty(self):
        w = prm.Window(1.0, ((-0.5, 0.5),), Shell(3.0, 9.0))
        for seed in range(5):
            assert len(prm.simulate(w, ATOMS, [seed]).t) == 0

    def test_infinite_intensity_rejected(self):
        w = prm.Window(1.0, ((-0.5, 0.5),), Shell(0.0, 1.0))
        with pytest.raises((ValueError, Exception)):
            prm.simulate(w, TSTABLE, [0])

    def test_points_inside_window_sorted(self):
        c = prm.simulate(prm.Window(2.0, ((-1.0, 2.0),), Shell(0.05, 1.0)), TSTABLE, [7])
        assert np.all(np.diff(c.t) > 0)
        assert np.all((c.t >= 0) & (c.t <= 2.0))
        assert np.all((c.x[:, 0] >= -1.0) & (c.x[:, 0] <= 2.0))
        assert np.all((np.abs(c.z) > 0.05) & (np.abs(c.z) <= 1.0))

    def test_poisson_mean(self):
        # lam = T |B| nu(shell) = 2 for this window
        w = prm.Window(1.0, ((0.0, 1.0),), Shell(0.5, math.inf))
        m = DiscreteAtoms(((1.0, 1.0), (-2.0, 1.0)))
        counts = np.array([len(prm.simulate(w, m, [prm.replicate_seed(11, k)]).t)
                           for k in range(10 ** 4)])
        se = counts.std(ddof=1) / math.sqrt(len(counts))
        assert abs(counts.mean() - 2.0) <= 4 * se

    def test_halves_independent_chi2(self):
        w = prm.Window(1.0, ((0.0, 1.0),), Shell(0.5, math.inf))
        m = DiscreteAtoms(((1.0, 2.0), (-2.0, 2.0)))  # lam = 4
        first, second = [], []
        for k in range(4000):
            c = prm.simulate(w, m, [prm.replicate_seed(5, k)])
            first.append(int(np.sum(c.t <= 0.5)))
            second.append(int(np.sum(c.t > 0.5)))
        first, second = np.array(first), np.array(second)
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
        w = prm.Window(1.0, ((-1.0, 3.0), (0.0, 2.0)), Shell(0.1, 1.0))
        xs, ys = [], []
        for k in range(300):
            c = prm.simulate(w, TSTABLE, [prm.replicate_seed(3, k)])
            xs.append(c.x[:, 0])
            ys.append(c.x[:, 1])
        xs, ys = np.concatenate(xs), np.concatenate(ys)
        assert stats.kstest(xs, "uniform", args=(-1.0, 4.0)).pvalue > 1e-3
        assert stats.kstest(ys, "uniform", args=(0.0, 2.0)).pvalue > 1e-3


class TestSortPoints:
    @given(st.lists(st.integers(0, 30), min_size=1, max_size=4), st.integers(1, 3),
           st.integers(0, 2 ** 32 - 1), st.sampled_from([None, 2, 7]))
    @settings(max_examples=60, deadline=None)
    def test_matches_lexsort_oracle(self, counts, d, seed, grid):
        n = sum(counts)
        rng = np.random.default_rng(seed)
        t, x, z = rng.uniform(size=n), rng.uniform(size=(n, d)), rng.uniform(size=n)
        if grid is not None:
            # coarse values force ties in t, and ties in x behind them
            t, x = np.round(t * grid) / grid, np.round(x * grid) / grid
        offsets = np.cumsum([0] + counts)
        ts, xs, zs = prm._sort_points(offsets, t, x, z)
        for a, b in zip(offsets[:-1], offsets[1:]):
            order = a + np.lexsort((z[a:b], *x[a:b].T[::-1], t[a:b]))
            assert np.array_equal(ts[a:b], t[order])
            assert np.array_equal(xs[a:b], x[order])
            assert np.array_equal(zs[a:b], z[order])


WIN2 = prm.Window(1.0, ((-0.5, 0.5), (0.0, 2.0)), Shell(0.1, 1.0))
MEASURES = {"atoms": ATOMS, "tstable": TSTABLE,
            "tempered": TemperedStable(alpha=0.5, c=0.8, theta=1.5),
            # a first rejection round of 16 falls short for some replicates
            "short": TemperedStable(alpha=0.5, c=6.0, theta=20.0)}


def tied_draw(grid):
    """prm._draw_block with t and x rounded to a coarse grid: forces tied
    times, and ties in x behind them."""
    draw = prm._draw_block

    def draw_tied(window, measure, lam, rngs):
        offsets, t, x, z = draw(window, measure, lam, rngs)
        return offsets, np.round(t * grid) / grid, np.round(x * grid) / grid, z

    return draw_tied


class TestSimulateBatch:
    @given(st.sampled_from(sorted(MEASURES)), st.integers(1, 3),
           st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(0.1, 2.0)), min_size=3, max_size=3),
           st.lists(st.integers(0, 2 ** 64 - 1), max_size=25),
           st.sampled_from([0.01, 0.37, 1.9]), st.sampled_from([None, 3]))
    @settings(max_examples=80, deadline=None)
    def test_config_is_simulate(self, name, d, axes, seeds, horizon, grid):
        # horizon 0.01 leaves most replicates empty; the grid forces ties.
        # Both are bit for bit the per-replicate draw they replaced.
        w = prm.Window(horizon, tuple((lo, lo + width) for lo, width in axes[:d]), WIN2.shell)
        m = MEASURES[name]
        with mock.patch.object(prm, "_draw_block", tied_draw(grid) if grid else prm._draw_block):
            batch = prm.simulate(w, m, seeds)
            want = [prm.simulate(w, m, [s]) for s in seeds]
        assert len(batch) == len(seeds)
        assert batch.seeds == tuple(seeds)
        assert np.array_equal(batch.counts, [len(c.t) for c in want])
        assert np.array_equal(batch.segment, np.repeat(np.arange(len(seeds)), batch.counts))
        for k, c in enumerate(want):
            assert same_points(replicate(batch, k), c)
        assert same_points(batch, oracles.simulate_per_replicate(w, m, seeds, grid))
        for s, c in zip(seeds, want):
            assert same_points(c, oracles.simulate_per_replicate(w, m, [s], grid))

    def test_configs_are_read_only_views(self):
        batch = prm.simulate(WIN2, ATOMS, [prm.replicate_seed(8, k) for k in range(6)])
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
            prm.simulate(WIN2, m, range(50))
        assert spy.call_count == 1


class TestBlockDraw:
    """The block draw's rejection rounds and streams."""

    def test_tempered_rounds_past_the_first(self):
        seeds = prm.replicate_seeds(3, range(60)).tolist()
        rounds = []
        want = oracles.simulate_per_replicate(WIN2, MEASURES["short"], seeds, rounds=rounds)
        assert 1 in rounds and max(rounds) >= 2
        assert same_points(prm.simulate(WIN2, MEASURES["short"], seeds), want)

    def test_pinned_streams(self):
        # the offsets, times and positions, and the atoms' marks, of 256
        # replicates: arithmetic of + and x alone, so no libm enters.  A
        # change that moves the streams fails here.
        want = {
            "atoms": {
                "offsets": "57174ffe791b519fe6e3b350491a1828e7c6d13fe7dc34427305de4d7bf20436",
                "t": "d0b39e244f24548ce06561fb39c876fc63d4f6542036da79829e57b00ce48ba7",
                "x": "c15f3c4b359958f2b2b93c72abcb3a56be3c08bef822bb022f80226cd18c9d82",
                "z": "c7161e2f9c53ccc92bc1447709d5ffba5e0b5da3c49cf1e24beb7eb4880a1c4d"},
            "tstable": {
                "offsets": "fc0ca20b7bede095b22f963e3707cbbfbf5611eade8805a522da9a90c242d15b",
                "t": "d51b74dc45462d56f859812adaa7680a09d002f5641ef15d2d8def462b8ceabb",
                "x": "012a16a4c9df1e9651ca0c04740bcbfa03bce37481b39a37955192d35ba2c4c1"},
            "tempered": {
                "offsets": "cb293a7b2ba25a9d2fe8ab05b8e9ae9cdb4fba4d3cafb12a90124422cec6d5aa",
                "t": "374b34e88e907d255eaae90d6a09f691bfe643ddd2b36d70da17b088b645091f",
                "x": "bad73c74260d06331c2ba3094ef10cf2c95d406a2d762bd144688a2f66afc953"},
        }
        seeds = prm.replicate_seeds(20260808, range(256)).tolist()
        got = {}
        for name, fields in want.items():
            batch = prm.simulate(WIN2, MEASURES[name], seeds)
            got[name] = {f: hashlib.sha256(np.ascontiguousarray(
                getattr(batch, f), dtype="<i8" if f == "offsets" else "<f8").tobytes()).hexdigest()
                for f in fields}
        assert got == want


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
        c = prm.simulate(WIN2, TSTABLE, [seed])
        sub = narrowed(cut, which)
        assert same_points(prm.restrict(c, sub), restrict_oracle(c, sub))

    def test_points_on_the_window_bounds_kept(self):
        c = prm.PointBatch(np.array([0.0, 1.0]), np.array([[-0.5, 2.0], [0.5, 0.0]]),
                           np.array([1.0, -1.0]), np.array([0, 2]), WIN2, (0,))
        assert same_points(prm.restrict(c, WIN2), c)
        sub = narrowed(0.5, "horizon")
        assert same_points(prm.restrict(c, sub), restrict_oracle(c, sub))

    def test_identity(self):
        c = prm.simulate(WIN, ATOMS, [9])
        assert same_points(prm.restrict(c, WIN), c)

    def test_shell_restriction_membership(self):
        c = prm.simulate(WIN, ATOMS, [10])
        sub = prm.Window(1.0, ((-0.5, 0.5),), Shell(0.5, 2.0))
        r = prm.restrict(c, sub)
        assert np.all(np.abs(r.z) > 0.5)
        assert len(r.t) == int(np.sum(np.abs(c.z) > 0.5))

    def test_box_partition_additivity(self):
        c = prm.simulate(WIN, ATOMS, [11])
        left = prm.restrict(c, prm.Window(1.0, ((-0.5, 0.0),), WIN.shell))
        right = prm.restrict(c, prm.Window(1.0, ((0.0, 0.5),), WIN.shell))
        # the shared face x = 0 has probability zero of holding a point
        assert len(left.t) + len(right.t) == len(c.t) + int(np.sum(c.x[:, 0] == 0.0))

    def test_batch_restricts_each_replicate(self):
        batch = prm.simulate(WIN2, TSTABLE, [prm.replicate_seed(13, k) for k in range(30)])
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
                               tuple(range(len(counts))))
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

        c = prm.simulate(WIN2, TSTABLE, [14])
        ring = prm.restrict(c, narrowed(0.3, "shell"))
        path = it.build_path(None, None, ig.term(jump=ig.SignPow(1.0)), ring, TSTABLE,
                             split=math.inf)
        path.sup_abs(1.0)
        assert "segment" not in vars(c) and "segment" not in vars(ring)

    def test_not_contained_raises(self):
        c = prm.simulate(WIN, ATOMS, [12])
        with pytest.raises(ValueError):
            prm.restrict(c, prm.Window(2.0, ((-0.5, 0.5),), WIN.shell))

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_restrict_commutes_with_nesting(self, seed):
        c = prm.simulate(WIN, ATOMS, [seed])
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
        # a numpy upgrade or a change that moves the streams fails here
        want = {0: 17310914835580284859, 1: 6653754648352695335,
                10900: 17965983928862618922}
        assert {k: prm.replicate_seed(20260808, k) for k in want} == want
        assert prm.replicate_seeds(20260808, list(want)).tolist() == list(want.values())

    @pytest.mark.parametrize("master", [0, 1, -1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1,
                                        2 ** 70 + 5, 20260808])
    def test_block_seeds_are_replicate_seed(self, master):
        ks = list(range(2501)) + [2 ** 32 - 1]
        got = prm.replicate_seeds(master, ks)
        assert got.dtype == np.uint64
        assert got.tolist() == [prm.replicate_seed(master, k) for k in ks]

    def test_block_seeds_take_indices_below_2_32(self):
        assert prm.replicate_seeds(5, []).shape == (0,)
        assert prm.replicate_seeds(5, range(3, 7)).tolist() == [
            prm.replicate_seed(5, k) for k in range(3, 7)]
        for ks in ([-1], [2 ** 32], [0, 2 ** 70]):
            with pytest.raises(ValueError, match="2\\*\\*32"):
                prm.replicate_seeds(5, ks)

    @given(st.lists(st.integers(-2 ** 65, 2 ** 66), max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_block_generators_are_default_rng(self, seeds):
        for s, got in zip(seeds, prm._generators(seeds), strict=True):
            assert got.bit_generator.state == np.random.default_rng(s % 2 ** 64).bit_generator.state

    def test_block_generators_draw_as_default_rng(self):
        seeds = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 1, 2 ** 63, 2 ** 64 - 1]
        seeds += prm.replicate_seeds(20260808, range(40)).tolist()
        for s, got in zip(seeds, prm._generators(seeds), strict=True):
            want = np.random.default_rng(s)
            assert got.bit_generator.state == want.bit_generator.state
            assert got.poisson(2.5) == want.poisson(2.5)
            assert np.array_equal(got.uniform(-1.0, 2.0, size=7), want.uniform(-1.0, 2.0, size=7))
            assert np.array_equal(got.integers(0, 2 ** 40, size=3), want.integers(0, 2 ** 40, size=3))


class TestCsv:
    def test_round_trip(self):
        c = prm.simulate(WIN, ATOMS, [77])
        assert same_points(prm.parse_csv(prm.dump_csv(c)), c)

    def test_rejects_point_outside_window_or_out_of_order(self):
        c = prm.simulate(WIN, ATOMS, [78])
        assert len(c.t) >= 2
        head, columns, *rows = prm.dump_csv(c).splitlines()
        t, _, z = rows[-1].split(",")
        outside = rows[:-1] + [f"{t},0.75,{z}"]
        swapped = [rows[1], rows[0]] + rows[2:]
        for bad in (outside, swapped):
            with pytest.raises(ValueError, match="window, in time order"):
                prm.parse_csv("\n".join([head, columns] + bad))

    def test_one_configuration_only(self):
        batch = prm.simulate(WIN, ATOMS, [1, 2])
        with pytest.raises(ValueError, match="one configuration"):
            prm.dump_csv(batch)
        assert same_points(prm.parse_csv(prm.dump_csv(replicate(batch, 1))),
                           replicate(batch, 1))

    def test_golden_format(self):
        w = prm.Window(1.0, ((0.0, 1.0),), Shell(0.5, math.inf))
        m = DiscreteAtoms(((1.0, 1.0),))
        c = prm.simulate(w, m, [1])
        text = prm.dump_csv(c)
        lines = text.splitlines()
        assert lines[0].startswith("# {")
        assert lines[1] == "t,x1,z"
        assert len(lines) == 2 + len(c.t)
