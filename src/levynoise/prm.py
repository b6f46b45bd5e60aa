"""Poisson random measure on a bounded window [0,T] x box x shell.

Simulation follows the classical compound-Poisson representation: the point
count is Poisson with intensity T |B| nu(shell), arrival times are sorted
uniforms (on t alone; a tie, of probability zero, falls back to a lexsort on
(t, x, z)), and the (x, z) marks are i.i.d. with the normalized product law.
Every realization is a `PointBatch`: `simulate` draws one replicate per
seed, and one configuration is the batch of one seed.  Restriction keeps the
same underlying realization, which is what makes the interlacing ladders
couplings rather than independent resimulations.

Seeds are numpy's: replicate k of master seed m has `replicate_seed(m, k)`,
the first uint64 of `SeedSequence(m, spawn_key=(k,))`, and draws from
`default_rng` of that seed.  A block of replicates gets both in one pass:
`replicate_seeds` hashes all its seeds at once, and `simulate` hashes
them once more into the PCG64 state words `default_rng` would derive.  The
hash (O'Neill's seed_seq_fe, as `numpy.random.SeedSequence` implements it)
is uint32 arithmetic whose hash constants do not depend on the data, so the
block pass is bit-identical to the scalar calls.

A block is drawn in two passes over its generators: each draws its count
and the uniforms of its t and x (`_draw_block`), then those of its marks
(`LevyMeasure.sample_shell`).  Each generator makes the calls
`Generator.poisson`, `uniform` and `choice` would make for it alone, and
the arithmetic those calls do on the uniforms is done once for the block,
so every replicate has the bytes it has alone.
"""

from __future__ import annotations

import functools
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .measure import LevyMeasure, Shell, uniforms


@dataclass(frozen=True)
class Window:
    """Simulation window: horizon x axis-aligned box x jump shell."""

    horizon: float
    box: tuple[tuple[float, float], ...]
    shell: Shell

    def __post_init__(self):
        if self.horizon <= 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if not 1 <= len(self.box) <= 3:
            raise ValueError(f"box dimension must be 1..3, got {len(self.box)}")
        for lo, hi in self.box:
            if not lo < hi:
                raise ValueError(f"degenerate box axis ({lo}, {hi})")

    @property
    def dim(self) -> int:
        return len(self.box)

    @property
    def box_volume(self) -> float:
        vol = 1.0
        for lo, hi in self.box:
            vol *= hi - lo
        return vol

    def contains(self, other: "Window") -> bool:
        if other.horizon > self.horizon or other.dim != self.dim:
            return False
        for (lo, hi), (olo, ohi) in zip(self.box, other.box):
            if olo < lo or ohi > hi:
                return False
        return other.shell.lo >= self.shell.lo and other.shell.hi <= self.shell.hi

    def to_json(self) -> dict:
        return {"horizon": self.horizon,
                "box": [[lo, hi] for lo, hi in self.box],
                "shell": [self.shell.lo, self.shell.hi]}

    @staticmethod
    def from_json(d: dict) -> "Window":
        lo, hi = d["shell"]
        return Window(float(d["horizon"]),
                      tuple((float(a), float(b)) for a, b in d["box"]),
                      Shell(float(lo), math.inf if hi in ("inf", None) else float(hi)))


def _sort_points(offsets, t, x, z):
    """(t, x, z) with each replicate's rows sorted on t; a replicate with a
    tie in t (probability zero) sorts on (t, x, z) instead."""
    if len(offsets) == 2:
        order = np.argsort(t)  # a batch of one needs no replicate index
    else:
        order = np.lexsort((t, np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))))
    ts = t[order]
    i = np.flatnonzero(ts[1:] == ts[:-1])  # rows i and i + 1 tie
    if len(i):
        rep, rep_next = (np.searchsorted(offsets, j, side="right") - 1 for j in (i, i + 1))
        for k in sorted(set(rep[rep == rep_next].tolist())):  # np.unique imports numpy.ma
            a, b = offsets[k], offsets[k + 1]
            order[a:b] = a + np.lexsort((z[a:b], *x[a:b].T[::-1], t[a:b]))
            ts[a:b] = t[order[a:b]]
    return ts, x[order], z[order]


def intensity(window: Window, measure: LevyMeasure) -> float:
    """Expected point count T |B| nu(shell) of one configuration."""
    mass = measure.shell_mass(window.shell)
    if not mass < math.inf:
        raise ValueError("shell intensity is infinite; truncate the shell away from 0")
    return window.horizon * window.box_volume * mass


def _draw_block(window: Window, measure: LevyMeasure, lam: float, rngs):
    """The unsorted points of one replicate per generator, as (offsets, t,
    x, z) in replicate order: the one place streams become points.

    Each generator draws its Poisson count, then the (1 + d, n) uniforms of
    t and x, then its marks in `sample_shell`: the calls of
    `Generator.poisson`, `uniform` and `choice` one replicate at a time,
    with their arithmetic done once over the block."""
    counts = [int(rng.poisson(lam)) for rng in rngs] if lam > 0 else [0] * len(rngs)
    u = uniforms(rngs, counts, 1 + window.dim)
    for row, (lo, hi) in zip(u, ((0.0, window.horizon), *window.box)):
        row *= hi - lo  # Generator.uniform(lo, hi) is lo + (hi - lo) u
        row += lo
    z = measure.sample_shell(window.shell, rngs, counts) if lam > 0 else np.empty(0)
    return np.cumsum([0] + counts), u[0], u[1:].T, z


@dataclass(frozen=True, eq=False)
class PointBatch:
    """Replicates drawn one seed each, concatenated in replicate order.

    Replicate k holds rows offsets[k]:offsets[k + 1] of (t, x, z), sorted
    as `_sort_points` sorts them.  One configuration is the batch of one.
    """

    t: np.ndarray        # (m,)
    x: np.ndarray        # (m, d)
    z: np.ndarray        # (m,)
    offsets: np.ndarray  # (n + 1,)
    window: Window
    seeds: tuple[int, ...]

    def __post_init__(self):
        for arr in (self.t, self.x, self.z, self.offsets):
            arr.setflags(write=False)

    def __len__(self):
        return len(self.seeds)

    @property
    def counts(self) -> np.ndarray:
        return np.diff(self.offsets)

    @functools.cached_property
    def segment(self) -> np.ndarray:
        """The replicate index of each row; built on first use, since a
        batch of one large configuration rarely needs it."""
        seg = np.repeat(np.arange(len(self)), self.counts)
        seg.setflags(write=False)
        return seg


def simulate(window: Window, measure: LevyMeasure, seeds) -> PointBatch:
    """One replicate per seed, drawn from `default_rng(seed % 2**64)`; the
    shell mass, the generators' seeding and the points' arithmetic are done
    once per batch, and each replicate is deterministic given (window,
    measure, seed)."""
    seeds = tuple(int(s) for s in seeds)
    offsets, t, x, z = _draw_block(window, measure, intensity(window, measure),
                                   _generators(seeds))
    return PointBatch(*_sort_points(offsets, t, x, z), offsets, window, seeds)


def restrict(batch: PointBatch, sub: Window) -> PointBatch:
    """Keep exactly the points inside `sub`, replicate by replicate; a
    coupling, not a resimulation."""
    if not batch.window.contains(sub):
        raise ValueError(f"{sub} is not contained in the source window")
    # every point lies inside batch.window: test only the bounds sub narrows
    keep = sub.shell.contains(batch.z)
    if sub.horizon < batch.window.horizon:
        keep &= batch.t <= sub.horizon
    for k, (bounds, (lo, hi)) in enumerate(zip(batch.window.box, sub.box)):
        if bounds != (lo, hi):
            keep &= (batch.x[:, k] >= lo) & (batch.x[:, k] <= hi)
    return select(batch, keep, sub)


def select(batch: PointBatch, keep, window: Window) -> PointBatch:
    """The points where the mask `keep` holds, as a batch on `window` with
    the same seeds; each replicate keeps its rows in time order."""
    # kept rows per replicate in one pass: a False sentinel gives every start
    # a row, and an empty replicate (summed as the row at its start) gets 0
    kept = np.add.reduceat(np.append(keep, False), batch.offsets[:-1], dtype=np.intp)
    kept[batch.offsets[1:] == batch.offsets[:-1]] = 0
    return PointBatch(batch.t[keep], batch.x[keep], batch.z[keep],
                      np.concatenate([[0], np.cumsum(kept)]), window, batch.seeds)


def replicate_seed(master_seed: int, k: int) -> int:
    """Counter-based derivation: replicate k's stream is independent of
    scheduling and of every other replicate."""
    ss = np.random.SeedSequence(int(master_seed) % 2 ** 64, spawn_key=(int(k),))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def replicate_seeds(master_seed: int, ks) -> np.ndarray:
    """[replicate_seed(master_seed, k) for k in ks] as a uint64 array, hashed
    in one pass; each k must lie in [0, 2**32)."""
    ks = np.asarray(ks)
    if ks.size and not (ks.min() >= 0 and ks.max() <= _MASK32):
        raise ValueError("replicate indices must lie in [0, 2**32)")
    # The master's words fill the pool (SeedSequence pads them to its size
    # when a spawn key follows), so its pool is SeedSequence(master)'s; the
    # spawn key k is the fifth entropy word, hashmix calls 16 to 19.
    pool = np.random.SeedSequence(int(master_seed) % 2 ** 64).pool[:, None]
    pool = _mix(pool, _hashmix(ks.astype(np.uint32), _HASH_A, 16, 4))
    return _generate_state(pool, 1)[:, 0]


# numpy.random.SeedSequence's hash (O'Neill's seed_seq_fe) on uint32 arrays,
# which wrap as its C code does.  Hashmix call i xors a word with entry i of
# a hash-constant chain and multiplies it by entry i + 1.
_MASK32 = 0xFFFFFFFF
_XSHIFT = 16
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hash_chain(init: int, mult: int, n: int) -> np.ndarray:
    chain = [init]
    for _ in range(n):
        chain.append(chain[-1] * mult & _MASK32)
    return np.array(chain, dtype=np.uint32)[:, None]


_HASH_A = _hash_chain(0x43B0D7E5, 0x931E8875, 20)  # mixing the entropy
_HASH_B = _hash_chain(0x8B51F9DD, 0x58F38DED, 8)   # generating the state


def _hashmix(words, chain: np.ndarray, i: int, count: int) -> np.ndarray:
    """Hashmix calls i to i + count - 1, call i + r on row r of `words`
    (broadcast): shape (count, n)."""
    words = (words ^ chain[i:i + count]) * chain[i + 1:i + count + 1]
    return words ^ (words >> _XSHIFT)


def _mix(x, y):
    value = _MIX_MULT_L * x - _MIX_MULT_R * y
    return value ^ (value >> _XSHIFT)


def _mix_entropy(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence's pool, shape (4, n), of at most four entropy words per
    column of `entropy`; fewer words hash as if padded with zeros."""
    pool = np.zeros((4, entropy.shape[1]), dtype=np.uint32)
    pool[:len(entropy)] = entropy
    pool = _hashmix(pool, _HASH_A, 0, 4)
    for src in range(4):
        # numpy updates pool[dst] for each dst != src in turn; pool[src] stays
        dst = [d for d in range(4) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], _HASH_A, 4 + 3 * src, 3))
    return pool


def _generate_state(pool: np.ndarray, n_words: int) -> np.ndarray:
    """SeedSequence.generate_state(n_words, np.uint64) of each column of the
    pool: shape (n, n_words), C-contiguous, since PCG64 reads a row's words
    straight from its memory."""
    halves = _hashmix(pool[np.arange(2 * n_words) % 4], _HASH_B, 0, 2 * n_words)
    halves = halves.astype(np.uint64)
    return np.ascontiguousarray((halves[0::2] | (halves[1::2] << np.uint64(32))).T)


def _generators(seeds) -> list:
    """`default_rng(seed % 2**64)` of each seed, in order.

    PCG64 seeds itself from generate_state(4, np.uint64) of SeedSequence(seed),
    hashed here for all the seeds in one pass.  A seed below 2**32 is one
    entropy word, which hashes as the pair (seed, 0).  One seed takes numpy's
    own call, which costs less than the pass's fixed cost."""
    if len(seeds) == 1:
        return [np.random.default_rng(seeds[0] % 2 ** 64)]
    s = np.array([s % 2 ** 64 for s in seeds], dtype=np.uint64)
    words = _generate_state(_mix_entropy(np.stack([s & _MASK32, s >> 32]).astype(np.uint32)), 4)
    seed_words = _seed_words_type()
    return [np.random.Generator(np.random.PCG64(seed_words(row))) for row in words]


@functools.cache
def _seed_words_type() -> type:
    """A seed sequence that hands PCG64 precomputed state words.  Defined on
    first use, so importing prm does not import numpy.random."""

    class SeedWords(np.random.bit_generator.ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return SeedWords


# ---------------------------------------------------------------------------
# CSV round trip (JSON header line, then t,x1..xd,z rows)


def dump_csv(batch: PointBatch) -> str:
    """The points of a batch of one as CSV text."""
    if len(batch) != 1:
        raise ValueError(f"dump_csv writes one configuration, got {len(batch)}")
    d = batch.window.dim
    buf = io.StringIO()
    header = {"window": batch.window.to_json(), "seed": batch.seeds[0]}
    buf.write("# " + json.dumps(header, sort_keys=True) + "\n")
    buf.write("t," + ",".join(f"x{k + 1}" for k in range(d)) + ",z\n")
    for i in range(len(batch.t)):
        row = [f"{batch.t[i]:.17g}"]
        row += [f"{batch.x[i, k]:.17g}" for k in range(d)]
        row.append(f"{batch.z[i]:.17g}")
        buf.write(",".join(row) + "\n")
    return buf.getvalue()


def parse_csv(text: str) -> PointBatch:
    """The batch of one that `dump_csv` wrote, checked."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("#"):
        raise ValueError("missing JSON header line")
    header = json.loads(lines[0][1:].strip())
    window = Window.from_json(header["window"])
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
    return PointBatch(t, x, z, np.array([0, n]), window, (int(header["seed"]),))
