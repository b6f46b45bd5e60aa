"""Poisson random measure on a bounded window [0,T] x box x shell.

Simulation follows the classical compound-Poisson representation: the point
count is Poisson with intensity T |B| nu(shell), the arrival times are the
uniform order statistics, and the (x, z) marks are i.i.d. with the
normalized product law.  Every realization is a `PointBatch` of replicates;
one configuration is the batch of one.  Restriction keeps the same
underlying realization.  The points of a Poisson random measure in disjoint
sets are independent Poisson random measures (Kingman, *Poisson
Processes*, 1993, 2.2), so a restriction has the law of a draw on the
subwindow alone; the interlacing rings are drawn that way, each on its own.

Streams are counter-based (Salmon et al., "Parallel random numbers: as easy
as 1, 2, 3", SC 2011).  The replicates of master seed s come in stream
blocks of S = `block_rows(lam)` replicates, lam the intensity: replicate k
is row k mod S of block k // S.  Field f of block b (0 counts, 1 times, 2
locations, 3 marks) draws from `Generator(Philox(key=s % 2**64,
counter=[0, 0, b, f]))`; b sits in counter word 2 because word 0 counts the
draws, and streams that start a few counts apart overlap.  The counts are
drawn with the batch, and each other field on its first read: as each field
has its own stream, no read order moves a byte.  Each field draws
row after row, so the first r rows of a block are the same whether r or S
rows are drawn, and a partial block costs only its rows.  A replicate's
times are its n + 1 exponentials, cumulated (over the block, in place) and
divided by their total, times T: uniform order statistics as normalized
exponential partial sums (Devroye, *Non-Uniform Random Variate Generation*,
1986, ch. V 2), so they come out in order and nothing is sorted.  A
time carries the rounding of the block's running sum, about S (lam + 1):
up to 1.5e-11 T in a block at lam = 2.1 (S = 8192), 1e-8 T at lam = 0.01.
"""

from __future__ import annotations

import functools
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .measure import LevyMeasure, Shell

# Expected points per stream block, whose replicate count is a power of two:
# a part of the stream, as the seed is, and the bound on a block's memory.
BLOCK_POINTS = 1 << 15


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


def intensity(window: Window, measure: LevyMeasure) -> float:
    """Expected point count T |B| nu(shell) of one configuration."""
    mass = measure.shell_mass(window.shell)
    if not mass < math.inf:
        raise ValueError("shell intensity is infinite; truncate the shell away from 0")
    return window.horizon * window.box_volume * mass


def block_rows(lam: float) -> int:
    """The replicates of one stream block at intensity lam: the largest
    power of two whose expected points fit BLOCK_POINTS, and at least one;
    BLOCK_POINTS when lam is 0."""
    if lam <= 0:
        return BLOCK_POINTS
    return 1 << max(int(BLOCK_POINTS // lam).bit_length() - 1, 0)


def _draw_block(window: Window, measure: LevyMeasure, lam: float, key: int, block: int,
                rows: int):
    """Rows 0 to rows - 1 of a stream block as (offsets, t, x, z), in
    replicate order and each replicate's times in order: the one place
    streams become points; t, x and z come as functions that draw them."""
    d = window.dim
    if lam == 0:
        return np.zeros(rows + 1, dtype=np.int64), np.empty(0), np.empty((0, d)), np.empty(0)
    stream = lambda f: np.random.Generator(np.random.Philox(key=key, counter=[0, 0, block, f]))
    sizes = stream(0).poisson(lam, rows)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    n = int(offsets[-1])

    def times():
        # replicate i's n_i + 1 exponentials end at last[i]: its partial sums
        # less those of the replicates before it, over their total
        cum = stream(1).standard_exponential(n + rows)
        np.cumsum(cum, out=cum)
        last = offsets[1:] + np.arange(rows)
        if rows == 1:  # a view of the sums: no copy of one deep configuration
            t = cum[:n]
            t /= cum[n]
        else:
            total = cum[last]
            base = np.concatenate([[0.0], total])[:-1]
            t = np.delete(cum, last)
            t -= np.repeat(base, sizes)
            t /= np.repeat(total - base, sizes)
        return np.multiply(t, window.horizon, out=t)

    def locations():
        lo, hi = np.array(window.box).T
        x = stream(2).random((n, d))
        return np.add(np.multiply(x, hi - lo, out=x), lo, out=x)

    return offsets, times, locations, lambda: measure.sample_shell(window.shell, stream(3), n)


def _drawn(field) -> np.ndarray:  # a batch field, drawn now if a function; read-only
    arr = field() if callable(field) else field
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class PointBatch:
    """Consecutive replicates of one master seed, concatenated in replicate
    order.

    Replicate k holds rows offsets[k]:offsets[k + 1] of (t, x, z), in time
    order; each of t, x and z may be given as a function that draws it on
    first read.  `seeds` is the provenance: the master seed and the index of
    the batch's first replicate.  One configuration is the batch of one.
    """

    _t: object           # (m,)
    _x: object           # (m, d)
    _z: object           # (m,)
    offsets: np.ndarray  # (n + 1,)
    window: Window
    seeds: tuple[int, int]

    def __post_init__(self):
        self.offsets.setflags(write=False)

    t = functools.cached_property(lambda self: _drawn(self._t))
    x = functools.cached_property(lambda self: _drawn(self._x))
    z = functools.cached_property(lambda self: _drawn(self._z))

    def __len__(self):
        return len(self.offsets) - 1

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


def simulate(window: Window, measure: LevyMeasure, seed: int, block: int = 0,
             rows: int = 1) -> PointBatch:
    """Rows 0 to rows - 1 of stream block `block` of master seed `seed`:
    its replicates block * S to block * S + rows - 1, S = block_rows of the
    intensity.  One configuration is simulate(window, measure, seed)."""
    lam = intensity(window, measure)
    size = block_rows(lam)
    if not 0 <= rows <= size:
        raise ValueError(f"a stream block holds {size} replicates, asked for {rows}")
    key = int(seed) % 2 ** 64
    offsets, t, x, z = _draw_block(window, measure, lam, key, int(block), rows)
    return PointBatch(t, x, z, offsets, window, (key, int(block) * size))


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
    the same provenance; each replicate keeps its rows in time order."""
    # kept rows per replicate in one pass: a False sentinel gives every start
    # a row, and an empty replicate (summed as the row at its start) gets 0
    kept = np.add.reduceat(np.append(keep, False), batch.offsets[:-1], dtype=np.intp)
    kept[batch.offsets[1:] == batch.offsets[:-1]] = 0
    return PointBatch(batch.t[keep], batch.x[keep], batch.z[keep],
                      np.concatenate([[0], np.cumsum(kept)]), window, batch.seeds)


def stack(batches) -> PointBatch:
    """The replicates of the batches one after another, as one batch with the
    first's window and provenance; a stack of one batch is that batch."""
    if len(batches) == 1:
        return batches[0]
    offsets = np.concatenate([[0], np.cumsum(np.concatenate([b.counts for b in batches]))])
    return PointBatch(*(np.concatenate([getattr(b, f) for b in batches]) for f in "txz"),
                      offsets, batches[0].window, batches[0].seeds)


def replicate_seed(master_seed: int, k: int) -> int:
    """The first uint64 of SeedSequence(master_seed, spawn_key=(k,)): a
    master seed derived from another, one per statistic of a run."""
    ss = np.random.SeedSequence(int(master_seed) % 2 ** 64, spawn_key=(int(k),))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


# ---------------------------------------------------------------------------
# CSV export (JSON header line, then t,x1..xd,z rows)


def dump_csv(batch: PointBatch) -> str:
    """The points of a batch of one as CSV text."""
    if len(batch) != 1:
        raise ValueError(f"dump_csv writes one configuration, got {len(batch)}")
    d = batch.window.dim
    buf = io.StringIO()
    seed, replicate = batch.seeds
    header = {"window": batch.window.to_json(), "seed": seed, "replicate": replicate}
    buf.write("# " + json.dumps(header, sort_keys=True) + "\n")
    buf.write("t," + ",".join(f"x{k + 1}" for k in range(d)) + ",z\n")
    for i in range(len(batch.t)):
        row = [f"{batch.t[i]:.17g}"]
        row += [f"{batch.x[i, k]:.17g}" for k in range(d)]
        row.append(f"{batch.z[i]:.17g}")
        buf.write(",".join(row) + "\n")
    return buf.getvalue()
