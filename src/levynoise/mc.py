"""The replicate engine: the stream blocks of a master seed, their Monte
Carlo fold, and z-score verdicts."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .prm import block_rows, intensity, simulate, stack


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo mean with standard error and seed provenance.

    For complex-valued experiments `se` is complex and carries the per-
    component standard errors in its real and imaginary parts; for vector
    experiments mean/se are arrays.
    """

    mean: object
    se: object
    n: int
    master_seed: int


def batches(window, measure, n: int, master_seed: int):
    """The n replicates of master_seed, one `prm` stream block at a time,
    the last cut to n: yields (k0, batch) with replicate j of the batch the
    replicate k0 + j.  `prm.BLOCK_POINTS` sets both the blocks and the
    memory they take; replicate k drawn alone is row k mod S of
    simulate(window, measure, master_seed, k // S, k mod S + 1)."""
    size = block_rows(intensity(window, measure))
    for k0 in range(0, n, size):
        yield k0, simulate(window, measure, master_seed, k0 // size, min(size, n - k0))


def replicate_values(statistic, window, measure, n: int, master_seed: int) -> list:
    """Each array of the tuple statistic(batch) returns, one value per
    replicate of the batch, concatenated over the blocks of `batches`: one
    value per replicate, in replicate order."""
    return group_values(statistic, window, measure, n, (master_seed,))[0]


def group_values(statistic, window, measure, n: int, master_seeds) -> list:
    """replicate_values of each master seed, all at once: statistic gets
    the seeds' stream blocks as one `prm.stack`, in seed order, and each
    array it returns is cut back into their equal runs.  Each block is freed
    before the next is drawn, so a block of one large configuration never
    meets the next."""
    k, blocks = len(master_seeds), []
    for group in zip(*(batches(window, measure, n, seed) for seed in master_seeds)):
        (k0, first), batch = group[0], stack([b for _, b in group])
        try:
            blocks.append([np.asarray(a) for a in statistic(batch)])
        except Exception as exc:
            raise RuntimeError(f"statistic failed on replicate {k0} to "
                               f"{k0 + len(first) - 1}: {exc}") from exc
        del group, first, batch
    return [[np.concatenate([a[i * len(a) // k:(i + 1) * len(a) // k] for a in col])
             for col in zip(*blocks)] for i in range(k)]


def run_replicates(statistic, window, measure, n: int, master_seed: int) -> McEstimate:
    """Mean and standard error of the rows `statistic(batch)` returns, one
    per replicate of the batch, over the n replicates of `batches`, folded
    in replicate order."""
    if n < 2:
        raise ValueError("need at least 2 replicates for a standard error")
    rows, = replicate_values(lambda batch: (np.asarray(statistic(batch)),),
                             window, measure, n, master_seed)
    return estimate(rows, master_seed)


def estimate(values, master_seed: int) -> McEstimate:
    """Mean and ddof-1 standard error of the replicate values along their
    first axis: floats for 1-D values, arrays otherwise.

    numpy folds the columns of a 2-D array row after row, but a 1-D array
    by pairwise summation, so a column's mean and standard error can differ
    in the last bits between being folded alone and beside others: merging
    or splitting the columns of a statistic moves bytes."""
    values = np.asarray(values)
    n = len(values)
    mean = values.mean(axis=0)
    if np.iscomplexobj(values):
        se = (values.real.std(axis=0, ddof=1) / math.sqrt(n)
              + 1j * values.imag.std(axis=0, ddof=1) / math.sqrt(n))
    else:
        se = values.std(axis=0, ddof=1) / math.sqrt(n)
    if values.ndim == 1:
        mean = complex(mean) if np.iscomplexobj(values) else float(mean)
        se = complex(se) if np.iscomplexobj(values) else float(se)
    return McEstimate(mean, se, n, int(master_seed))


# Every Monte Carlo verdict's bound, in standard errors: a z-verdict that
# meets its own assumptions fails about 6e-5 of the time.  Read at each call.
K_SIGMA = 4.0


@dataclass(frozen=True)
class Verdict:
    passed: bool
    z: float


def verdict(mean, se, target, atol: float = 0.0) -> Verdict:
    """Pass iff |mean - target| <= K_SIGMA * se, componentwise for vector
    estimates and for the (re, im) pairs of complex ones; a NaN or inf in
    the mean, target or se never passes.

    `atol` adds an absolute floor for identities that hold exactly up to
    floating-point dust, where the sample spread itself is numerical noise.
    """
    mean, tgt, se = (np.asarray(v) for v in (mean, target, se))
    if np.iscomplexobj(mean) or np.iscomplexobj(tgt):
        mean, tgt, se = (np.stack([c.real, c.imag], axis=-1)
                         for c in (np.asarray(v, dtype=complex) for v in (mean, tgt, se)))
    d = np.abs(mean - tgt)
    with np.errstate(divide="ignore", invalid="ignore"):
        zs = np.where(se > 0, d / se, np.where(d == 0.0, 0.0, math.inf))
    ok = np.isfinite(d) & np.isfinite(se) & (d <= K_SIGMA * se + atol)
    return Verdict(bool(np.all(ok)), float(np.max(zs)))
