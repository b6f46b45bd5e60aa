"""The replicate loop: independent realizations of the Poisson random
measure with deterministic seeding, their Monte Carlo fold, and z-score
verdicts."""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .prm import replicate_seed, simulate


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


def map_replicates(experiment, window, measure, n: int, master_seed: int,
                   workers: int = 1) -> list:
    """[experiment(k, config_k) for k in range(n)], where config_k is
    simulate(window, measure, replicate_seed(master_seed, k)).

    The only place a replicate's configuration is drawn.  Outputs come back
    in replicate order and no configuration outlives its replicate, so the
    result never depends on the worker count or scheduling.
    """

    def one(k):
        try:
            return experiment(k, simulate(window, measure, replicate_seed(master_seed, k)))
        except Exception as exc:
            raise RuntimeError(f"experiment failed at replicate {k}: {exc}") from exc

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(one, range(n)))
    return [one(k) for k in range(n)]


def run_replicates(experiment, window, measure, n: int, master_seed: int,
                   workers: int = 1) -> McEstimate:
    """Mean and standard error of `experiment(k, config_k)` over the n
    replicates of `map_replicates`, folded in replicate order."""
    if n < 2:
        raise ValueError("need at least 2 replicates for a standard error")
    return estimate(map_replicates(experiment, window, measure, n, master_seed, workers),
                    master_seed)


def estimate(values, master_seed: int) -> McEstimate:
    """Mean and ddof-1 standard error of the replicate values along their
    first axis: floats for 1-D values, arrays otherwise."""
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


@dataclass(frozen=True)
class Verdict:
    passed: bool
    z: float
    estimate: object
    target: object
    se: object
    k_sigma: float


def _component_z(delta: float, se: float) -> float:
    if se > 0:
        return abs(delta) / se
    return 0.0 if delta == 0.0 else math.inf


def verdict(est: McEstimate, target, k_sigma: float = 4.0, atol: float = 0.0) -> Verdict:
    """Pass iff |mean - target| <= k_sigma * se, componentwise for complex
    or vector estimates.

    `atol` adds an absolute floor for identities that hold exactly up to
    floating-point dust, where the sample spread itself is numerical noise.
    """
    mean = np.asarray(est.mean)
    tgt = np.asarray(target)
    se = np.asarray(est.se)
    if np.iscomplexobj(mean) or np.iscomplexobj(tgt):
        dre = np.abs(mean.real - tgt.real)
        dim = np.abs(mean.imag - np.asarray(tgt, dtype=complex).imag)
        zs = np.maximum(
            np.vectorize(_component_z)(dre, np.asarray(se).real),
            np.vectorize(_component_z)(dim, np.asarray(se).imag))
        ok = ((dre <= k_sigma * np.asarray(se).real + atol)
              & (dim <= k_sigma * np.asarray(se).imag + atol))
    else:
        d = np.abs(mean - tgt)
        zs = np.vectorize(_component_z)(d, se)
        ok = d <= k_sigma * se + atol
    return Verdict(bool(np.all(ok)), float(np.max(zs)), est.mean, target,
                   est.se, k_sigma)
