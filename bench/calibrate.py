"""Fixed reference computations, timed next to the program to take the
host's CPU speed out of the benchmark's times.

On a shared virtual machine the speed one process gets changes by up to 2x
between spells that last from seconds to minutes, and the program's times
follow.  A spell does not slow every kind of work by the same factor, so
there is one reference computation per kind of work a workload spends its
time on:

- "calls": numpy calls on small arrays, seeding and drawing from numpy
  generators, and JSON encoding; the per-call overhead of many small
  configurations and per-path quadrature.  A pure-Python loop slows down
  less than such work does.
- "arrays": `np.lexsort` of large float keys; the per-point work of huge
  configurations, whose cost is mostly `prm._sort_points`.  Such work slows
  down much less than "calls" does.

A time divided by the calibration time next to it, times the calibration's
`REF_S`, is that time in seconds at the reference speed: the speed at which
the calibration takes exactly `REF_S`.  The calibrations are the
benchmark's own code and call nothing of levynoise, so a change to the
program moves the scaled times exactly as it moves the raw ones.
"""

from __future__ import annotations

import functools
import json
import time

import numpy as np

# Seconds each calibration takes at the reference speed.  They only set the
# unit: each is about that calibration's median time on a 2-core Intel Xeon
# virtual machine.
REF_S = {"calls": 0.020, "arrays": 0.080}

_GRID = np.linspace(0.1, 1.0, 64)
_DOC = {"rows": [{"i": i, "x": i * 0.5, "name": f"cell-{i}"} for i in range(2000)]}


def _calls() -> None:
    for k in range(400):
        x = _GRID * (k + 1)
        float(np.sum(np.exp(-x)) + np.max(np.abs(np.diff(x))))
    for k in range(250):
        rng = np.random.default_rng([7, k])
        float(rng.poisson(3.0) + rng.uniform(size=4).sum())
    json.dumps(_DOC)


@functools.cache
def _sort_keys() -> tuple[np.ndarray, ...]:
    rng = np.random.default_rng(3)
    return tuple(rng.random(150_000) for _ in range(3))


def _arrays() -> None:
    np.lexsort(_sort_keys())


_WORK = {"calls": _calls, "arrays": _arrays}


def calibrate(kind: str) -> float:
    """Seconds one run of the reference computation of `kind` takes now."""
    work = _WORK[kind]
    t0 = time.perf_counter()
    work()
    return time.perf_counter() - t0


def scaled(seconds: float, kind: str, *calibrations: float) -> float:
    """`seconds` at the reference speed, given calibration times of `kind`
    measured next to it (their mean stands for the speed while `seconds`
    ran)."""
    return seconds * REF_S[kind] * len(calibrations) / sum(calibrations)
