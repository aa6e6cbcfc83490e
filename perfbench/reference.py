"""A fixed reference kernel that measures how fast the machine is right now.

The benchmark's machine is shared: its CPU speed swings by up to 2x over
tens of seconds while other tenants load the physical cores, so the wall time
of one op says as much about the neighbours as about the program. The kernel
below does a fixed amount of the kinds of work the program's ops do (an
interpreter loop, numpy gathers and sums over index sets like the lattice's
lower sets, numpy calls on tiny arrays, and passes over a 4 MB array) and
never calls the program. ``run.py`` times it before the first op and after
every op; an op's cost is its wall time divided by the mean of the kernel
times on either side of it, which cancels most of the swing. The kernel's
inputs are fixed, not seeded, so its work is the same in every run.
"""

from __future__ import annotations

import gc
import time

import numpy as np

_rng = np.random.default_rng(20240601)
#: Interpreter-loop iterations per call.
_LOOP = 300_000
#: Gather sets shaped like the strict lower sets of the n = 5 lattice:
#: 1,000 sets of 0..999 indices into a vector of 7,579 entries, gathered
#: and summed ``_GATHER_ROUNDS`` times per call.
_VECTOR = _rng.random(7579)
_SETS = [np.sort(_rng.choice(7579, size=int(k), replace=False))
         for k in _rng.integers(0, 1000, size=1000)]
_GATHER_ROUNDS = 9
#: 10,000 arrays of 1..39 floats, each summed once per call: the per-call
#: cost of numpy on the small arrays of the n = 4 gradients.
_SMALL = [_rng.random(int(k)) for k in _rng.integers(1, 40, size=10_000)]
#: 500,000 floats (4 MB), read and written in place ``_PASSES`` times per
#: call; multiplying by 1.0 leaves the values as they are.
_STREAM = _rng.random(500_000)
_PASSES = 20


def _interpreter() -> int:
    s = 0
    for i in range(_LOOP):
        s += i * i % 7
    return s


def _gathers() -> float:
    v = _VECTOR
    return sum(float(v[b].sum()) for _ in range(_GATHER_ROUNDS) for b in _SETS)


def _small_sums() -> float:
    return sum(float(x.sum()) for x in _SMALL)


def _stream() -> float:
    a = _STREAM
    return sum(float(np.multiply(a, 1.0, out=a).sum()) for _ in range(_PASSES))


def seconds() -> float:
    """Wall time of one pass of the kernel, with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _interpreter()
        _gathers()
        _small_sums()
        _stream()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
