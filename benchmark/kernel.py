"""The reference kernel that defines one `ref` of cost.

It contains no cstarreg code: a seeded batch of small complex SVDs (LAPACK
time) and a pure-Python arithmetic loop (interpreter time), in about the mix
the program spends. Timing it next to each item and dividing the item's wall
time by it cancels most of the drift in CPU speed that a shared machine shows.
"""

from __future__ import annotations

import time

import numpy as np
from numpy.linalg import svd as _svd  # bound now: tracing never sees it

_BATCH = np.random.default_rng(20251121).standard_normal((64, 3, 3, 2)) @ np.array([1.0, 1.0j])
_SVD_PASSES = 16
_LOOP = 30000

# set-up is reported in seconds of a machine on which one pass takes REF_S:
# its cost in refs times REF_S. Its raw wall time follows the machine's speed,
# which drifted 19% between two sets of runs 20 minutes apart; set-up wall
# time moved 25% with it, set-up cost in refs 1%
REF_S = 0.010


def run_kernel() -> float:
    for _ in range(_SVD_PASSES):
        _svd(_BATCH)
    acc = 0.0
    for i in range(_LOOP):
        acc += (i * 0.5) % 7.0
    return acc


def time_kernel() -> float:
    """Wall seconds of one kernel pass."""
    t0 = time.perf_counter()
    run_kernel()
    return time.perf_counter() - t0
