"""Shared fixtures and independent oracle helpers.

The enumeration and energy helpers here are deliberately written against
the public data fields only, with their own bit conventions and summation
order, so library results are checked by an independent route.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from cimopt.fjsp import FjspInstance


def naive_qubo_energy(q, x):
    """Scalar re-evaluation by plain iteration over the stored fields."""
    total = q.offset
    for i in range(q.n):
        total += q.diag[i] * x[i]
    for (i, j), v in q.upper.items():
        total += v * x[i] * x[j]
    return total


def naive_ising_energy(model, s):
    field = sum(model.h[i] * s[i] for i in range(model.n))
    coupling = sum(v * s[i] * s[j] for (i, j), v in model.J.items())
    if model.convention.value == "positive_sum":
        return field + coupling + model.offset
    return -coupling - field + model.offset


def round_half_away_int8(value):
    """The int8 quantization rule for one scaled coefficient, by plain
    arithmetic: round half away from zero, then clamp to [-128, 127]."""
    magnitude = math.floor(abs(value) + 0.5)
    return max(-128, min(127, int(math.copysign(magnitude, value))))


def enum_qubo_energies(q):
    """Energies of all 2^n assignments; x_i is bit i (LSB) of the row index."""
    n = q.n
    count = 1 << n
    idx = np.arange(count, dtype=np.int64)
    energies = np.full(count, float(q.offset))
    columns = {}

    def column(i):
        if i not in columns:
            columns[i] = ((idx >> i) & 1).astype(np.float64)
        return columns[i]

    for i, d in enumerate(q.diag):
        if d:
            energies += d * column(i)
    for (i, j), v in q.upper.items():
        if v:
            energies += v * column(i) * column(j)
    return energies


def index_bits(row, n):
    """Assignment for a row index from enum_qubo_energies."""
    return tuple((row >> i) & 1 for i in range(n))


def ground_rows(energies, atol=1e-9):
    best = energies.min()
    return np.flatnonzero(energies <= best + atol)


TABLE1 = [
    [[3, 4, 5], [4, 3, 6], [5, 2, 4]],
    [[4, 6, 5], [3, 4, 5], [2, 5, 3]],
    [[2, 4, 3], [5, 3, 4], [3, 6, 2]],
]


@pytest.fixture
def table1():
    return FjspInstance.build(3, 18, TABLE1)


def random_micro_instance(rng):
    """<= 2 jobs x <= 2 ops on <= 2 machines with a small feasible horizon.

    Redraws until the pruned variable count is <= 22 (exhaustively
    enumerable) and t_max admits an optimal schedule, so ground states of
    the penalized model can actually be violation-free.
    """
    from cimopt.fjsp import exact_min_makespan, prune_variables

    while True:
        machines = int(rng.integers(1, 3))
        jobs = []
        for _ in range(int(rng.integers(1, 3))):
            ops = []
            for _ in range(int(rng.integers(1, 3))):
                times = [
                    int(rng.integers(1, 4)) if rng.random() > 0.25 else None
                    for _ in range(machines)
                ]
                if all(t is None for t in times):
                    times[int(rng.integers(0, machines))] = int(rng.integers(1, 4))
                ops.append(times)
            jobs.append(ops)
        t_max = int(rng.integers(1, 7))
        inst = FjspInstance.build(machines, t_max, jobs)
        if exact_min_makespan(inst) > t_max:
            continue
        index = prune_variables(inst)
        if len(index) <= 22:
            return inst, index
