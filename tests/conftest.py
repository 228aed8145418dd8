"""Shared fixtures and independent oracle helpers.

The enumeration and energy helpers here are deliberately written against
the public data fields only, with their own bit conventions and summation
order, so library results are checked by an independent route.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import strategies as st

from cimopt.fjsp import FjspInstance
from cimopt.solver import _SCHEDULE_SALT, _SEED_MASK


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


def random_fjsp_instance(rng, jobs, machines, slack):
    """Brandimarte-range instance: 5-7 operations per job, 1-3 eligible
    machines per operation, times 1-7, and a horizon of the longest job's
    minimum work plus ``slack``."""
    ops = []
    for _ in range(jobs):
        job = []
        for _ in range(int(rng.integers(5, 8))):
            times = [None] * machines
            for m in rng.choice(machines, int(rng.integers(1, 4)), replace=False):
                times[int(m)] = int(rng.integers(1, 8))
            job.append(times)
        ops.append(job)
    work = max(sum(min(t for t in times if t is not None) for times in job) for job in ops)
    return FjspInstance.build(machines, work + slack, ops)


def reference_h3_pairs(start, end, job_of, machine_of, strict):
    """H3 pairing as first written, every same-machine pair made and the
    conflicting cross-job ones kept: the golden reference that the windowed
    pairing of ``build_qubo`` must reproduce (same pairs, same arrays)."""
    h3_mode = "strict" if strict else "paper-literal"
    rows, cols = [], []
    for machine in dict.fromkeys(machine_of.tolist()):
        members = np.flatnonzero(machine_of == machine)
        a, b = (members[t] for t in np.triu_indices(members.size, 1))
        if h3_mode == "strict":
            hit = (start[a] < end[b]) & (start[b] < end[a])
        else:
            # ordered tuples (a,b) and (b,a) qualify together, so
            # a qualifying pair is charged twice
            dt = start[a] - start[b]
            hit = ((dt >= 0) & (dt <= end[a] - start[a])) | ((dt <= 0) & (-dt <= end[b] - start[b]))
        hit &= job_of[a] != job_of[b]
        rows.append(a[hit])
        cols.append(b[hit])
    return np.concatenate(rows), np.concatenate(cols)


def reference_build_qubo(inst, weights, index, h3_mode):
    """build_qubo as first written, term by term: H1 as one squared penalty
    per operation, H2 per pair of a job's consecutive operations, H3 by
    ``reference_h3_pairs``: the golden reference that the batched terms of
    ``build_qubo`` must reproduce (same arrays, byte for byte)."""
    from cimopt.fjsp import min_predecessor_time
    from cimopt.qubo import QuboBuilder

    start = np.array([e.start for e in index.entries])
    end = start + np.array([inst.operation(e.job, e.op).times[e.machine] for e in index.entries])
    builder = QuboBuilder(len(index))
    if weights.alpha > 0:
        for j, h, _ in inst.iter_operations():
            builder.add_squared({k: 1.0 for k in index.group(j, h)}, -1.0, weights.alpha)
    if weights.beta > 0:
        for j, job in enumerate(inst.jobs):
            for h in range(len(job.operations) - 1):
                pred, succ = np.array(index.group(j, h)), np.array(index.group(j, h + 1))
                p, s = np.nonzero(start[succ][None, :] < end[pred][:, None])
                builder.add_pairs(pred[p], succ[s], weights.beta)
    if weights.gamma > 0:
        job_of = np.array([e.job for e in index.entries])
        machine_of = np.array([e.machine for e in index.entries])
        a, b = reference_h3_pairs(start, end, job_of, machine_of, h3_mode == "strict")
        builder.add_pairs(a, b, weights.gamma if h3_mode == "strict" else 2.0 * weights.gamma)
    if weights.delta > 0:
        for j, job in enumerate(inst.jobs):
            last = len(job.operations) - 1
            group = np.array(index.group(j, last))
            builder.add_diag(group, weights.delta * (end[group] - min_predecessor_time(inst, j, last)))
    return builder.build()


def reference_anneal_pool(h, jmat, config, t0, t1):
    """The annealer as first written, all in float64: the golden reference
    that the solver's dtype choice and block step must reproduce bit for bit.

    Run restart-batched annealing chains; return visited low-energy states.

    Spins are visited in a fresh random order every sweep; orders and blocks
    are drawn from a schedule stream so that chains stay independent given
    their own per-restart streams (seed XOR restart index). Within a block,
    acceptance tests use the fields from before the block (single-spin
    semantics hold exactly when blocks are singletons, which is forced for
    small models).
    """
    n = h.size
    restarts = config.restarts
    rngs = [np.random.default_rng((config.seed ^ r) & _SEED_MASK) for r in range(restarts)]
    schedule_rng = np.random.default_rng((config.seed ^ _SCHEDULE_SALT) & _SEED_MASK)

    spins = np.empty((restarts, n))
    for r, rng in enumerate(rngs):
        spins[r] = rng.integers(0, 2, n).astype(np.float64) * 2.0 - 1.0
    fields = spins @ jmat + h

    sweeps = config.sweeps
    if sweeps > 1:
        temps = t0 * (t1 / t0) ** (np.arange(sweeps) / (sweeps - 1))
    else:
        temps = np.array([t0])

    n_blocks = n if n <= 32 else (n + 15) // 16
    uniforms = np.empty((restarts, n))
    pool: dict[bytes, float] = {}
    pool_cap = max(32, 4 * config.top_k)
    pool_worst = np.inf

    for sweep in range(sweeps):
        beta = 1.0 / temps[sweep]
        order = schedule_rng.permutation(n)
        for r, rng in enumerate(rngs):
            uniforms[r] = rng.random(n)
        col = 0
        for block in np.array_split(order, n_blocks):
            width = block.size
            s_blk = spins[:, block]
            d_energy = -2.0 * s_blk * fields[:, block]
            accept = uniforms[:, col : col + width] < np.exp(np.minimum(-d_energy * beta, 0.0))
            col += width
            if accept.any():
                delta = np.where(accept, -2.0 * s_blk, 0.0)
                spins[:, block] = s_blk + delta
                fields += delta @ jmat[block, :]
        if (sweep & 255) == 255:
            fields = spins @ jmat + h  # shed incremental-update drift
        energies = 0.5 * np.sum(spins * (fields + h), axis=1)
        for r in range(restarts):
            e = float(energies[r])
            if len(pool) >= pool_cap and e >= pool_worst:
                continue
            key = spins[r].tobytes()
            prev = pool.get(key)
            if prev is None or e < prev:
                pool[key] = e
                if len(pool) > pool_cap:
                    keep = sorted(pool.items(), key=lambda kv: (kv[1], kv[0]))[: pool_cap // 2]
                    pool = dict(keep)
                pool_worst = max(pool.values())
    return pool


# Any value json.loads can return, NaN and the infinities included.
JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
