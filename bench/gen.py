"""Seeded input generators for the benchmark.

Every generator takes a ``numpy.random.Generator`` and returns plain data
plus the certificates the benchmark checks against; the program under test
only ever sees the generated instance or model.
"""

from __future__ import annotations

from cimopt import QuboBuilder, fjsp
from cimopt.fjsp import FjspInstance, Schedule, ScheduleEntry

# Parameter ranges of Brandimarte's random FJSP instances (Ann. Oper. Res.
# 41:157, 1993), narrowed to what the time-indexed model can hold.
OPS_PER_JOB = (5, 7)
MACHINES_PER_OP = (1, 3)
PROC_TIMES = (1, 7)


def greedy_schedule(inst: FjspInstance) -> Schedule:
    """Constructive list schedule: place next the (job, machine) choice that
    can start earliest, preferring the job with the most minimum work left,
    then the earliest completion.

    Operations are appended after everything already on their machine, so
    the schedule is conflict-free by construction.
    """
    n_jobs = len(inst.jobs)
    next_op = [0] * n_jobs
    job_ready = [0] * n_jobs
    machine_ready = [0] * inst.machines
    work_left = [sum(op.min_time() for op in job.operations) for job in inst.jobs]
    entries = []
    for _ in range(inst.total_operations()):
        best = None
        for j in range(n_jobs):
            h = next_op[j]
            if h == len(inst.jobs[j].operations):
                continue
            op = inst.operation(j, h)
            for i in op.eligible():
                start = max(job_ready[j], machine_ready[i])
                cand = (start, -work_left[j], start + op.times[i], j, i)
                if best is None or cand < best:
                    best = cand
        start, _, end, j, i = best
        entries.append(ScheduleEntry(j, next_op[j], i, start, end))
        work_left[j] -= inst.operation(j, next_op[j]).min_time()
        next_op[j] += 1
        job_ready[j] = end
        machine_ready[i] = end
    return Schedule(tuple(sorted(entries, key=lambda e: (e.job, e.op))))


def makespan_lower_bound(inst: FjspInstance) -> int:
    """Larger of the longest job's minimum work and the machine-load bound."""
    job_bound = max(sum(op.min_time() for op in job.operations) for job in inst.jobs)
    total = sum(op.min_time() for _, _, op in inst.iter_operations())
    return max(job_bound, -(-total // inst.machines))


def brandimarte_instance(rng, jobs: int, machines: int) -> tuple[FjspInstance, Schedule]:
    """Random FJSP instance in Brandimarte ranges plus a constructive schedule.

    Each job has 5-7 operations, each operation 1-3 eligible machines with
    processing times 1-7. ``t_max`` is the constructive schedule's makespan:
    every operation of that schedule then ends before the latest start its
    job's remaining minimum work allows, so the schedule survives pruning.
    """
    ops_lo, ops_hi = OPS_PER_JOB
    mpo_lo, mpo_hi = MACHINES_PER_OP
    p_lo, p_hi = PROC_TIMES
    job_rows = []
    for _ in range(jobs):
        ops = []
        for _ in range(int(rng.integers(ops_lo, ops_hi + 1))):
            count = int(rng.integers(mpo_lo, min(mpo_hi, machines) + 1))
            row = [None] * machines
            for i in rng.choice(machines, size=count, replace=False):
                row[int(i)] = int(rng.integers(p_lo, p_hi + 1))
            ops.append(row)
        job_rows.append(ops)
    draft = FjspInstance.build(machines, 0, job_rows)
    schedule = greedy_schedule(draft)
    return FjspInstance.build(machines, schedule.makespan(), job_rows), schedule


def micro_instance(rng, min_vars: int, max_vars: int = 22) -> tuple[FjspInstance, int]:
    """At most 2 jobs x 2 operations x 2 machines, pruned to min_vars..max_vars
    variables, with a horizon that admits an optimal schedule.

    Returns the instance and its certified optimum from exact_min_makespan.
    """
    while True:
        machines = int(rng.integers(1, 3))
        rows = []
        for _ in range(int(rng.integers(1, 3))):
            ops = []
            for _ in range(int(rng.integers(1, 3))):
                times = [int(rng.integers(1, 4)) if rng.random() > 0.25 else None for _ in range(machines)]
                if all(t is None for t in times):
                    times[int(rng.integers(0, machines))] = int(rng.integers(1, 4))
                ops.append(times)
            rows.append(ops)
        inst = FjspInstance.build(machines, int(rng.integers(1, 9)), rows)
        optimum = fjsp.exact_min_makespan(inst)
        if optimum > inst.t_max:
            continue
        if min_vars <= len(fjsp.prune_variables(inst)) <= max_vars:
            return inst, optimum


def dense_model(rng, n: int = 16):
    """QUBO with every pair coupled; coefficients uniform in [-10, 10]."""
    builder = QuboBuilder(n)
    for i in range(n):
        builder.add_diag(i, float(rng.uniform(-10.0, 10.0)))
        for j in range(i + 1, n):
            builder.add_pair(i, j, float(rng.uniform(-10.0, 10.0)))
    return builder.build()


def ladder_instance(rng, jobs: int, machines: int, n_range: tuple[int, int]):
    """Brandimarte-range instance whose pruned variable count lies in n_range.

    Redraws until the size fits, so every seed puts the same amount of work
    on a ladder point. Returns the instance, its constructive schedule and
    its variable index.
    """
    while True:
        inst, schedule = brandimarte_instance(rng, jobs, machines)
        index = fjsp.prune_variables(inst)
        if n_range[0] <= len(index) <= n_range[1]:
            return inst, schedule, index
