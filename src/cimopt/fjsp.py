"""Flexible job-shop scheduling on a discretized timeline.

Instances map jobs to ordered operations with per-machine processing times.
The module prunes the time-indexed start variables, assembles the four-term
penalty Hamiltonian over the survivors, decodes bit vectors back into
schedules with violation diagnostics, and provides an exact branch-and-bound
makespan oracle for validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import BudgetExceededError, DimensionError, InfeasibleHorizonError, require_int, require_type, require_weights
from .qubo import QuboBuilder, QuboMatrix

__all__ = [
    "FjspInstance",
    "FjspWeights",
    "TimedVariable",
    "VariableIndex",
    "ScheduleEntry",
    "Schedule",
    "FjspDiagnostics",
    "min_predecessor_time",
    "max_start_time",
    "prune_variables",
    "build_qubo",
    "decode_schedule",
    "diagnose_schedule",
    "schedule_to_bits",
    "exact_min_makespan",
    "instance_to_doc",
    "instance_from_doc",
    "schedule_to_doc",
    "schedule_from_doc",
]


@dataclass(frozen=True)
class Operation:
    """Processing times indexed by machine; None marks an ineligible machine."""

    times: tuple[int | None, ...]

    def eligible(self) -> tuple[int, ...]:
        return tuple(i for i, p in enumerate(self.times) if p is not None)

    def min_time(self) -> int:
        return min(p for p in self.times if p is not None)


@dataclass(frozen=True)
class Job:
    operations: tuple[Operation, ...]


@dataclass(frozen=True)
class FjspInstance:
    """Jobs, machines, and the scheduling horizon t_max.

    machines (>= 1), t_max (>= 0) and processing times (>= 1) are ints, never
    bools; None marks an ineligible machine. Operations within a job run in
    sequence and each needs an eligible machine. Horizon feasibility is
    checked by prune_variables, not here, so tight horizons can be probed.
    """

    machines: int
    t_max: int
    jobs: tuple[Job, ...]

    def __post_init__(self):
        # one message names both fields and both bounds
        for value, low in ((self.machines, 1), (self.t_max, 0)):
            require_int(value, "machines and t_max", low, words="ints with machines >= 1 and t_max >= 0")
        if not self.jobs:
            raise ValueError("instance has no jobs")
        for j, job in enumerate(self.jobs):
            if not job.operations:
                raise ValueError(f"job {j} has no operations")
            for h, op in enumerate(job.operations):
                if len(op.times) != self.machines:
                    raise DimensionError(f"operation ({j}, {h}) lists {len(op.times)} machines, expected {self.machines}")
                if not op.eligible():
                    raise ValueError(f"operation ({j}, {h}) has no eligible machine")
                require_type((p for p in op.times if p is not None), (int,), "processing times")
                for i, p in enumerate(op.times):
                    if p is not None and p < 1:
                        raise ValueError(
                            f"operation ({j}, {h}) has processing time {p!r} on machine {i}; "
                            "times must be integers >= 1"
                        )

    @classmethod
    def build(cls, machines: int, t_max: int, jobs: Sequence[Sequence[Sequence[int | None]]]) -> "FjspInstance":
        return cls(machines, t_max, tuple(Job(tuple(Operation(tuple(times)) for times in ops)) for ops in jobs))

    def operation(self, job: int, op: int) -> Operation:
        return self.jobs[job].operations[op]

    def iter_operations(self) -> Iterator[tuple[int, int, Operation]]:
        for j, job in enumerate(self.jobs):
            for h, op in enumerate(job.operations):
                yield j, h, op

    def total_operations(self) -> int:
        return sum(len(job.operations) for job in self.jobs)


@dataclass(frozen=True)
class FjspWeights:
    """Penalty weights for assignment (alpha), job sequencing (beta), machine
    conflicts (gamma), and the late-completion objective (delta).

    Tuning runs require all four strictly positive; zero is tolerated here so
    individual Hamiltonian terms can be built and inspected in isolation.
    """

    alpha: float
    beta: float
    gamma: float
    delta: float

    def __post_init__(self):
        require_weights(self.as_dict(), positive=False)

    def as_dict(self) -> dict[str, float]:
        return {"alpha": self.alpha, "beta": self.beta, "gamma": self.gamma, "delta": self.delta}

    @classmethod
    def from_dict(cls, weights: Mapping[str, float]) -> "FjspWeights":
        return cls(weights["alpha"], weights["beta"], weights["gamma"], weights["delta"])

    def require_positive(self) -> "FjspWeights":
        require_weights(self.as_dict())
        return self


@dataclass(frozen=True)
class TimedVariable:
    """One surviving binary variable: operation (job, op) starts on machine at start."""

    job: int
    op: int
    machine: int
    start: int


@dataclass(frozen=True)
class VariableIndex:
    """Dense indexing of the variables that survive pruning. ``raw_count``
    and each entry's job, op, machine and start are ints, never bools, and
    no entry appears twice."""

    entries: tuple[TimedVariable, ...]
    raw_count: int

    def __post_init__(self):
        require_type([self.raw_count], (int,), "raw_count")
        require_type((v for e in self.entries for v in (e.job, e.op, e.machine, e.start)), (int,), "index entry fields")
        position = {entry: k for k, entry in enumerate(self.entries)}
        if len(position) != len(self.entries):  # a repeated entry kept only its last position
            repeated = next(entry for k, entry in enumerate(self.entries) if position[entry] != k)
            raise ValueError(f"index repeats entry {repeated}")
        object.__setattr__(self, "_position", position)
        groups: dict[tuple[int, int], list[int]] = {}
        for k, entry in enumerate(self.entries):
            groups.setdefault((entry.job, entry.op), []).append(k)
        object.__setattr__(self, "_groups", {key: tuple(v) for key, v in groups.items()})

    def __len__(self) -> int:
        return len(self.entries)

    def position(self, entry: TimedVariable) -> int:
        return self._position[entry]

    def get(self, entry: TimedVariable) -> int | None:
        return self._position.get(entry)

    def group(self, job: int, op: int) -> tuple[int, ...]:
        return self._groups.get((job, op), ())


def min_predecessor_time(inst: FjspInstance, job: int, op: int) -> int:
    """Sum of minimum eligible processing times of the strictly preceding
    operations of the same job; the earliest time the operation can start."""
    return sum(inst.operation(job, h).min_time() for h in range(op))


def max_start_time(inst: FjspInstance, job: int, op: int) -> int:
    """t_max minus the minimum work that must still follow the operation."""
    ops = inst.jobs[job].operations
    tail = sum(ops[h].min_time() for h in range(op + 1, len(ops)))
    return inst.t_max - tail


def prune_variables(inst: FjspInstance) -> VariableIndex:
    """Keep (machine, start, operation) triples with a feasible window.

    A triple survives iff the machine is eligible, start >= the minimum
    predecessor time, and start + processing time <= the maximum allowable
    start time of the operation. Raises InfeasibleHorizonError naming the
    first operation whose window is empty.
    """
    entries: list[TimedVariable] = []
    raw = 0
    for j, h, op in inst.iter_operations():
        raw += len(op.eligible()) * (inst.t_max + 1)
        earliest = min_predecessor_time(inst, j, h)
        latest = max_start_time(inst, j, h)
        kept_for_op = 0
        for i in op.eligible():
            p = op.times[i]
            for t in range(earliest, latest - p + 1):
                entries.append(TimedVariable(j, h, i, t))
                kept_for_op += 1
        if kept_for_op == 0:
            raise InfeasibleHorizonError(
                f"infeasible horizon: operation ({j}, {h}) has no feasible start window "
                f"within t_max={inst.t_max}",
                job=j,
                op=h,
            )
    return VariableIndex(tuple(entries), raw)


def _check_index(inst: FjspInstance, index: VariableIndex) -> tuple[np.ndarray, ...]:
    """Reject an index that prune_variables could not have built for inst;
    return each entry's job, operation (numbered over all jobs' operations
    in order), machine, start and end time."""
    ops = list(inst.iter_operations())
    raw = sum(len(op.eligible()) for _, _, op in ops) * (inst.t_max + 1)
    if index.raw_count != raw:
        raise DimensionError(
            f"index was built for a different instance (raw count {index.raw_count} != {raw})"
        )
    first_op = np.cumsum([0] + [len(job.operations) for job in inst.jobs])
    times = np.array([[p or 0 for p in op.times] for _, _, op in ops])  # 0 marks an ineligible machine
    earliest = np.array([min_predecessor_time(inst, j, h) for j, h, _ in ops])
    latest = np.array([max_start_time(inst, j, h) for j, h, _ in ops])
    job, op, machine, start = np.array(
        [(e.job, e.op, e.machine, e.start) for e in index.entries], dtype=np.int64
    ).reshape(-1, 4).T
    # clipped lookups; an out-of-range job or machine, negative ones too, differs from its clip
    jc = np.clip(job, 0, len(inst.jobs) - 1)
    exists = (job == jc) & (op >= 0) & (op < np.diff(first_op)[jc])
    op_id = np.where(exists, first_op[jc] + op, 0)
    mc = np.clip(machine, 0, inst.machines - 1)
    p = np.where(exists & (machine == mc), times[op_id, mc], 0)
    ok = (p > 0) & (start >= earliest[op_id]) & (start + p <= latest[op_id])
    missing = np.flatnonzero(np.bincount(op_id[exists], minlength=len(ops)) == 0)
    if missing.size:
        j, h, _ = ops[missing[0]]
        raise DimensionError(f"index has no variables for operation ({j}, {h})")
    bad = np.flatnonzero(~ok)
    if bad.size:
        k = bad[0]
        entry = index.entries[k]
        if not exists[k]:
            raise DimensionError(f"index entry {entry} does not exist in the instance")
        if not p[k]:
            raise DimensionError(f"index entry {entry} uses an ineligible machine")
        raise DimensionError(f"index entry {entry} lies outside its pruning window")
    return job, op_id, machine, start, start + p


def _window_pairs(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each position i paired with every k in [lo[i], hi[i]): the i's and the k's."""
    counts = hi - lo
    first = np.repeat(np.arange(lo.size), counts)
    return first, np.arange(first.size) + np.repeat(lo - np.cumsum(counts) + counts, counts)


def _h3_pairs(
    start: np.ndarray, end: np.ndarray, job_of: np.ndarray, machine_of: np.ndarray, strict: bool
) -> tuple[np.ndarray, np.ndarray]:
    """The H3 pairs (a, b), a < b, sorted: variables of different jobs on
    one machine whose times conflict.

    With each machine's variables in order of start (stable), a variable's
    conflicts form one window of that order, so only windows are paired.
    Strict pairs it with the later starts before its end: the half-open
    intervals then meet. Paper-literal pairs it with the earlier starts at
    most its own duration before its start: |t - t'| is bounded by the
    later operand's time, so the ordered tuples (a, b) and (b, a) qualify
    together. Sorted pairs keep ``QuboBuilder.build``'s stable sort cheap.
    """
    order = np.lexsort((start, machine_of))
    s, e = start[order], end[order]
    base = machine_of[order] * (int(end.max()) + 1)  # base + time orders by machine, then time
    key = base + s
    if strict:
        lo, hi = np.arange(1, key.size + 1), np.searchsorted(key, base + e)
    else:  # starts are >= 0, so clamping at 0 keeps the bound on the machine
        lo, hi = np.searchsorted(key, base + np.maximum(s - (e - s), 0)), np.arange(key.size)
    first, second = _window_pairs(lo, hi)
    a, b = order[first], order[second]
    hit = job_of[a] != job_of[b]
    a, b = a[hit], b[hit]
    n = start.size
    pairs = np.minimum(a, b)
    pairs *= n - 1  # min * n + max, as min * (n - 1) + a + b: no array for max
    pairs += a
    pairs += b
    pairs.sort()
    rows = pairs // n
    pairs -= rows * n  # pairs % n without a second division
    return rows, pairs


def build_qubo(
    inst: FjspInstance,
    weights: FjspWeights,
    index: VariableIndex,
    h3_mode: str = "strict",
) -> QuboMatrix:
    """Assemble the four-term Hamiltonian over the pruned variables.

    H1 (alpha): squared one-hot penalty per operation over its surviving
    (machine, start) pairs. H2 (beta): one term per ordered pair where a
    job's next operation starts before the previous one finishes. H3
    (gamma): same-machine cross-job pairs in temporal conflict. H4 (delta):
    linear late-completion cost on every surviving variable of each job's
    final operation.

    h3_mode selects the conflict predicate. "strict" penalizes pairs whose
    half-open processing intervals actually intersect, so back-to-back use
    of a machine is free. "paper-literal" reproduces the closed-interval
    condition |t - t'| <= processing time (of the respective first operand)
    over ordered pairs, which also charges some back-to-back pairs, twice.
    """
    if h3_mode not in ("strict", "paper-literal"):
        raise ValueError(f"unknown h3_mode {h3_mode!r}")
    job_of, op_of, machine_of, start, end = _check_index(inst, index)
    n = len(index)
    builder = QuboBuilder(n)

    # H1: each operation picks exactly one (machine, start); alpha (sum x - 1)^2
    # over its variables is -alpha on each, 2 alpha on each pair of them and
    # alpha per operation. Pairs are windows of the variables in operation order.
    if weights.alpha > 0:
        builder.add_diag(np.arange(n), -weights.alpha)
        order = np.argsort(op_of, kind="stable")
        a, b = _window_pairs(np.arange(1, n + 1), np.searchsorted(op_of[order], op_of[order], "right"))
        builder.add_pairs(order[a], order[b], 2.0 * weights.alpha)
        for _ in range(inst.total_operations()):
            builder.add_offset(weights.alpha)

    # H2: successor must not start before its predecessor completes. In order
    # of (operation, start), each variable's successors that start before its
    # end form one window of the next operation, if that is of the same job.
    if weights.beta > 0:
        final = np.zeros(inst.total_operations(), bool)  # each job's last operation
        final[np.cumsum([len(job.operations) for job in inst.jobs]) - 1] = True
        span = int(end.max()) + 1
        order = np.argsort(op_of * span + start, kind="stable")
        key, nxt = op_of[order] * span + start[order], (op_of[order] + 1) * span
        lo = np.searchsorted(key, nxt)
        a, b = _window_pairs(lo, np.where(final[op_of[order]], lo, np.searchsorted(key, nxt + end[order])))
        builder.add_pairs(order[a], order[b], weights.beta)

    # H3: cross-job temporal conflicts on a shared machine, paired only
    # within each variable's window of start times (_h3_pairs): strict,
    # the later starts before its end; paper-literal, the earlier starts
    # at most its own duration before its start
    if weights.gamma > 0:
        a, b = _h3_pairs(start, end, job_of, machine_of, h3_mode == "strict")
        builder.add_pairs(a, b, weights.gamma if h3_mode == "strict" else 2.0 * weights.gamma)

    # H4: completion of each job's last operation, shifted by its earliest
    # possible predecessor time so the minimum contribution stays small; a
    # term past float range is refused by build() as not finite
    if weights.delta > 0:
        for j, job in enumerate(inst.jobs):
            last = len(job.operations) - 1
            group = np.array(index.group(j, last))
            with np.errstate(over="ignore"):
                builder.add_diag(group, weights.delta * (end[group] - min_predecessor_time(inst, j, last)))

    return builder.build()


@dataclass(frozen=True)
class ScheduleEntry:
    job: int
    op: int
    machine: int
    start: int
    end: int


@dataclass(frozen=True)
class Schedule:
    entries: tuple[ScheduleEntry, ...]

    def makespan(self) -> int:
        return max(entry.end for entry in self.entries)


@dataclass(frozen=True)
class FjspDiagnostics:
    """Constraint violations of a decoded assignment.

    ``makespan`` is present exactly when all three violation lists are
    empty. Machine conflicts and sequence checks only consider operations
    with exactly one selected (machine, start) pair; the rest are already
    reported as assignment violations.
    """

    assignment_violations: tuple[tuple[int, int, int], ...]  # (job, op, count)
    sequence_violations: tuple[tuple[tuple[int, int], tuple[int, int]], ...]
    machine_conflicts: tuple[tuple[int, tuple[int, int], tuple[int, int], tuple[int, int]], ...]
    makespan: int | None

    @property
    def feasible(self) -> bool:
        return self.makespan is not None

    def counts(self) -> dict[str, int]:
        return {
            "assignment_violations": len(self.assignment_violations),
            "sequence_violations": len(self.sequence_violations),
            "machine_conflicts": len(self.machine_conflicts),
        }

    def to_doc(self) -> dict:
        return {
            "assignment_violations": [list(v) for v in self.assignment_violations],
            "sequence_violations": [
                [list(a), list(b)] for a, b in self.sequence_violations
            ],
            "machine_conflicts": [
                [m, list(a), list(b), list(ov)] for m, a, b, ov in self.machine_conflicts
            ],
            "makespan": self.makespan,
        }


def _diagnose(inst: FjspInstance, placements: Iterable) -> tuple[Schedule, FjspDiagnostics]:
    """The schedule and diagnostics of checked placements.

    Each placement is any object with ``job``, ``op``, ``machine`` and
    ``start`` naming an eligible machine of an operation of ``inst`` (an
    index entry or a schedule entry). They are grouped by operation in the
    order given; an operation placed other than exactly once is an
    assignment violation, and the rest go into the schedule.
    """
    selected: dict[tuple[int, int], list] = {}
    for placement in placements:
        selected.setdefault((placement.job, placement.op), []).append(placement)
    assignment = []
    placed: dict[tuple[int, int], ScheduleEntry] = {}
    for j, h, op in inst.iter_operations():
        picks = selected.get((j, h), [])
        if len(picks) != 1:
            assignment.append((j, h, len(picks)))
            continue
        pick = picks[0]
        placed[(j, h)] = ScheduleEntry(j, h, pick.machine, pick.start, pick.start + op.times[pick.machine])

    sequence = []
    for j, job in enumerate(inst.jobs):
        for h in range(len(job.operations) - 1):
            pred = placed.get((j, h))
            succ = placed.get((j, h + 1))
            if pred and succ and succ.start < pred.end:
                sequence.append(((j, h), (j, h + 1)))

    conflicts = []
    ordered = sorted(placed.values(), key=lambda e: (e.machine, e.start, e.job, e.op))
    for a in range(len(ordered)):
        ea = ordered[a]
        for b in range(a + 1, len(ordered)):
            eb = ordered[b]
            if eb.machine != ea.machine:
                break
            overlap_start = max(ea.start, eb.start)
            overlap_end = min(ea.end, eb.end)
            if overlap_start < overlap_end:
                conflicts.append(
                    (ea.machine, (ea.job, ea.op), (eb.job, eb.op), (overlap_start, overlap_end))
                )

    makespan = None
    if not assignment and not sequence and not conflicts:
        makespan = max(entry.end for entry in placed.values())
    schedule = Schedule(tuple(sorted(placed.values(), key=lambda e: (e.job, e.op))))
    return schedule, FjspDiagnostics(
        tuple(assignment), tuple(sequence), tuple(conflicts), makespan
    )


def decode_schedule(
    inst: FjspInstance, index: VariableIndex, bits: Sequence[int]
) -> tuple[Schedule, FjspDiagnostics]:
    """Read a bit vector over the pruned variables back into a schedule.

    Violations are data, not errors: the schedule covers every uniquely
    assigned operation and the diagnostics list everything wrong with the
    rest. A selected entry that names no operation of ``inst``, or a machine
    the operation is not eligible on, is a DimensionError; only the
    selected entries are checked.
    """
    if len(bits) != len(index):
        raise DimensionError(f"bit vector has {len(bits)} entries for index size {len(index)}")
    selected = list(compress(index.entries, bits))
    for e in selected:
        if not (0 <= e.job < len(inst.jobs) and 0 <= e.op < len(inst.jobs[e.job].operations)):
            raise DimensionError(f"index entry {e} does not exist in the instance")
        if not (0 <= e.machine < inst.machines and inst.operation(e.job, e.op).times[e.machine] is not None):
            raise DimensionError(f"index entry {e} uses an ineligible machine")
    return _diagnose(inst, selected)


def _processing_time(inst: FjspInstance, job: int, op: int, machine: int, start: int) -> int:
    """The time of operation (job, op) on machine, after checking that all four
    are ints, the operation exists, the machine is eligible and start >= 0."""
    require_type([job, op, machine, start], (int,), f"schedule entry ({job}, {op})")
    if not (0 <= job < len(inst.jobs) and 0 <= op < len(inst.jobs[job].operations) and 0 <= machine < inst.machines):
        raise ValueError(f"schedule entry ({job}, {op}) on machine {machine} names no operation of the instance")
    if start < 0:
        raise ValueError(f"schedule entry ({job}, {op}) starts at {start}, before time 0")
    p = inst.operation(job, op).times[machine]
    if p is None:
        raise ValueError(f"operation ({job}, {op}) is not eligible on machine {machine}")
    return p


def diagnose_schedule(inst: FjspInstance, schedule: Schedule) -> FjspDiagnostics:
    """Validate an explicit schedule, of int placements, against the instance rule set."""
    for entry in schedule.entries:
        p = _processing_time(inst, entry.job, entry.op, entry.machine, entry.start)
        if entry.end != entry.start + p:
            raise ValueError(
                f"operation ({entry.job}, {entry.op}) spans [{entry.start}, {entry.end}) "
                f"but takes {p} units on machine {entry.machine}"
            )
    return _diagnose(inst, schedule.entries)[1]


def schedule_to_bits(
    inst: FjspInstance, index: VariableIndex, schedule: Schedule
) -> tuple[int, ...]:
    """Encode a schedule as a bit vector over the pruned variables."""
    bits = [0] * len(index)
    for entry in schedule.entries:
        var = TimedVariable(entry.job, entry.op, entry.machine, entry.start)
        k = index.get(var)
        if k is None:
            raise ValueError(f"schedule entry {entry} was pruned from the variable index")
        bits[k] = 1
    return tuple(bits)


def exact_min_makespan(inst: FjspInstance, node_budget: int = 5_000_000) -> int:
    """Exact minimum makespan by depth-first branch and bound.

    Branches over (job, machine) choices for each job's next operation,
    placing it at the earliest feasible time; bounds with the larger of the
    partial makespan and each job's remaining minimum work. Deterministic.
    Raises BudgetExceededError with the incumbent and the root bound when
    the node budget, an int >= 1, runs out.
    """
    require_int(node_budget, "node budget", 1)
    n_jobs = len(inst.jobs)
    op_counts = [len(job.operations) for job in inst.jobs]
    # remaining minimum work for job j from operation h onward
    remaining = []
    for j, job in enumerate(inst.jobs):
        tail = [0] * (op_counts[j] + 1)
        for h in range(op_counts[j] - 1, -1, -1):
            tail[h] = tail[h + 1] + job.operations[h].min_time()
        remaining.append(tail)

    job_next = [0] * n_jobs
    job_ready = [0] * n_jobs
    machine_ready = [0] * inst.machines
    total_ops = inst.total_operations()
    root_bound = max(remaining[j][0] for j in range(n_jobs))

    best = math.inf
    nodes = 0

    def bound(current_max: int) -> int:
        b = current_max
        for j in range(n_jobs):
            b = max(b, job_ready[j] + remaining[j][job_next[j]])
        return b

    def dfs(done: int, current_max: int) -> None:
        nonlocal best, nodes
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceededError(
                f"node budget {node_budget} exhausted",
                incumbent=None if best is math.inf else int(best),
                bound=root_bound,
            )
        if done == total_ops:
            best = min(best, current_max)
            return
        if bound(current_max) >= best:
            return
        candidates = []
        for j in range(n_jobs):
            h = job_next[j]
            if h >= op_counts[j]:
                continue
            op = inst.jobs[j].operations[h]
            for i in op.eligible():
                start = max(job_ready[j], machine_ready[i])
                candidates.append((start + op.times[i], start, j, i))
        candidates.sort()
        for end, start, j, i in candidates:
            h = job_next[j]
            prev_job_ready = job_ready[j]
            prev_machine_ready = machine_ready[i]
            job_next[j] = h + 1
            job_ready[j] = end
            machine_ready[i] = end
            dfs(done + 1, max(current_max, end))
            job_next[j] = h
            job_ready[j] = prev_job_ready
            machine_ready[i] = prev_machine_ready

    dfs(0, 0)
    return int(best)


# --- JSON documents -------------------------------------------------------


def instance_to_doc(inst: FjspInstance) -> dict:
    return {
        "machines": inst.machines,
        "t_max": inst.t_max,
        "jobs": [
            {"operations": [{"times": list(op.times)} for op in job.operations]}
            for job in inst.jobs
        ],
    }


def instance_from_doc(doc: Mapping) -> FjspInstance:
    if not isinstance(doc, Mapping):
        raise ValueError(f"instance document must be a JSON object, got {type(doc).__name__}")
    for fieldname in ("machines", "t_max", "jobs"):
        if fieldname not in doc:
            raise ValueError(f"instance document is missing field {fieldname!r}")
    try:
        jobs = [[op["times"] for op in job["operations"]] for job in doc["jobs"]]
        return FjspInstance.build(doc["machines"], doc["t_max"], jobs)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed instance document: field {exc}") from exc


def schedule_to_doc(schedule: Schedule) -> list[dict]:
    return [
        {"job": e.job, "op": e.op, "machine": e.machine, "start": e.start, "end": e.end}
        for e in schedule.entries
    ]


def schedule_from_doc(inst: FjspInstance, doc) -> Schedule:
    """Read a list of entries, or an object holding one under "entries";
    a stated ``end`` is kept for ``diagnose_schedule`` to check."""
    entries = doc.get("entries") if isinstance(doc, Mapping) else doc
    if not isinstance(entries, list):
        raise ValueError(f"schedule must be a list of entries, got {type(entries).__name__}")
    out = []
    for item in entries:
        fields = ("job", "op", "machine", "start")
        if not isinstance(item, Mapping) or not all(f in item for f in fields):
            raise ValueError(f"schedule entry {item!r} must be an object with fields {', '.join(fields)}")
        job, op, machine, start = (item[f] for f in fields)
        p = _processing_time(inst, job, op, machine, start)
        (end,) = require_type([item.get("end", start + p)], (int,), f"schedule entry {item}")
        out.append(ScheduleEntry(job, op, machine, start, end))
    return Schedule(tuple(sorted(out, key=lambda e: (e.job, e.op))))
