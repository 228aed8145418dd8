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
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import BudgetExceededError, DimensionError, InfeasibleHorizonError, require_type
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

    Operations within a job run in sequence; every operation needs at least
    one eligible machine and processing times are positive integers. Horizon
    feasibility is checked by prune_variables, not here, so deliberately
    tight horizons can be probed.
    """

    machines: int
    t_max: int
    jobs: tuple[Job, ...]

    def __post_init__(self):
        if self.machines < 1:
            raise ValueError(f"machines must be >= 1, got {self.machines}")
        if self.t_max < 0:
            raise ValueError(f"t_max must be >= 0, got {self.t_max}")
        if not self.jobs:
            raise ValueError("instance has no jobs")
        for j, job in enumerate(self.jobs):
            if not job.operations:
                raise ValueError(f"job {j} has no operations")
            for h, op in enumerate(job.operations):
                if len(op.times) != self.machines:
                    raise DimensionError(
                        f"operation ({j}, {h}) lists {len(op.times)} machines, expected {self.machines}"
                    )
                if not op.eligible():
                    raise ValueError(f"operation ({j}, {h}) has no eligible machine")
                for i, p in enumerate(op.times):
                    if p is not None and (not isinstance(p, int) or p < 1):
                        raise ValueError(
                            f"operation ({j}, {h}) has processing time {p!r} on machine {i}; "
                            "times must be integers >= 1"
                        )

    @classmethod
    def build(cls, machines: int, t_max: int, jobs: Sequence[Sequence[Sequence[int | None]]]) -> "FjspInstance":
        return cls(
            machines=machines,
            t_max=t_max,
            jobs=tuple(
                Job(tuple(Operation(tuple(times)) for times in ops)) for ops in jobs
            ),
        )

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
        for name, value in self.as_dict().items():
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"weight {name} must be finite and >= 0, got {value!r}")

    def as_dict(self) -> dict[str, float]:
        return {"alpha": self.alpha, "beta": self.beta, "gamma": self.gamma, "delta": self.delta}

    @classmethod
    def from_dict(cls, weights: Mapping[str, float]) -> "FjspWeights":
        return cls(weights["alpha"], weights["beta"], weights["gamma"], weights["delta"])

    def require_positive(self) -> "FjspWeights":
        for name, value in self.as_dict().items():
            if not value > 0:
                raise ValueError(f"weight {name} must be > 0 for tuning, got {value!r}")
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
    """Dense indexing of the variables that survive pruning."""

    entries: tuple[TimedVariable, ...]
    raw_count: int

    def __post_init__(self):
        object.__setattr__(
            self, "_position", {entry: k for k, entry in enumerate(self.entries)}
        )
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


def _check_index(inst: FjspInstance, index: VariableIndex) -> None:
    raw = sum(len(op.eligible()) * (inst.t_max + 1) for _, _, op in inst.iter_operations())
    if index.raw_count != raw:
        raise DimensionError(
            f"index was built for a different instance (raw count {index.raw_count} != {raw})"
        )
    for j, h, _ in inst.iter_operations():
        if not index.group(j, h):
            raise DimensionError(f"index has no variables for operation ({j}, {h})")
    for entry in index.entries:
        if entry.job >= len(inst.jobs) or entry.op >= len(inst.jobs[entry.job].operations):
            raise DimensionError(f"index entry {entry} does not exist in the instance")
        times = inst.operation(entry.job, entry.op).times
        if entry.machine >= len(times) or times[entry.machine] is None:
            raise DimensionError(f"index entry {entry} uses an ineligible machine")
        earliest = min_predecessor_time(inst, entry.job, entry.op)
        latest = max_start_time(inst, entry.job, entry.op)
        if entry.start < earliest or entry.start + times[entry.machine] > latest:
            raise DimensionError(f"index entry {entry} lies outside its pruning window")


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
    _check_index(inst, index)
    builder = QuboBuilder(len(index))

    # H1: each operation picks exactly one (machine, start)
    if weights.alpha > 0:
        for j, h, _ in inst.iter_operations():
            group = index.group(j, h)
            builder.add_squared({k: 1.0 for k in group}, -1.0, weights.alpha)

    start = np.array([e.start for e in index.entries])
    end = start + np.array([inst.operation(e.job, e.op).times[e.machine] for e in index.entries])

    # H2: successor must not start before its predecessor completes
    if weights.beta > 0:
        for j, job in enumerate(inst.jobs):
            for h in range(len(job.operations) - 1):
                pred, succ = np.array(index.group(j, h)), np.array(index.group(j, h + 1))
                p, s = np.nonzero(start[succ][None, :] < end[pred][:, None])
                builder.add_pairs(pred[p], succ[s], weights.beta)

    # H3: cross-job temporal conflicts on a shared machine
    if weights.gamma > 0:
        job_of = np.array([e.job for e in index.entries])
        machine_of = np.array([e.machine for e in index.entries])
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
            builder.add_pairs(a[hit], b[hit], weights.gamma if h3_mode == "strict" else 2.0 * weights.gamma)

    # H4: completion of each job's last operation, shifted by its earliest
    # possible predecessor time so the minimum contribution stays small
    if weights.delta > 0:
        for j, job in enumerate(inst.jobs):
            last = len(job.operations) - 1
            group = np.array(index.group(j, last))
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


def _diagnose(
    inst: FjspInstance,
    selected: Mapping[tuple[int, int], list[tuple[int, int]]],
) -> tuple[Schedule, FjspDiagnostics]:
    assignment = []
    placed: dict[tuple[int, int], ScheduleEntry] = {}
    for j, h, op in inst.iter_operations():
        picks = selected.get((j, h), [])
        if len(picks) != 1:
            assignment.append((j, h, len(picks)))
            continue
        machine, start = picks[0]
        placed[(j, h)] = ScheduleEntry(j, h, machine, start, start + op.times[machine])

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
    rest.
    """
    if len(bits) != len(index):
        raise DimensionError(f"bit vector has {len(bits)} entries for index size {len(index)}")
    selected: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for k, bit in enumerate(bits):
        if bit:
            entry = index.entries[k]
            selected.setdefault((entry.job, entry.op), []).append((entry.machine, entry.start))
    return _diagnose(inst, selected)


def diagnose_schedule(inst: FjspInstance, schedule: Schedule) -> FjspDiagnostics:
    """Validate an explicit schedule against the instance rule set."""
    selected: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for entry in schedule.entries:
        op = inst.operation(entry.job, entry.op)
        p = op.times[entry.machine]
        if p is None:
            raise ValueError(
                f"operation ({entry.job}, {entry.op}) is not eligible on machine {entry.machine}"
            )
        if entry.end != entry.start + p:
            raise ValueError(
                f"operation ({entry.job}, {entry.op}) spans [{entry.start}, {entry.end}) "
                f"but takes {p} units on machine {entry.machine}"
            )
        selected.setdefault((entry.job, entry.op), []).append((entry.machine, entry.start))
    _, diagnostics = _diagnose(inst, selected)
    return diagnostics


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
    the node budget runs out.
    """
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
    for fieldname in ("machines", "t_max", "jobs"):
        if fieldname not in doc:
            raise ValueError(f"instance document is missing field {fieldname!r}")
    try:
        jobs = [[op["times"] for op in job["operations"]] for job in doc["jobs"]]
        times = [t for ops in jobs for op_times in ops for t in op_times if t is not None]
        require_type([doc["machines"], doc["t_max"]], (int,), "machines and t_max")
        require_type(times, (int,), "processing times")
        return FjspInstance.build(doc["machines"], doc["t_max"], jobs)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed instance document: field {exc}") from exc


def schedule_to_doc(schedule: Schedule) -> list[dict]:
    return [
        {"job": e.job, "op": e.op, "machine": e.machine, "start": e.start, "end": e.end}
        for e in schedule.entries
    ]


def schedule_from_doc(inst: FjspInstance, doc) -> Schedule:
    entries = doc["entries"] if isinstance(doc, Mapping) else doc
    out = []
    for item in entries:
        fields = ("job", "op", "machine", "start") + (("end",) if "end" in item else ())
        job, op, machine, start, *end = require_type((item[f] for f in fields), (int,), f"schedule entry {item}")
        p = inst.operation(job, op).times[machine]
        if p is None:
            raise ValueError(f"schedule places ({job}, {op}) on ineligible machine {machine}")
        out.append(ScheduleEntry(job, op, machine, start, end[0] if end else start + p))
    return Schedule(tuple(sorted(out, key=lambda e: (e.job, e.op))))
