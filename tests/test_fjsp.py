"""Scheduling model: pruning, Hamiltonian, decoding, exact oracle."""

import json
from pathlib import Path

import numpy as np
import pytest

from cimopt.errors import BudgetExceededError, DimensionError, InfeasibleHorizonError
from cimopt.fjsp import (
    FjspInstance,
    FjspWeights,
    Schedule,
    build_qubo,
    decode_schedule,
    diagnose_schedule,
    exact_min_makespan,
    instance_from_doc,
    instance_to_doc,
    max_start_time,
    min_predecessor_time,
    prune_variables,
    schedule_from_doc,
    schedule_to_bits,
    schedule_to_doc,
)
from cimopt.gantt import gantt_svg, gantt_text
from cimopt.qubo import qubo_energy

from conftest import enum_qubo_energies, index_bits, random_micro_instance

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "cimopt" / "fixtures"


@pytest.fixture
def table1_index(table1):
    return prune_variables(table1)


@pytest.fixture
def benchmark_schedule(table1):
    doc = json.loads((FIXTURES / "schedule_makespan11.json").read_text())
    return schedule_from_doc(table1, doc)


class TestTimeWindows:
    def test_min_predecessor_times(self, table1):
        assert min_predecessor_time(table1, 0, 0) == 0
        assert min_predecessor_time(table1, 0, 2) == 6  # min(3,4,5) + min(4,3,6)
        assert min_predecessor_time(table1, 1, 2) == 7  # min(4,6,5) + min(3,4,5)

    def test_max_start_times(self, table1):
        assert max_start_time(table1, 2, 2) == 18
        assert max_start_time(table1, 0, 0) == 13  # 18 - (3 + 2)
        assert max_start_time(table1, 1, 1) == 16  # 18 - 2


class TestPruning:
    def test_benchmark_counts(self, table1, table1_index):
        assert table1_index.raw_count == 513  # 9 ops x 3 machines x 19 times
        assert len(table1_index) == 264

    def test_first_operation_window(self, table1_index):
        per_machine = {}
        for entry in table1_index.entries:
            if (entry.job, entry.op) == (0, 0):
                per_machine.setdefault(entry.machine, []).append(entry.start)
        assert len(per_machine[0]) == 11
        assert len(per_machine[1]) == 10
        assert len(per_machine[2]) == 9

    def test_single_variable_instance(self):
        inst = FjspInstance.build(1, 2, [[[2]]])
        index = prune_variables(inst)
        assert len(index) == 1
        assert index.entries[0].start == 0

    def test_infeasible_horizon_names_operation(self, table1):
        tight = FjspInstance.build(3, 8, instance_to_doc(table1)["jobs"] and [
            [[3, 4, 5], [4, 3, 6], [5, 2, 4]],
            [[4, 6, 5], [3, 4, 5], [2, 5, 3]],
            [[2, 4, 3], [5, 3, 4], [3, 6, 2]],
        ])
        with pytest.raises(InfeasibleHorizonError) as excinfo:
            prune_variables(tight)
        assert excinfo.value.job == 1  # the job whose serial minimum is 9

    def test_soundness_for_feasible_schedules(self, table1, table1_index, benchmark_schedule):
        # every (machine, start) pair of a valid schedule must have survived
        bits = schedule_to_bits(table1, table1_index, benchmark_schedule)
        assert sum(bits) == len(benchmark_schedule.entries)

    def test_soundness_for_random_dispatch_schedules(self, table1, table1_index):
        # greedy random dispatch yields feasible schedules; when they fit the
        # horizon, every implied variable must be present in the index
        rng = np.random.default_rng(23)
        for _ in range(25):
            job_next = [0] * len(table1.jobs)
            job_ready = [0] * len(table1.jobs)
            machine_ready = [0] * table1.machines
            entries = []
            total = table1.total_operations()
            while len(entries) < total:
                candidates = [j for j in range(len(table1.jobs)) if job_next[j] < len(table1.jobs[j].operations)]
                j = int(rng.choice(candidates))
                op = table1.operation(j, job_next[j])
                i = int(rng.choice(op.eligible()))
                start = max(job_ready[j], machine_ready[i])
                end = start + op.times[i]
                entries.append({"job": j, "op": job_next[j], "machine": i, "start": start, "end": end})
                job_next[j] += 1
                job_ready[j] = end
                machine_ready[i] = end
            schedule = schedule_from_doc(table1, entries)
            diag = diagnose_schedule(table1, schedule)
            assert diag.feasible
            if diag.makespan <= table1.t_max:
                bits = schedule_to_bits(table1, table1_index, schedule)
                assert sum(bits) == total


class TestBuildQubo:
    def test_single_op_two_slots_one_hot_energies(self):
        inst = FjspInstance.build(1, 2, [[[1]]])
        index = prune_variables(inst)
        assert len(index) == 2
        q = build_qubo(inst, FjspWeights(1.0, 0.0, 0.0, 0.0), index)
        energies = [qubo_energy(q, x) for x in [(0, 0), (1, 0), (0, 1), (1, 1)]]
        assert energies == [1.0, 0.0, 0.0, 1.0]

    def test_benchmark_dimensions(self, table1, table1_index):
        q = build_qubo(table1, FjspWeights(150.0, 100.0, 100.0, 15.0), table1_index)
        assert q.n == 264

    def test_h1_only_ground_state_is_one_hot(self):
        inst = FjspInstance.build(2, 4, [[[2, 1], [1, 2]]])
        index = prune_variables(inst)
        q = build_qubo(inst, FjspWeights(3.0, 0.0, 0.0, 0.0), index)
        energies = enum_qubo_energies(q)
        for row in np.flatnonzero(energies <= energies.min() + 1e-9):
            bits = index_bits(int(row), q.n)
            _, diag = decode_schedule(inst, index, bits)
            assert not diag.assignment_violations

    def test_h1_term_matches_count_identity(self, table1, table1_index):
        alpha = 150.0
        q = build_qubo(table1, FjspWeights(alpha, 0.0, 0.0, 0.0), table1_index)
        rng = np.random.default_rng(5)
        for _ in range(20):
            bits = rng.integers(0, 2, len(table1_index))
            selected = {}
            for k, bit in enumerate(bits):
                if bit:
                    e = table1_index.entries[k]
                    selected[(e.job, e.op)] = selected.get((e.job, e.op), 0) + 1
            expected = alpha * sum(
                (1 - selected.get((j, h), 0)) ** 2
                for j, job in enumerate(table1.jobs)
                for h in range(len(job.operations))
            )
            assert qubo_energy(q, bits) == pytest.approx(expected)

    def test_h3_monotone_in_gamma_and_zero_without_overlap(self, table1, table1_index):
        low = build_qubo(table1, FjspWeights(150.0, 100.0, 100.0, 15.0), table1_index)
        high = build_qubo(table1, FjspWeights(150.0, 100.0, 260.0, 15.0), table1_index)
        rng = np.random.default_rng(11)

        def overlapping_pairs(bits):
            chosen = [table1_index.entries[k] for k in np.flatnonzero(bits)]
            count = 0
            for a in range(len(chosen)):
                for b in range(a + 1, len(chosen)):
                    ea, eb = chosen[a], chosen[b]
                    if ea.machine != eb.machine or ea.job == eb.job:
                        continue
                    pa = table1.operation(ea.job, ea.op).times[ea.machine]
                    pb = table1.operation(eb.job, eb.op).times[eb.machine]
                    if ea.start < eb.start + pb and eb.start < ea.start + pa:
                        count += 1
            return count

        saw_conflicted = saw_clean = False
        for _ in range(40):
            bits = (rng.random(len(table1_index)) < 0.03).astype(int)
            conflicts = overlapping_pairs(bits)
            delta = qubo_energy(high, bits) - qubo_energy(low, bits)
            if conflicts:
                saw_conflicted = True
                assert delta == pytest.approx(160.0 * conflicts)
            else:
                saw_clean = True
                assert delta == pytest.approx(0.0)
        assert saw_conflicted and saw_clean

    def test_h2_h3_energy_matches_diagnostics(self, table1, table1_index):
        # for one-selection-per-operation vectors, a zero H2 (H3) term is
        # exactly the absence of sequence violations (machine conflicts)
        h2_only = build_qubo(table1, FjspWeights(0.0, 1.0, 0.0, 0.0), table1_index)
        h3_only = build_qubo(table1, FjspWeights(0.0, 0.0, 1.0, 0.0), table1_index)
        rng = np.random.default_rng(29)
        for _ in range(30):
            bits = [0] * len(table1_index)
            for j, job in enumerate(table1.jobs):
                for h in range(len(job.operations)):
                    group = table1_index.group(j, h)
                    bits[group[int(rng.integers(0, len(group)))]] = 1
            _, diag = decode_schedule(table1, table1_index, bits)
            assert (qubo_energy(h2_only, bits) == 0.0) == (not diag.sequence_violations)
            assert (qubo_energy(h3_only, bits) == 0.0) == (not diag.machine_conflicts)

    def test_strict_h3_allows_back_to_back(self):
        # two one-op jobs on one machine, second starts exactly at first's end
        inst = FjspInstance.build(1, 5, [[[2]], [[2]]])
        index = prune_variables(inst)
        strict = build_qubo(inst, FjspWeights(0.0, 0.0, 7.0, 0.0), index, h3_mode="strict")
        literal = build_qubo(inst, FjspWeights(0.0, 0.0, 7.0, 0.0), index, h3_mode="paper-literal")

        def var(job, start):
            return next(
                k for k, e in enumerate(index.entries) if e.job == job and e.start == start
            )

        bits = [0] * len(index)
        bits[var(0, 0)] = 1
        bits[var(1, 2)] = 1  # back-to-back
        assert qubo_energy(strict, bits) == 0.0
        assert qubo_energy(literal, bits) == 14.0  # closed interval, charged for both orderings

        bits_overlap = [0] * len(index)
        bits_overlap[var(0, 0)] = 1
        bits_overlap[var(1, 1)] = 1
        assert qubo_energy(strict, bits_overlap) == 7.0
        assert qubo_energy(literal, bits_overlap) == 14.0

    def test_index_mismatch_rejected(self, table1):
        other = FjspInstance.build(2, 6, [[[1, 2]], [[2, 1]]])
        other_index = prune_variables(other)
        with pytest.raises(DimensionError):
            build_qubo(table1, FjspWeights(1.0, 1.0, 1.0, 1.0), other_index)


class TestDecode:
    def test_benchmark_schedule_decodes_clean(self, table1, table1_index, benchmark_schedule):
        bits = schedule_to_bits(table1, table1_index, benchmark_schedule)
        schedule, diag = decode_schedule(table1, table1_index, bits)
        assert diag.feasible
        assert diag.makespan == 11
        assert len(schedule.entries) == 9

    def test_machine_conflict_reported(self):
        inst = FjspInstance.build(1, 5, [[[2]], [[2]]])
        index = prune_variables(inst)
        bits = [0] * len(index)
        for k, e in enumerate(index.entries):
            if e.start == 0:
                bits[k] = 1
        _, diag = decode_schedule(inst, index, bits)
        assert len(diag.machine_conflicts) == 1
        machine, op_a, op_b, overlap = diag.machine_conflicts[0]
        assert machine == 0 and overlap == (0, 2)
        assert diag.makespan is None

    def test_all_zero_bits(self, table1, table1_index):
        _, diag = decode_schedule(table1, table1_index, [0] * len(table1_index))
        assert len(diag.assignment_violations) == 9
        assert diag.makespan is None

    def test_sequence_violation(self):
        inst = FjspInstance.build(2, 8, [[[2, None], [None, 3]]])
        index = prune_variables(inst)
        bits = [0] * len(index)
        bits[next(k for k, e in enumerate(index.entries) if e.op == 0 and e.start == 2)] = 1
        bits[next(k for k, e in enumerate(index.entries) if e.op == 1 and e.start == 2)] = 1
        _, diag = decode_schedule(inst, index, bits)
        assert diag.sequence_violations == (((0, 0), (0, 1)),)

    def test_diagnose_rejects_wrong_duration(self, table1):
        bad = Schedule.__new__(Schedule)
        object.__setattr__(bad, "entries", (
            schedule_from_doc(table1, [{"job": 0, "op": 0, "machine": 0, "start": 0, "end": 5}]).entries
        ))
        with pytest.raises(ValueError):
            diagnose_schedule(table1, bad)


class TestExactOracle:
    def test_serial_single_machine_job(self):
        inst = FjspInstance.build(1, 10, [[[2], [3]]])
        assert exact_min_makespan(inst) == 5

    def test_two_jobs_one_machine(self):
        inst = FjspInstance.build(1, 10, [[[2]], [[3]]])
        assert exact_min_makespan(inst) == 5

    def test_benchmark_instance(self, table1):
        # each job fits serially on its own fastest machine: max(9, 9, 9)
        assert exact_min_makespan(table1) == 9

    def test_budget_exhaustion_reports_bound(self, table1):
        with pytest.raises(BudgetExceededError) as excinfo:
            exact_min_makespan(table1, node_budget=5)
        assert excinfo.value.bound == 9

    def test_flexible_choice(self):
        inst = FjspInstance.build(2, 10, [[[4, 1]], [[1, 4]]])
        assert exact_min_makespan(inst) == 1


class TestOracleAgreement:
    def test_qubo_ground_states_are_feasible(self):
        # feasibility of ground states is unconditional when the penalty
        # weights dominate and the horizon admits an optimal schedule
        rng = np.random.default_rng(77)
        weights = FjspWeights(1e4, 1e4, 1e4, 1.0)
        for _ in range(12):
            inst, index = random_micro_instance(rng)
            q = build_qubo(inst, weights, index)
            energies = enum_qubo_energies(q)
            for row in np.flatnonzero(energies <= energies.min() + 1e-6):
                bits = index_bits(int(row), q.n)
                _, diag = decode_schedule(inst, index, bits)
                assert diag.feasible

    def test_qubo_ground_states_match_oracle(self):
        rng = np.random.default_rng(3)
        weights = FjspWeights(1e4, 1e4, 1e4, 1.0)
        for _ in range(12):
            inst, index = random_micro_instance(rng)
            q = build_qubo(inst, weights, index)
            energies = enum_qubo_energies(q)
            optimum = exact_min_makespan(inst)
            for row in np.flatnonzero(energies <= energies.min() + 1e-6):
                bits = index_bits(int(row), q.n)
                _, diag = decode_schedule(inst, index, bits)
                assert diag.feasible
                assert diag.makespan == optimum


class TestObjectiveSumArtifact:
    def test_sum_objective_can_prefer_longer_makespan(self):
        # The late-completion term charges the sum of job completion
        # shifts, not the maximum. On this instance the cheapest-sum
        # feasible schedule has makespan 6 while the true optimum is 5:
        # packing job 1 tightly on machine 1 (sum 2+4=6) beats the
        # makespan-5 schedule (sum 4+3=7).
        inst = FjspInstance.build(
            2, 6, [[[1, None], [2, 3]], [[None, 2], [3, None]]]
        )
        index = prune_variables(inst)
        q = build_qubo(inst, FjspWeights(1e4, 1e4, 1e4, 1.0), index)
        energies = enum_qubo_energies(q)
        assert exact_min_makespan(inst) == 5
        makespans = set()
        for row in np.flatnonzero(energies <= energies.min() + 1e-6):
            _, diag = decode_schedule(inst, index, index_bits(int(row), q.n))
            assert diag.feasible
            makespans.add(diag.makespan)
        assert makespans == {6}


class TestJsonAndGantt:
    def test_instance_roundtrip(self, table1):
        doc = instance_to_doc(table1)
        assert instance_from_doc(doc) == table1

    def test_instance_missing_field(self):
        with pytest.raises(ValueError, match="machines"):
            instance_from_doc({"t_max": 5, "jobs": []})

    def test_ineligible_machines_roundtrip(self):
        inst = FjspInstance.build(2, 6, [[[1, None]], [[None, 2]]])
        assert instance_from_doc(instance_to_doc(inst)) == inst

    def test_schedule_roundtrip(self, table1, benchmark_schedule):
        doc = schedule_to_doc(benchmark_schedule)
        assert schedule_from_doc(table1, doc) == benchmark_schedule

    def test_gantt_text_blocks(self, table1, benchmark_schedule):
        text = gantt_text(table1, benchmark_schedule)
        for entry in benchmark_schedule.entries:
            assert f"J{entry.job + 1}.{entry.op + 1}" in text
        assert text.count("\n") == table1.machines + 1

    def test_gantt_svg_blocks_do_not_overlap(self, table1, benchmark_schedule):
        svg = gantt_svg(table1, benchmark_schedule)
        assert svg.count("<rect data-job=") == len(benchmark_schedule.entries)
        import re

        rows = {}
        for match in re.finditer(
            r'<rect data-job="\d+" data-op="\d+" x="(\d+)" y="(\d+)" width="(\d+)"', svg
        ):
            x, y, w = map(int, match.groups())
            rows.setdefault(y, []).append((x, x + w))
        for spans in rows.values():
            spans.sort()
            for (a_lo, a_hi), (b_lo, b_hi) in zip(spans, spans[1:]):
                assert a_hi <= b_lo


class TestInstanceValidation:
    def test_rejects_zero_time(self):
        with pytest.raises(ValueError):
            FjspInstance.build(1, 5, [[[0]]])

    def test_rejects_no_eligible_machine(self):
        with pytest.raises(ValueError):
            FjspInstance.build(2, 5, [[[None, None]]])

    def test_weights_reject_negative(self):
        with pytest.raises(ValueError):
            FjspWeights(-1.0, 1.0, 1.0, 1.0)

    def test_weights_require_positive_for_tuning(self):
        with pytest.raises(ValueError):
            FjspWeights(1.0, 0.0, 1.0, 1.0).require_positive()


class TestDocumentRejection:
    """Document readers reject what they used to truncate with int()."""

    @pytest.mark.parametrize(
        "change",
        [
            {"machines": 1.0},
            {"machines": True},
            {"t_max": 5.5},
            {"jobs": [{"operations": [{"times": [1.5]}]}]},
            {"jobs": [{"operations": [{"times": [True]}]}]},
            {"jobs": [{"operations": [{"times": ["2"]}]}]},
        ],
    )
    def test_instance_rejects_non_integers(self, change):
        doc = {"machines": 1, "t_max": 5, "jobs": [{"operations": [{"times": [2]}]}], **change}
        with pytest.raises(ValueError, match="must be int"):
            instance_from_doc(doc)

    @pytest.mark.parametrize("field, value", [("job", True), ("op", 0.0), ("machine", "0"), ("start", 0.9), ("end", 3.5)])
    def test_schedule_rejects_non_integers(self, table1, field, value):
        entry = {"job": 0, "op": 0, "machine": 0, "start": 0, "end": 3, field: value}
        with pytest.raises(ValueError, match="must be int"):
            schedule_from_doc(table1, [entry])
