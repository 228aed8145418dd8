"""Scheduling model: pruning, Hamiltonian, decoding, exact oracle."""

import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cimopt.errors import BudgetExceededError, DimensionError, InfeasibleHorizonError
from cimopt.fjsp import (
    FjspInstance,
    FjspWeights,
    Schedule,
    ScheduleEntry,
    TimedVariable,
    VariableIndex,
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

from conftest import (
    JSON_SCALARS,
    JSON_VALUES,
    TABLE1,
    enum_qubo_energies,
    index_bits,
    random_fjsp_instance,
    random_micro_instance,
    reference_build_qubo,
)

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

    def test_position_is_each_entrys_place(self, table1, table1_index):
        assert [table1_index.position(e) for e in table1_index.entries] == list(range(264))
        absent = TimedVariable(0, 0, 0, table1.t_max + 1)
        assert table1_index.get(absent) is None
        with pytest.raises(KeyError):
            table1_index.position(absent)

    def test_timed_variable_behaviour(self, table1_index):
        # the repr is part of the "index entry ... does not exist" messages
        v = TimedVariable(0, 3, 0, 6)
        assert repr(v) == "TimedVariable(job=0, op=3, machine=0, start=6)"
        assert (v.job, v.op, v.machine, v.start) == (0, 3, 0, 6)
        assert TimedVariable(1, 2, 3, 4).machine == 3
        assert v == TimedVariable(0, 3, 0, 6) and hash(v) == hash(TimedVariable(0, 3, 0, 6))
        assert v != TimedVariable(0, 3, 6, 0)
        first = table1_index.entries[0]
        assert TimedVariable(first.job, first.op, first.machine, first.start) == first
        assert len(set(table1_index.entries)) == len(table1_index)
        with pytest.raises(AttributeError):
            v.start = 7

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

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda es: [e for e in es if (e.job, e.op) != (1, 2)], r"no variables for operation \(1, 2\)"),
            (lambda es: es + [TimedVariable(0, 3, 0, 6)], "does not exist in the instance"),
            (lambda es: es + [TimedVariable(3, 0, 0, 0)], "does not exist in the instance"),
            (lambda es: [TimedVariable(-1, 0, 0, 0)] + es, "does not exist in the instance"),
            (lambda es: es + [TimedVariable(0, 0, 3, 0)], "uses an ineligible machine"),
            (lambda es: es + [TimedVariable(0, 1, 0, 2)], "lies outside its pruning window"),  # earliest 3
            (lambda es: es + [TimedVariable(0, 0, 0, 11)], "lies outside its pruning window"),  # 11 + 3 > 13
        ],
    )
    def test_index_entry_rejected(self, table1, table1_index, edit, message):
        index = VariableIndex(tuple(edit(list(table1_index.entries))), table1_index.raw_count)
        with pytest.raises(DimensionError, match=message):
            build_qubo(table1, FjspWeights(1.0, 1.0, 1.0, 1.0), index)

    def test_index_entry_on_ineligible_machine_rejected(self):
        inst = FjspInstance.build(2, 4, [[[1, None]]])
        index = prune_variables(inst)
        bad = VariableIndex(index.entries + (TimedVariable(0, 0, 1, 0),), index.raw_count)
        with pytest.raises(DimensionError, match=r"index entry .* uses an ineligible machine"):
            build_qubo(inst, FjspWeights(1.0, 1.0, 1.0, 1.0), bad)

    @pytest.mark.parametrize(
        "extra, message",
        [
            (TimedVariable(0, 3, 0, 6), "does not exist in the instance"),
            (TimedVariable(3, 0, 0, 0), "does not exist in the instance"),
            (TimedVariable(-1, 0, 0, 0), "does not exist in the instance"),
            (TimedVariable(0, 0, 3, 0), "uses an ineligible machine"),
            (TimedVariable(0, 0, -1, 0), "uses an ineligible machine"),
        ],
    )
    def test_decode_rejects_selected_bad_entry(self, table1, table1_index, extra, message):
        # each of these selected entries used to decode without an error
        index = VariableIndex(table1_index.entries + (extra,), table1_index.raw_count)
        bits = [1] + [0] * len(table1_index)
        decode_schedule(table1, index, bits)  # an unselected entry is not checked
        with pytest.raises(DimensionError, match=re.escape(f"index entry {extra} {message}")):
            decode_schedule(table1, index, bits[:-1] + [1])

    def test_decode_rejects_selected_ineligible_machine(self):
        # an entry on an ineligible machine ended in a TypeError inside _diagnose
        inst = FjspInstance.build(2, 4, [[[1, None]]])
        index = prune_variables(inst)
        bad = VariableIndex(index.entries + (TimedVariable(0, 0, 1, 0),), index.raw_count)
        with pytest.raises(DimensionError, match=r"index entry .* uses an ineligible machine"):
            decode_schedule(inst, bad, [0] * len(index) + [1])

    @pytest.mark.parametrize(
        "extra, raw_count, message",
        [
            # the int64 cast of the index check truncated 2.5 to 2: a 265-variable model
            ((TimedVariable(0, 0, 0, 2.5),), 513, "index entry fields must be int, got 2.5"),
            ((TimedVariable(0, 0, True, 2),), 513, "index entry fields must be int, got True"),
            ((TimedVariable(0.0, 0, 0, 2),), 513, "index entry fields must be int, got 0.0"),
            ((), 513.0, "raw_count must be int, got 513.0"),
            # the int64 table of build_qubo's index check raised OverflowError
            ((TimedVariable(0, 0, 0, 2**63),), 513, "index entry fields must be 64-bit integers, got 9223372036854775808"),
        ],
    )
    def test_index_fields_must_be_ints(self, table1_index, extra, raw_count, message):
        assert table1_index.raw_count == 513
        with pytest.raises(ValueError, match=message):
            VariableIndex(table1_index.entries + extra, raw_count)

    def test_repeated_index_entry_rejected(self, table1_index):
        # a repeat gave build_qubo a 265-variable model, and get() the last copy
        first = table1_index.entries[0]
        with pytest.raises(ValueError, match=re.escape(f"index repeats entry {first}")):
            VariableIndex(table1_index.entries + (first,), table1_index.raw_count)


H3_WEIGHTS = [FjspWeights(150, 100, 100, 15), FjspWeights(1.3, 0.7, 2.9, 0.1)]


class TestWindowedH3:
    """build_qubo pairs H3 by start-time windows and adds H1 and H2 in one
    batch each; the arrays must equal those of a build that adds H1 and H2
    per operation and makes every same-machine H3 pair and filters."""

    @staticmethod
    def assert_matches_reference(inst, index):
        for weights in H3_WEIGHTS:
            for mode in ("strict", "paper-literal"):
                q = build_qubo(inst, weights, index, mode)
                expected = reference_build_qubo(inst, weights, index, mode)
                for name in ("lin", "rows", "cols", "vals"):
                    got, want = getattr(q, name), getattr(expected, name)
                    assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (mode, weights, name)
                assert (q.n, q.offset) == (expected.n, expected.offset)

    def test_equal_starts_and_back_to_back(self):
        # one machine; starts 0-4 of a 2-unit and 0-3 of a 3-unit operation
        inst = FjspInstance.build(1, 6, [[[2]], [[3]]])
        index = prune_variables(inst)
        self.assert_matches_reference(inst, index)
        q = build_qubo(inst, FjspWeights(0, 0, 1, 0), index, "strict")
        at = {(e.job, e.start): k for k, e in enumerate(index.entries)}
        assert q.upper[(at[0, 1], at[1, 1])] == 1.0  # equal starts
        assert (at[0, 0], at[1, 2]) not in q.upper  # back to back: [0, 2) then [2, 5)
        assert (at[1, 0], at[0, 3]) not in q.upper  # back to back: [0, 3) then [3, 5)
        literal = build_qubo(inst, FjspWeights(0, 0, 1, 0), index, "paper-literal")
        # |t - t'| is bounded by the later operation's time, charged twice
        assert literal.upper[(at[0, 1], at[1, 1])] == 2.0
        assert literal.upper[(at[0, 0], at[1, 3])] == 2.0  # 3 - 0 <= 3
        assert (at[1, 0], at[0, 3]) not in literal.upper  # 3 - 0 > 2

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_micro_instances(self, seed):
        inst, index = random_micro_instance(np.random.default_rng(seed))
        self.assert_matches_reference(inst, index)

    def test_generated_10x6(self):
        inst = random_fjsp_instance(np.random.default_rng(1), 10, 6, slack=8)
        index = prune_variables(inst)
        assert len(index) == 1965
        self.assert_matches_reference(inst, index)

    def test_shuffled_index(self):
        # an index in any order: no operation's variables are contiguous
        inst = random_fjsp_instance(np.random.default_rng(2), 4, 3, slack=4)
        index = prune_variables(inst)
        entries = [index.entries[k] for k in np.random.default_rng(3).permutation(len(index))]
        self.assert_matches_reference(inst, VariableIndex(tuple(entries), index.raw_count))

    def test_group_of_shuffled_index(self):
        inst = random_fjsp_instance(np.random.default_rng(2), 4, 3, slack=4)
        index = prune_variables(inst)
        entries = [index.entries[k] for k in np.random.default_rng(3).permutation(len(index))]
        shuffled = VariableIndex(tuple(entries), index.raw_count)
        for j, h, _ in inst.iter_operations():
            group = shuffled.group(j, h)
            assert group == tuple(k for k, e in enumerate(entries) if (e.job, e.op) == (j, h))
            assert all(type(k) is int for k in group)
            assert group != tuple(range(group[0], group[0] + len(group)))  # not contiguous
        assert shuffled.group(0, len(inst.jobs[0].operations)) == ()
        assert shuffled.group(len(inst.jobs), 0) == ()
        assert shuffled.group(-1, 0) == ()


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

    def test_makespan_is_the_latest_end(self, benchmark_schedule):
        assert benchmark_schedule.makespan() == 11
        entries = (ScheduleEntry(0, 0, 0, 0, 3), ScheduleEntry(1, 0, 1, 0, 7), ScheduleEntry(0, 1, 1, 7, 9))
        assert Schedule(entries).makespan() == 9
        assert Schedule(entries[:2]).makespan() == 7  # the latest end, not the last entry's

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

    @pytest.mark.parametrize("budget", [0, -1])
    def test_non_positive_budget_rejected(self, table1, budget):
        with pytest.raises(ValueError, match=f"node budget must be >= 1, got {budget}"):
            exact_min_makespan(table1, node_budget=budget)

    @pytest.mark.parametrize("budget", [True, 2.5])  # both used to run
    def test_non_integer_budget_rejected(self, table1, budget):
        with pytest.raises(ValueError, match=f"node budget must be int, got {budget}"):
            exact_min_makespan(table1, node_budget=budget)

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


TIME = st.integers(0, 3) | st.none() | JSON_SCALARS


class TestInstanceValidation:
    def test_rejects_zero_time(self):
        with pytest.raises(ValueError):
            FjspInstance.build(1, 5, [[[0]]])

    def test_rejects_no_eligible_machine(self):
        with pytest.raises(ValueError):
            FjspInstance.build(2, 5, [[[None, None]]])

    @pytest.mark.parametrize(
        "machines, t_max, time, message",
        [
            (3.0, 18, 3, "machines and t_max must be int, got 3.0"),
            (3, 18.5, 3, "machines and t_max must be int, got 18.5"),
            (3, True, 3, "machines and t_max must be int, got True"),
            (3, 18, True, "processing times must be int, got True"),
            (3, 18, 3.0, "processing times must be int, got 3.0"),
        ],
    )
    def test_rejects_non_integer_fields(self, machines, t_max, time, message):
        jobs = [[list(times) for times in ops] for ops in TABLE1]
        jobs[0][0][0] = time
        with pytest.raises(ValueError, match=message):
            FjspInstance.build(machines, t_max, jobs)

    @settings(max_examples=400, deadline=None)
    @given(
        st.integers(0, 2) | JSON_SCALARS,
        st.integers(-1, 8) | JSON_SCALARS,
        st.lists(st.lists(st.lists(TIME, min_size=1, max_size=2), max_size=2), max_size=2),
    )
    @example(1.0, 5, [[[2]]])
    @example(1, 5, [[[True]]])
    def test_what_the_constructor_accepts_reads_back_equal(self, machines, t_max, jobs):
        try:
            inst = FjspInstance.build(machines, t_max, jobs)
        except ValueError:
            return
        assert instance_from_doc(instance_to_doc(inst)) == inst

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

    @pytest.mark.parametrize("doc", [{"entries": 5}, {}, [5], None, 5, "entries", [{"job": 0}], [[0, 0, 0, 0]]])
    def test_schedule_rejects_malformed_documents(self, table1, doc):
        with pytest.raises(ValueError, match="schedule"):
            schedule_from_doc(table1, doc)

    @pytest.mark.parametrize(
        "field, value",
        [("job", -1), ("job", 3), ("op", -1), ("op", 9), ("machine", -1), ("machine", 5), ("start", -3)],
    )
    def test_entries_outside_the_instance_rejected(self, table1, field, value):
        # negative indices must not wrap to the last job, operation or machine
        entry = {"job": 0, "op": 0, "machine": 0, "start": 0, field: value}
        with pytest.raises(ValueError, match=r"schedule entry \(-?\d+, -?\d+\)"):
            schedule_from_doc(table1, [entry])
        bad = Schedule((ScheduleEntry(**entry, end=entry["start"] + 3),))
        with pytest.raises(ValueError, match=r"schedule entry \(-?\d+, -?\d+\)"):
            diagnose_schedule(table1, bad)

    @pytest.mark.parametrize("field, value", [("job", True), ("op", 0.0), ("machine", False), ("start", 0.5)])
    def test_diagnose_rejects_non_integer_placements(self, table1, field, value):
        # schedule_from_doc rejects these; diagnose_schedule read start 0.5 as a placement
        entry = {"job": 0, "op": 0, "machine": 0, "start": 0, field: value}
        schedule = Schedule((ScheduleEntry(**entry, end=entry["start"] + 3),))
        with pytest.raises(ValueError, match="must be int"):
            diagnose_schedule(table1, schedule)

    def test_ineligible_machine_rejected(self):
        inst = FjspInstance.build(2, 6, [[[1, None]], [[None, 2]]])
        with pytest.raises(ValueError, match=r"\(1, 0\) is not eligible on machine 0"):
            schedule_from_doc(inst, [{"job": 1, "op": 0, "machine": 0, "start": 0}])


# near-valid documents reach the checks behind the type checks
INDEX = st.integers(-1, 1)
ENTRY = st.fixed_dictionaries(
    {"job": INDEX, "op": INDEX, "machine": INDEX, "start": st.integers(-1, 3)},
    optional={"end": st.integers(-1, 6) | JSON_SCALARS},
)
SCHEDULE_DOCS = JSON_VALUES | st.lists(ENTRY | JSON_VALUES, max_size=3) | st.fixed_dictionaries(
    {"entries": st.lists(ENTRY, max_size=3)}
)


def instance_docs(machines):
    times = st.lists(st.integers(0, 3) | st.none(), min_size=machines, max_size=machines) | JSON_VALUES
    job = st.fixed_dictionaries({"operations": st.lists(st.fixed_dictionaries({"times": times}), min_size=1, max_size=2)})
    return st.fixed_dictionaries(
        {"machines": st.just(machines), "t_max": st.integers(-1, 8), "jobs": st.lists(job, max_size=2)}
    )


INSTANCE_DOCS = JSON_VALUES | st.integers(0, 2).flatmap(instance_docs)


class TestReaderSweep:
    """Any JSON value is read or rejected with ValueError, never another error."""

    INST = FjspInstance.build(2, 6, [[[1, None], [None, 2]], [[3, 3]]])

    @settings(max_examples=400, deadline=None)
    @given(SCHEDULE_DOCS)
    def test_schedule_reader(self, doc):
        try:
            schedule = schedule_from_doc(self.INST, doc)
        except ValueError:
            return
        for e in schedule.entries:
            assert 0 <= e.job < len(self.INST.jobs)
            assert 0 <= e.op < len(self.INST.jobs[e.job].operations)
            assert 0 <= e.machine < self.INST.machines
            assert self.INST.operation(e.job, e.op).times[e.machine] is not None
            assert e.start >= 0

    @settings(max_examples=400, deadline=None)
    @given(INSTANCE_DOCS)
    def test_instance_reader(self, doc):
        try:
            inst = instance_from_doc(doc)
        except ValueError:
            return
        assert instance_from_doc(instance_to_doc(inst)) == inst
