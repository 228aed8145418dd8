"""Tuning loop, memory semantics, rule policies, external policy protocol."""

import json
import sys

import pytest

from cimopt.errors import PolicyError
from cimopt.peptide import make_problem
from cimopt.solver import SolverConfig
from cimopt.tuner import (
    FjspTask,
    PeptideTask,
    PolicyContext,
    PolicyDecision,
    TunerMemory,
    external_policy,
    parse_policy_decision,
    record_from_doc,
    record_to_doc,
    rule_policy_fjsp,
    rule_policy_peptide,
    run_tuning,
    single_shot_policy,
)

FAST = SolverConfig(sweeps=300, restarts=4, seed=0)
WEIGHTS0 = {"alpha": 150.0, "beta": 100.0, "gamma": 100.0, "delta": 15.0}


def fjsp_context(conflicts=0, assignment=0, sequence=0, weights=None, makespan=None):
    return PolicyContext(
        iteration=1,
        problem_kind="fjsp",
        current_weights=dict(weights or WEIGHTS0),
        solve_summary=[],
        diagnostics={
            "machine_conflicts": [[0, [0, 0], [1, 0], [0, 2]]] * conflicts,
            "assignment_violations": [[0, 0, 0]] * assignment,
            "sequence_violations": [[[0, 0], [0, 1]]] * sequence,
            "makespan": makespan,
        },
        history=[],
        incumbent=None,
    )


def peptide_context(rate, weights, history=()):
    return PolicyContext(
        iteration=len(history) or 1,
        problem_kind="peptide",
        current_weights=dict(weights),
        solve_summary=[],
        diagnostics={"violation_rate": rate, "best_deviation_da": None, "best_relative": None},
        history=list(history),
        incumbent=None,
    )


class TestMemory:
    def test_dedup(self):
        memory = TunerMemory(max_history=5)
        memory.record_trial({"a": 1.0})
        memory.record_trial({"a": 1.0})
        assert memory.weight_history == [{"a": 1.0}]
        assert memory.seen({"a": 1.0})
        assert not memory.seen({"a": 2.0})

    def test_cap_keeps_most_recent(self):
        memory = TunerMemory(max_history=3)
        for k in range(6):
            memory.record_trial({"a": float(k)})
        assert memory.weight_history == [{"a": 3.0}, {"a": 4.0}, {"a": 5.0}]

    def test_best_updates_only_on_improvement(self):
        memory = TunerMemory()
        assert memory.update_best(10.0, {"a": 1.0})
        assert not memory.update_best(10.0, {"a": 2.0})
        assert memory.update_best(9.0, {"a": 3.0})
        assert memory.best_metric == 9.0
        assert memory.best_weights == {"a": 3.0}


class TestRulePolicyFjsp:
    def test_conflicts_raise_gamma_to_220(self):
        decision = rule_policy_fjsp(fjsp_context(conflicts=2))
        assert decision.action == "adjust"
        assert decision.new_weights["gamma"] == 220.0
        assert decision.new_weights["delta"] == 15.0

    def test_gamma_242_clips_to_500(self):
        weights = dict(WEIGHTS0, gamma=242.0)
        decision = rule_policy_fjsp(fjsp_context(conflicts=1, weights=weights))
        assert decision.new_weights["gamma"] == 500.0

    def test_gamma_grows_past_ceiling_when_conflicts_persist(self):
        weights = dict(WEIGHTS0, gamma=500.0)
        decision = rule_policy_fjsp(fjsp_context(conflicts=1, weights=weights))
        assert decision.new_weights["gamma"] > 500.0

    def test_conflict_response_always_increases_gamma(self):
        for gamma in (0.2, 1.0, 99.0, 100.0, 220.0, 242.0, 499.0, 500.0, 800.0, 5000.0):
            ctx = fjsp_context(conflicts=3, weights=dict(WEIGHTS0, gamma=gamma))
            decision = rule_policy_fjsp(ctx)
            assert decision.action == "adjust"
            assert decision.new_weights["gamma"] > gamma

    def test_assignment_violations_raise_alpha(self):
        decision = rule_policy_fjsp(fjsp_context(assignment=2))
        assert decision.new_weights["alpha"] > 150.0
        assert decision.new_weights["gamma"] == 100.0

    def test_sequence_violations_raise_beta(self):
        decision = rule_policy_fjsp(fjsp_context(sequence=1))
        assert decision.new_weights["beta"] > 100.0

    def test_clean_stops_with_high_confidence(self):
        decision = rule_policy_fjsp(fjsp_context(makespan=11))
        assert decision.action == "stop"
        assert decision.confidence == "high"

    def test_wrong_kind_rejected(self):
        ctx = peptide_context(0.0, {"lambda_pos": 1.0, "lambda_mass": 1.0})
        with pytest.raises(ValueError):
            rule_policy_fjsp(ctx)


class TestRulePolicyPeptide:
    def test_heavy_violation_boosts_tenfold(self):
        decision = rule_policy_peptide(
            peptide_context(0.9, {"lambda_pos": 1.0, "lambda_mass": 1.0})
        )
        assert decision.action == "adjust"
        assert decision.new_weights["lambda_pos"] == pytest.approx(10.0)

    def test_low_violation_worsening_reduces_ratio(self):
        history = [
            {"weights": {}, "metric": 3.0},
            {"weights": {}, "metric": 8.0},
        ]
        decision = rule_policy_peptide(
            peptide_context(0.05, {"lambda_pos": 100.0, "lambda_mass": 1.0}, history)
        )
        assert decision.action == "adjust"
        assert decision.new_weights["lambda_pos"] < 100.0

    def test_clean_and_stalled_stops(self):
        history = [
            {"weights": {}, "metric": 2.0},
            {"weights": {}, "metric": 2.0},
            {"weights": {}, "metric": 2.5},
        ]
        decision = rule_policy_peptide(
            peptide_context(0.0, {"lambda_pos": 100.0, "lambda_mass": 1.0}, history)
        )
        assert decision.action == "stop"
        assert decision.confidence == "high"

    def test_ratio_clamped_to_published_range(self):
        decision = rule_policy_peptide(
            peptide_context(0.9, {"lambda_pos": 5e4, "lambda_mass": 1.0})
        )
        assert decision.new_weights["lambda_pos"] <= 8.5e4

    def test_clean_improving_keeps_adjusting(self):
        history = [
            {"weights": {}, "metric": 5.0},
            {"weights": {}, "metric": 2.0},
        ]
        decision = rule_policy_peptide(
            peptide_context(0.0, {"lambda_pos": 100.0, "lambda_mass": 1.0}, history)
        )
        assert decision.action == "adjust"


class TestRunTuning:
    def test_fjsp_gamma_increases_while_conflicts_persist(self, table1):
        # a deliberately tiny budget keeps rank-0 conflicted for a while
        task = FjspTask(table1)
        report = run_tuning(
            task,
            WEIGHTS0,
            rule_policy_fjsp,
            solver_config=SolverConfig(sweeps=12, restarts=1, seed=5),
            max_iter=4,
        )
        assert 1 <= report.iterations_run <= 4
        for earlier, later in zip(report.records, report.records[1:]):
            if earlier.diagnostics["machine_conflicts"]:
                assert later.weights["gamma"] > earlier.weights["gamma"]

    def test_max_iter_one_records_unapplied_decision(self, table1):
        task = FjspTask(table1)
        report = run_tuning(task, WEIGHTS0, rule_policy_fjsp, FAST, max_iter=1)
        assert report.iterations_run == 1
        assert report.records[0].decision is not None
        assert report.stop_reason in ("max_iterations", "policy_stop")

    def test_duplicate_proposal_halts(self, table1):
        task = FjspTask(table1)

        def repeat_policy(ctx):
            return PolicyDecision("adjust", dict(WEIGHTS0), rationale="again")

        report = run_tuning(task, WEIGHTS0, repeat_policy, FAST, max_iter=5)
        assert report.stop_reason == "duplicate_weights"
        assert report.iterations_run == 1
        assert report.memory.weight_history == [WEIGHTS0]

    def test_incumbent_monotone_and_feasible_only(self, table1):
        task = FjspTask(table1)
        seen = []

        def drive_policy(ctx):
            seen.append(ctx.incumbent["metric"] if ctx.incumbent else None)
            weights = dict(ctx.current_weights)
            weights["gamma"] += 50.0
            return PolicyDecision("adjust", weights, rationale="probe")

        run_tuning(task, WEIGHTS0, drive_policy, SolverConfig(sweeps=250, restarts=2, seed=2), max_iter=4)
        metrics = [m for m in seen if m is not None]
        assert metrics == sorted(metrics, reverse=True) or all(
            b <= a for a, b in zip(metrics, metrics[1:])
        )

    def test_memory_cap_in_loop(self, table1):
        task = FjspTask(table1)
        counter = iter(range(100))

        def fresh_policy(ctx):
            weights = dict(ctx.current_weights)
            weights["gamma"] = 101.0 + next(counter)
            return PolicyDecision("adjust", weights, rationale="fresh")

        report = run_tuning(
            task, WEIGHTS0, fresh_policy, SolverConfig(sweeps=10, restarts=1, seed=1),
            max_iter=7, max_history=3,
        )
        assert report.iterations_run == 7
        assert len(report.memory.weight_history) == 3
        assert report.memory.weight_history[-1]["gamma"] == 106.0  # most recent kept

    def test_record_count_matches_iterations(self, table1):
        task = FjspTask(table1)
        report = run_tuning(task, WEIGHTS0, rule_policy_fjsp, FAST, max_iter=2)
        assert len(report.records) == report.iterations_run

    def test_records_roundtrip_through_log_format(self, table1):
        task = FjspTask(table1)
        report = run_tuning(task, WEIGHTS0, rule_policy_fjsp, FAST, max_iter=2)
        for record in report.records:
            doc = record_to_doc(record, include_timestamps=True)
            restored = record_from_doc(json.loads(json.dumps(doc)))
            assert record_to_doc(restored, include_timestamps=True) == doc

    def test_peptide_loop_runs(self):
        problem = make_problem(128.13, positions=2)
        task = PeptideTask(problem)
        report = run_tuning(
            task,
            {"lambda_pos": 1.0, "lambda_mass": 1.0},
            rule_policy_peptide,
            SolverConfig(sweeps=400, restarts=4, seed=3),
            max_iter=3,
        )
        assert report.iterations_run >= 1
        assert "violation_rate" in report.final_diagnostics

    def test_policy_error_carries_last_record(self, table1):
        task = FjspTask(table1)
        calls = iter(range(10))

        def flaky_policy(ctx):
            if next(calls) == 0:
                weights = dict(ctx.current_weights)
                weights["gamma"] += 10
                return PolicyDecision("adjust", weights, rationale="ok")
            raise PolicyError("boom")

        with pytest.raises(PolicyError) as excinfo:
            run_tuning(task, WEIGHTS0, flaky_policy, FAST, max_iter=3)
        assert excinfo.value.last_record is not None
        assert excinfo.value.last_record.iteration == 1

    def test_rejects_nonpositive_initial_weights(self, table1):
        task = FjspTask(table1)
        with pytest.raises(ValueError):
            run_tuning(task, dict(WEIGHTS0, gamma=0.0), rule_policy_fjsp, FAST, max_iter=1)

    def test_single_shot_policy(self, table1):
        task = FjspTask(table1)
        report = run_tuning(task, WEIGHTS0, single_shot_policy, FAST, max_iter=5)
        assert report.iterations_run == 1
        assert report.stop_reason == "policy_stop"


class TestDecisionParsing:
    def test_minimal_stop(self):
        decision = parse_policy_decision('{"action": "stop"}', required_names=())
        assert decision.action == "stop"

    def test_adjust_requires_all_names(self):
        with pytest.raises(PolicyError, match="missing"):
            parse_policy_decision(
                '{"action": "adjust", "weights": {"alpha": 1.0}}',
                required_names=("alpha", "gamma"),
            )

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(PolicyError, match="non-positive"):
            parse_policy_decision(
                '{"action": "adjust", "weights": {"gamma": -1.0}}',
                required_names=("gamma",),
            )

    def test_malformed_json(self):
        with pytest.raises(PolicyError, match="malformed"):
            parse_policy_decision("{nope", required_names=())

    def test_unknown_action(self):
        with pytest.raises(PolicyError, match="action"):
            parse_policy_decision('{"action": "explode"}', required_names=())

    def test_bad_confidence(self):
        with pytest.raises(PolicyError, match="confidence"):
            parse_policy_decision('{"action": "stop", "confidence": "sure"}', required_names=())

    def test_wire_version_checked(self):
        with pytest.raises(PolicyError, match="version"):
            parse_policy_decision('{"v": 2, "action": "stop"}', required_names=())

    @pytest.mark.parametrize("value", ["true", '"150"', "null", "[1.0]", '{"x": 1}', "1" + "0" * 400])
    def test_malformed_weight_rejected(self, value):
        with pytest.raises(PolicyError, match="'gamma'"):
            parse_policy_decision(f'{{"action": "adjust", "weights": {{"gamma": {value}}}}}', required_names=("gamma",))

    def test_int_weight_accepted_as_float(self):
        decision = parse_policy_decision('{"action": "adjust", "weights": {"gamma": 150}}', required_names=("gamma",))
        assert decision.new_weights == {"gamma": 150.0}
        assert type(decision.new_weights["gamma"]) is float


PY = sys.executable


class TestExternalPolicy:
    def test_scripted_stop_ends_loop(self, table1):
        policy = external_policy(
            f"{PY} -c \"print('{{\\\"action\\\": \\\"stop\\\", \\\"rationale\\\": \\\"done\\\", \\\"confidence\\\": \\\"high\\\"}}')\""
        )
        task = FjspTask(table1)
        report = run_tuning(task, WEIGHTS0, policy, FAST, max_iter=4)
        assert report.iterations_run == 1
        assert report.stop_reason == "policy_stop"

    def test_gamma_500_applied_next_iteration(self, table1, tmp_path):
        script = tmp_path / "policy.py"
        script.write_text(
            "import json, sys\n"
            "ctx = json.loads(sys.stdin.readline())\n"
            "assert ctx['v'] == 1\n"
            "w = dict(ctx['current_weights'])\n"
            "if w['gamma'] < 500:\n"
            "    w['gamma'] = 500.0\n"
            "    print(json.dumps({'action': 'adjust', 'weights': w, 'rationale': 'raise', 'confidence': 'medium'}))\n"
            "else:\n"
            "    print(json.dumps({'action': 'stop', 'rationale': 'ceiling', 'confidence': 'high'}))\n"
        )
        policy = external_policy(f"{PY} {script}")
        task = FjspTask(table1)
        report = run_tuning(task, WEIGHTS0, policy, FAST, max_iter=3)
        assert report.iterations_run == 2
        assert report.records[1].weights["gamma"] == 500.0

    def test_nonpositive_weight_fails_run(self, table1):
        policy = external_policy(
            f"{PY} -c \"print('{{\\\"action\\\": \\\"adjust\\\", \\\"weights\\\": {{\\\"alpha\\\": 150, \\\"beta\\\": 100, \\\"gamma\\\": -1, \\\"delta\\\": 15}}}}')\""
        )
        task = FjspTask(table1)
        with pytest.raises(PolicyError, match="non-positive"):
            run_tuning(task, WEIGHTS0, policy, FAST, max_iter=2)

    def test_malformed_output_fails_run(self, table1):
        policy = external_policy(f"{PY} -c \"print('not json')\"")
        task = FjspTask(table1)
        with pytest.raises(PolicyError):
            run_tuning(task, WEIGHTS0, policy, FAST, max_iter=2)

    def test_timeout(self, table1):
        policy = external_policy(f"{PY} -c \"import time; time.sleep(5)\"", timeout=0.5)
        task = FjspTask(table1)
        with pytest.raises(PolicyError, match="timed out"):
            run_tuning(task, WEIGHTS0, policy, FAST, max_iter=1)

    def test_empty_output(self, table1):
        policy = external_policy(f"{PY} -c \"pass\"")
        task = FjspTask(table1)
        with pytest.raises(PolicyError, match="no output"):
            run_tuning(task, WEIGHTS0, policy, FAST, max_iter=1)
