"""Command-line contract: artifacts, exit codes, determinism."""

import json
import sys
import warnings
from pathlib import Path

import pytest

from cimopt.cli import _solver_config, build_parser, entry_point, main

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "cimopt" / "fixtures"
PY = sys.executable

FAST = ["--sweeps", "300", "--restarts", "4"]


def read_json(path):
    return json.loads(Path(path).read_text())


class TestFjspCommand:
    def test_default_instance_emits_all_artifacts(self, tmp_path, capsys):
        rc = main(["fjsp", "-i", "3", "-t", "18", "--seed", "7", "--out", str(tmp_path), *FAST])
        assert rc == 0
        for name in ("result.json", "iterations.jsonl", "gantt.txt", "gantt.svg"):
            assert (tmp_path / name).exists(), name
        doc = read_json(tmp_path / "result.json")
        assert doc["incumbent"]["feasible"]
        assert doc["iterations_run"] <= 3
        lines = (tmp_path / "iterations.jsonl").read_text().splitlines()
        assert len(lines) == doc["iterations_run"]
        assert all(json.loads(line)["v"] == 1 for line in lines)
        assert "makespan" in capsys.readouterr().out

    def test_infeasible_horizon_is_input_error(self, tmp_path, capsys):
        rc = main(["fjsp", "-t", "8", "--out", str(tmp_path), *FAST])
        assert rc == 1
        err = capsys.readouterr().err
        assert "no feasible start window" in err

    def test_missing_instance_file(self, tmp_path, capsys):
        rc = main(["fjsp", "--instance", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert rc == 1
        assert "not found" in capsys.readouterr().err

    def test_malformed_instance_names_field(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"t_max": 5, "jobs": []}')
        rc = main(["fjsp", "--instance", str(bad), "--out", str(tmp_path)])
        assert rc == 1
        assert "machines" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["18446744073709551616", "-1"])
    def test_seed_outside_64_bits_is_input_error(self, tmp_path, capsys, seed):
        rc = main(["fjsp", "-i", "1", "--seed", seed, "--out", str(tmp_path / "out"), *FAST])
        assert rc == 1
        err = capsys.readouterr().err
        assert "non-negative 64-bit integer" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_largest_64_bit_seed_runs(self, tmp_path):
        rc = main(["fjsp", "-i", "1", "--seed", str(2**64 - 1), "--out", str(tmp_path), *FAST])
        assert rc in (0, 2)
        assert read_json(tmp_path / "result.json")["seed"] == 2**64 - 1

    def test_deterministic_outputs_are_byte_identical(self, tmp_path):
        args = ["fjsp", "-i", "2", "--seed", "11", "--deterministic-output", *FAST]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main([*args, "--out", str(out_a)]) == 0
        assert main([*args, "--out", str(out_b)]) == 0
        for name in ("result.json", "iterations.jsonl", "gantt.txt", "gantt.svg"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_seed_changes_output(self, tmp_path):
        base = ["fjsp", "-i", "1", "--deterministic-output", *FAST]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main([*base, "--seed", "1", "--out", str(out_a)])
        main([*base, "--seed", "2", "--out", str(out_b)])
        meta_a = json.loads((out_a / "iterations.jsonl").read_text().splitlines()[0])
        meta_b = json.loads((out_b / "iterations.jsonl").read_text().splitlines()[0])
        assert meta_a["solve_meta"]["seed"] == 1
        assert meta_b["solve_meta"]["seed"] == 2

    def test_weights_flag_parses_four_values(self, tmp_path):
        rc = main([
            "fjsp", "-i", "1", "--weights", "150,100,500,15",
            "--out", str(tmp_path), "--deterministic-output", *FAST,
        ])
        assert rc in (0, 2)  # parsing is under test, not solve luck at this budget
        doc = read_json(tmp_path / "result.json")
        assert doc["weights_initial"] == {"alpha": 150.0, "beta": 100.0, "gamma": 500.0, "delta": 15.0}

    def test_cim_realism_draws_a_seeded_latency(self):
        def latency(seed):
            args = build_parser().parse_args(["fjsp", "--cim-realism", "--seed", str(seed)])
            return _solver_config(args).emulate_latency_ms

        drawn = [latency(seed) for seed in range(5)]
        assert all(61_000 <= ms <= 121_000 for ms in drawn)
        assert drawn == [latency(seed) for seed in range(5)]
        assert len(set(drawn)) > 1

    def test_weights_flag_wrong_arity(self, tmp_path, capsys):
        rc = main(["fjsp", "--weights", "1,2", "--out", str(tmp_path)])
        assert rc == 1
        assert "--weights" in capsys.readouterr().err

    def test_quantize_writes_report(self, tmp_path):
        rc = main([
            "fjsp", "-i", "1", "--quantize", "--out", str(tmp_path),
            "--deterministic-output", *FAST,
        ])
        assert (tmp_path / "quant_report.json").exists()
        report = read_json(tmp_path / "quant_report.json")
        assert "zeroed_fraction" in report
        assert rc in (0, 2)  # quantized solving may or may not find a clean schedule

    def test_external_policy_mock(self, tmp_path):
        rc = main([
            "fjsp", "-i", "2",
            "--policy",
            f"external:{PY} -c \"print('{{\\\"action\\\": \\\"stop\\\", \\\"rationale\\\": \\\"ok\\\", \\\"confidence\\\": \\\"high\\\"}}')\"",
            "--out", str(tmp_path), *FAST,
        ])
        assert rc in (0, 2)
        doc = read_json(tmp_path / "result.json")
        assert doc["iterations_run"] == 1
        assert doc["stop_reason"] == "policy_stop"

    @pytest.mark.parametrize("timeout", ["-1", "0", "nan"])
    @pytest.mark.parametrize("policy", ["rule", f"external:{PY} -c pass"], ids=["rule", "external"])
    def test_non_positive_policy_timeout_rejected(self, tmp_path, capsys, timeout, policy):
        rc = main(["fjsp", "--policy", policy, "--policy-timeout", timeout, "--out", str(tmp_path / "out"), *FAST])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"--policy-timeout must be a finite number > 0, got {float(timeout)}" in err
        assert not (tmp_path / "out").exists()

    def test_malformed_external_policy_fails(self, tmp_path, capsys):
        rc = main([
            "fjsp", "-i", "2",
            "--policy", f"external:{PY} -c \"print('garbage')\"",
            "--out", str(tmp_path), *FAST,
        ])
        assert rc == 1
        assert "policy error" in capsys.readouterr().err


class TestPeptideCommand:
    def test_positions_default_echoed(self, tmp_path):
        rc = main([
            "peptide", "-i", "1", "--out", str(tmp_path), "--deterministic-output", *FAST,
        ])
        assert rc in (0, 2)
        doc = read_json(tmp_path / "result.json")
        assert doc["positions"] == 13  # bundled problem pins S
        assert "violation_rate" in doc["population"]
        assert "near_zero_fraction" in doc["coefficient_stats"]

    def test_positions_heuristic_when_omitted(self, tmp_path):
        problem = tmp_path / "problem.json"
        problem.write_text('{"target_mass": 1448.77}')
        rc = main([
            "peptide", "--problem", str(problem), "-i", "1",
            "--out", str(tmp_path), *FAST,
        ])
        assert rc in (0, 2)
        doc = read_json(tmp_path / "result.json")
        assert doc["positions"] == 13  # round(1448.77 / 110)

    def test_count_encoding_reports_suppression(self, tmp_path):
        rc = main([
            "peptide", "--encoding", "count", "-i", "2",
            "--out", str(tmp_path), "--deterministic-output", *FAST,
        ])
        assert rc in (0, 2)
        doc = read_json(tmp_path / "result.json")
        assert doc["encoding"] == "count"
        assert doc["iterations_run"] == 1  # count path is single-shot
        assert doc["coefficient_stats"]["near_zero_fraction"] >= 0.0

    def test_missing_problem_file(self, tmp_path, capsys):
        rc = main(["peptide", "--problem", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert rc == 1


class TestQuboTools:
    @pytest.fixture
    def two_var(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"n": 2, "diag": [1.0, 3.0], "upper": [[0, 1, 2.0]], "offset": 0.0}))
        return path

    def test_to_ising(self, two_var, capsys):
        rc = main(["qubo", "to-ising", str(two_var)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["diag"] == [1.0, 2.0]
        assert doc["upper"] == [[0, 1, 0.5]]
        assert doc["offset"] == 2.5
        assert doc["convention"] == "positive_sum"

    def test_to_ising_negated(self, two_var, capsys):
        rc = main(["qubo", "to-ising", str(two_var), "--convention", "negated_sum"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["diag"] == [-1.0, -2.0]

    def test_quantize_all_zero_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"n": 2, "diag": [0.0, 0.0], "upper": [], "offset": 0.0}))
        rc = main(["qubo", "quantize", str(path)])
        assert rc == 1
        assert "zero" in capsys.readouterr().err

    def test_energy_of_all_zero_bits_is_offset(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"n": 2, "diag": [1.0, 3.0], "upper": [[0, 1, 2.0]], "offset": -4.5}))
        rc = main(["qubo", "energy", str(path), "--bits", "00"])
        assert rc == 0
        assert float(capsys.readouterr().out) == -4.5

    def test_quantize_writes_doc(self, two_var, tmp_path, capsys):
        out = tmp_path / "quantized.json"
        rc = main(["qubo", "quantize", str(two_var), "--out", str(out)])
        assert rc == 0
        doc = read_json(out)
        assert doc["diag"] == [42, 127]
        assert "scale" in doc


class TestModelDocumentRejection:
    """Malformed model documents exit 1 with a message instead of being coerced."""

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"n": 2.9}, "n and pair indices"),
            ({"n": True}, "n and pair indices"),
            ({"upper": [[0.7, 1.2, 3]]}, "n and pair indices"),
            ({"upper": [[False, True, 3]]}, "n and pair indices"),
            ({"upper": [[0, 1, "3.5"]]}, "coefficients"),
            ({"upper": [[0, 1, True]]}, "coefficients"),
            ({"diag": [1.0, "3"]}, "coefficients"),
            ({"upper": [[0, 1, 2.0], [0, 1, 5.0]]}, "repeats pair (0, 1)"),
            ({"diag": [10**400, 3.0]}, "out of range for float64"),
            ({"upper": [[0, 1, -(10**400)]]}, "out of range for float64"),
            ({"offset": 10**400}, "out of range for float64"),
        ],
    )
    @pytest.mark.parametrize("action", ["to-ising", "quantize"])
    def test_rejected_with_message(self, tmp_path, capsys, change, message, action):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"n": 2, "diag": [1.0, 3.0], "upper": [[0, 1, 2.0]], "offset": 0.0, **change}))
        rc = main(["qubo", action, str(path)])
        assert rc == 1
        captured = capsys.readouterr()
        assert message in captured.err and "Traceback" not in captured.err
        assert captured.out == ""

    def test_ising_offset_past_float_range_without_warning(self, tmp_path, capsys):
        # every coefficient is finite, but the Ising offset sums past float range
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"n": 2, "diag": [1e308, 1e308], "upper": [[0, 1, 1e308]], "offset": 1e308}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["qubo", "to-ising", str(path)])
        assert rc == 1
        captured = capsys.readouterr()
        assert "offset is not finite" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""
        assert not caught

    @pytest.mark.parametrize("doc", ["5", "true", "null"])
    @pytest.mark.parametrize("action", [["energy", "--bits", "01"], ["to-ising"], ["quantize"]], ids=lambda a: a[0])
    def test_non_object_document_rejected(self, tmp_path, capsys, doc, action):
        path = tmp_path / "model.json"
        path.write_text(doc)
        rc = main(["qubo", action[0], str(path), *action[1:]])
        assert rc == 1
        captured = capsys.readouterr()
        assert "must be a JSON object" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("change", [{"diag": {}}, {"upper": ""}, {"upper": {}}], ids=["diag", "upper-str", "upper-obj"])
    def test_terms_that_are_not_arrays_rejected(self, tmp_path, capsys, change):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"n": 2, "diag": [1.0, 3.0], "upper": [], **change}))
        rc = main(["qubo", "energy", str(path), "--bits", "01"])
        assert rc == 1
        captured = capsys.readouterr()
        assert "must be JSON arrays" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""

    def test_ising_document_repeated_pair(self, tmp_path, capsys):
        path = tmp_path / "ising.json"
        doc = {"n": 2, "diag": [1.0, 2.0], "upper": [[0, 1, 0.5], [0, 1, 0.5]], "offset": 0.0, "convention": "positive_sum"}
        path.write_text(json.dumps(doc))
        rc = main(["qubo", "energy", str(path), "--bits", "01"])
        assert rc == 1
        assert "repeats pair (0, 1)" in capsys.readouterr().err


class TestInstanceDocumentRejection:
    @pytest.mark.parametrize("times", [[1.5], [True], [2.0]])
    def test_oracle_rejects_non_integer_time(self, tmp_path, capsys, times):
        path = tmp_path / "toy.json"
        path.write_text(json.dumps({"machines": 1, "t_max": 10, "jobs": [{"operations": [{"times": times}]}]}))
        rc = main(["oracle", "--instance", str(path)])
        assert rc == 1
        captured = capsys.readouterr()
        assert "processing times must be int" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""

    def test_fjsp_rejects_malformed_incumbent_schedule(self, tmp_path, capsys, monkeypatch):
        import dataclasses

        import cimopt.cli

        def tuned(*args, **kwargs):
            report = real(*args, **kwargs)
            entry = {"job": 0, "op": 0, "machine": 0, "start": 0.9, "end": 3}
            return dataclasses.replace(report, incumbent_payload={"schedule": [entry]})

        real = cimopt.cli.run_tuning
        monkeypatch.setattr(cimopt.cli, "run_tuning", tuned)
        rc = main(["fjsp", "-i", "1", "--out", str(tmp_path), "--sweeps", "20", "--restarts", "1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "must be int, got 0.9" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["oracle", "--instance"],
            ["oracle", "-t", "5", "--instance"],
            ["fjsp", "-t", "5", "--instance"],
            ["peptide", "--positions", "3", "--problem"],
        ],
    )
    @pytest.mark.parametrize("doc", [[1, 2], 5])
    def test_non_object_document_rejected(self, tmp_path, capsys, monkeypatch, argv, doc):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        rc = main([*argv, str(path)])
        assert rc == 1
        captured = capsys.readouterr()
        assert "must be a JSON object" in captured.err and "Traceback" not in captured.err
        assert not (tmp_path / "out").exists()



class TestProblemDocumentRejection:
    @pytest.mark.parametrize(
        "change, message",
        [
            ({"positions": 12.7}, "positions must be int, got 12.7"),
            ({"positions": True}, "positions must be int, got True"),
            ({"half_water_per_acid": "false"}, "half_water_per_acid must be bool, got 'false'"),
            ({"target_mass": "1448.77"}, "target_mass must be int or float, got '1448.77'"),
            ({"target_mass": True}, "target_mass must be int or float, got True"),
            ({"target_mass": 10**400}, "target_mass is out of range"),
            ({"mass_table": 1}, "mass_table and calibration must be str, got 1"),
            ({"calibration": None}, "mass_table and calibration must be str, got None"),
            ({"label": 4}, "label must be str, got 4"),
            ({"target_mass": float("inf")}, "target_mass must be finite, got inf"),
            ({"target_mass": float("nan")}, "target_mass must be finite, got nan"),
        ],
    )
    def test_rejected_with_message(self, tmp_path, capsys, change, message):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({"target_mass": 1448.77, "positions": 13, **change}))
        rc = main(["peptide", "--problem", str(path), "--out", str(tmp_path), "--sweeps", "20", "--restarts", "1"])
        assert rc == 1
        captured = capsys.readouterr()
        assert message in captured.err and "Traceback" not in captured.err
        assert not (tmp_path / "result.json").exists()

class TestOracleCommand:
    def test_bundled_instance(self, capsys):
        rc = main(["oracle"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "9"

    def test_toy_instance(self, tmp_path, capsys):
        path = tmp_path / "toy.json"
        path.write_text(json.dumps({
            "machines": 1, "t_max": 10,
            "jobs": [{"operations": [{"times": [2]}, {"times": [3]}]}],
        }))
        rc = main(["oracle", "--instance", str(path)])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "5"

    def test_budget_exhaustion_exit_code(self, capsys):
        rc = main(["oracle", "--budget", "3"])
        assert rc == 3
        assert "budget" in capsys.readouterr().err

    @pytest.mark.parametrize("budget", ["-1", "0"])
    def test_non_positive_budget_rejected(self, capsys, budget):
        rc = main(["oracle", "--budget", budget])
        assert rc == 1
        captured = capsys.readouterr()
        assert f"node budget must be >= 1, got {budget}" in captured.err and captured.out == ""


class TestEntryPoint:
    """``entry_point`` is the installed ``cimopt`` script: argv in, exit code out."""

    def test_exits_with_the_command_code(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["cimopt", "oracle"])
        with pytest.raises(SystemExit) as exc:
            entry_point()
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == "9"

    def test_input_error_exits_1(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(sys, "argv", ["cimopt", "fjsp", "--seed", "-1", "--out", str(tmp_path / "out")])
        with pytest.raises(SystemExit) as exc:
            entry_point()
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "non-negative 64-bit integer" in err and "Traceback" not in err
