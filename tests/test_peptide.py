"""Composition inference: tables, calibration, both encodings, metrics."""

import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from cimopt.errors import DimensionError
from cimopt.peptide import (
    STANDARD_AMINO_ACIDS,
    CompositionSolution,
    CountEncodingConfig,
    PeptideWeights,
    build_count_qubo,
    build_onehot_qubo,
    calibrate_mass,
    decode_count,
    decode_onehot,
    default_position_count,
    evaluate_population,
    make_problem,
    problem_from_doc,
    problem_to_doc,
    residue_masses,
    sequence_mass,
)
from cimopt.qubo import coefficient_stats, qubo_energy

from conftest import enum_qubo_energies, index_bits

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "cimopt" / "fixtures"

SUBSET = [a for a in STANDARD_AMINO_ACIDS if a.code in "GASP"]


class TestMassTable:
    def test_twenty_distinct_codes_in_range(self):
        codes = [a.code for a in STANDARD_AMINO_ACIDS]
        assert len(codes) == 20 and len(set(codes)) == 20
        for acid in STANDARD_AMINO_ACIDS:
            assert 50 < acid.average < 200
            assert 50 < acid.monoisotopic < 200

    def test_reference_sequence_mass(self):
        doc = json.loads((FIXTURES / "lacrp4.json").read_text())
        total = sequence_mass(doc["reference_sequence"], "average")
        assert total == pytest.approx(doc["target_mass"], abs=0.01)

    def test_monoisotopic_differs(self):
        assert sequence_mass("KKSKAKEPPPKKT", "monoisotopic") == pytest.approx(1447.887, abs=0.01)

    def test_half_water_adjustment(self):
        plain = dict(residue_masses("average"))
        adjusted = dict(residue_masses("average", half_water_per_acid=True))
        for code in plain:
            assert adjusted[code] == pytest.approx(plain[code] - 18.0153 / 2)


class TestCalibration:
    def test_subtract_water(self):
        assert calibrate_mass(1466.78, "subtract_water") == pytest.approx(1448.77, abs=0.02)

    def test_none_mode(self):
        assert calibrate_mass(100.0) == 100.0

    def test_rejects_sub_water_mass(self):
        with pytest.raises(ValueError):
            calibrate_mass(17.0, "subtract_water")

    def test_position_heuristic(self):
        assert default_position_count(1448.77) == 13
        problem = make_problem(1448.77)
        assert problem.positions == 13


class TestOneHotBuilder:
    def test_diagonal_coefficient(self):
        # one position, one acid of mass 100, target 200: diag = -1 + (100^2 - 2*200*100)
        from cimopt.peptide import AminoAcid, PeptideProblem

        table = [AminoAcid("X", 100.0, 100.0)]
        problem = PeptideProblem(200.0, 200.0, 1)
        q = build_onehot_qubo(problem, PeptideWeights(1.0, 1.0), acids=table)
        assert q.diag == (-30001.0,)

    def test_same_position_pair(self):
        from cimopt.peptide import AminoAcid, PeptideProblem

        table = [AminoAcid("X", 100.0, 100.0), AminoAcid("Y", 100.0, 100.0)]
        problem = PeptideProblem(200.0, 200.0, 1)
        q = build_onehot_qubo(problem, PeptideWeights(1.0, 1.0), acids=table)
        assert q.upper[(0, 1)] == 20002.0  # 2*lambda_pos + 2*lambda_mass*m*m

    def test_cross_position_pair_has_no_onehot_term(self):
        from cimopt.peptide import AminoAcid, PeptideProblem

        table = [AminoAcid("X", 100.0, 100.0)]
        problem = PeptideProblem(200.0, 200.0, 2)
        q = build_onehot_qubo(problem, PeptideWeights(3.0, 1.0), acids=table)
        assert q.upper[(0, 1)] == 20000.0  # 2*lambda_mass*m*m only

    def test_energy_decomposition(self):
        problem = make_problem(300.0, positions=2)
        weights = PeptideWeights(7.0, 0.5)
        q = build_onehot_qubo(problem, weights, acids=SUBSET)
        masses = [m for _, m in problem.masses(SUBSET)]
        rng = np.random.default_rng(3)
        for _ in range(200):
            bits = rng.integers(0, 2, q.n)
            onehot = sum(
                (1 - sum(bits[s * 4 + a] for a in range(4))) ** 2 for s in range(2)
            )
            mass = (
                sum(masses[a] * bits[s * 4 + a] for s in range(2) for a in range(4))
                - problem.calibrated_mass
            ) ** 2
            expected = weights.lambda_pos * onehot + weights.lambda_mass * mass
            assert qubo_energy(q, bits) == pytest.approx(expected, rel=1e-6)

    def test_permutation_symmetry(self):
        problem = make_problem(155.0, positions=2)
        q = build_onehot_qubo(problem, PeptideWeights(10.0, 1.0), acids=SUBSET)
        bits = [0] * 8
        bits[0] = 1  # G at position 0
        bits[4 + 3] = 1  # P at position 1
        swapped = [0] * 8
        swapped[3] = 1  # P at position 0
        swapped[4 + 0] = 1  # G at position 1
        assert qubo_energy(q, bits) == pytest.approx(qubo_energy(q, swapped))

    def test_diagonal_bias_knob(self):
        problem = make_problem(155.0, positions=1)
        base = build_onehot_qubo(problem, PeptideWeights(1.0, 1.0), acids=SUBSET)
        biased = build_onehot_qubo(
            problem, PeptideWeights(1.0, 1.0), acids=SUBSET, diagonal_bias={"A": -5.0}
        )
        assert biased.diag[1] == base.diag[1] - 5.0
        assert biased.diag[0] == base.diag[0]

    def test_lambda_mass_zero_gives_independent_onehot_blocks(self):
        # pure one-hot: cross-position pairs vanish and every satisfied row
        # contributes zero, so any one-acid-per-position assignment is ground
        problem = make_problem(300.0, positions=3)
        q = build_onehot_qubo(problem, PeptideWeights(2.0, 0.0), acids=SUBSET)
        assert all(i // 4 == j // 4 for (i, j) in q.upper)  # same-position only
        assert q.offset == 2.0 * 3
        bits = [0] * q.n
        for s in range(3):
            bits[s * 4 + s] = 1
        assert qubo_energy(q, bits) == 0.0

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            PeptideWeights(1.0, -0.5)


class TestGroundTruthRecovery:
    def test_exact_pair_recovered_with_dominant_onehot(self):
        # target = G + P exactly; both orderings must be co-minimal at zero
        # deviation with zero violations
        masses = dict(residue_masses("average"))
        target = masses["G"] + masses["P"]
        problem = make_problem(target, positions=2)
        lam_mass = 1.0
        lam_pos = 10.0 * lam_mass * max(m for _, m in residue_masses("average")) ** 2
        q = build_onehot_qubo(problem, PeptideWeights(lam_pos, lam_mass), acids=SUBSET)
        energies = enum_qubo_energies(q)
        ground = np.flatnonzero(energies <= energies.min() + 1e-6)
        decoded = [
            decode_onehot(problem, index_bits(int(row), q.n), acids=SUBSET)
            for row in ground
        ]
        assert len(decoded) == 2  # (G, P) and (P, G)
        for sol in decoded:
            assert sol.clean
            assert sol.deviation_da == pytest.approx(0.0, abs=1e-9)
        assert {tuple(itertools.chain.from_iterable(s.selections)) for s in decoded} == {
            ("G", "P"),
            ("P", "G"),
        }


class TestCountBuilder:
    def test_single_bit_energies(self):
        from cimopt.peptide import AminoAcid, PeptideProblem

        table = [AminoAcid("X", 100.0, 100.0)]
        problem = PeptideProblem(100.0, 100.0, 1)
        cfg = CountEncodingConfig(bits_per_acid=1, mass_weight=1.0, length_weight=0.0)
        # no length term; energies are (100 x - 100)^2
        q = build_count_qubo(problem, cfg, acids=table)
        assert qubo_energy(q, (0,)) == pytest.approx(10000.0)
        assert qubo_energy(q, (1,)) == pytest.approx(0.0)

    def test_length_only_ground_state_is_zero(self):
        problem = make_problem(500.0, positions=4)
        cfg = CountEncodingConfig(bits_per_acid=2, mass_weight=0.0, length_weight=1.0, length_mid=0.0)
        q = build_count_qubo(problem, cfg, acids=SUBSET)
        assert qubo_energy(q, (0,) * q.n) == pytest.approx(0.0)

    def test_decode_counts(self):
        problem = make_problem(500.0, positions=4)
        cfg = CountEncodingConfig(bits_per_acid=3)
        q = build_count_qubo(problem, cfg, acids=SUBSET)
        bits = [0] * q.n
        bits[0 * 3 + 0] = 1  # G count bit 0 -> 1 copy
        bits[3 * 3 + 1] = 1  # P count bit 1 -> 2 copies
        sol = decode_count(problem, cfg, bits, acids=SUBSET)
        counts = dict(sol.counts)
        assert counts["G"] == 1 and counts["P"] == 2
        masses = dict(residue_masses("average"))
        assert sol.total_mass == pytest.approx(masses["G"] + 2 * masses["P"])
        assert sol.length == 3

    def test_bits_per_acid_bounds(self):
        with pytest.raises(ValueError):
            CountEncodingConfig(bits_per_acid=0)
        with pytest.raises(ValueError):
            CountEncodingConfig(bits_per_acid=9)
        with pytest.raises(ValueError):
            CountEncodingConfig(mass_weight=-1.0)


class TestEncodingComparison:
    def test_count_encoding_has_more_near_zero_coefficients(self):
        problem = problem_from_doc(json.loads((FIXTURES / "lacrp4.json").read_text()))
        onehot = build_onehot_qubo(problem, PeptideWeights(1.0, 1.0))
        count = build_count_qubo(
            problem, CountEncodingConfig(bits_per_acid=5, length_mid=float(problem.positions))
        )
        threshold = 1e-3
        onehot_stats = coefficient_stats(onehot, threshold)
        count_stats = coefficient_stats(count, threshold)
        assert count_stats.near_zero_fraction > onehot_stats.near_zero_fraction

    def test_ordering_at_1e4_threshold(self):
        problem = problem_from_doc(json.loads((FIXTURES / "lacrp4.json").read_text()))
        onehot = build_onehot_qubo(problem, PeptideWeights(1.0, 1.0))
        count = build_count_qubo(
            problem, CountEncodingConfig(bits_per_acid=5, length_mid=float(problem.positions))
        )
        assert (
            coefficient_stats(count, 1e-4).near_zero_fraction
            >= coefficient_stats(onehot, 1e-4).near_zero_fraction
        )


class TestDecodeOneHot:
    def test_two_position_hand_sum(self):
        problem = make_problem(128.13, positions=2)
        bits = [0] * (2 * 20)
        bits[0] = 1  # G at position 0
        bits[20 + 1] = 1  # A at position 1
        sol = decode_onehot(problem, bits)
        assert sol.clean
        assert sol.deviation_da <= 0.01
        assert sol.selections == (("G",), ("A",))

    def test_all_zero_bits(self):
        problem = make_problem(128.13, positions=2)
        sol = decode_onehot(problem, [0] * 40)
        assert sol.onehot_violations == (0, 1)
        assert sol.total_mass is None
        assert sol.deviation_da is None

    def test_double_selection_flagged(self):
        problem = make_problem(128.13, positions=2)
        bits = [0] * 40
        bits[0] = bits[1] = 1
        bits[20] = 1
        sol = decode_onehot(problem, bits)
        assert sol.onehot_violations == (0,)
        assert sol.total_mass is not None  # position 1 still contributes
        assert sol.deviation_da is None

    def test_length_mismatch(self):
        problem = make_problem(128.13, positions=2)
        with pytest.raises(DimensionError):
            decode_onehot(problem, [0] * 39)


class TestPopulationMetrics:
    @staticmethod
    def _solution(clean, deviation=None):
        return CompositionSolution(
            selections=(("G",),),
            onehot_violations=() if clean else (0,),
            total_mass=57.0 if clean else None,
            deviation_da=deviation,
            relative_deviation=None if deviation is None else deviation / 100.0,
        )

    def test_ninety_percent_violation_rate(self):
        population = [self._solution(False) for _ in range(9)] + [self._solution(True, 5.0)]
        metrics = evaluate_population(population)
        assert metrics.violation_rate == pytest.approx(0.9)
        assert metrics.best_deviation_da == 5.0

    def test_best_deviation_among_clean(self):
        population = [self._solution(True, 5.0), self._solution(True, 2.0)]
        assert evaluate_population(population).best_deviation_da == 2.0

    def test_no_clean_solutions(self):
        population = [self._solution(False)]
        metrics = evaluate_population(population)
        assert metrics.best_deviation_da is None

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError):
            evaluate_population([])


class TestProblemDocs:
    def test_fixture_roundtrip(self):
        doc = json.loads((FIXTURES / "lacrp4.json").read_text())
        problem = problem_from_doc(doc)
        assert problem.positions == 13
        assert problem.calibrated_mass == pytest.approx(1448.77)
        assert problem.table == "average"
        assert problem.label == "LACRP4"

    def test_missing_target_mass(self):
        with pytest.raises(ValueError, match="target_mass"):
            problem_from_doc({"positions": 3})

    def test_written_document_reads_back(self):
        problem = make_problem(1448, positions=13, half_water_per_acid=True)
        assert problem.label is None
        assert problem_from_doc(problem_to_doc(problem)) == problem

    @pytest.mark.parametrize(
        "change",
        [
            {"target_mass": None},
            {"target_mass": [1448.77]},
            {"positions": "13"},
            {"positions": 13.0},
            {"half_water_per_acid": 1},
            {"mass_table": ["average"]},
            {"calibration": False},
            {"label": ["LACRP4"]},
        ],
    )
    def test_coercible_fields_rejected(self, change):
        with pytest.raises(ValueError, match="must be"):
            problem_from_doc({"target_mass": 1448.77, "positions": 13, **change})

    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match="must be a JSON object"):
            problem_from_doc(["target_mass"])

    def test_subtract_water_calibration(self):
        problem = problem_from_doc(
            {"target_mass": 1466.78, "calibration": "subtract_water", "positions": 13}
        )
        assert problem.calibrated_mass == pytest.approx(1448.765, abs=0.01)
