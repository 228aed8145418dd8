"""Solver contract: exactness, determinism, noise, quantized pipeline."""

import json
from pathlib import Path

import numpy as np
import pytest

from cimopt import solver
from cimopt.errors import BudgetExceededError, DegenerateMatrixError
from cimopt.fjsp import FjspWeights, build_qubo, instance_from_doc, prune_variables
from cimopt.peptide import (
    CountEncodingConfig,
    PeptideWeights,
    build_count_qubo,
    build_onehot_qubo,
    problem_from_doc,
)
from cimopt.qubo import (
    IsingConvention,
    IsingModel,
    QuboBuilder,
    QuboMatrix,
    ising_energy,
    quantize_int8,
    qubo_energy,
    qubo_to_ising,
    spins_to_bits,
)
from cimopt.solver import (
    SolverConfig,
    apply_readout_noise,
    solve_annealed,
    solve_exact,
    solve_quantized,
)

from conftest import enum_qubo_energies, reference_anneal_pool

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "cimopt" / "fixtures"

TWO_VAR = QuboMatrix(2, (1.0, 3.0), {(0, 1): 2.0})


def random_model(rng, n, density=0.5, magnitude=2.0):
    builder = QuboBuilder(n)
    for i in range(n):
        builder.add_diag(i, float(rng.uniform(-magnitude, magnitude)))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                builder.add_pair(i, j, float(rng.uniform(-magnitude, magnitude)))
    return builder.build()


class TestSolveExact:
    def test_single_spin_negated_field(self):
        m = IsingModel(1, (1.0,), {}, 0.0, IsingConvention.NEGATED_SUM)
        result = solve_exact(m)
        assert result.solutions[0] == ((1,), -1.0)
        assert result.solutions[1] == ((-1,), 1.0)

    def test_two_variable_qubo_ground(self):
        result = solve_exact(TWO_VAR)
        vec, energy = result.best
        assert spins_to_bits(vec) == (0, 0)
        assert energy == 0.0
        # full four-state ranking, checked against independent enumeration
        expected = sorted(enum_qubo_energies(TWO_VAR))
        assert [e for _, e in result.solutions] == expected

    def test_matches_independent_enumeration(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            q = random_model(rng, int(rng.integers(2, 9)))
            result = solve_exact(q, top_k=5)
            energies = np.sort(enum_qubo_energies(q))
            assert [e for _, e in result.solutions] == pytest.approx(
                list(energies[: len(result.solutions)]), abs=1e-9
            )

    def test_deterministic_and_distinct(self):
        q = random_model(np.random.default_rng(3), 7)
        a = solve_exact(q)
        b = solve_exact(q)
        assert a.solutions == b.solutions
        vectors = [vec for vec, _ in a.solutions]
        assert len(set(vectors)) == len(vectors)

    def test_tie_break_is_lexicographic(self):
        m = IsingModel(2, (0.0, 0.0), {}, offset=1.5)
        result = solve_exact(m, top_k=4)
        assert [vec for vec, _ in result.solutions] == [
            (-1, -1), (-1, 1), (1, -1), (1, 1),
        ]
        assert all(e == 1.5 for _, e in result.solutions)

    def test_size_cap(self):
        q = QuboMatrix(25, (1.0,) * 25, {})
        with pytest.raises(BudgetExceededError):
            solve_exact(q)

    def test_top_k_bounds(self):
        with pytest.raises(ValueError):
            solve_exact(TWO_VAR, top_k=11)


class TestSolveAnnealed:
    def test_finds_two_variable_ground(self):
        result = solve_annealed(TWO_VAR, SolverConfig(sweeps=1000, restarts=4, seed=5))
        vec, energy = result.best
        assert spins_to_bits(vec) == (0, 0)
        assert energy == 0.0

    def test_zero_field_returns_tied_distinct_states(self):
        m = IsingModel(6, (0.0,) * 6, {}, offset=2.0)
        result = solve_annealed(m, SolverConfig(sweeps=200, restarts=8, seed=1))
        assert len(result.solutions) > 1
        assert all(e == 2.0 for _, e in result.solutions)
        vectors = [vec for vec, _ in result.solutions]
        assert len(set(vectors)) == len(vectors)

    def test_bit_identical_determinism(self):
        q = random_model(np.random.default_rng(7), 14)
        config = SolverConfig(sweeps=500, restarts=4, seed=99)
        a = solve_annealed(q, config)
        b = solve_annealed(q, config)
        assert a.solutions == b.solutions
        assert a.meta == b.meta

    def test_energy_honesty(self):
        q = random_model(np.random.default_rng(13), 12)
        result = solve_annealed(q, SolverConfig(sweeps=400, restarts=4, seed=2))
        for vec, energy in result.solutions:
            assert ising_energy(result.model, vec) == energy

    def test_negated_sum_input(self):
        m = qubo_to_ising(TWO_VAR, IsingConvention.NEGATED_SUM)
        result = solve_annealed(m, SolverConfig(sweeps=500, restarts=4, seed=4))
        assert result.best[1] == 0.0

    def test_top_k_discipline(self):
        q = random_model(np.random.default_rng(17), 10)
        result = solve_annealed(q, SolverConfig(sweeps=400, restarts=4, seed=3, top_k=3))
        assert len(result.solutions) <= 3
        energies = [e for _, e in result.solutions]
        assert energies == sorted(energies)

    def test_oracle_convergence_property(self):
        # random models, n <= 16: default budget must hit the exact ground
        # energy in at least 95 of 100 seeded trials
        rng = np.random.default_rng(2024)
        hits = 0
        for trial in range(100):
            n = int(rng.integers(2, 17))
            q = random_model(rng, n, density=0.6)
            exact = solve_exact(q, top_k=1).best[1]
            annealed = solve_annealed(q, SolverConfig(seed=trial)).best[1]
            if abs(annealed - exact) <= 1e-9 * max(1.0, abs(exact)):
                hits += 1
        assert hits >= 95, f"annealer found the ground state in only {hits}/100 trials"


class TestMicroFjspGround:
    def test_exact_ground_state_decodes_feasible(self):
        from conftest import random_micro_instance
        from cimopt.fjsp import FjspWeights, build_qubo, decode_schedule

        rng = np.random.default_rng(31)
        for _ in range(5):
            inst, index = random_micro_instance(rng)
            if len(index) > 18:
                continue
            q = build_qubo(inst, FjspWeights(1e4, 1e4, 1e4, 1.0), index)
            result = solve_exact(q, top_k=1)
            bits = result.bits(0)
            _, diag = decode_schedule(inst, index, bits)
            assert diag.feasible


class TestResultDoc:
    def test_doc_mirrors_solutions(self):
        from cimopt.solver import result_to_doc

        result = solve_exact(TWO_VAR, top_k=3)
        doc = result_to_doc(result)
        assert len(doc["solutions"]) == 3
        first = doc["solutions"][0]
        assert first["spins"] == [-1, -1]
        assert first["bits"] == [0, 0]
        assert first["energy"] == 0.0
        assert doc["meta"]["quantized"] is False


class TestReadoutNoise:
    def test_zero_probability_is_identity(self):
        result = solve_exact(TWO_VAR)
        assert apply_readout_noise(result, 0.0, seed=1) is result

    def test_probability_one_rejected(self):
        result = solve_exact(TWO_VAR)
        with pytest.raises(ValueError):
            apply_readout_noise(result, 1.0, seed=1)

    def test_seeded_flip_recomputes_energy(self):
        result = solve_exact(TWO_VAR, top_k=1)
        noisy_a = apply_readout_noise(result, 0.5, seed=42)
        noisy_b = apply_readout_noise(result, 0.5, seed=42)
        assert noisy_a.solutions == noisy_b.solutions
        for vec, energy in noisy_a.solutions:
            assert ising_energy(result.model, vec) == energy

    def test_config_flip_prob_applies_noise(self):
        q = random_model(np.random.default_rng(5), 8)
        clean = solve_annealed(q, SolverConfig(sweeps=300, restarts=4, seed=6))
        noisy = solve_annealed(
            q, SolverConfig(sweeps=300, restarts=4, seed=6, readout_flip_prob=0.4)
        )
        assert noisy.meta["readout_flip_prob"] == 0.4
        assert noisy.solutions != clean.solutions  # 8 spins at p=0.4: flips all but certain


class TestSolveQuantized:
    def test_integer_matrix_ranks_identically(self):
        q = QuboMatrix(3, (100.0, -50.0, 25.0), {(0, 1): 127.0, (1, 2): -127.0})
        config = SolverConfig(sweeps=500, restarts=4, seed=8)
        plain = solve_annealed(q, config)
        quantized = solve_quantized(q, config)
        assert quantized.meta["quantized"] is True
        assert quantized.meta["scale"] == 1.0
        assert [vec for vec, _ in quantized.solutions] == [vec for vec, _ in plain.solutions]

    def test_six_orders_spread_inverts_ranking(self):
        q = QuboMatrix(3, (-1e5, -1.0, 0.1), {})
        config = SolverConfig(sweeps=500, restarts=4, seed=9)
        quantized = solve_quantized(q, config)
        exact = solve_exact(q, top_k=1)
        assert quantized.meta["quant_report"]["zeroed_fraction"] > 0.0
        top_original_energy = quantized.meta["original_energies"][0]
        assert top_original_energy > exact.best[1]
        assert quantized.solutions[0][0] != exact.best[0]

    def test_original_energies_reevaluate(self):
        rng = np.random.default_rng(21)
        q = random_model(rng, 9, magnitude=300.0)
        result = solve_quantized(q, SolverConfig(sweeps=300, restarts=4, seed=10))
        for (vec, _), original in zip(result.solutions, result.meta["original_energies"]):
            assert qubo_energy(q, spins_to_bits(vec)) == original

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateMatrixError):
            solve_quantized(QuboMatrix(2, (0.0, 0.0), {}), SolverConfig(sweeps=10, restarts=1))


class TestSolverConfig:
    def test_bounds(self):
        with pytest.raises(ValueError):
            SolverConfig(top_k=0)
        with pytest.raises(ValueError):
            SolverConfig(top_k=11)
        with pytest.raises(ValueError):
            SolverConfig(readout_flip_prob=1.0)
        with pytest.raises(ValueError):
            SolverConfig(temp_initial=1.0, temp_final=2.0)
        with pytest.raises(ValueError):
            SolverConfig(sweeps=0)

    def test_latency_is_reported_wall_time(self):
        q = QuboMatrix(2, (1.0, 1.0), {})
        result = solve_annealed(q, SolverConfig(sweeps=5, restarts=1, emulate_latency_ms=10))
        assert result.meta["wall_time_ms"] == 10


def bundled_fjsp():
    inst = instance_from_doc(json.loads((FIXTURES / "fjsp_3x3.json").read_text()))
    return build_qubo(inst, FjspWeights(150, 100, 500, 15), prune_variables(inst))


def lacrp4():
    return problem_from_doc(json.loads((FIXTURES / "lacrp4.json").read_text()))


def quarter_grid_model(top, n=40):
    """Same-sign quarter-grid model whose largest |h| and |J| are both top / 4,
    so 8 (max|h| + n max|J|) = 2 (n + 1) top and its fields are all large."""
    rng = np.random.default_rng(top)
    rows, cols = np.triu_indices(n, 1)
    h = (top - rng.integers(0, 8, n)) / 4.0
    j = (top - rng.integers(0, 8, rows.size)) / 4.0
    h[0] = j[0] = top / 4.0
    return IsingModel(n, h, dict(zip(zip(rows.tolist(), cols.tolist()), j.tolist())))


def state_dtype(model):
    return solver._dense_fields(solver._as_positive_ising(model))[1].dtype


FLOAT32_TOP = (2**24 - 1) // 82  # largest top with 2 (40 + 1) top < 2**24

GOLDEN = {
    "fjsp": (bundled_fjsp, solve_annealed, np.float32),
    "lacrp4-quantized": (lambda: build_onehot_qubo(lacrp4(), PeptideWeights(1000, 1)), solve_quantized, np.float32),
    "lacrp4-onehot": (lambda: build_onehot_qubo(lacrp4(), PeptideWeights(1000, 1)), solve_annealed, np.float64),
    "count": (lambda: build_count_qubo(lacrp4(), CountEncodingConfig()), solve_annealed, np.float64),
    "singletons-float64": (lambda: random_model(np.random.default_rng(5), 12), solve_annealed, np.float64),
    "singletons-float32": (
        lambda: quantize_int8(random_model(np.random.default_rng(6), 20)).to_matrix(), solve_annealed, np.float32
    ),
    "at-float32-bound": (lambda: quarter_grid_model(FLOAT32_TOP), solve_annealed, np.float32),
}


class TestAnnealStateDtype:
    @pytest.mark.parametrize("name", GOLDEN)
    def test_matches_float64_reference(self, monkeypatch, name):
        # 300 sweeps cross the field resync after sweep 256
        build, solve, dtype = GOLDEN[name]
        q = build()
        config = SolverConfig(sweeps=300, seed=len(name))
        runs = []

        def run(anneal):
            def spy(h, jmat, *args):
                runs.append((jmat.dtype, list(anneal(h, jmat, *args).items())))
                return dict(runs[-1][1])
            monkeypatch.setattr(solver, "_anneal_pool", spy)
            return solve(q, config)

        def reference(h, jmat, *args):
            return reference_anneal_pool(h.astype(np.float64), jmat.astype(np.float64), *args)

        result = run(solver._anneal_pool)
        expected = run(reference)
        assert runs[0][0] == dtype
        assert runs[0][1] == runs[1][1]  # same pool, entry for entry and in order
        assert result.solutions == expected.solutions
        assert result.meta == expected.meta

    @pytest.mark.parametrize("quantized", [False, True], ids=["float64", "float32"])
    @pytest.mark.parametrize(
        "n, settings",
        [
            (33, {}),  # just past the singleton limit: three blocks of 11 spins
            (47, {}),  # uneven blocks of 16, 16 and 15 spins
            # 40 states a sweep into a pool of 32: evictions and refills within
            # one sweep, and (float64) keys lowered by field drift, some holding
            # the pool's largest energy
            (47, {"restarts": 40, "top_k": 1}),
            (40, {"temp_initial": 1e-6, "temp_final": 1e-9}),  # exp overflows on downhill flips
        ],
    )
    def test_pool_matches_float64_reference(self, n, settings, quantized):
        q = random_model(np.random.default_rng(n), n, density=0.4)
        if quantized:
            q = quantize_int8(q).to_matrix()
        work = solver._as_positive_ising(q)
        h, jmat = solver._dense_fields(work)
        config = SolverConfig(sweeps=300, seed=n, **settings)
        t0, t1 = solver._resolve_temps(config, work)
        pool = solver._anneal_pool(h, jmat, config, t0, t1)
        expected = reference_anneal_pool(h.astype(np.float64), jmat.astype(np.float64), config, t0, t1)
        assert jmat.dtype == (np.float32 if quantized else np.float64)
        assert list(pool.items()) == list(expected.items())

    def test_quantized_model_takes_float32(self):
        q = random_model(np.random.default_rng(3), 40, magnitude=300.0)
        assert state_dtype(q) == np.float64
        assert state_dtype(quantize_int8(q).to_matrix()) == np.float32

    def test_one_off_grid_coefficient_takes_float64(self):
        assert state_dtype(IsingModel(3, (1.0, 0.25, -0.5), {(0, 1): 2.0, (1, 2): 0.75})) == np.float32
        assert state_dtype(IsingModel(3, (1.0, 0.25, -0.5), {(0, 1): 2.0, (1, 2): 0.1})) == np.float64
        assert state_dtype(IsingModel(3, (1.0, 0.1, -0.5), {(0, 1): 2.0, (1, 2): 0.75})) == np.float64

    def test_bound_edges(self):
        # float32 needs 8 (max|h| + n max|J|) < 2**24
        assert state_dtype(quarter_grid_model(FLOAT32_TOP)) == np.float32
        assert state_dtype(quarter_grid_model(FLOAT32_TOP + 1)) == np.float64
        assert state_dtype(IsingModel(2, (0.0, 0.0), {(0, 1): 2.0**20 - 0.25})) == np.float32
        assert state_dtype(IsingModel(2, (0.0, 0.0), {(0, 1): 2.0**20})) == np.float64
        assert state_dtype(IsingModel(1, (2.0**21 - 0.25,), {})) == np.float32
        assert state_dtype(IsingModel(1, (2.0**21,), {})) == np.float64
