"""Solver contract: exactness, determinism, noise, quantized pipeline."""

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    batch_energy,
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

from conftest import enum_qubo_energies, random_fjsp_instance, reference_anneal_pool

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

    @pytest.mark.parametrize("negated", [False, True])
    def test_k_lowest_by_energy_then_spin_vector(self, negated):
        # integer coefficients make every sum exact and force ties (all-zero
        # models tie every state), so the solutions must equal the reference's
        # k lowest by (energy, lexicographic spin vector) exactly
        rng = np.random.default_rng(8)
        for n in range(1, 17):
            for scale in (2, 2, 0):
                diag = rng.integers(-scale, scale + 1, n).astype(float)
                upper = {(i, j): float(rng.integers(-scale, scale + 1)) for i in range(n) for j in range(i + 1, n)}
                q = QuboMatrix(n, diag, upper, float(rng.integers(-scale, scale + 1)))
                model = qubo_to_ising(q, IsingConvention.NEGATED_SUM) if negated else q
                energies = enum_qubo_energies(q)
                spins = ((np.arange(2**n)[:, None] >> np.arange(n)) & 1) * 2 - 1  # spin i is bit i
                order = np.lexsort([*spins.T[::-1], energies])
                expected = [(tuple(spins[r].tolist()), float(energies[r])) for r in order[:10]]
                for k in (1, 3, 10):
                    result = solve_exact(model, top_k=k)
                    assert list(result.solutions) == expected[:k], (n, scale, k)
                    assert result.meta["states_enumerated"] == 2**n

    def test_enumeration_memory_is_bounded(self):
        # all 2**24 energies at once would take 128 MiB, and their
        # construction several times that
        q = random_model(np.random.default_rng(24), 24, density=0.6)
        tracemalloc.start()
        try:
            result = solve_exact(q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert result.meta["states_enumerated"] == 2**24

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

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 1, 2**70])
    def test_seed_outside_64_bits_rejected(self, seed):
        # a larger seed was masked into [0, 2**64) and annealed as another seed
        with pytest.raises(ValueError, match="non-negative 64-bit integer"):
            SolverConfig(seed=seed)

    def test_largest_64_bit_seed_accepted(self):
        q = QuboMatrix(2, (1.0, 1.0), {})
        assert solve_annealed(q, SolverConfig(sweeps=5, restarts=2, seed=2**64 - 1)).meta["seed"] == 2**64 - 1

    def test_latency_is_reported_wall_time(self):
        q = QuboMatrix(2, (1.0, 1.0), {})
        result = solve_annealed(q, SolverConfig(sweeps=5, restarts=1, emulate_latency_ms=10))
        assert result.meta["wall_time_ms"] == 10

    @pytest.mark.parametrize("setting", [
        {"sweeps": True},  # ran one sweep and recorded "sweeps": true
        {"seed": True},
        {"emulate_latency_ms": 0.5},  # was reported as wall time 0.5
        {"sweeps": 2.5},  # these four passed here and failed in _anneal_pool or _rank
        {"restarts": 2.0},
        {"top_k": 3.0},
        {"seed": 1.5},
        {"sweeps": "10"},
        {"restarts": np.int64(2)},
        {"readout_flip_prob": True},
        {"readout_flip_prob": "0.1"},
        {"temp_initial": True, "temp_final": 0.5},
        {"temp_initial": 2.0, "temp_final": np.float64(0.5)},
        {"temp_initial": math.inf, "temp_final": 0.5},  # the schedule became inf, then NaN
    ])
    def test_settings_of_the_wrong_type_rejected(self, setting):
        with pytest.raises(ValueError, match="must be"):
            SolverConfig(**setting)

    def test_temperature_beyond_float_range_rejected(self):
        # was accepted and failed at solve time with an OverflowError
        with pytest.raises(ValueError, match="temp_initial is out of range"):
            SolverConfig(temp_initial=10**400, temp_final=0.5)

    @pytest.mark.parametrize("model, temps", [
        (TWO_VAR, {"temp_initial": 1.0, "temp_final": 1e-310}),  # 2 / temp_final overflowed to inf
        (TWO_VAR, {"temp_initial": 1e308, "temp_final": 1e-20}),  # the ratio underflowed to 0
        (QuboMatrix(2, (0.0, 0.0), {(0, 1): 1e308}), {}),  # the default temp_initial was inf
    ])
    def test_temperatures_that_leave_float_range_rejected(self, monkeypatch, model, temps):
        # each annealed on an infinite or zero beta after a RuntimeWarning
        monkeypatch.setattr(solver, "_dense_fields", lambda work: pytest.fail("made the matrix"))
        with pytest.raises(ValueError, match=r"temp_initial=.* and temp_final=.* leave float range"):
            solve_annealed(model, SolverConfig(sweeps=3, **temps))

    def test_energies_past_float_range_rejected(self, monkeypatch):
        # finite coefficients and temperatures, but 4 (sum |h| + sum |J|) leaves
        # float range; energies that overflowed were pooled and ranked as inf
        model = IsingModel(4, (1.2e307,) * 4, {(0, 1): 1.0})
        monkeypatch.setattr(solver, "_dense_fields", lambda work: pytest.fail("made the matrix"))
        with pytest.raises(ValueError, match=r"sum \|J\| = 4.8e\+307 is too close to float range"):
            solve_annealed(model, SolverConfig(sweeps=3))

    def test_exact_energies_past_float_range_rejected(self):
        # ranked (-1, -1, 1) at -inf after a RuntimeWarning, though its energy is -1e308
        with pytest.raises(ValueError, match="too close to float range"):
            solve_exact(IsingModel(3, (1e308,) * 3, {}))

    @pytest.mark.parametrize("model, ground", [
        # 4 (sum |h| + sum |J|) = 1.6e308 is finite
        (IsingModel(4, (1e307, -1e307, 1e307, -1e307), {(0, 1): 1.0, (2, 3): -2.0}), -4e307),
        # the float32 rule's bound 8 (max |h| + n max |J|) = 1.6e309 is not
        (IsingModel(200, (0.0,) * 200, {(0, 1): 1e306}), -1e306),
    ])
    def test_energies_within_the_bound_anneal_without_warning(self, model, ground):
        # no field, flip update or energy of the anneal overflows (pytest
        # turns a RuntimeWarning into an error)
        assert solve_annealed(model, SolverConfig(sweeps=20, restarts=2)).best[1] == ground

    def test_int_and_float_settings_accepted(self):
        config = SolverConfig(sweeps=5, restarts=1, temp_initial=2, temp_final=0.5, readout_flip_prob=0)
        assert solve_annealed(TWO_VAR, config).meta["temp_initial"] == 2.0

    @pytest.mark.parametrize("top_k", [True, 1.0, 2.5])
    def test_exact_top_k_must_be_an_int(self, top_k):
        # top_k=True ran as top_k=1
        with pytest.raises(ValueError, match="top_k must be int"):
            solve_exact(TWO_VAR, top_k=top_k)


class TestReadoutSeed:
    @pytest.mark.parametrize("seed", [2**64, -(2**64), -1, 2**70])
    def test_seed_outside_64_bits_rejected(self, seed):
        # 2**64 and -2**64 were masked to seed 0's flips while meta reported the unmasked value
        with pytest.raises(ValueError, match="non-negative 64-bit integer"):
            apply_readout_noise(solve_exact(TWO_VAR), 0.3, seed)

    @pytest.mark.parametrize("seed", [True, 1.0, np.uint64(1)])
    def test_seed_must_be_an_int(self, seed):
        with pytest.raises(ValueError, match="seed must be int"):
            apply_readout_noise(solve_exact(TWO_VAR), 0.3, seed)

    def test_flip_probability_must_be_a_number(self):
        with pytest.raises(ValueError, match="flip probability must be"):
            apply_readout_noise(solve_exact(TWO_VAR), False, 1)

    def test_largest_seed_accepted_and_reported(self):
        noisy = apply_readout_noise(solve_exact(TWO_VAR), 0.3, 2**64 - 1)
        assert noisy.meta["readout_seed"] == 2**64 - 1


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
    return solver._dense_fields(solver._as_positive_ising(model))[0].dtype


def coupling_dtype(model):
    return solver._dense_fields(solver._as_positive_ising(model))[1].dtype


def reference_fields(h, jmat):
    """``h`` and J in float64, as ``reference_anneal_pool`` takes them: an
    int8 ``jmat`` holds 4J."""
    return h.astype(np.float64), jmat.astype(np.float64) / (4.0 if jmat.dtype == np.int8 else 1.0)


FLOAT32_TOP = (2**24 - 1) // 82  # largest top with 2 (40 + 1) top < 2**24

GOLDEN = {
    "fjsp": (bundled_fjsp, solve_annealed, np.float32),
    "lacrp4-quantized": (lambda: build_onehot_qubo(lacrp4(), PeptideWeights(1000, 1)), solve_quantized, np.int8),
    "lacrp4-onehot": (lambda: build_onehot_qubo(lacrp4(), PeptideWeights(1000, 1)), solve_annealed, np.float64),
    "count": (lambda: build_count_qubo(lacrp4(), CountEncodingConfig()), solve_annealed, np.float64),
    "singletons-float64": (lambda: random_model(np.random.default_rng(5), 12), solve_annealed, np.float64),
    "singletons-float32": (
        lambda: quantize_int8(random_model(np.random.default_rng(6), 20)).to_matrix(), solve_annealed, np.int8
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
            return reference_anneal_pool(*reference_fields(h, jmat), *args)

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
            # each sweep draws its own uniforms; these lengths sit at the edges
            # of an earlier bulk draw of 2**17 // (8 * 47) = 348 sweeps at a time
            (47, {"sweeps": 347}),  # one sweep short of a bulk draw
            (47, {"sweeps": 348}),  # exactly one bulk draw
            (47, {"sweeps": 448}),  # a bulk draw and 100 sweeps more
            (200, {"restarts": 656, "sweeps": 3}),  # 656 * 200 > 2**17 uniforms a sweep
            (47, {"sweeps": 1}),  # a one-sweep schedule is t0 alone
            (33, {"sweeps": 2}),  # the shortest schedule that reaches t1
            # the int8 leg widens its couplings in ten chunks of _WIDEN_ROWS
            # (32), and 300 sweeps cross the resync after sweep 256
            (300, {}),
            # three chunks through the one widening buffer, the last one short,
            # and the resync after sweep 256
            (72, {"sweeps": 260}),
        ],
    )
    def test_pool_matches_float64_reference(self, n, settings, quantized):
        q = random_model(np.random.default_rng(n), n, density=0.4)
        if quantized:
            q = quantize_int8(q).to_matrix()
        work = solver._as_positive_ising(q)
        h, jmat = solver._dense_fields(work)
        config = SolverConfig(**{"sweeps": 300, "seed": n, **settings})
        t0, t1 = solver._resolve_temps(config, work)
        pool = solver._anneal_pool(h, jmat, config, t0, t1)
        expected = reference_anneal_pool(*reference_fields(h, jmat), config, t0, t1)
        assert jmat.dtype == (np.int8 if quantized else np.float64)
        assert list(pool.items()) == list(expected.items())

    def test_draw_buffer_is_bounded(self):
        # 2,000 sweeps of 8 x 100 uniforms would be 12.8 MB drawn at once;
        # each sweep draws only its own 6.4 KB
        q = random_model(np.random.default_rng(100), 100, density=0.4)
        work = solver._as_positive_ising(q)
        h, jmat = solver._dense_fields(work)
        config = SolverConfig(sweeps=2000, seed=1)
        t0, t1 = solver._resolve_temps(config, work)
        tracemalloc.start()
        try:
            solver._anneal_pool(h, jmat, config, t0, t1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20

    def test_quantized_model_takes_float32(self):
        q = random_model(np.random.default_rng(3), 40, magnitude=300.0)
        assert state_dtype(q) == np.float64
        assert state_dtype(quantize_int8(q).to_matrix()) == np.float32

    def test_quantized_couplings_are_stored_as_int8_quarters(self):
        q = quantize_int8(random_model(np.random.default_rng(3), 40, magnitude=300.0)).to_matrix()
        work = solver._as_positive_ising(q)
        h, jmat = solver._dense_fields(work)
        assert h.dtype == np.float32 and jmat.dtype == np.int8
        upper = np.zeros((q.n, q.n))
        upper[q.rows, q.cols] = q.vals  # 4 J_ij = Q_ij
        assert np.array_equal(jmat, upper + upper.T)

    @pytest.mark.parametrize(
        "j, couplings", [(127 / 4, np.int8), (-127 / 4, np.int8), (32.0, np.float32), (-32.0, np.float32)]
    )
    def test_int8_storage_edges(self, j, couplings):
        # int8 needs every |4 J| <= 127 in the exact float32 regime
        model = IsingModel(3, (300.0, 0.25, -0.5), {(0, 1): j, (1, 2): 0.75})
        assert state_dtype(model) == np.float32
        assert coupling_dtype(model) == couplings

    def test_negated_sum_quantized_model_takes_int8(self):
        q = quantize_int8(random_model(np.random.default_rng(4), 30)).to_matrix()
        assert coupling_dtype(qubo_to_ising(q, IsingConvention.NEGATED_SUM)) == np.int8

    def test_float64_models_keep_float64_couplings(self):
        assert coupling_dtype(random_model(np.random.default_rng(3), 40)) == np.float64
        assert coupling_dtype(IsingModel(2, (0.0, 0.0), {(0, 1): 0.1})) == np.float64
        assert coupling_dtype(IsingModel(2, (0.0, 0.0), {(0, 1): 2.0**20})) == np.float64

    def test_int8_anneal_never_widens_the_whole_matrix(self):
        # n = 2,000: a float32 copy of the couplings is 16 MB; 260 sweeps
        # cross the field resync after sweep 256
        n = 2000
        rng = np.random.default_rng(2000)
        builder = QuboBuilder(n)
        builder.add_diag(np.arange(n), rng.uniform(-50.0, 50.0, n))
        i = rng.integers(0, n, 20_000)
        builder.add_pairs(i, (i + rng.integers(1, n, i.size)) % n, rng.uniform(-10.0, 10.0, i.size))
        work = solver._as_positive_ising(quantize_int8(builder.build()).to_matrix())
        h, jmat = solver._dense_fields(work)
        assert jmat.dtype == np.int8
        config = SolverConfig(sweeps=260, seed=1)
        t0, t1 = solver._resolve_temps(config, work)
        tracemalloc.start()
        try:
            solver._anneal_pool(h, jmat, config, t0, t1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * 4 * n * n

    @pytest.mark.parametrize("quantized", [False, True], ids=["float64", "int8"])
    def test_setup_makes_no_pair_sized_temporaries_beside_the_matrix(self, quantized):
        # n = 1,500 and about 76k pairs, sparse like the FJSP models: copies
        # of all coefficients (8 bytes each) would show beside the matrix, h
        # and the int8 couplings
        n = 1500
        rng = np.random.default_rng(n)
        builder = QuboBuilder(n)
        builder.add_diag(np.arange(n), rng.uniform(-50.0, 50.0, n))
        i = rng.integers(0, n, 80_000)
        builder.add_pairs(i, (i + rng.integers(1, n, i.size)) % n, rng.uniform(-10.0, 10.0, i.size))
        q = builder.build()
        work = solver._as_positive_ising(quantize_int8(q).to_matrix() if quantized else q)
        tracemalloc.start()
        try:
            h, jmat = solver._dense_fields(work)
            fields_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            solver._resolve_temps(SolverConfig(), work)
            temps_peak = tracemalloc.get_traced_memory()[1] - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert jmat.dtype == (np.int8 if quantized else np.float64)
        assert fields_peak < jmat.nbytes + h.nbytes + work.vals.size + 2**14
        assert temps_peak < 2**14

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


class TestSweepStream:
    """``_sweeps`` is the chain kernel, ``_anneal_pool`` its only consumer."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 40),
        st.integers(1, 10),
        st.sampled_from([np.float32, np.float64]),
        st.data(),
    )
    def test_pool_keeps_the_lowest_offered_states(self, restarts, top_k, dtype, data):
        # a fake stream in which each of 64 states always carries its own energy
        n = 6
        states = ((np.arange(2**n)[:, None] >> np.arange(n)) & 1) * 2.0 - 1.0
        energy = np.array(data.draw(st.permutations(range(2**n))), np.float64) - 20.0
        sweep = st.lists(st.integers(0, 2**n - 1), min_size=restarts, max_size=restarts)
        stream = data.draw(st.lists(sweep, min_size=1, max_size=30))
        spins, energies = np.empty((restarts, n), dtype), np.empty(restarts)

        def fake_sweeps(h, jmat, config, t0, t1):
            for picks in stream:  # one pair of buffers, overwritten each sweep
                spins[...] = states[picks]
                energies[...] = energy[picks]
                yield spins, energies

        config = SolverConfig(sweeps=len(stream), restarts=restarts, top_k=top_k)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_sweeps", fake_sweeps)
            pool = solver._anneal_pool(np.zeros(n, dtype), np.zeros((n, n), dtype), config, 1.0, 0.1)
        pooled = sorted((e, tuple(np.frombuffer(key))) for key, e in pool.items())
        offered = sorted({(energy[i], tuple(states[i])) for picks in stream for i in picks})
        assert pooled[:top_k] == offered[:top_k]

    def test_kernel_yields_exact_states_whatever_top_k(self):
        work = solver._as_positive_ising(quantize_int8(random_model(np.random.default_rng(9), 40)).to_matrix())
        h, jmat = solver._dense_fields(work)
        assert jmat.dtype == np.int8
        streams = []
        for top_k in (1, 10):
            config = SolverConfig(sweeps=300, seed=4, top_k=top_k)  # crosses the resync after sweep 256
            t0, t1 = solver._resolve_temps(config, work)
            streams.append([(s.copy(), e.copy()) for s, e in solver._sweeps(h, jmat, config, t0, t1)])
        assert len(streams[0]) == 300
        for (s1, e1), (s10, e10) in zip(*streams):
            assert s1.dtype == np.float32 and e1.dtype == np.float64
            assert np.array_equal(s1, s10) and np.array_equal(e1, e10)
            assert np.array_equal(e1 + work.offset, batch_energy(work, s1))

    def test_single_spin_kernel_samples_boltzmann(self):
        # At a fixed T a single-spin Metropolis chain's stationary law is
        # exp(-E / T) / Z. Over seeds 0-7 this run's total-variation distance
        # to it reads 0.006-0.013, and 0.074-0.083 with 1.6 / T in place of 2 / T.
        rng = np.random.default_rng(0)
        n, temp, burn_in = 5, 1.0, 200
        model = IsingModel(n, rng.uniform(-1.0, 1.0, n).tolist(), {
            (i, j): float(rng.uniform(-1.0, 1.0)) for i in range(n) for j in range(i + 1, n)
        })
        h, jmat = solver._dense_fields(model)
        config = SolverConfig(sweeps=burn_in + 3000, restarts=8, temp_initial=temp, temp_final=temp, seed=1)
        place = 2 ** np.arange(n - 1, -1, -1)  # state index, spin 0 most significant, -1 first
        counts = np.zeros(2**n, np.int64)
        for sweep, (spins, _) in enumerate(solver._sweeps(h, jmat, config, temp, temp)):
            if sweep >= burn_in:
                counts += np.bincount((spins > 0) @ place, minlength=2**n)
        states = ((np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1) * 2 - 1
        boltzmann = np.exp(-batch_energy(model, states) / temp)
        boltzmann /= boltzmann.sum()
        assert 0.5 * np.abs(counts / counts.sum() - boltzmann).sum() < 0.03


def generated_fjsp():
    inst = random_fjsp_instance(np.random.default_rng(1), 10, 6, slack=8)  # n = 1,965
    return build_qubo(inst, FjspWeights(150, 100, 100, 15), prune_variables(inst))


def tie_prone_model(n=30):
    """Coefficients in {-1, 0, 1}: many states share each energy."""
    rng = np.random.default_rng(n)
    rows, cols = np.triu_indices(n, 1)
    keep = rng.random(rows.size) < 0.3
    upper = {(int(i), int(j)): float(rng.integers(-1, 2)) for i, j in zip(rows[keep], cols[keep])}
    return QuboMatrix(n, rng.integers(-1, 2, n).astype(float), {k: v for k, v in upper.items() if v}, 0.5)


EXACT_REGIME = {
    "fjsp": (bundled_fjsp, 200),
    "lacrp4-quantized": (lambda: quantize_int8(build_onehot_qubo(lacrp4(), PeptideWeights(1000, 1))).to_matrix(), 200),
    "generated-fjsp": (generated_fjsp, 20),
    "tie-prone": (tie_prone_model, 200),
}


def count_batch_energy(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return batch_energy(*args)

    monkeypatch.setattr(solver, "batch_energy", counted)
    return calls


class TestExactRegimeRanking:
    """A float32 anneal ranks by its pool's own energies plus the offset."""

    @staticmethod
    def ranked_by_reevaluation(model, config):
        """The rule as first written: the whole pool re-evaluated by
        batch_energy and sorted by (energy, vector)."""
        work = solver._as_positive_ising(model)
        h, jmat = solver._dense_fields(work)
        pool = solver._anneal_pool(h, jmat, config, *solver._resolve_temps(config, work))
        vecs = list(dict.fromkeys(tuple(np.frombuffer(key).astype(int).tolist()) for key in pool))
        ranked = sorted(zip(batch_energy(work, vecs).tolist(), vecs))
        return tuple((vec, e) for e, vec in ranked[: config.top_k]), h.dtype, ranked

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("name", EXACT_REGIME)
    def test_equals_reevaluated_ranking(self, monkeypatch, name, seed):
        build, sweeps = EXACT_REGIME[name]
        model = build()
        config = SolverConfig(sweeps=sweeps, seed=seed)
        expected, dtype, _ = self.ranked_by_reevaluation(model, config)
        calls = count_batch_energy(monkeypatch)
        result = solve_annealed(model, config)
        assert dtype == np.float32
        assert not calls  # ranked without re-evaluation
        assert result.solutions == expected
        for vec, e in result.solutions:
            assert e == batch_energy(result.model, [vec])[0]

    def test_tie_prone_model_ties(self):
        # the vector order decides within an energy, inside the top 10
        _, _, ranked = self.ranked_by_reevaluation(tie_prone_model(), SolverConfig(sweeps=200))
        energies = [e for e, _ in ranked[:10]]
        assert len(set(energies)) < len(energies)

    def test_float64_anneal_reevaluates(self, monkeypatch):
        model = build_onehot_qubo(lacrp4(), PeptideWeights(1000, 1))
        assert state_dtype(model) == np.float64
        calls = count_batch_energy(monkeypatch)
        result = solve_annealed(model, SolverConfig(sweeps=100))
        assert len(calls) == 1 and len(calls[0][1]) >= len(result.solutions)
