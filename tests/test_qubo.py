"""Core model types: energies, penalties, conversion, quantization."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cimopt.errors import DegenerateMatrixError, DimensionError
from cimopt.qubo import (
    IsingConvention,
    IsingModel,
    QuboBuilder,
    QuboMatrix,
    _round_to_int8,
    add_squared_penalty,
    batch_energy,
    bits_to_spins,
    coefficient_stats,
    flip_convention,
    ising_energy,
    ising_from_doc,
    ising_to_doc,
    quantize_int8,
    qubo_energy,
    qubo_from_doc,
    qubo_to_doc,
    qubo_to_ising,
    spins_to_bits,
)

from conftest import naive_qubo_energy, naive_ising_energy, round_half_away_int8

TWO_VAR = QuboMatrix(2, (1.0, 3.0), {(0, 1): 2.0})


def all_bits(n):
    for row in range(1 << n):
        yield tuple((row >> i) & 1 for i in range(n))


class TestQuboEnergy:
    def test_hand_enumerated_values(self):
        # full expansion of x0 + 3 x1 + 2 x0 x1 over the four assignments
        expected = {(0, 0): 0.0, (1, 0): 1.0, (0, 1): 3.0, (1, 1): 6.0}
        for x, e in expected.items():
            assert qubo_energy(TWO_VAR, x) == e
            assert naive_qubo_energy(TWO_VAR, x) == e

    def test_all_zeros_gives_offset(self):
        q = QuboMatrix(3, (4.0, -2.0, 9.0), {(0, 2): 5.0}, offset=-7.25)
        assert qubo_energy(q, (0, 0, 0)) == -7.25

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            qubo_energy(TWO_VAR, (1, 0, 1))


class TestSquaredPenalty:
    def test_two_variable_expansion(self):
        # 2 (x0 + x1 - 1)^2 expands to diag -2, pair +4, offset 2
        empty = QuboMatrix(2, (0.0, 0.0), {})
        q = add_squared_penalty(empty, (1.0, 1.0), -1.0, 2.0)
        assert q.diag == (-2.0, -2.0)
        assert q.upper == {(0, 1): 4.0}
        assert q.offset == 2.0
        assert [qubo_energy(q, x) for x in [(0, 0), (1, 0), (0, 1), (1, 1)]] == [2.0, 0.0, 0.0, 2.0]

    def test_constant_only(self):
        empty = QuboMatrix(2, (0.0, 0.0), {})
        q = add_squared_penalty(empty, (0.0, 0.0), 3.0, 5.0)
        assert q.diag == (0.0, 0.0)
        assert q.upper == {}
        assert q.offset == 45.0

    def test_one_hot_row_of_twenty(self):
        lam = 7.5
        empty = QuboMatrix(20, (0.0,) * 20, {})
        q = add_squared_penalty(empty, (1.0,) * 20, -1.0, lam)
        assert all(d == -lam for d in q.diag)
        assert all(v == 2 * lam for v in q.upper.values())
        assert len(q.upper) == 20 * 19 // 2
        assert q.offset == lam

    def test_rejects_nonpositive_weight(self):
        empty = QuboMatrix(2, (0.0, 0.0), {})
        with pytest.raises(ValueError):
            add_squared_penalty(empty, (1.0, 1.0), -1.0, 0.0)
        with pytest.raises(ValueError):
            add_squared_penalty(empty, (1.0, 1.0), -1.0, -2.0)

    def test_rejects_length_mismatch(self):
        with pytest.raises(DimensionError):
            add_squared_penalty(TWO_VAR, (1.0,), -1.0, 1.0)


class TestConversion:
    def test_two_variable_mapping(self):
        m = qubo_to_ising(TWO_VAR)
        assert m.convention is IsingConvention.POSITIVE_SUM
        assert m.h == (1.0, 2.0)
        assert m.J == {(0, 1): 0.5}
        assert m.offset == 2.5

    def test_zero_qubo_preserves_offset(self):
        q = QuboMatrix(3, (0.0, 0.0, 0.0), {}, offset=11.5)
        m = qubo_to_ising(q)
        assert m.h == (0.0, 0.0, 0.0) and m.J == {} and m.offset == 11.5

    def test_single_variable(self):
        q = QuboMatrix(1, (6.0,), {})
        m = qubo_to_ising(q)
        assert m.h == (3.0,) and m.offset == 3.0
        for x in ((0,), (1,)):
            assert qubo_energy(q, x) == ising_energy(m, bits_to_spins(x))

    def test_negated_sum_energies_match(self):
        m = qubo_to_ising(TWO_VAR, IsingConvention.NEGATED_SUM)
        assert m.h == (-1.0, -2.0)
        for x in all_bits(2):
            assert ising_energy(m, bits_to_spins(x)) == qubo_energy(TWO_VAR, x)


class TestIsingEnergy:
    def test_matches_qubo_ground(self):
        m = IsingModel(2, (1.0, 2.0), {(0, 1): 0.5}, 2.5)
        assert ising_energy(m, (-1, -1)) == 0.0
        assert naive_ising_energy(m, (-1, -1)) == 0.0

    def test_convention_flip_preserves_energy(self):
        m = IsingModel(2, (1.0, 2.0), {(0, 1): 0.5}, 2.5)
        flipped = flip_convention(m)
        assert flipped.convention is IsingConvention.NEGATED_SUM
        for s in [(-1, -1), (1, -1), (-1, 1), (1, 1)]:
            assert ising_energy(flipped, s) == ising_energy(m, s)

    def test_zero_fields_give_offset(self):
        m = IsingModel(3, (0.0, 0.0, 0.0), {}, offset=4.0)
        assert ising_energy(m, (1, -1, 1)) == 4.0

    def test_rejects_bad_spin(self):
        m = IsingModel(2, (1.0, 2.0), {}, 0.0)
        with pytest.raises(ValueError):
            ising_energy(m, (0, 1))

    def test_rejects_length_mismatch(self):
        m = IsingModel(2, (1.0, 2.0), {}, 0.0)
        with pytest.raises(DimensionError):
            ising_energy(m, (1,))


class TestQuantization:
    def test_hand_computed_example(self):
        # scale = 127/200 = 0.635; 0.0003 rounds to 0, -100 to -64
        q = QuboMatrix(2, (200.0, 0.0003), {(0, 1): -100.0})
        quantized = quantize_int8(q)
        assert quantized.scale == pytest.approx(0.635)
        assert quantized.int_diag == (127, 0)
        assert quantized.int_upper == {(0, 1): -64}
        assert quantized.report.zeroed_fraction == pytest.approx(1 / 3)
        assert quantized.report.max_abs_original == 200.0

    def test_identity_when_already_small_integers(self):
        q = QuboMatrix(3, (127.0, -5.0, 33.0), {(0, 2): -127.0})
        quantized = quantize_int8(q)
        assert quantized.scale == 1.0
        assert quantized.int_diag == (127, -5, 33)
        assert quantized.int_upper == {(0, 2): -127}
        assert quantized.report.zeroed_fraction == 0.0

    def test_wide_dynamic_range_zeroes_small_coefficients(self):
        q = QuboMatrix(3, (1e5, 1.0, 0.1), {})
        quantized = quantize_int8(q)
        assert quantized.report.dynamic_range_orders >= 6.0
        assert quantized.report.zeroed_fraction > 0.0

    def test_all_zero_matrix_rejected(self):
        q = QuboMatrix(2, (0.0, 0.0), {})
        with pytest.raises(DegenerateMatrixError):
            quantize_int8(q)

    def test_subnormal_coefficients_rejected(self):
        # 127 / 5e-324 overflows float64; treat as degenerate input
        q = QuboMatrix(2, (5e-324, 0.0), {})
        with pytest.raises(DegenerateMatrixError):
            quantize_int8(q)

    def test_half_away_rounding_is_symmetric(self):
        q = QuboMatrix(2, (127.0, 63.5), {(0, 1): -63.5})
        quantized = quantize_int8(q)
        assert quantized.int_diag[1] == 64
        assert quantized.int_upper[(0, 1)] == -64

    def test_argmin_can_move_and_is_flagged(self):
        # the small coefficients decide the true argmin but vanish at int8
        q = QuboMatrix(3, (-1e5, -1.0, 0.1), {})
        quantized = quantize_int8(q)
        assert quantized.report.zeroed_fraction > 0.0
        original_best = min(all_bits(3), key=lambda x: qubo_energy(q, x))
        qm = quantized.to_matrix()
        quantized_best = min(
            all_bits(3), key=lambda x: (qubo_energy(qm, x), x)
        )
        assert original_best == (1, 1, 0)
        assert quantized_best != original_best


class TestCoefficientStats:
    def test_three_orders(self):
        q = QuboMatrix(3, (1.0, 10.0, 1000.0), {})
        stats = coefficient_stats(q)
        assert stats.dynamic_range_orders == pytest.approx(3.0)
        assert stats.max_abs == 1000.0
        assert stats.min_nonzero_abs == 1.0

    def test_all_equal(self):
        q = QuboMatrix(3, (5.0, 5.0, 5.0), {(0, 1): 5.0})
        assert coefficient_stats(q).dynamic_range_orders == 0.0

    def test_near_zero_fraction_is_relative(self):
        q = QuboMatrix(4, (1e6, 1.0, 50.0, 200.0), {})
        stats = coefficient_stats(q, near_zero_threshold=1e-4)
        # 1.0 and 50.0 are <= 100 = 1e-4 * 1e6
        assert stats.near_zero_fraction == pytest.approx(2 / 4)


class TestJsonDocs:
    def test_qubo_roundtrip(self):
        doc = qubo_to_doc(TWO_VAR)
        assert doc == {"n": 2, "diag": [1.0, 3.0], "upper": [[0, 1, 2.0]], "offset": 0.0}
        assert qubo_from_doc(doc) == TWO_VAR

    def test_ising_roundtrip(self):
        m = qubo_to_ising(TWO_VAR, IsingConvention.NEGATED_SUM)
        doc = ising_to_doc(m)
        assert doc["convention"] == "negated_sum"
        assert ising_from_doc(doc) == m

    def test_malformed_doc(self):
        with pytest.raises(ValueError):
            qubo_from_doc({"diag": [1.0]})


@st.composite
def qubo_matrices(draw, max_n=8, magnitude=1e3):
    n = draw(st.integers(1, max_n))
    finite = st.floats(-magnitude, magnitude, allow_nan=False, allow_infinity=False)
    diag = tuple(draw(finite) for _ in range(n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    upper = {pair: draw(finite) for pair in chosen}
    offset = draw(finite)
    return QuboMatrix(n, diag, {k: v for k, v in upper.items() if v != 0.0}, offset)


class TestProperties:
    @given(qubo_matrices())
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_energy_equivalence(self, q):
        m = qubo_to_ising(q)
        scale = max(1.0, max((abs(c) for c in q.coefficients()), default=0.0))
        for x in all_bits(q.n):
            assert abs(qubo_energy(q, x) - ising_energy(m, bits_to_spins(x))) <= 1e-9 * scale

    @given(qubo_matrices())
    @settings(max_examples=40, deadline=None)
    def test_convention_flip_changes_no_energy(self, q):
        m = qubo_to_ising(q)
        flipped = flip_convention(m)
        for x in all_bits(q.n):
            s = bits_to_spins(x)
            assert ising_energy(flipped, s) == ising_energy(m, s)

    @given(
        qubo_matrices(max_n=6),
        st.lists(st.floats(-50, 50, allow_nan=False), min_size=6, max_size=6),
        st.floats(-50, 50, allow_nan=False),
        st.floats(0.01, 100, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_penalty_adds_exact_square(self, q, coeffs, constant, weight):
        coeffs = coeffs[: q.n]
        penalized = add_squared_penalty(q, coeffs, constant, weight)
        for x in all_bits(q.n):
            linear = sum(c * b for c, b in zip(coeffs, x)) + constant
            delta = qubo_energy(penalized, x) - qubo_energy(q, x)
            assert delta >= -1e-9 * max(1.0, abs(delta))
            assert delta == pytest.approx(weight * linear * linear, rel=1e-9, abs=1e-7)

    @given(qubo_matrices(max_n=6, magnitude=1e4))
    @settings(max_examples=60, deadline=None)
    def test_quantization_containment(self, q):
        try:
            quantized = quantize_int8(q)
        except DegenerateMatrixError:
            return
        for value in list(quantized.int_diag) + list(quantized.int_upper.values()):
            assert -128 <= value <= 127
        bound = 0.5 / quantized.scale + 1e-12
        for original, integer in zip(q.diag, quantized.int_diag):
            assert abs(original - integer / quantized.scale) <= bound
        for key, integer in quantized.int_upper.items():
            assert abs(q.upper[key] - integer / quantized.scale) <= bound


class TestSpinHelpers:
    def test_bijection(self):
        assert bits_to_spins((0, 1, 1)) == (-1, 1, 1)
        assert spins_to_bits((-1, 1, 1)) == (0, 1, 1)
        with pytest.raises(ValueError):
            bits_to_spins((0, 2))
        with pytest.raises(ValueError):
            spins_to_bits((0, 1))


class TestBuilder:
    def test_rejects_diagonal_pair(self):
        b = QuboBuilder(3)
        with pytest.raises(ValueError):
            b.add_pair(1, 1, 2.0)

    def test_drops_cancelled_pairs(self):
        b = QuboBuilder(2)
        b.add_pair(0, 1, 2.0)
        b.add_pair(1, 0, -2.0)
        assert b.build().upper == {}


class TestArrayCore:
    def test_views_are_read_only_and_compare_equal_to_dicts(self):
        q = QuboMatrix(3, [1.0, 2.0, 3.0], {(1, 2): 5.0, (0, 1): -1.0}, 0.5)
        assert q.upper == {(0, 1): -1.0, (1, 2): 5.0} and q.diag == (1.0, 2.0, 3.0)
        assert list(q.upper) == [(0, 1), (1, 2)]  # stored in (i, j) order
        with pytest.raises(TypeError):
            q.upper[(0, 2)] = 1.0
        with pytest.raises(AttributeError):
            q.offset = 1.0
        with pytest.raises(ValueError):
            q.vals[0] = 9.0
        assert QuboMatrix(q.n, q.diag, q.upper, q.offset) == q
        assert pickle.loads(pickle.dumps(q)) == q


class TestBatchKernel:
    @given(qubo_matrices(max_n=10), st.integers(1, 12), st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_rows_equal_scalar_functions_bit_for_bit(self, q, k, seed):
        bits = np.random.default_rng(seed).integers(0, 2, (k, q.n))
        energies = batch_energy(q, bits)
        assert [qubo_energy(q, row).hex() for row in bits.tolist()] == [e.hex() for e in energies.tolist()]
        assert batch_energy(q, bits[::-1]).tolist()[::-1] == energies.tolist()
        for convention in IsingConvention:
            m = qubo_to_ising(q, convention)
            spins = 2 * bits - 1
            expected = [ising_energy(m, row).hex() for row in spins.tolist()]
            assert expected == [e.hex() for e in batch_energy(m, spins).tolist()]

    def test_rejects_bad_shape_and_values(self):
        m = qubo_to_ising(TWO_VAR)
        with pytest.raises(DimensionError):
            batch_energy(TWO_VAR, [[0, 1, 1]])
        with pytest.raises(ValueError):
            batch_energy(TWO_VAR, [[0, 1], [2, 0]])
        with pytest.raises(ValueError):
            batch_energy(m, [[1, 0]])


class TestQuantizeReference:
    @given(qubo_matrices(max_n=8, magnitude=1e4))
    @settings(max_examples=80, deadline=None)
    def test_matches_scalar_reference(self, q):
        try:
            quantized = quantize_int8(q)
        except DegenerateMatrixError:
            return
        scale = 127 / max(abs(c) for c in q.coefficients())
        assert quantized.scale == scale
        assert quantized.int_diag == tuple(round_half_away_int8(c * scale) for c in q.diag)
        assert quantized.int_upper == {key: round_half_away_int8(v * scale) for key, v in q.upper.items()}

    @given(st.lists(st.integers(-127, 126), min_size=1, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_exact_half_ties_round_away_from_zero(self, ints):
        # a largest magnitude of 127 makes the scale exactly 1, so k + 0.5 is a tie
        ties = [k + 0.5 for k in ints]
        q = QuboMatrix(len(ties) + 1, [127.0, *ties], {(0, j): -t for j, t in enumerate(ties, start=1)})
        quantized = quantize_int8(q)
        assert quantized.scale == 1.0
        assert quantized.int_diag[1:] == tuple(round_half_away_int8(t) for t in ties)
        assert all(abs(v) == abs(t) + 0.5 for v, t in zip(quantized.int_diag[1:], ties))
        assert [quantized.int_upper[(0, j)] for j in range(1, len(ties) + 1)] == [round_half_away_int8(-t) for t in ties]

    def test_rounding_rule_clamps_like_reference(self):
        values = [-1e9, -129.0, -128.5, -128.49, -127.5, -0.5, -0.49, 0.0, 0.49, 0.5, 2.5, 127.49, 127.5, 300.0]
        assert _round_to_int8(np.array(values)).tolist() == [round_half_away_int8(v) for v in values]
        assert round_half_away_int8(-128.5) == -128 and round_half_away_int8(127.5) == 127


class TestBuilderCoalescing:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_equals_dict_accumulation(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        builder, upper, diag = QuboBuilder(n), {}, [0.0] * n
        for _ in range(int(rng.integers(1, 6))):
            i = rng.integers(0, n, int(rng.integers(1, 12)))
            j = (i + rng.integers(1, n, i.size)) % n
            v = rng.normal(size=i.size)
            if rng.random() < 0.5:
                builder.add_pairs(i, j, v)
            else:
                for a, b, x in zip(i.tolist(), j.tolist(), v.tolist()):
                    builder.add_pair(a, b, x)
            for a, b, x in zip(i.tolist(), j.tolist(), v.tolist()):
                key = (min(a, b), max(a, b))
                upper[key] = upper.get(key, 0.0) + x
            d, dv = rng.integers(0, n, 3), rng.normal(size=3)
            builder.add_diag(d, dv)
            for a, x in zip(d.tolist(), dv.tolist()):
                diag[a] += x
        cancelled = next(iter(upper))
        builder.add_pair(cancelled[1], cancelled[0], -upper[cancelled])
        upper[cancelled] = 0.0
        q = builder.build()
        assert q.upper == {key: v for key, v in upper.items() if v != 0.0}
        assert cancelled not in q.upper
        assert q.diag == tuple(diag)


class TestLargeModel:
    def test_build_quantize_convert_energies_agree_with_naive(self):
        rng = np.random.default_rng(3000)
        n, draws = 3000, 200_000
        builder = QuboBuilder(n)
        builder.add_diag(np.arange(n), rng.uniform(-50.0, 50.0, n))
        i = rng.integers(0, n, draws)
        builder.add_pairs(i, (i + rng.integers(1, n, draws)) % n, rng.uniform(-10.0, 10.0, draws))
        q = builder.build()
        assert 190_000 < len(q.vals) < draws  # repeated pairs coalesced
        integer = quantize_int8(q).to_matrix()
        isings = [qubo_to_ising(integer, convention) for convention in IsingConvention]
        for x in rng.integers(0, 2, (2, n)).tolist():
            terms = sum(abs(c) for c in q.coefficients())
            assert abs(qubo_energy(q, x) - naive_qubo_energy(q, x)) <= 1e-12 * terms
            # integer and quarter-integer coefficients sum exactly in any order
            assert qubo_energy(integer, x) == naive_qubo_energy(integer, x)
            for m in isings:
                assert ising_energy(m, bits_to_spins(x)) == naive_ising_energy(m, bits_to_spins(x))
                assert ising_energy(m, bits_to_spins(x)) == qubo_energy(integer, x)
