"""Core model types: energies, penalties, conversion, quantization."""

import pickle
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cimopt.errors import DegenerateMatrixError, DimensionError
from cimopt.qubo import (
    IsingConvention,
    IsingModel,
    QuantizationReport,
    QuantizedQubo,
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

from conftest import JSON_SCALARS, JSON_VALUES, naive_qubo_energy, naive_ising_energy, round_half_away_int8

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

    def test_to_matrix_shares_index_arrays_when_nothing_rounded_to_zero(self):
        quantized = quantize_int8(QuboMatrix(3, (127.0, -5.0, 33.0), {(0, 1): 4.0, (0, 2): -127.0}))
        m = quantized.to_matrix()
        assert np.shares_memory(m.rows, quantized.rows) and np.shares_memory(m.cols, quantized.cols)
        assert m.upper == {(0, 1): 4.0, (0, 2): -127.0} and m.diag == (127.0, -5.0, 33.0)

    def test_to_matrix_drops_pairs_that_rounded_to_zero(self):
        quantized = quantize_int8(QuboMatrix(3, (200.0, 1.0, 2.0), {(0, 1): 0.0003, (1, 2): -100.0}))
        assert quantized.int_upper == {(0, 1): 0, (1, 2): -64}
        m = quantized.to_matrix()
        assert m.upper == {(1, 2): -64.0}
        assert not np.shares_memory(m.rows, quantized.rows)


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


def terms_docs(n):
    """A QUBO or Ising document over n variables, with at most one field
    replaced by an arbitrary JSON value or left out."""
    number = st.floats() | st.integers(-3, 3)
    index = st.integers(0, n)
    fields = {
        "n": st.just(n),
        "diag": st.lists(number, min_size=n, max_size=n),
        "upper": st.lists(st.tuples(index, index, number | JSON_SCALARS).map(list), max_size=3),
        "offset": number,
        "convention": st.sampled_from(["positive_sum", "negated_sum"]),
    }

    def mutate(args):
        doc, name, value, drop = args
        if name is not None:
            doc.pop(name) if drop else doc.update({name: value})
        return doc

    return st.tuples(
        st.fixed_dictionaries(fields), st.none() | st.sampled_from(list(fields)), JSON_VALUES, st.booleans()
    ).map(mutate)


TERMS_DOCS = JSON_VALUES | st.integers(0, 3).flatmap(terms_docs)


class TestReaderSweep:
    """Any JSON value is read or rejected with ValueError, never another
    error, and every accepted document round-trips."""

    @pytest.mark.parametrize("reader", [qubo_from_doc, ising_from_doc])
    @pytest.mark.parametrize("change", [{"diag": {}}, {"upper": ""}, {"upper": {}}], ids=["diag-object", "upper-string", "upper-object"])
    def test_terms_must_be_arrays(self, reader, change):
        doc = {"n": 2, "diag": [1.0, 3.0], "upper": [], "convention": "positive_sum", **change}
        with pytest.raises(ValueError, match="diag and upper must be JSON arrays"):
            reader(doc)

    @settings(max_examples=400, deadline=None)
    @given(TERMS_DOCS)
    @example({"n": 2, "diag": {}, "upper": [], "convention": "positive_sum"})
    def test_qubo_reader(self, doc):
        try:
            q = qubo_from_doc(doc)
        except ValueError:
            return
        assert qubo_from_doc(qubo_to_doc(q)) == q

    @settings(max_examples=400, deadline=None)
    @given(TERMS_DOCS)
    @example({"n": 2, "diag": {}, "upper": [], "convention": "positive_sum"})
    def test_ising_reader(self, doc):
        try:
            m = ising_from_doc(doc)
        except ValueError:
            return
        assert ising_from_doc(ising_to_doc(m)) == m


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
    def test_reprs_name_size_and_scalars(self):
        q = QuboMatrix(3, [1.0, 2.0, 3.0], {(0, 1): 1.0, (1, 2): -2.0}, 0.5)
        assert repr(q) == "QuboMatrix(n=3, pairs=2, offset=0.5)"
        assert repr(q.upper) == "<pairs of QuboMatrix(n=3, pairs=2, offset=0.5)>"
        m = qubo_to_ising(q, IsingConvention.NEGATED_SUM)
        text = f"IsingModel(n=3, pairs=2, offset={m.offset!r}, convention={IsingConvention.NEGATED_SUM!r})"
        assert repr(m) == text and repr(m.J) == f"<pairs of {text}>"
        quantized = quantize_int8(q)
        text = f"QuantizedQubo(n=3, pairs=2, scale={quantized.scale!r}, report={quantized.report!r})"
        assert repr(quantized) == text and repr(quantized.int_upper) == f"<pairs of {text}>"

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

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: QuboMatrix(2, ["1", "2"], {}), "must be numbers, got strings"),  # read as diag (1.0, 2.0)
            (lambda: QuboMatrix(2, [True, False], {}), "must be numbers, got bools"),
            (lambda: IsingModel(2, [0.0, 0.0], {(0, 1): "0.5"}), "must be numbers, got strings"),
            (lambda: QuboMatrix(2, [0.0, 0.0], {}, offset=True), "must be numbers, got bools"),
            # read as n = 1; an explicit id, since QuboBuilder(True) below has the same message
            pytest.param(
                lambda: QuboMatrix(True, [1.0], {}), "n must be int, got True", id="QuboMatrix-n must be int, got True"
            ),
            (lambda: QuboMatrix(2.0, [1.0, 2.0], {}), "n must be int, got 2.0"),  # a TypeError
            (lambda: QuboMatrix(np.int64(2), [1.0, 2.0], {}), "n must be int, got"),  # accepted, unlike QuboBuilder
            (lambda: QuantizedQubo(1, [True], {}, 1.0, QuantizationReport(0.0, 0.0, 1.0)), "got bools"),
            # was stored as True
            (lambda: QuantizedQubo(1, [1], {}, True, QuantizationReport(0.0, 0.0, 1.0)), "scale must be int or float"),
            (lambda: QuboBuilder(True), "n must be int, got True"),  # a numpy TypeError
            (lambda: QuboBuilder(2.5), "n must be int, got 2.5"),  # a numpy TypeError
            # built with weight 1
            (lambda: add_squared_penalty(TWO_VAR, (1.0, 1.0), -1.0, True), "penalty weight must be int or float, got True"),
        ],
    )
    def test_bools_and_strings_rejected(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()


def pair_view(model):
    """``upper``, ``J`` or ``int_upper``, whichever the model has."""
    return getattr(model, model._NAMES[1])


def oracle(model) -> dict:
    """The dict the pair views replace."""
    return dict(zip(zip(model.rows.tolist(), model.cols.tolist()), model.vals.tolist()))


@st.composite
def pair_models(draw):
    """A QuboMatrix, IsingModel or QuantizedQubo of 1-6 variables and 0-15 pairs."""
    n = draw(st.integers(1, 6))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    kind = draw(st.sampled_from([QuboMatrix, IsingModel, QuantizedQubo]))
    if kind is QuantizedQubo:
        upper = {p: draw(st.integers(-128, 127)) for p in chosen}
        return QuantizedQubo(n, [1] * n, upper, 1.0, QuantizationReport(0.0, 0.0, 127.0))
    number = st.integers(-9, 9) | st.floats(-1e3, 1e3, allow_nan=False)  # ints are stored as floats
    return kind(n, [1.0] * n, {p: draw(number) for p in chosen})


def outcome(f, *args):
    """What a call returns, with its type, or the type of what it raises."""
    try:
        value = f(*args)
    except (KeyError, TypeError) as exc:
        return type(exc)
    return value, type(value)


def probe_keys(n):
    """Every key kind a dict lookup treats differently; the lists are unhashable."""
    ints = [(i, j) for i in range(-1, n + 2) for j in range(-1, n + 2)]  # in and out of range, reversed
    return ints + [
        (np.int64(0), np.int32(1)), (np.uint8(1), np.intp(2)), (False, True), (True, 2), (0.0, 1.0),
        (np.float64(1.0), 2), (0.5, 1), (0, 1.5), ("0", "1"), "01", (0,), (0, 1, 2), None, 1, 2**70,
        (2**70, 2**71), (float("nan"), 1), (float("inf"), 1), [0, 1], ([0], 1), {}, (0, [1]),
    ]


class TestPairViews:
    @given(pair_models())
    @settings(max_examples=150, deadline=None)
    def test_behaves_like_the_dict(self, model):
        view, expected = pair_view(model), oracle(model)
        assert view == expected and expected == view and not view != expected and not expected != view
        assert len(view) == len(expected) and list(view) == list(expected)
        for name in ("keys", "values", "items"):
            assert len(getattr(view, name)()) == len(expected)
            assert list(getattr(view, name)()) == list(getattr(expected, name)())
        assert [type(v) for v in view.values()] == [type(v) for v in expected.values()]
        for key in probe_keys(model.n):
            assert outcome(view.__getitem__, key) == outcome(expected.__getitem__, key), key
            for ask in ("__contains__", "get"):
                assert outcome(getattr(view, ask), key) == outcome(getattr(expected, ask), key), key
            assert outcome(view.get, key, "absent") == outcome(expected.get, key, "absent"), key
            assert outcome(view.keys().__contains__, key) == outcome(expected.keys().__contains__, key), key
            stored = outcome(expected.get, key)
            for value in (1.0, stored[0] if type(stored) is tuple else None):
                item = (key, value)
                assert outcome(view.items().__contains__, item) == outcome(expected.items().__contains__, item)
        for item in (5, None, ((0, 1),), [(0, 1), 1.0], ((0, 1), 1.0, 2)):  # not pairs: absent
            assert (item in view.items()) is (item in expected.items()) is False
        for value in [*expected.values(), 1e9, 0.25, "x", None]:
            assert (value in view.values()) is (value in expected.values())

    @given(pair_models(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_unequal_to_another_dict(self, model, data):
        view, expected = pair_view(model), oracle(model)
        other = dict(expected)
        if other and data.draw(st.booleans()):
            key = data.draw(st.sampled_from(sorted(other)))
            other[key] += 1
        else:
            other[(model.n, model.n + 1)] = 1.0
        assert view != other and other != view and not view == other
        assert view != list(expected.items()) and view != None  # noqa: E711

    @given(pair_models())
    @settings(max_examples=30, deadline=None)
    def test_read_only(self, model):
        view = pair_view(model)
        with pytest.raises(TypeError):
            view[(0, 1)] = 1
        with pytest.raises(TypeError):
            del view[next(iter(view), (0, 1))]
        with pytest.raises(TypeError):
            hash(view)
        assert pair_view(model) == oracle(model)

    def test_views_of_equal_models_are_equal(self):
        q = QuboMatrix(3, [1.0, 2.0, 3.0], {(0, 1): 2.0, (1, 2): -1.0})
        assert q.upper == QuboMatrix(3, [0.0] * 3, {(1, 2): -1.0, (0, 1): 2.0}).upper
        assert q.upper != QuboMatrix(3, [0.0] * 3, {(0, 1): 2.0}).upper
        assert quantize_int8(q).int_upper == {(0, 1): 85, (1, 2): -42}
        assert QuboMatrix(3, [0.0] * 3, {(0, 1): 85.0, (1, 2): -42.0}).upper == quantize_int8(q).int_upper


def large_builder():
    """240k pair draws over 3,000 variables, which coalesce to about 233k pairs."""
    rng = np.random.default_rng(3000)
    n, draws = 3000, 240_000
    builder = QuboBuilder(n)
    builder.add_diag(np.arange(n), rng.uniform(-50.0, 50.0, n))
    i = rng.integers(0, n, draws)
    builder.add_pairs(i, (i + rng.integers(1, n, draws)) % n, rng.uniform(-10.0, 10.0, draws))
    return builder


def large_model():
    """About 233k pairs over 3,000 variables."""
    return large_builder().build()


def traced_peak(f):
    """f's result and the peak memory traced while it ran, in bytes."""
    tracemalloc.start()
    try:
        result = f()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestLargePairViews:
    """Building the dict took 47 MB; the views stay within a few."""

    @pytest.fixture(scope="class")
    def models(self):
        q = large_model()
        assert q.vals.size > 200_000
        return q, qubo_to_ising(q, IsingConvention.NEGATED_SUM), quantize_int8(q)

    def test_len_lookups_and_iteration_are_bounded(self, models):
        rng = np.random.default_rng(7)
        for model in models:
            n, size = model.n, model.vals.size
            stored = rng.integers(0, size, 1000)
            keys = list(zip(model.rows[stored].tolist(), model.cols[stored].tolist()))
            i, j = rng.integers(0, n - 1, 200), rng.integers(1, n, 200)
            lo, hi = np.minimum(i, j), np.maximum(i, j)
            absent = ~np.isin(lo * n + hi, model.rows * n + model.cols) & (lo < hi)
            missing = list(zip(lo[absent].tolist(), hi[absent].tolist()))
            length, peak = traced_peak(lambda: len(pair_view(model)))
            assert length == size and peak < 2**20
            found, peak = traced_peak(lambda: [pair_view(model)[key] for key in keys])
            assert found == model.vals[stored].tolist() and peak < 2**20
            assert not any(key in pair_view(model) for key in missing)
            count, peak = traced_peak(lambda: sum(1 for _ in pair_view(model).items()))
            assert count == size and peak < 4 * 2**20

    def test_iteration_crosses_chunks_in_stored_order(self, models):
        for model in models:
            view, rows, cols, vals = pair_view(model), model.rows.tolist(), model.cols.tolist(), model.vals.tolist()
            assert list(view) == list(zip(rows, cols))
            assert list(view.values()) == vals
            assert list(view.items()) == list(zip(zip(rows, cols), vals))

    def test_rebuilding_from_a_view(self, models):
        q, m, qq = models
        assert QuboMatrix(q.n, q.diag, q.upper, q.offset) == q
        assert IsingModel(m.n, m.h, m.J, m.offset, m.convention) == m
        assert QuantizedQubo(qq.n, qq.int_diag, qq.int_upper, qq.scale, qq.report) == qq
        floats = QuboMatrix(qq.n, qq.int_diag, qq.int_upper)  # int values become floats
        assert floats.vals.dtype == np.float64 and np.array_equal(floats.vals, qq.vals)
        with pytest.raises(ValueError, match="upper-triangular"):
            QuboMatrix(q.n - 1, q.diag[:-1], q.upper)  # every check still runs
        with pytest.raises(ValueError, match="not finite"):
            QuboMatrix(q.n, [np.inf, *q.diag[1:]], q.upper)


class TestAssemblyMemory:
    """Assembly holds its output plus a few pair-sized arrays, where one
    float64 array over the 240k draws is 1.83 MiB. The pins are MiB of
    traced peak: 27.7 for build and 9.3 for quantize_int8 when each stage
    held a dozen or so such temporaries."""

    def test_build_peak(self):
        builder = large_builder()
        q, peak = traced_peak(builder.build)
        assert q.vals.size > 200_000 and peak < 14 * 2**20

    def test_quantize_peak(self):
        q = large_model()
        quantized, peak = traced_peak(lambda: quantize_int8(q))
        assert quantized.vals.size == q.vals.size and peak < 7.5 * 2**20


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
        values = [-1e9, -129.0, -128.5, -128.49, -127.5, -0.5, -0.49, 0.0, 0.49, 0.5, 2.5, 127.49, 127.5, 300.0, -0.0, 5e-324, -2.5]
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


class TestBuilderContract:
    def test_out_of_range_pair_names_the_first_offender(self):
        n = 5
        builder = QuboBuilder(n)
        builder.add_pairs([0, 1], [1, 2], 1.0)
        builder.add_pairs([3, 0, 4], [2, n + 2, -1], 1.0)  # (0, 7) would key like (1, 2)
        builder.add_pair(-1, 0, 1.0)
        with pytest.raises(ValueError, match=r"pair \(0, 7\) is out of range for n=5"):
            builder.build()
        for rows, cols in (([6], [0]), ([2], [-3])):
            single = QuboBuilder(n)
            single.add_pairs(rows, cols, 1.0)
            with pytest.raises(ValueError, match=rf"pair \({rows[0]}, {cols[0]}\) is out of range"):
                single.build()

    def test_build_twice_and_keep_accumulating(self):
        builder = QuboBuilder(4)
        builder.add_pairs([0, 2, 1], [1, 1, 0], [1.0, 2.0, 0.5])
        builder.add_diag([3], 4.0)
        builder.add_offset(1.5)
        first = builder.build()
        assert builder.build() == first
        assert first.upper == {(0, 1): 1.5, (1, 2): 2.0} and first.offset == 1.5
        assert first.rows.dtype == first.cols.dtype == np.intp and first.vals.dtype == np.float64
        builder.add_pair(1, 0, -1.5)
        builder.add_pair(3, 2, 0.25)
        builder.add_diag([3], 1.0)
        again = builder.build()
        assert again.upper == {(1, 2): 2.0, (2, 3): 0.25} and again.diag == (0.0, 0.0, 0.0, 5.0)
        assert first.upper == {(0, 1): 1.5, (1, 2): 2.0}  # an earlier model is not changed

    def test_empty_builder(self):
        q = QuboBuilder(3).build()
        assert q.upper == {} and q.rows.dtype == q.cols.dtype == np.intp and q.vals.dtype == np.float64

    @pytest.mark.parametrize(
        "add, message",
        [
            pytest.param(lambda b: b.add_diag(-1, 5.0), "index -1 is out of range for n=3", id="diag-negative"),
            pytest.param(lambda b: b.add_diag(3, 5.0), "index 3 is out of range for n=3", id="diag-past-n"),
            pytest.param(lambda b: b.add_diag([0, 2, 7], 5.0), "index 7 is out of range", id="diag-batch"),
            pytest.param(lambda b: b.add_diag(1.0, 5.0), "index 1.0 is not an integer", id="diag-float"),
            pytest.param(lambda b: b.add_diag(True, 5.0), "index True is not an integer", id="diag-bool"),
            pytest.param(
                lambda b: b.add_squared({0.5: 1.0, 2: 1.0}, 0.0, 1.0), "index 0.5 is not an integer", id="squared-float"
            ),
            pytest.param(
                lambda b: b.add_squared({2: 1.0, 4: 0.0}, 0.0, 1.0), "index 4 is out of range", id="squared-range"
            ),
            pytest.param(lambda b: b.add_pairs([0.7], [1.2], 1.0), "index 0.7 is not an integer", id="pairs-float"),
            pytest.param(lambda b: b.add_pairs([0, 1], [2, 1.5], 1.0), "index 1.5 is not an integer", id="pairs-mixed"),
            pytest.param(lambda b: b.add_pair(False, 2, 1.0), "index False is not an integer", id="pair-bool"),
            # numpy reads [True, 2] as the ints [1, 2]
            pytest.param(lambda b: b.add_pairs([True, 2], [2, 0], 1.0), "index True is not an integer", id="pairs-bool-int"),
        ],
    )
    def test_bad_index_is_rejected_by_name(self, add, message):
        builder = QuboBuilder(3)
        with pytest.raises(ValueError, match=re.escape(message)):
            add(builder)
        assert builder.build() == QuboMatrix(3, [0.0] * 3, {})  # nothing was added

    def test_empty_batches_are_allowed(self):
        builder = QuboBuilder(3)
        builder.add_diag([], 1.0)
        builder.add_pairs([], [], 1.0)
        builder.add_pairs(np.array([]), np.array([]), 1.0)  # float64, as np.array([]) is
        builder.add_squared({}, 2.0, 1.0)
        assert builder.build() == QuboMatrix(3, [0.0] * 3, {}, 4.0)


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
