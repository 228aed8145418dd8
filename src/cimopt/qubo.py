"""Core QUBO and Ising value types.

Energy evaluation, squared-penalty assembly, convention-tagged conversion
between the binary and spin pictures, signed 8-bit quantization, and
coefficient diagnostics. All model types are immutable values over one
array representation; all operations are pure functions over those arrays,
and every energy comes from one batched kernel, ``batch_energy``.
"""

from __future__ import annotations

import enum
import math
from collections.abc import ItemsView, Mapping, ValuesView
from dataclasses import FrozenInstanceError, asdict, dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import DegenerateMatrixError, DimensionError, require_finite, require_int, require_type

__all__ = [
    "IsingConvention",
    "QuboMatrix",
    "QuboBuilder",
    "IsingModel",
    "QuantizedQubo",
    "QuantizationReport",
    "CoefficientStats",
    "batch_energy",
    "qubo_energy",
    "add_squared_penalty",
    "qubo_to_ising",
    "ising_energy",
    "flip_convention",
    "quantize_int8",
    "coefficient_stats",
    "bits_to_spins",
    "spins_to_bits",
    "qubo_to_doc",
    "qubo_from_doc",
    "ising_to_doc",
    "ising_from_doc",
    "quantized_to_doc",
]

INT8_MIN = -128
INT8_MAX = 127


class IsingConvention(enum.Enum):
    """Sign convention of a spin Hamiltonian.

    POSITIVE_SUM:  E(s) = sum_i h_i s_i + sum_{i<j} J_ij s_i s_j + offset
    NEGATED_SUM:   E(s) = -sum_{i<j} J_ij s_i s_j - sum_i h_i s_i + offset

    Flipping the convention negates h and J and leaves every energy
    unchanged. The tag exists so exports to annealer-style solvers, which
    expect the negated form, cannot silently invert the energy landscape.
    """

    POSITIVE_SUM = "positive_sum"
    NEGATED_SUM = "negated_sum"


class _Pairs(NamedTuple):  # COO pair arrays: how a model is built without a dict
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray


class _ValidPairs(_Pairs):
    """Pairs whose indices are known to be upper-triangular, sorted and
    unique for the model's n: a validated model's own arrays, a subset of
    them, or ``QuboBuilder.build``'s. ``_store`` holds them without checking
    the indices again; it still checks that the values are finite."""

    __slots__ = ()


def _frozen(values, dtype) -> np.ndarray:
    """A read-only array of ``dtype``, copied unless it is one already.

    Raises ValueError for bools, strings and a value ``dtype`` cannot hold,
    such as a JSON integer too large for a float. A mixed list such as
    ``[True, 2.0]`` is float to numpy; the document readers reject it.
    """
    a = np.asarray(values)
    if a.dtype.kind in "bSU":
        raise ValueError(f"coefficients must be numbers, got {'bools' if a.dtype.kind == 'b' else 'strings'}")
    if a.dtype != dtype or a.flags.writeable:
        try:
            a = a.astype(dtype)
        except OverflowError as exc:
            raise ValueError(f"value out of range for {np.dtype(dtype)}: {exc}") from None
    a.flags.writeable = False
    return a


def _first(mask: np.ndarray) -> int | None:
    """Index of the first True entry of a flat mask, or None."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


class _Terms:
    """The one frozen array form behind every model type (see QuboMatrix)."""

    __slots__ = ("n", "lin", "rows", "cols", "vals")
    _NAMES = ("diag", "upper")  # public names of lin and of the pairs
    _SCALARS: tuple[str, ...] = ()  # further fields compared by ==

    def _store(self, n, lin, pairs: Mapping, dtype=np.float64, **scalars) -> None:
        """Validate once, by vectorized checks, and freeze the arrays.

        An array already read-only and of its dtype is held, not copied.
        The checks make boolean temporaries only; pairs out of order are
        sorted by an int64 key ``rows * n + cols``, made only then. The
        index checks and the sort are skipped for ``_ValidPairs``.
        """
        lin_name, pair_name = self._NAMES
        n = require_int(n, "n", 1)
        if (lin := _frozen(lin, dtype)).shape != (n,):
            raise DimensionError(f"{lin_name} has {lin.size} entries for n={n}")
        if not isinstance(pairs, _Pairs):
            ij = np.array(list(pairs)) if pairs else np.empty((0, 2), dtype=np.intp)
            if ij.dtype.kind not in "iu" or ij.shape != (len(pairs), 2):
                raise ValueError(f"{pair_name} keys must be integer pairs (i, j)")
            pairs = _Pairs(ij[:, 0], ij[:, 1], list(pairs.values()))
        valid = isinstance(pairs, _ValidPairs)
        rows, cols, vals = _frozen(pairs.rows, np.intp), _frozen(pairs.cols, np.intp), _frozen(pairs.vals, dtype)
        if (i := _first(~np.isfinite(lin))) is not None:
            raise ValueError(f"{lin_name}[{i}] is not finite: {lin[i]}")
        if not valid and (k := _first((rows < 0) | (rows >= cols) | (cols >= n))) is not None:
            raise ValueError(f"{pair_name} key ({rows[k]}, {cols[k]}) is not an upper-triangular pair for n={n}")
        if (k := _first(~np.isfinite(vals))) is not None:
            raise ValueError(f"{pair_name} coefficient at ({rows[k]}, {cols[k]}) is not finite: {vals[k]}")
        if not valid and not np.all((rows[1:] > rows[:-1]) | ((rows[1:] == rows[:-1]) & (cols[1:] > cols[:-1]))):
            order = np.argsort(key := rows * n + cols, kind="stable")
            rows, cols, vals, key = rows[order], cols[order], vals[order], key[order]
            if (k := _first(key[1:] == key[:-1])) is not None:
                raise ValueError(f"{pair_name} repeats pair ({rows[k]}, {cols[k]})")
            rows.flags.writeable = cols.flags.writeable = vals.flags.writeable = False
        for name, value in dict(n=n, lin=lin, rows=rows, cols=cols, vals=vals, **scalars).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} is not finite: {value!r}")
            object.__setattr__(self, name, value)

    def _tuple(self) -> tuple:
        return tuple(self.lin.tolist())

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        fields = ("n", "lin", "rows", "cols", "vals") + self._SCALARS
        return all(np.array_equal(getattr(self, f), getattr(other, f)) for f in fields)

    def __reduce__(self):  # pickle and copy rebuild through the constructor
        scalars = tuple(getattr(self, f) for f in self._SCALARS)
        return type(self), (self.n, self.lin, _Pairs(self.rows, self.cols, self.vals)) + scalars

    def __repr__(self) -> str:
        scalars = "".join(f", {f}={getattr(self, f)!r}" for f in self._SCALARS)
        return f"{type(self).__name__}(n={self.n}, pairs={self.vals.size}{scalars})"


_CHUNK = 4096  # pairs converted to Python objects per step of an iteration


def _as_int(x) -> int | None:
    """The int that x equals, as a dict compares keys (so 1.0 and True find 1), or None."""
    try:
        i = int(x)
    except (TypeError, ValueError, OverflowError):
        return None
    return i if i == x else None


class _PairView(Mapping):
    """Read-only (i, j) -> value view of a model's pairs, equal to the matching dict.

    It holds the model and copies nothing: ``len`` is constant-time, a
    lookup binary-searches ``rows`` for row i and then ``cols`` within that
    row, and the view and its ``keys()``, ``values()`` and ``items()``
    iterate in stored (i, j) order, ``_CHUNK`` pairs at a time. Keys and
    values come back as Python ints and floats (ints for QuantizedQubo).
    """

    __slots__ = ("_m",)

    def __init__(self, model: _Terms):
        self._m = model

    def __len__(self) -> int:
        return self._m.vals.size

    def _find(self, key) -> int | None:
        """Index of key's pair in the arrays, or None."""
        hash(key)  # an unhashable key raises TypeError, as in a dict
        if not (isinstance(key, tuple) and len(key) == 2):
            return None
        i, j = map(_as_int, key)
        m = self._m
        if i is None or j is None or not 0 <= i < j < m.n:
            return None
        lo, hi = m.rows.searchsorted([i, i + 1]).tolist()  # row i's range
        k = lo + int(m.cols[lo:hi].searchsorted(j))
        return k if k < hi and m.cols[k] == j else None

    def __getitem__(self, key):
        if (k := self._find(key)) is None:
            raise KeyError(key)
        return self._m.vals[k].item()

    def _chunks(self, *arrays) -> Iterator[list]:
        for start in range(0, self._m.vals.size, _CHUNK):
            yield [a[start : start + _CHUNK].tolist() for a in arrays]

    def __iter__(self) -> Iterator[tuple[int, int]]:
        for rows, cols in self._chunks(self._m.rows, self._m.cols):
            yield from zip(rows, cols)

    def values(self) -> ValuesView:
        return _PairValues(self)

    def items(self) -> ItemsView:
        return _PairItems(self)

    def __repr__(self) -> str:
        return f"<pairs of {self._m!r}>"


class _PairValues(ValuesView):
    __slots__ = ()

    def __iter__(self):
        for (vals,) in self._mapping._chunks(self._mapping._m.vals):
            yield from vals


class _PairItems(ItemsView):
    __slots__ = ()

    def __iter__(self):
        m = self._mapping._m
        for rows, cols, vals in self._mapping._chunks(m.rows, m.cols, m.vals):
            yield from zip(zip(rows, cols), vals)

    def __contains__(self, item) -> bool:
        # a dict's items view answers False, not TypeError, for a non-pair
        return isinstance(item, tuple) and len(item) == 2 and super().__contains__(item)


class QuboMatrix(_Terms):
    """Upper-triangular quadratic form over n binary variables.

    ``diag[i]`` is the linear coefficient of x_i, ``upper[(i, j)]`` with
    i < j the coefficient of x_i*x_j, and ``offset`` a constant added to
    every energy; an absent pair means 0.

    Storage is read-only arrays, validated once at construction: float64
    ``lin`` holds the diagonal and ``rows``/``cols``/``vals`` are coalesced
    COO arrays of the stored pairs (rows < cols, sorted, no repeats).
    ``diag`` is a tuple built from ``lin`` on each access. ``upper`` is a
    read-only Mapping over the pair arrays that copies nothing and compares
    equal to the matching dict: ``len`` in constant time, lookup by binary
    search, iteration in fixed-size chunks.
    """

    __slots__ = ("offset",)
    _SCALARS = ("offset",)
    diag = property(_Terms._tuple)
    upper = property(_PairView)

    def __init__(self, n: int, diag: Sequence[float], upper: Mapping, offset: float = 0.0):
        self._store(n, diag, upper, offset=float(_frozen(offset, np.float64)))

    def coefficients(self) -> Iterator[float]:
        """All stored coefficients, diagonal first. The offset is not one."""
        return iter(self.lin.tolist() + self.vals.tolist())


class IsingModel(_Terms):
    """Spin Hamiltonian with local fields h, couplings J, and a sign tag.

    Stored like QuboMatrix: ``lin`` holds h and the ``rows``/``cols``/
    ``vals`` arrays the couplings; ``h`` is a tuple and ``J`` the same
    array-backed Mapping view as ``QuboMatrix.upper``. ``convention`` says
    how an energy reads the arrays.
    """

    __slots__ = ("offset", "convention")
    _NAMES = ("h", "J")
    _SCALARS = ("offset", "convention")
    h = property(_Terms._tuple)
    J = property(_PairView)

    def __init__(self, n: int, h: Sequence[float], J: Mapping, offset: float = 0.0,
                 convention: IsingConvention = IsingConvention.POSITIVE_SUM):
        self._store(n, h, J, offset=float(_frozen(offset, np.float64)), convention=IsingConvention(convention))


@dataclass(frozen=True)
class QuantizationReport:
    """What signed 8-bit rounding did to a coefficient matrix.

    ``zeroed_fraction`` counts only originally nonzero coefficients that
    rounded to integer 0; those lose all constraint information.
    """

    zeroed_fraction: float
    dynamic_range_orders: float
    max_abs_original: float

    def to_doc(self) -> dict:
        return asdict(self)


class QuantizedQubo(_Terms):
    """Integer coefficient matrix in [-128, 127] plus its scale.

    ``original ~= integer / scale`` up to rounding. The offset of the source
    matrix is intentionally not quantized; solvers rank by relative energy.
    Stored like QuboMatrix, in int64 arrays; ``int_diag`` is a tuple and
    ``int_upper`` the array-backed Mapping view of ``QuboMatrix.upper``,
    with int values. ``scale`` is a finite int or float > 0, stored as a float.
    """

    __slots__ = ("scale", "report")
    _NAMES = ("int_diag", "int_upper")
    _SCALARS = ("scale", "report")
    int_diag = property(_Terms._tuple)
    int_upper = property(_PairView)

    def __init__(self, n: int, int_diag, int_upper: Mapping, scale: float, report: QuantizationReport):
        if not (scale := require_finite(scale, "scale")) > 0:
            raise ValueError(f"scale must be positive, got {scale!r}")
        self._store(n, int_diag, int_upper, np.int64, scale=scale, report=report)
        for values in (self.lin, self.vals):
            if values.min(initial=INT8_MIN) < INT8_MIN or values.max(initial=INT8_MAX) > INT8_MAX:  # no masks
                k = _first((values < INT8_MIN) | (values > INT8_MAX))
                raise ValueError(f"quantized value {values[k]} outside [{INT8_MIN}, {INT8_MAX}]")

    def to_matrix(self) -> QuboMatrix:
        """The integer coefficients as a QuboMatrix with zero offset.

        Pairs that rounded to 0 are dropped; when there are none, the
        matrix shares this one's read-only index arrays.
        """
        pairs = _ValidPairs(self.rows, self.cols, self.vals)
        if not (keep := self.vals != 0).all():
            pairs = _ValidPairs(self.rows[keep], self.cols[keep], self.vals[keep])
        return QuboMatrix(self.n, self.lin, pairs)


@dataclass(frozen=True)
class CoefficientStats:
    max_abs: float
    min_nonzero_abs: float
    dynamic_range_orders: float
    near_zero_fraction: float
    threshold: float


def _indices(index, n: int | None = None) -> np.ndarray:
    """``index``, an int or an array-like of ints, as an intp array.

    A float or bool entry, or given ``n`` one outside [0, n), raises
    ValueError naming it; an empty batch passes. Anything but an integer
    array is checked entry by entry, since numpy reads ``[True, 2]`` as ints.
    """
    idx = np.asarray(index)
    if idx.size and not (isinstance(index, np.ndarray) and idx.dtype.kind in "iu"):
        for v in np.ravel(np.array(index, dtype=object)).tolist():
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise ValueError(f"index {v!r} is not an integer")
    if n is not None and (k := _first((idx < 0) | (idx >= n))) is not None:
        raise ValueError(f"index {idx.flat[k]} is out of range for n={n}")
    return idx.astype(np.intp, copy=False)


class QuboBuilder:
    """Mutable accumulator for assembling a QuboMatrix.

    Terms are appended to arrays, singly or in batches, and coalesced once
    by ``build()``: contributions to one pair add up in the order they were
    made, as in a dict, and pairs that cancel to zero are dropped. Terms
    that overflow float range raise no warning; ``build()`` refuses the
    infinite or NaN coefficients they leave (ValueError). ``n`` is
    an int >= 1. Every index must be an int (ValueError for a float or a
    bool); a variable index outside [0, n) raises when it is added, a pair
    out of range when ``build()`` checks it.
    """

    def __init__(self, n: int):
        self.n = require_int(n, "n", 1)
        self._diag = np.zeros(n)
        self._pairs: list[_Pairs] = []
        self._offset = 0.0

    def add_offset(self, value: float) -> None:
        self._offset += value

    def add_diag(self, i, value) -> None:
        """Add value to the coefficient of x_i; i and value may be arrays."""
        with np.errstate(over="ignore", invalid="ignore"):
            np.add.at(self._diag, _indices(i, self.n), value)

    def add_pair(self, i: int, j: int, value: float) -> None:
        self.add_pairs([i], [j], value)

    def add_pairs(self, rows, cols, values) -> None:
        """Add values[k] (or one value for all k) to the x_rows[k] * x_cols[k] coefficient."""
        rows, cols = _indices(rows), _indices(cols)
        if (k := _first(rows == cols)) is not None:
            raise ValueError(f"pair ({rows[k]}, {cols[k]}) is not off-diagonal")
        self._pairs.append(_Pairs(rows, cols, np.broadcast_to(np.asarray(values, dtype=np.float64), rows.shape)))

    def add_squared(self, coeffs: Mapping[int, float], constant: float, weight: float) -> None:
        """Add weight * (sum_i coeffs[i] x_i + constant)^2.

        The expansion folds x_i^2 = x_i onto the diagonal and absorbs
        weight * constant^2 into the offset.
        """
        idx = _indices(list(coeffs), self.n)
        c = np.fromiter(coeffs.values(), dtype=np.float64, count=len(coeffs))
        idx, c = idx[c != 0.0], c[c != 0.0]
        a, b = np.triu_indices(idx.size, 1)
        with np.errstate(over="ignore", invalid="ignore"):
            self.add_diag(idx, weight * c * (c + 2.0 * constant))
            self.add_pairs(idx[a], idx[b], 2.0 * weight * c[a] * c[b])
        self._offset += weight * constant * constant

    def build(self) -> QuboMatrix:
        """The accumulated terms as a QuboMatrix; the builder stays usable.

        Each batch is range-checked, then keyed as ``min * n + max`` into
        one int64 array, and its values are copied into one float64 array.
        One stable argsort of the keys lines up each pair's contributions in
        insertion order; the keys and the values are gathered by it, and each
        pair's contributions are summed in that order. Besides the builder's
        batches, it holds at most four pair-sized arrays at once: the keys,
        the values, the sort order and one gathered array. The result's
        arrays are read-only and valid, so the QuboMatrix holds them as they
        are and checks only that the sums are finite.
        """
        n, size = self.n, sum(batch.rows.size for batch in self._pairs)
        key, vals = np.empty(size, np.int64), np.empty(size)
        stop = 0
        for rows, cols, values in self._pairs:
            start, stop = stop, stop + rows.size
            lo = np.minimum(rows, cols, out=key[start:stop])
            if rows.size and (lo.min() < 0 or rows.max() >= n or cols.max() >= n):  # reductions, no masks
                k = _first((lo < 0) | (rows >= n) | (cols >= n))
                raise ValueError(f"pair ({rows[k]}, {cols[k]}) is out of range for n={n}")
            lo *= n - 1  # min * n + max, as min * (n - 1) + rows + cols: no array for max
            lo += rows
            lo += cols
            vals[start:stop] = values
        order = np.argsort(key, kind="stable")
        key = key.take(order)
        vals = vals.take(order)
        del order
        first = np.empty(size, bool)  # the first of each key's contributions
        first[:1] = True
        np.not_equal(key[1:], key[:-1], out=first[1:])
        if not first.all():
            summed = vals[first]
            # a repeat at sorted position p adds, in insertion order, to sum p - (repeats up to p)
            repeats = np.flatnonzero(~first)
            with np.errstate(over="ignore", invalid="ignore"):  # QuboMatrix refuses what is not finite
                np.add.at(summed, repeats - np.arange(1, repeats.size + 1), vals[repeats])
            key, vals = key[first], summed
        del first
        if not (keep := vals != 0.0).all():  # pairs that cancel to zero are dropped
            key, vals = key[keep], vals[keep]
        rows = key // n
        key -= rows * n  # the cols, key % n without a second division
        rows.flags.writeable = key.flags.writeable = vals.flags.writeable = False
        return QuboMatrix(n, self._diag, _ValidPairs(rows, key, vals), self._offset)


_ENERGY_ROWS = 16  # states whose entries batch_energy packs into one uint16 per variable


def batch_energy(model: QuboMatrix | IsingModel, states) -> np.ndarray:
    """Energies of the rows of a (k, n) matrix: bits for a QUBO, spins for an Ising model.

    The one energy kernel; ``qubo_energy`` and ``ising_energy`` are its
    k = 1 case. Each row's energy is ``(lin * row).sum() + (p * vals).sum()``
    with p = row[rows] * row[cols], numpy's own sums of the same arrays
    whatever the batch or the BLAS threading, so an energy never depends on
    the batch. As the entries of a row are all 0 or 1, or all +-1, p * vals
    is bit for bit (vals * row[rows]) * row[cols], signed zeros included.

    For up to ``_ENERGY_ROWS`` rows at a time, bit r of ``masks[i]`` holds
    whether entry i of row r is 1. One pass over the pair indices gathers
    both ends' masks, and their AND (bits) or XOR (spins) holds, in bit r,
    whether row r's product is 1 (bits) or -1 (spins). Each row then takes
    its bit into a float64 row of terms. Besides that row, it makes two
    uint16 arrays over the pairs.
    """
    x = np.asarray(states, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.n:
        raise DimensionError(f"states of shape {x.shape} do not match n={model.n}")
    ising = isinstance(model, IsingModel)
    low, what = (-1.0, "spin") if ising else (0.0, "bit")
    if (k := _first((x != low) & (x != 1.0))) is not None:
        r, i = divmod(k, model.n)
        raise ValueError(f"{what} {i} of state {r} is {x[r, i]:g}, expected {low:g} or 1")
    out, terms = np.empty(len(x)), np.empty(model.vals.size)
    for start in range(0, len(x), _ENERGY_ROWS):
        block = x[start : start + _ENERGY_ROWS]
        masks = (block == 1.0).T @ (np.uint16(1) << np.arange(len(block), dtype=np.uint16))
        pair, bit = masks.take(model.rows), masks.take(model.cols)
        (np.bitwise_xor if ising else np.bitwise_and)(pair, bit, out=pair)
        for r, row in enumerate(block):
            np.right_shift(pair, r, out=bit)
            np.bitwise_and(bit, 1, out=bit)
            np.copyto(terms, bit)
            if ising:  # p = 1 - 2 * bit
                terms *= -2.0
                terms += 1.0
            terms *= model.vals
            out[start + r] = (model.lin * row).sum() + terms.sum()
    return (-out if getattr(model, "convention", None) is IsingConvention.NEGATED_SUM else out) + model.offset


def qubo_energy(q: QuboMatrix, x: Sequence[int]) -> float:
    """Evaluate sum_i Q_ii x_i + sum_{i<j} Q_ij x_i x_j + offset (DimensionError if len(x) != n)."""
    if len(x) != q.n:
        raise DimensionError(f"assignment has {len(x)} entries for n={q.n}")
    return float(batch_energy(q, [x])[0])


def add_squared_penalty(q: QuboMatrix, coeffs: Sequence[float], constant: float, weight: float) -> QuboMatrix:
    """Return q plus the penalty weight * (sum_i coeffs[i] x_i + constant)^2.

    weight must be a finite int or float > 0; penalties never reward violations.
    """
    if len(coeffs) != q.n:
        raise DimensionError(f"coeffs has {len(coeffs)} entries for n={q.n}")
    if not (weight := require_finite(weight, "penalty weight")) > 0:
        raise ValueError(f"penalty weight must be positive, got {weight!r}")
    builder = QuboBuilder(q.n)
    builder.add_diag(np.arange(q.n), q.lin)
    builder.add_pairs(q.rows, q.cols, q.vals)
    builder.add_offset(q.offset)
    builder.add_squared(dict(enumerate(coeffs)), constant, weight)
    return builder.build()


def qubo_to_ising(q: QuboMatrix, convention: IsingConvention = IsingConvention.POSITIVE_SUM) -> IsingModel:
    """Map the binary form to spins via x_i = (s_i + 1) / 2.

    Under POSITIVE_SUM the substitution gives

        h_i = Q_ii / 2 + (1/4) sum_{j != i} Q_ij
        J_ij = Q_ij / 4
        offset' = offset + sum_i Q_ii / 2 + (1/4) sum_{i<j} Q_ij

    and qubo_energy(q, x) == ising_energy(result, 2x - 1) for every x, up
    to floating round-off. NEGATED_SUM negates h and J on top, preserving
    all energies. The result shares q's pair index arrays.
    """
    quarter = q.vals / 4.0
    with np.errstate(over="ignore"):  # a sum past float range is rejected below as not finite
        h = q.lin / 2.0 + np.bincount(q.rows, quarter, q.n) + np.bincount(q.cols, quarter, q.n)
        offset = q.offset + float(q.lin.sum()) / 2.0 + float(quarter.sum())
    if convention is IsingConvention.NEGATED_SUM:
        h, quarter = -h, -quarter
    quarter.flags.writeable = False  # so the model holds it without a copy
    return IsingModel(q.n, h, _ValidPairs(q.rows, q.cols, quarter), offset, convention)


def ising_energy(m: IsingModel, s: Sequence[int]) -> float:
    """Evaluate the spin Hamiltonian under the model's convention tag."""
    if len(s) != m.n:
        raise DimensionError(f"spin vector has {len(s)} entries for n={m.n}")
    return float(batch_energy(m, [s])[0])


def flip_convention(m: IsingModel) -> IsingModel:
    """Re-express the model in the other convention; energies are unchanged."""
    positive = m.convention is IsingConvention.POSITIVE_SUM
    other = IsingConvention.NEGATED_SUM if positive else IsingConvention.POSITIVE_SUM
    return IsingModel(m.n, -m.lin, _ValidPairs(m.rows, m.cols, -m.vals), m.offset, other)


def _round_to_int8(values: np.ndarray) -> np.ndarray:
    """values rounded half away from zero, so symmetric +/- coefficients
    quantize symmetrically, clamped to int8 and returned as int64.

    values is overwritten. Rounding is sign-symmetric, so -floor(|x| + 0.5)
    is bit for bit ceil(x - 0.5) for x < 0.
    """
    negative = values < 0
    np.abs(values, out=values)
    values += 0.5
    np.floor(values, out=values)
    np.negative(values, out=values, where=negative)
    np.clip(values, INT8_MIN, INT8_MAX, out=values)
    return values.astype(np.int64)


def quantize_int8(q: QuboMatrix) -> QuantizedQubo:
    """Linearly scale coefficients into signed 8-bit integers.

    scale = 127 / max|coefficient|; each coefficient maps to
    clamp(round_half_away_from_zero(c * scale), -128, 127). The offset is
    carried outside the integer matrix. Raises DegenerateMatrixError when
    every coefficient is zero (the scale is undefined).

    Besides its int64 result, which the QuantizedQubo holds without a copy
    and shares q's index arrays with, it holds one float64 copy of the
    coefficients, scaled and rounded in place; their magnitudes, for the
    statistics, are freed before the rounding.
    """
    values = np.concatenate([q.lin, q.vals])
    stats = _magnitude_stats(np.abs(values))
    if stats.max_abs == 0.0:
        raise DegenerateMatrixError("all coefficients are zero; quantization scale is undefined")
    scale = INT8_MAX / stats.max_abs
    if not math.isfinite(scale):
        raise DegenerateMatrixError(f"coefficients are too small to quantize (largest magnitude {stats.max_abs!r})")
    nonzero = int(np.count_nonzero(values))
    values *= scale
    ints = _round_to_int8(values)
    ints.flags.writeable = False
    zeroed = (nonzero - int(np.count_nonzero(ints))) / nonzero  # only a nonzero coefficient rounds to nonzero
    report = QuantizationReport(zeroed, stats.dynamic_range_orders, stats.max_abs)
    return QuantizedQubo(q.n, ints[: q.n], _ValidPairs(q.rows, q.cols, ints[q.n :]), scale, report)


def coefficient_stats(q: QuboMatrix, near_zero_threshold: float = 1e-4) -> CoefficientStats:
    """Magnitude statistics over all stored coefficients.

    ``near_zero_fraction`` counts coefficients with |c| <= threshold *
    max|c|, so it is a statement about the max-abs-normalized matrix.
    """
    mags = np.concatenate([q.lin, q.vals])
    return _magnitude_stats(np.abs(mags, out=mags), near_zero_threshold)


def _magnitude_stats(mags: np.ndarray, near_zero_threshold: float = 1e-4) -> CoefficientStats:
    """``coefficient_stats`` of the coefficients' magnitudes ``mags``."""
    max_abs = float(mags.max())
    if max_abs == 0.0:
        return CoefficientStats(0.0, 0.0, 0.0, 1.0, near_zero_threshold)
    min_nonzero = float(np.min(mags, initial=np.inf, where=mags != 0.0))
    near = int(np.count_nonzero(mags <= near_zero_threshold * max_abs))
    return CoefficientStats(max_abs, min_nonzero, math.log10(max_abs / min_nonzero), near / mags.size, near_zero_threshold)


def _checked(values: Iterable[int], low: int, what: str) -> list[int]:  # each value low or 1
    values = list(values)
    for i, v in enumerate(values):
        if v != low and v != 1:
            raise ValueError(f"{what} {i} is {v!r}, expected {low} or 1")
    return values


def bits_to_spins(x: Iterable[int]) -> tuple[int, ...]:
    """s_i = 2 x_i - 1."""
    return tuple(2 * b - 1 for b in _checked(x, 0, "bit"))


def spins_to_bits(s: Iterable[int]) -> tuple[int, ...]:
    """x_i = (s_i + 1) / 2."""
    return tuple((v + 1) // 2 for v in _checked(s, -1, "spin"))


# --- JSON documents -------------------------------------------------------
#
# QUBO and Ising share one document shape; "convention" is present only for
# Ising models. A quantized export replaces the real arrays with integers
# and adds "scale". Readers reject what they would otherwise have to coerce.


def _terms_to_doc(m: _Terms) -> dict:
    upper = zip(m.rows.tolist(), m.cols.tolist(), m.vals.tolist())
    return {"n": m.n, "diag": m.lin.tolist(), "upper": [list(t) for t in upper]}


def _terms_from_doc(doc: Mapping) -> tuple:
    """(n, diag, pairs, offset) of a QUBO or Ising document."""
    n, diag, offset, upper = doc["n"], doc["diag"], doc.get("offset", 0.0), doc.get("upper", [])
    if type(diag) is not list or type(upper) is not list:
        raise ValueError("diag and upper must be JSON arrays")
    if any(type(t) is not list or len(t) != 3 for t in upper):
        raise ValueError("upper entries must be [i, j, value] triples")
    rows, cols, vals = zip(*upper) if upper else ((), (), ())
    require_type([n, *rows, *cols], (int,), "n and pair indices")
    require_type([*diag, *vals, offset], (int, float), "coefficients and offset")
    return n, diag, _Pairs(np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp), vals), offset


def qubo_to_doc(q: QuboMatrix) -> dict:
    return {**_terms_to_doc(q), "offset": q.offset}


def qubo_from_doc(doc: Mapping) -> QuboMatrix:
    if not isinstance(doc, Mapping):
        raise ValueError(f"QUBO document must be a JSON object, got {type(doc).__name__}")
    try:
        fields = _terms_from_doc(doc)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed QUBO document: {exc}") from exc
    return QuboMatrix(*fields)


def ising_to_doc(m: IsingModel) -> dict:
    return {**_terms_to_doc(m), "offset": m.offset, "convention": m.convention.value}


def ising_from_doc(doc: Mapping) -> IsingModel:
    if not isinstance(doc, Mapping):
        raise ValueError(f"Ising document must be a JSON object, got {type(doc).__name__}")
    try:
        fields = _terms_from_doc(doc)
        convention = IsingConvention(doc["convention"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed Ising document: {exc}") from exc
    return IsingModel(*fields, convention)


def quantized_to_doc(qq: QuantizedQubo) -> dict:
    return {**_terms_to_doc(qq), "scale": qq.scale, "report": qq.report.to_doc()}
