"""Exception types and the input checks shared across the toolkit.

``require_type`` checks the scalars of a document, ``require_int`` a count
or bound and ``require_finite`` a finite real number; ``require_weights`` is
the one check of a weight map, for model weights and tuning weights alike.
"""

import math
from typing import Mapping, Sequence


class DimensionError(ValueError):
    """A vector, index, or matrix does not match the model it is used with."""


class DegenerateMatrixError(ValueError):
    """Operation is undefined on an all-zero coefficient matrix."""


class InfeasibleHorizonError(ValueError):
    """The scheduling horizon leaves at least one operation without a start window."""

    def __init__(self, message, job=None, op=None):
        super().__init__(message)
        self.job = job
        self.op = op


class BudgetExceededError(RuntimeError):
    """A search budget ran out before the result could be certified.

    ``incumbent`` holds the best value found so far (or None) and ``bound``
    the proven lower bound at the point of interruption.
    """

    def __init__(self, message, incumbent=None, bound=None):
        super().__init__(message)
        self.incumbent = incumbent
        self.bound = bound


class PolicyError(RuntimeError):
    """A decision policy produced unusable output or failed to respond.

    ``last_record`` carries the most recent completed iteration record, when
    the failure happened inside a tuning loop.
    """

    def __init__(self, message, last_record=None):
        super().__init__(message)
        self.last_record = last_record


def require_type(values, types: tuple[type, ...], what: str) -> list:
    """The values as a list, each of exactly one of ``types``.

    Document readers use this to reject malformed input instead of coercing
    it: types are matched exactly, so a JSON ``true`` is not the integer 1,
    and ``1.5`` or ``"3"`` is not an integer either.
    """
    values = list(values)
    if not {type(v) for v in values} <= set(types):
        bad = next(v for v in values if type(v) not in types)
        names = " or ".join(t.__name__ for t in types)
        raise ValueError(f"{what} must be {names}, got {bad!r}")
    return values


def require_int(value, what: str, low: int, high: int | None = None) -> int:
    """The value, after checking it is an int (never a bool) in [low, high],
    or >= low when ``high`` is None."""
    (value,) = require_type([value], (int,), what)
    if high is None and value < low:
        raise ValueError(f"{what} must be >= {low}, got {value}")
    if high is not None and not low <= value <= high:
        raise ValueError(f"{what} must be in [{low}, {high}], got {value}")
    return value


def require_finite(value, what: str) -> float:
    """The value as a float, after checking it is a finite int or float:
    never a bool or a string, an integer beyond float range, NaN or inf."""
    (value,) = require_type([value], (int, float), what)
    try:
        value = float(value)
    except OverflowError:  # a JSON integer too large for a float
        raise ValueError(f"{what} is out of range") from None
    if not math.isfinite(value):  # json reads NaN and Infinity
        raise ValueError(f"{what} must be finite, got {value}")
    return value


def require_weights(weights, names: Sequence[str] = (), positive: bool = True) -> dict[str, float]:
    """The weights as a dict of floats, after the one check of a weight map.

    Every name in ``names`` must be present, and every value must pass
    ``require_finite``: a finite int or float, never a ``bool``, a string, a
    numpy scalar or an integer beyond float range. Tuning weights
    (``positive``) must be > 0; model weights may be 0, so single
    Hamiltonian terms can be built and inspected.
    """
    if not isinstance(weights, Mapping):
        raise ValueError(f"weights must be an object, got {weights!r}")
    for name in names:
        if name not in weights:
            raise ValueError(f"weights are missing {name!r}")
    checked = {}
    for name, value in weights.items():
        value = require_finite(value, f"weight {name!r}")
        if value < 0 or (positive and value == 0):
            raise ValueError(f"{'non-positive' if positive else 'negative'} weight {name!r}: {value!r}")
        checked[name] = value
    return checked
