"""Exception types and the input type check shared across the toolkit."""


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
