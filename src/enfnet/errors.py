"""The package's one error for bad input, and the whole-number, real-number and seed rules.

The CLI exit contract: an InvalidArgumentError, raised for a bad argument,
config field or input file, exits 2; any other exception is a failure inside
a well-configured pipeline and exits 3. A seed is what numpy seeds a generator
from without truncating it: a whole number >= 0 or a non-empty list of them.
"""

import math
import numbers
import operator


class InvalidArgumentError(ValueError):
    """An argument, config field or input file violates a documented precondition."""


class QuorumError(InvalidArgumentError):
    """Transaction pool holds fewer entries than the scoring rule requires."""

    def __init__(self, n, required):
        super().__init__(f"insufficient quorum: pool has {n} entries, need >= {required}")
        self.n = n
        self.required = required


def _whole(value, name: str, low: int) -> int:
    """value as an int, if it is an integer (``operator.index``) >= low."""
    try:
        n = operator.index(value)
    except TypeError:
        n = None
    if n is None or n < low:
        raise InvalidArgumentError(f"{name} must be >= {low} and an integer, got {value!r}")
    return n


def _seed(value):
    """value as numpy seeds a generator from it: a whole number >= 0, as an int, or a
    non-empty list or tuple of them, as a list."""
    if isinstance(value, (list, tuple)) and value:
        return [_whole(v, "seed", 0) for v in value]
    return _whole(value, "seed", 0)


def _real(value, name: str, low: float, *, closed: bool = False):
    """value unchanged, if it is a finite real number (``numbers.Real``, numpy scalars
    included) > low, or >= low when closed; at low = -inf, any finite one."""
    try:
        ok = isinstance(value, numbers.Real) and math.isfinite(value)
    except OverflowError:  # an int beyond float64's range
        ok = False
    if not (ok and (value >= low if closed else value > low)):
        rule = "a finite number" if low == -math.inf else f"finite and >{'=' * closed} {low}"
        raise InvalidArgumentError(f"{name} must be {rule}, got {value!r}")
    return value
