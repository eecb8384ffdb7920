"""Semantic exception types shared across the package, and the two input
validators every constructor and entry point uses.

This is the bottom layer: it imports no sibling module.
"""

import math
import numbers
import operator


class VceoError(Exception):
    """Base error for this package."""


class InvalidParamsError(VceoError, ValueError):
    """Inputs violate a type contract (sign, finiteness, PSD, ordering)."""


class InfeasibleTargetsError(VceoError):
    """Distortion targets cannot be met by any scheme.

    ``constraint`` names the violated constraint for diagnostics.
    """

    def __init__(self, message: str, constraint: str = ""):
        super().__init__(message)
        self.constraint = constraint


class DegenerateConditioningError(VceoError):
    """Conditioning block is not PSD within tolerance; conditioning undefined."""


class InfiniteMutualInformationError(VceoError):
    """A deterministic dependence makes the requested mutual information infinite."""


class DomainError(VceoError, ValueError):
    """Argument lies outside the mathematical domain of the operation."""


class InternalContradictionError(VceoError):
    """A state the theory rules out was reached; indicates a bug upstream."""


class DegenerateRegressionError(VceoError):
    """Collinear conditioning columns make the least-squares fit ill-posed."""


class InstanceParseError(VceoError, ValueError):
    """Instance file is malformed; message carries the line/field diagnostic."""


def require_real(
    name: str, value, low: float = 0.0, strict: bool = False, allow_inf: bool = False
) -> float:
    """``value`` as a float: a real number (numpy scalars included, bools not),
    never NaN, finite unless ``allow_inf``, and ``>= low`` (``> low`` when ``strict``)."""
    try:
        # float and int first: the numbers.Real check alone is slow.
        if isinstance(value, bool) or not isinstance(value, (float, int, numbers.Real)):
            raise TypeError
        v = float(value)
    except (TypeError, OverflowError):
        v = math.nan
    if (v > low if strict else v >= low) and (allow_inf or math.isfinite(v)):
        return v
    kind = "number" if allow_inf else "finite number"
    op = ">" if strict else ">="
    raise InvalidParamsError(f"{name} must be a {kind} {op} {low:g}, got {value!r}")


def require_int(name: str, value, low: int, high: float = math.inf) -> int:
    """``value`` as an int in ``[low, high)``; bools and non-integers are rejected."""
    try:
        if isinstance(value, bool):
            raise TypeError
        index = operator.index(value)
    except TypeError:
        raise InvalidParamsError(f"{name} must be an integer, got {value!r}") from None
    if not low <= index < high:
        bound = f">= {low}" if high == math.inf else f"in [{low}, {_int_text(high)})"
        raise InvalidParamsError(f"{name} must be {bound}, got {value!r}")
    return index


def _int_text(n: int) -> str:
    """``n`` as a reader writes it: a power of two from 2**32 up as ``2**k``."""
    k = n.bit_length() - 1
    return f"2**{k}" if k >= 32 and n == 1 << k else str(n)
