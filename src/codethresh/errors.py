"""Exception types shared across the package, and the two argument rules.

Three failure categories matter to callers (and map to distinct CLI exit
codes): malformed inputs, mathematically out-of-domain inputs, and
computations whose combinatorial cost would exceed a configured budget.
"""

import math
import numbers


class ValidationError(ValueError):
    """Input is structurally invalid (wrong shape, bad range, inconsistent)."""


class DomainError(ValidationError):
    """Input is outside the mathematical domain of the requested quantity."""


class BudgetError(RuntimeError):
    """The computation would exceed a configured size or work budget."""


def shown(x: object, form=repr) -> str:
    """form(x), with ints past the int-to-str digit limit, alone or in a list, as bit counts."""
    try:
        return form(x)
    except ValueError:
        big = type(x) is int
        return f"{'-' * (x < 0)}<{x.bit_length()}-bit int>" if big else f"[{', '.join(map(shown, x))}]"


def integer(x: object, name: str, lo: int, hi: float = math.inf, span: str = "") -> int:
    """x if it is a Python int, not a bool or a numpy integer, in lo..hi; span words the range."""
    if type(x) is not int or not lo <= x <= hi:
        raise ValidationError(f"{name} must be {span or f'an integer >= {lo}'}, got {shown(x)}")
    return x


def real(x: object, name: str, lo: float = -math.inf, hi: float = math.inf) -> float:
    """float(x) for a numbers.Real (not a bool) in [lo, hi]; with no range, NaN passes."""
    if type(x) is not float and (type(x) is bool or not isinstance(x, numbers.Real)):
        raise ValidationError(f"{name} must be a real number, got {shown(x)}")
    if not lo <= (x := float(x)) <= hi and (lo, hi) != (-math.inf, math.inf):
        raise ValidationError(f"{name} must lie in [{lo:g}, {hi:g}], got {x}")
    return x
