"""Small numeric helpers used across modules.

Exact-rational inputs stay exact; anything float degrades to compensated
float summation. Factorial-sized magnitudes are handled in log space via
lgamma so no integer factorial product is ever formed for bounds.  This
is the only module that knows about scipy, and it loads it lazily.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InputError, OverflowSaturationError

# exp() overflows float64 just above this argument
MAX_EXP_ARG = math.log(sys.float_info.max)  # ~709.78


def is_exact(x) -> bool:
    """True when x participates in rational arithmetic without rounding."""
    kind = type(x)
    if kind is float:
        # Fraction's ABC isinstance check is slow on a miss; floats are
        # the common miss in term loops
        return False
    return kind is int or kind is Fraction or isinstance(x, (int, Fraction))


def check_int(value, lo: int, what: str) -> int:
    """value when it is an int of at least lo, bool excluded; else InputError."""
    if isinstance(value, int) and not isinstance(value, bool) and value >= lo:
        return value
    raise InputError(f"{what} must be an integer of at least {lo}, got {value!r}")


def check_real(value, what: str):
    """value when it is a finite int, float or Fraction, bool excluded.

    Anything else, NaN and +-inf included, raises InputError naming what.
    """
    if isinstance(value, (int, float, Fraction)) and not isinstance(value, bool) \
            and (not isinstance(value, float) or math.isfinite(value)):
        return value
    raise InputError(f"{what} must be a finite real number, got {value!r}")


def to_float(x) -> float:
    """float(x), or a signed infinity where an exact x passes float range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def to_floats(values) -> list:
    """[to_float(x) for x in values], by plain float() unless one overflows."""
    try:
        return [float(x) for x in values]
    except OverflowError:
        return [to_float(x) for x in values]


def safe_exp(x: float) -> float:
    """math.exp that saturates to +inf instead of raising OverflowError."""
    return math.inf if x > MAX_EXP_ARG else math.exp(x)


def quad(fn, lo, hi, **kw):
    """scipy.integrate.quad, with scipy imported on the first call.

    Only the quadrature cross-checks integrate, so importing fchi and
    every closed-form or exact route never pays for loading scipy.
    """
    from scipy import integrate

    return integrate.quad(fn, lo, hi, **kw)


_RESCALE = 2.0 ** -600


def saturating_fsum(terms: Sequence[float], what: str) -> float:
    """math.fsum of floats whose total saturates instead of raising.

    A total beyond float range comes back as a signed infinity: the terms
    are rescaled by a power of two, which is exact, so the sign is never
    guessed.  Terms holding both +inf and -inf cannot be resolved and
    raise OverflowSaturationError.
    """
    try:
        return math.fsum(terms)
    except OverflowError:
        # finite terms whose partial sums pass the float range
        return math.fsum(t * _RESCALE for t in terms) / _RESCALE
    except ValueError:
        raise OverflowSaturationError(
            f"{what} holds both +inf and -inf terms; the result cannot be "
            f"represented"
        ) from None


def exact_or_fsum(terms: Sequence):
    """Sum a homogeneous term list: exact for rationals, fsum for floats."""
    if terms and all(is_exact(t) for t in terms):
        return sum(terms)
    return math.fsum(to_floats(terms))


def log_factorial(n: int) -> float:
    return math.lgamma(n + 1)


def compositions(total: int, parts: int) -> Iterable[tuple[int, ...]]:
    """All ordered tuples of `parts` nonnegative ints summing to `total`."""
    if parts <= 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in compositions(total - head, parts - 1):
            yield (head,) + tail


def multinomial(counts: Sequence[int]) -> int:
    """Exact multinomial coefficient (sum counts)! / prod(counts!)."""
    out = 1
    seen = 0
    for c in counts:
        seen += c
        out *= math.comb(seen, c)
    return out


def format_number(x, rational: bool = False) -> str:
    """num/den when rational is set and x is exact, else format_real."""
    if rational and is_exact(x):
        f = Fraction(x)
        return f"{f.numerator}/{f.denominator}"
    return format_real(x)


def format_real(x) -> str:
    """Deterministic 17-significant-digit rendering used by the CLI."""
    if isinstance(x, Fraction):
        x = to_float(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return f"{float(x):.17g}"
