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

from .errors import OverflowSaturationError

# exp() overflows float64 just above this argument
MAX_EXP_ARG = math.log(sys.float_info.max)  # ~709.78


def is_exact(x) -> bool:
    """True when x participates in rational arithmetic without rounding."""
    return isinstance(x, (int, Fraction))


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
    return math.fsum(float(t) for t in terms)


def log_factorial(n: int) -> float:
    return math.lgamma(n + 1)


def pascal_row(n: int) -> list[int]:
    """Row n of Pascal's triangle as exact integers: [C(n,0) .. C(n,n)]."""
    if n < 0:
        raise ValueError("pascal_row needs n >= 0")
    row = [1]
    for j in range(n):
        row.append(row[-1] * (n - j) // (j + 1))
    return row


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
        for j in range(1, c + 1):
            seen += 1
            out = out * seen // j
    return out


def format_real(x) -> str:
    """Deterministic 17-significant-digit rendering used by the CLI."""
    if isinstance(x, Fraction):
        x = float(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return f"{float(x):.17g}"
