"""Small numeric helpers used across modules.

Exact-rational inputs stay exact; anything float degrades to compensated
float summation. Factorial-sized magnitudes are handled in log space via
lgamma so no integer factorial product is ever formed for bounds.
Integration is QUADPACK's global adaptive Gauss-Kronrod scheme in plain
Python, so fchi needs nothing beyond the standard library.
"""

from __future__ import annotations

import functools
import heapq
import math
import numbers
import sys
import warnings
from fractions import Fraction
from functools import reduce
from math import gcd
from operator import add, mul
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
    """value when it is a finite real number, bool excluded: an int, float,
    Fraction or any other numbers.Real.

    Anything else, NaN and +-inf included, raises InputError naming what.
    """
    if not isinstance(value, bool) and (
            isinstance(value, float) and math.isfinite(value)
            or isinstance(value, (int, Fraction))
            or isinstance(value, numbers.Real) and math.isfinite(value)):
        return value
    raise InputError(f"{what} must be a finite real number, got {value!r}")


def check_float(value, what: str) -> float:
    """float(check_real(value, what)); an exact value past float range
    raises InputError naming what."""
    try:
        return float(check_real(value, what))
    except OverflowError:
        raise InputError(f"{what} must lie within float range") from None


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


class _GaussKronrod:
    """A Gauss-Kronrod rule on [-1, 1] in QUADPACK's order.

    `pairs` holds (node, Kronrod weight, Gauss weight) for each positive
    node, the nodes of the embedded Gauss rule first; `centre` holds the
    two weights of the node 0, whose Gauss weight is 0 when the Gauss
    rule has an even number of nodes.  `nodes` lists the negative nodes,
    the positive ones and 0, and `weights` their Kronrod weights.
    """

    def __init__(self, pairs, centre):
        nodes = [x for x, _, _ in pairs]
        self.n = len(pairs)
        self.nodes = [-x for x in nodes] + nodes + [0.0]
        self.wk = [w for _, w, _ in pairs]
        self.wg = [w for _, _, w in pairs if w]
        self.ck, self.cg = centre
        self.weights = self.wk + self.wk + [self.ck]


# Piessens et al., QUADPACK (Springer, 1983): the 15-point rule of qk15
# around the 7-point Gauss rule, and the 21-point rule of qk21 around the
# 10-point Gauss rule
_QK15 = _GaussKronrod((
    (0.949107912342758524526189684047851, 0.063092092629978553290700663189204,
     0.129484966168869693270611432679082),
    (0.741531185599394439863864773280788, 0.140653259715525918745189590510238,
     0.279705391489276667901467771423780),
    (0.405845151377397166906606412076961, 0.190350578064785409913256402421014,
     0.381830050505118944950369775488975),
    (0.991455371120812639206854697526329, 0.022935322010529224963732008058970,
     0.0),
    (0.864864423359769072789712788640926, 0.104790010322250183839876322541518,
     0.0),
    (0.586087235467691130294144838258730, 0.169004726639267902826583426598550,
     0.0),
    (0.207784955007898467600689403773245, 0.204432940075298892414161999234649,
     0.0),
), (0.209482141084727828012999174891714, 0.417959183673469387755102040816327))

_QK21 = _GaussKronrod((
    (0.973906528517171720077964012084452, 0.032558162307964727478818972459390,
     0.066671344308688137593568809893332),
    (0.865063366688984510732096688423493, 0.075039674810919952767043140916190,
     0.149451349150580593145776339657697),
    (0.679409568299024406234327365114874, 0.109387158802297641899210590325805,
     0.219086362515982043995534934228163),
    (0.433395394129247190799265943165784, 0.134709217311473325928054001771707,
     0.269266719309996355091226921569469),
    (0.148874338981631210884826001129720, 0.147739104901338491374841515972068,
     0.295524224714752870173892994651338),
    (0.995657163025808080735527280689003, 0.011694638867371874278064396062192,
     0.0),
    (0.930157491355708226001207180059508, 0.054755896574351996031381300244580,
     0.0),
    (0.780817726586416897063717578345042, 0.093125454583697605535065465083366,
     0.0),
    (0.562757134668604683339000099272694, 0.123491976262065851077958109831074,
     0.0),
    (0.294392862701460198131126603103866, 0.142775938577060080797094273138717,
     0.0),
), (0.149445554002916905664936468389821, 0.0))

_EPS50 = 50.0 * sys.float_info.epsilon
_TINY_ABS = sys.float_info.min / _EPS50


def _gauss_kronrod(fn, a: float, b: float, rule: _GaussKronrod):
    """(value, error estimate) of one rule on [a, b], as QUADPACK's qk15
    and qk21 form them.

    The estimate scales |Kronrod - Gauss| by resasc, the rule's integral
    of |fn - mean|, and is never less than 50 machine epsilons times the
    rule's integral of |fn|.
    """
    centre = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fv = [fn(centre + half * x) for x in rule.nodes]
    fc = fv[-1]
    sums = list(map(add, fv[:rule.n], fv[rule.n:-1]))
    kronrod = reduce(add, map(mul, rule.wk, sums), rule.ck * fc)
    gauss = reduce(add, map(mul, rule.wg, sums), rule.cg * fc)
    mean = 0.5 * kronrod
    resabs = half * reduce(add, map(mul, rule.weights, map(abs, fv)))
    resasc = half * reduce(add, map(mul, rule.weights,
                                    [abs(f - mean) for f in fv]))
    err = abs((kronrod - gauss) * half)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, 200.0 * err / resasc) ** 1.5
    if resabs > _TINY_ABS:
        err = max(_EPS50 * resabs, err)
    return kronrod * half, err


def quad(fn, lo: float, hi: float, points=(), limit: int = 50,
         epsabs: float = 1.49e-8, epsrel: float = 1.49e-8):
    """(integral, error estimate) of fn over [lo, hi] by global adaptive
    Gauss-Kronrod quadrature, after QUADPACK's qagp and qagi.

    A finite range is split at the points inside it and each piece takes
    the 21-point rule.  hi = inf maps [lo, inf) onto (0, 1] by
    x = lo + (1 - t)/t and takes the 15-point rule.  The interval with
    the largest error estimate is bisected until the summed estimate is
    at most max(epsabs, epsrel |integral|), or until `limit` intervals
    exist, which warns with a RuntimeWarning naming the estimate.  A
    value or estimate that is not finite ends the loop at once.  Each
    step reads both totals as the math.fsum over the intervals.
    """
    if hi == math.inf:
        rule, edges = _QK15, (0.0, 1.0)
        integrand = lambda t: fn(lo + (1.0 - t) / t) / t / t
    else:
        rule, integrand = _QK21, fn
        edges = [lo, *sorted({p for p in points if lo < p < hi}), hi]
    heap = []
    for a, b in zip(edges, edges[1:]):
        value, err = _gauss_kronrod(integrand, a, b, rule)
        heap.append((-err, a, b, value))
    heapq.heapify(heap)
    while True:
        value, err = _total(heap, 3), -_total(heap, 0)
        if (not (math.isfinite(value) and math.isfinite(err))
                or err <= max(epsabs, epsrel * abs(value))):
            return value, err
        if len(heap) >= limit:
            warnings.warn(
                f"quadrature reached its limit of {limit} intervals with "
                f"error estimate {err:.3g}", RuntimeWarning, stacklevel=2)
            return value, err
        _, a, b, _ = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        v1, e1 = _gauss_kronrod(integrand, a, mid, rule)
        v2, e2 = _gauss_kronrod(integrand, mid, b, rule)
        heapq.heappush(heap, (-e1, a, mid, v1))
        heapq.heappush(heap, (-e2, mid, b, v2))


def _total(heap: list, at: int) -> float:
    """saturating_fsum of entry `at` over heap; NaN where +inf meets -inf."""
    try:
        return saturating_fsum([item[at] for item in heap], "quadrature")
    except OverflowSaturationError:
        return math.nan


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


# Fraction(n, d) for a coprime n and d > 0 without the normalising gcd:
# the private constructor of Python 3.12+, or the flag of 3.10-3.11
if hasattr(Fraction, "_from_coprime_ints"):
    coprime_fraction = Fraction._from_coprime_ints
else:
    try:
        Fraction(1, 1, _normalize=False)
        coprime_fraction = functools.partial(Fraction, _normalize=False)
    except TypeError:
        coprime_fraction = Fraction

# reduced_fraction's loop beats one gcd of num and den once den has this
# many times the bits of m: on the deep-orders chi values and kl and js
# partial sums (2-vCPU Xeon, Python 3.11) the two break even at 4-6 times,
# and the loop takes half the time or less past 20 times
_MODULUS_RATIO = 5


def reduced_fraction(num: int, den: int, m: int) -> Fraction:
    """Fraction(num, den), where m divides den > 0 and every prime of den
    divides m.

    A prime common to num and den divides g = gcd(num, m), which divides
    den.  Once g is divided out, every prime still common divides g, so
    each further step takes g = gcd(num, g^2), then g = gcd(den, g), and
    divides g out, until g is 1; squaring lets g catch up with a prime
    whose power in num and den passes its power in m.  Each gcd pairs num
    or den with m or with the square of a factor they share, so it costs
    about one reduction of num or den by a small number, where one gcd
    of num and den costs time quadratic in their size.  Below
    _MODULUS_RATIO that one gcd is cheaper, and the result is plain
    Fraction(num, den).
    """
    if den.bit_length() < _MODULUS_RATIO * m.bit_length():
        return Fraction(num, den)
    g = gcd(num, m)
    if g != 1:
        if not num:
            return Fraction(0)
        num //= g
        den //= g
        while (g := gcd(num, g * g)) != 1 and (g := gcd(den, g)) != 1:
            num //= g
            den //= g
    return coprime_fraction(num, den)


def log_factorial(n: int) -> float:
    return math.lgamma(n + 1)


_LOG_FACTORIALS = [0.0]


def log_factorials(n: int) -> list:
    """A list whose entry j is log_factorial(j), for j < n at least.

    One list serves every caller; it grows on demand and is never copied.
    """
    table = _LOG_FACTORIALS
    while len(table) < n:
        table.append(log_factorial(len(table)))
    return table


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
