"""Convex generators f and their Taylor data around u = 1.

An f-divergence is determined by a generator f through
``I_f(p:q) = integral p f(q/p)``.  Everything downstream of this module
needs three things from a generator: the Taylor coefficients
``c_i = f^(i)(1)/i!`` that weight the power chi terms, point evaluation
of f (including the u -> 0+ limit), and the sup of |f^(k+1)| over a
density-ratio interval [m, M] for certified remainder bounds.

Coefficients are exact `fractions.Fraction` values wherever the math is
rational: kl, rkl, jeffreys, js, harmonic, polynomial, and alpha with
(1+alpha)/2 an integer.  The exponential generator's e/i! stays float.
Derivative sups are computed in log space (lgamma), never through integer
factorial products, and +inf encodes "unbounded".
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence, Union

from ._num import (MAX_EXP_ARG, check_int, check_real, exact_or_fsum,
                   log_factorial, safe_exp)
from .errors import InputError

__all__ = [
    "Generator",
    "generalized_binomial",
    "kl",
    "reverse_kl",
    "jeffreys",
    "jensen_shannon",
    "harmonic",
    "exponential",
    "alpha_generator",
    "polynomial_generator",
    "catalog_coeff",
    "conjugate_coeffs",
    "conjugate_generator",
    "from_spec",
    "CATALOG",
]

Number = Union[int, float, Fraction]


def generalized_binomial(gamma: Number, i: int) -> Number:
    """Generalized binomial C(gamma, i) = gamma(gamma-1)...(gamma-i+1)/i!.

    Computed by the falling-factorial recurrence
    ``C(gamma, i) = C(gamma, i-1) * (gamma - i + 1) / i`` so no large
    factorial is ever formed.  When gamma is a nonnegative integer and
    i > gamma, a zero factor enters the product and the result is exactly
    0; no other case is zeroed.  Rational gamma gives an exact Fraction.
    """
    check_int(i, 0, "generalized_binomial order i")
    if isinstance(gamma, int):
        gamma = Fraction(gamma)
    out: Number = Fraction(1) if isinstance(gamma, Fraction) else 1.0
    for t in range(i):
        out = out * (gamma - t) / (t + 1)
    return out


@dataclass(frozen=True)
class Generator:
    """Immutable generator record.

    `f_at_one` and `fprime_at_one` are f(1) and f'(1); the linear Taylor
    term integrates to zero against probability densities, so expansions
    never use f'(1), but conjugation does.
    """

    name: str
    f_at_one: Number
    fprime_at_one: Number
    coeff_fn: Callable[[int], Number] = field(repr=False)
    eval_fn: Callable[[float], float] = field(repr=False)
    deriv_sup_fn: Callable[[int, float, float], float] = field(repr=False)

    def coeff(self, i: int) -> Number:
        """Taylor coefficient c_i = f^(i)(1)/i! for i >= 2."""
        return self.coeff_fn(check_int(i, 2, "coefficient order"))

    def eval(self, u: Number) -> float:
        """f(u) for u > 0; u = 0 returns the limit f(0+), possibly +inf."""
        if u < 0:
            raise ValueError(f"generator argument must be >= 0, got {u!r}")
        return self.eval_fn(u)

    def deriv_sup(self, k: int, m: float, M: float) -> float:
        """sup over u in [m, M] of |f^(k+1)(u)|; +inf means unbounded.

        [m, M] is a density-ratio interval, so 0 <= m <= 1 <= M is
        required.  Each catalog derivative is monotone on (0, inf), which
        makes the sup an endpoint evaluation.
        """
        check_int(k, 1, "deriv_sup order")
        if not (0 <= m <= 1 <= M):
            raise ValueError(f"need 0 <= m <= 1 <= M, got m={m!r}, M={M!r}")
        return self.deriv_sup_fn(k, m, M)


def _neg_power_sup(k_log_coeff: float, power: int, m: float) -> float:
    """sup of exp(k_log_coeff) * u^(-power) on [m, M], attained at u = m."""
    if m == 0.0:
        return math.inf
    return safe_exp(k_log_coeff - power * math.log(m))


# ---------------------------------------------------------------------------
# catalog


@functools.cache
def kl() -> Generator:
    """f(u) = -log u, the Kullback-Leibler generator; c_i = (-1)^i / i."""

    def ev(u):
        if u == 0:
            return math.inf
        return -math.log(u)

    def sup(k, m, M):
        # |f^(k+1)(u)| = k! u^-(k+1), decreasing
        return _neg_power_sup(log_factorial(k), k + 1, m)

    @functools.lru_cache(maxsize=None)
    def coeff(i):
        return Fraction((-1) ** i, i)

    return Generator("kl", 0, -1, coeff, ev, sup)


@functools.cache
def reverse_kl() -> Generator:
    """f(u) = u log u; c_i = (-1)^i / (i (i-1))."""

    def ev(u):
        if u == 0:
            return 0.0
        return u * math.log(u)

    def sup(k, m, M):
        # |f^(k+1)(u)| = (k-1)! u^-k
        return _neg_power_sup(log_factorial(k - 1), k, m)

    @functools.lru_cache(maxsize=None)
    def coeff(i):
        return Fraction((-1) ** i, i * (i - 1))

    return Generator("rkl", 0, 1, coeff, ev, sup)


@functools.cache
def jeffreys() -> Generator:
    """f(u) = (u-1) log u, the symmetrized KL generator; c_i = (-1)^i/(i-1)."""

    def ev(u):
        if u == 0:
            return math.inf
        return (u - 1) * math.log(u)

    def sup(k, m, M):
        # |f^(k+1)(u)| = (k-1)! (u+k) / u^(k+1), decreasing
        if m == 0.0:
            return math.inf
        return safe_exp(
            log_factorial(k - 1) + math.log(m + k) - (k + 1) * math.log(m)
        )

    @functools.lru_cache(maxsize=None)
    def coeff(i):
        return Fraction((-1) ** i, i - 1)

    return Generator("jeffreys", 0, 0, coeff, ev, sup)


@functools.cache
def jensen_shannon() -> Generator:
    """f(u) = -(u+1) log((1+u)/2) + u log u.

    Note this is the unhalved symmetrization: it generates twice the
    (1/2, 1/2)-weighted mixture divergence, is bounded by 2 log 2, and has
    c_i = (-1)^i (1 - 2^(1-i)) / (i (i-1)).
    """

    def ev(u):
        if u == 0:
            return math.log(2.0)
        return -(u + 1) * math.log(0.5 * (1.0 + u)) + u * math.log(u)

    def sup(k, m, M):
        # |f^(k+1)(u)| = (k-1)! (u^-k - (u+1)^-k), decreasing
        if m == 0.0:
            return math.inf
        a = safe_exp(-k * math.log(m))
        if math.isinf(a):
            return math.inf
        return safe_exp(log_factorial(k - 1)) * (a - (m + 1.0) ** (-k))

    @functools.lru_cache(maxsize=None)
    def coeff(i):
        half_pow = 2 ** (i - 1)
        return Fraction((-1) ** i * (half_pow - 1), half_pow * i * (i - 1))

    return Generator("js", 0, 0, coeff, ev, sup)


@functools.cache
def harmonic() -> Generator:
    """f(u) = 2u/(u+1), the harmonic-mean similarity; f(1)=1, concave.

    c_i = (-1)^(i+1) / 2^i.  The divergence it generates lives in (0, 1]
    with the maximum exactly at p = q.
    """

    def ev(u):
        return 2.0 * u / (u + 1.0)

    def sup(k, m, M):
        # |f^(k+1)(u)| = 2 (k+1)! / (u+1)^(k+2), decreasing, finite at m=0
        return safe_exp(
            math.log(2.0) + log_factorial(k + 1) - (k + 2) * math.log1p(m)
        )

    @functools.lru_cache(maxsize=None)
    def coeff(i):
        return Fraction((-1) ** (i + 1), 2**i)

    return Generator("harmonic", 1, Fraction(1, 2), coeff, ev, sup)


@functools.cache
def exponential() -> Generator:
    """f(u) = e^u - e u; every derivative past the first is e^u, c_i = e/i!."""

    def ev(u):
        if u > MAX_EXP_ARG:
            return math.inf
        return math.exp(u) - math.e * u

    @functools.lru_cache(maxsize=None)
    def coeff(i):
        if i <= 170:
            return math.e / float(math.factorial(i))
        return safe_exp(1.0 - log_factorial(i))

    return Generator("exp", 0, 0, coeff, ev, lambda k, m, M: safe_exp(M))


def _alpha_exact(a: Fraction) -> bool:
    return ((1 + a) / 2).denominator == 1


# the alpha of each generator _alpha_cached built: conjugation recognises
# an alpha generator from this record, never from its name
_alpha_of: dict = {}


@functools.cache
def _alpha_cached(key: Union[int, float, Fraction]) -> Generator:
    if isinstance(key, float) and key.is_integer():
        key = int(key)
    a_exact = Fraction(key) if isinstance(key, (int, Fraction)) else None
    a_f = float(key)
    gamma_f = 0.5 * (1.0 + a_f)
    name = f"alpha:{key}"

    if a_exact is not None and _alpha_exact(a_exact):
        gamma, scale = (1 + a_exact) / 2, Fraction(-4) / (1 - a_exact**2)
    else:
        gamma, scale = gamma_f, -4.0 / (1.0 - a_f * a_f)

    # memoized: the generalized binomial rebuilds an O(i) product per
    # call, which dominates batch loops that sweep the same orders
    @functools.lru_cache(maxsize=None)
    def coeff(i):
        return scale * generalized_binomial(gamma, i)

    fprime = scale * gamma
    lead = 4.0 / (1.0 - a_f * a_f)

    def ev(u):
        if u == 0:
            # u^gamma -> 0 for gamma > 0 (alpha > -1), else the term blows up
            return lead if a_f > -1.0 else math.inf
        # (1 - u^gamma) = -expm1(gamma log u), accurate near u = 1
        expo = gamma_f * math.log(u)
        if expo > MAX_EXP_ARG:
            return math.copysign(math.inf, -lead)
        return -lead * math.expm1(expo)

    @functools.lru_cache(maxsize=None)
    def sup(k, m, M):
        mag = abs(lead) * abs(float(generalized_binomial(gamma_f, k + 1)))
        mag *= float(math.factorial(k + 1)) if k + 1 <= 170 else safe_exp(
            log_factorial(k + 1)
        )
        if mag == 0.0:
            return 0.0
        expo = gamma_f - (k + 1)

        def piece(u):
            if u == 0.0:
                return math.inf if expo < 0 else (mag if expo == 0 else 0.0)
            if math.isinf(u):
                return math.inf if expo > 0 else (mag if expo == 0 else 0.0)
            return safe_exp(math.log(mag) + expo * math.log(u))

        return max(piece(m), piece(M))

    gen = Generator(name, 0, fprime, coeff, ev, sup)
    _alpha_of[gen] = key
    return gen


def alpha_generator(alpha: Number) -> Generator:
    """Power generator f(u) = 4/(1-alpha^2) (1 - u^((1+alpha)/2)).

    Generates the alpha-divergence family; alpha = +-1 is excluded (those
    limits are kl and rkl).  Coefficients are exact rationals whenever
    (1+alpha)/2 is an integer, i.e. odd integer alpha.
    """
    if check_real(alpha, "alpha") in (1, -1):
        raise InputError("alpha = +-1 has no power-type generator; use kl/rkl")
    if isinstance(alpha, Fraction) and alpha.denominator == 1:
        alpha = int(alpha)
    return _alpha_cached(alpha)


@functools.cache
def _poly_cached(coeffs: tuple) -> Generator:
    a = tuple(Fraction(c) for c in coeffs)
    if not a:
        raise ValueError("polynomial generator needs at least one coefficient")
    d = len(a) - 1
    name = "poly:" + ",".join(str(c) for c in a)

    def coeff(i):
        return sum(
            (a[j] * math.comb(j, i) for j in range(i, d + 1)), start=Fraction(0)
        )

    def ev(u):
        out: Number = a[d]
        for j in range(d - 1, -1, -1):
            out = out * u + a[j]
        return out

    def sup(k, m, M):
        if k + 1 > d:
            return 0.0
        total = 0.0
        for j in range(k + 1, d + 1):
            if a[j] == 0:
                continue
            ff = 1
            for t in range(j, j - k - 1, -1):
                ff *= t
            total += abs(float(a[j])) * ff * M ** (j - k - 1)
        return total

    f1 = sum(a, start=Fraction(0))
    fp1 = sum((j * a[j] for j in range(1, d + 1)), start=Fraction(0))
    return Generator(name, f1, fp1, coeff, ev, sup)


def polynomial_generator(coeffs: Sequence[Number]) -> Generator:
    """f(u) = sum a_j u^j with exact rational a_j; c_i = sum_j a_j C(j, i).

    Every derivative above the degree vanishes, so truncated expansions at
    k >= degree are exact and the remainder bound is exactly zero.
    """
    return _poly_cached(tuple(Fraction(c) for c in coeffs))


CATALOG: dict = {
    "kl": kl,
    "rkl": reverse_kl,
    "jeffreys": jeffreys,
    "js": jensen_shannon,
    "harmonic": harmonic,
    "exp": exponential,
}


def from_spec(spec: str) -> Generator:
    """Parse a generator spec string.

    Accepted forms: the fixed names ``kl | rkl | jeffreys | js | harmonic
    | exp``, ``alpha:<real>`` and ``poly:<a0>,<a1>,...`` (coefficients as
    integers, decimals or num/den rationals).
    """
    s = spec.strip()
    if s in CATALOG:
        return CATALOG[s]()
    if s.startswith("alpha:"):
        body = s[len("alpha:"):]
        try:
            val: Number = int(body)
        except ValueError:
            try:
                val = Fraction(body) if "/" in body else float(body)
            except (ValueError, ZeroDivisionError) as exc:
                raise InputError(f"bad alpha value {body!r}") from exc
        return alpha_generator(val)
    if s.startswith("poly:"):
        body = s[len("poly:"):]
        try:
            coeffs = [Fraction(part.strip()) for part in body.split(",")]
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad polynomial coefficients {body!r}") from exc
        return polynomial_generator(coeffs)
    raise InputError(
        f"unknown generator {spec!r}; expected one of "
        f"{sorted(CATALOG)}, alpha:<real> or poly:<a0>,<a1>,..."
    )


def catalog_coeff(gen: Generator, i: int) -> Number:
    """Free-function form of ``gen.coeff(i)``.

    Exists so coefficient tables can be built by mapping over (generator,
    order) grids without bound-method plumbing.  Exact (int or Fraction)
    whenever the generator's coefficient stream is exact.
    """
    if not isinstance(gen, Generator):
        raise ValueError(f"expected a Generator, got {gen!r}")
    return gen.coeff(i)


# ---------------------------------------------------------------------------
# conjugation


def _conjugate_coeff(gen: Generator, i: int) -> Number:
    """c*_i = (-1)^i * sum_{m=2..i} C(i-2, m-2) c_m, exact for exact c_m."""
    total = exact_or_fsum([math.comb(i - 2, m - 2) * gen.coeff_fn(m)
                           for m in range(2, i + 1)])
    return -total if i % 2 else total


def _conjugate_stream(gen: Generator) -> Callable[[int], Number]:
    """The coefficient function c*_i, i >= 2, of f*(u) = u f(1/u).

    u f_a(1/u) = 4/(1-a^2) (u - u^((1-a)/2)) differs from f_{-a} by an
    affine term, so an alpha generator's conjugate takes the closed-form
    stream of alpha:-a.  Every other generator takes the binomial sum,
    which cancels in float arithmetic as the order grows.
    """
    if gen in _alpha_of:
        return alpha_generator(-_alpha_of[gen]).coeff_fn
    return functools.partial(_conjugate_coeff, gen)


def conjugate_coeffs(gen: Generator, k_max: int) -> list:
    """Taylor coefficients of the conjugate f*(u) = u f(1/u), orders 2..k_max.

    f* generates the reversed divergence: I_{f*}(p:q) = I_f(q:p).  With
    u = 1 + t, u f(1/u) = (1+t) f(1) - f'(1) t + sum_m c_m (-t)^m (1+t)^(1-m),
    and the binomial series of (1+t)^(1-m) gives, for every i >= 2,

        c*_i = (-1)^i * sum_{m=2..i} C(i-2, m-2) c_m

    so f(1) and f'(1) enter only the affine part.  Exact inputs give exact
    rational output; float coefficients are summed with math.fsum.  An
    alpha generator's conjugate is the closed-form stream of alpha:-a.
    """
    check_int(k_max, 2, "k_max")
    stream = _conjugate_stream(gen)
    return [stream(i) for i in range(2, k_max + 1)]


def conjugate_generator(gen: Generator, k_max: int = 64) -> Generator:
    """Generator object for f*(u) = u f(1/u), orders 2..k_max.

    Coefficient i is that of `conjugate_coeffs`, computed on demand and
    cached; orders above k_max raise ValueError.  f*(1) = f(1)
    and f*'(1) = f(1) - f'(1).  deriv_sup reports +inf (no monotone
    closed form is claimed for conjugates); eval at 0 approximates the
    u -> 0+ limit numerically.
    """
    check_int(k_max, 2, "k_max")
    stream = _conjugate_stream(gen)

    @functools.lru_cache(maxsize=None)
    def coeff(i):
        if i > k_max:
            raise ValueError(
                f"conjugate of {gen.name!r} built up to order {k_max}, asked for {i}"
            )
        return stream(i)

    def ev(u):
        if u == 0:
            u = 1e-308
        return u * gen.eval(1.0 / u)

    return Generator(
        f"conj({gen.name})",
        gen.f_at_one,
        gen.f_at_one - gen.fprime_at_one,
        coeff,
        ev,
        lambda k, m, M: math.inf,
    )
