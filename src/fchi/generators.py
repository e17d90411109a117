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
factorial products, and +inf encodes "unbounded".  Each generator serves
both in bulk: one coefficient table, which conjugation transforms, and
the sups of many orders from one call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence, Union

from ._num import (MAX_EXP_ARG, check_float, check_int, check_real,
                   is_exact, log_factorial, log_factorials, safe_exp,
                   to_floats)
from .errors import InputError

__all__ = [
    "Generator",
    "CoeffTable",
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
    return _binomials(gamma, i)[i]


def _binomials(gamma: Number, top: int) -> list:
    """[C(gamma, 0), ..., C(gamma, top)] from one falling-factorial pass."""
    out = [Fraction(1) if isinstance(gamma, Fraction) else 1.0]
    for t in range(top):
        out.append(out[t] * (gamma - t) / (t + 1))
    return out


class CoeffTable(NamedTuple):
    """Coefficients c_2..c_top of one generator; entry i - 2 is order i.

    A generator keeps one table, rebuilt only when a higher top order is
    asked for, so its readers take the prefix they need.  `exact` holds
    c_i as a Fraction where it is rational and None where it is a float,
    `floats` holds float(c_i) (a signed infinity past float range) and
    `zeros` holds c_i == 0.  `ints` is the exact prefix over one
    denominator, (Q, P) with f(1) = P[0] / Q and c_i = P[i - 1] / Q at
    each order up to the first whose coefficient is a nonzero float; None
    when f(1) is a float.
    """

    exact: list
    floats: list
    zeros: list
    ints: Optional[tuple]


def _common_denominator(values: list) -> tuple:
    """(D, [x D for x in values]) for rationals, D the lcm of their
    denominators."""
    # a list: math.lcm(*generator) fills tuple free lists, +0.4 MB RSS
    den = math.lcm(*[c.denominator for c in values])
    return den, [c.numerator * (den // c.denominator) for c in values]


def _exact_prefix(f_at_one: Number, exact: list, zeros: list):
    """The `ints` column of a CoeffTable; a zero float coefficient is 0."""
    if not is_exact(f_at_one):
        return None
    run = [f_at_one]
    for c, zero in zip(exact, zeros):
        if not zero and c is None:
            break
        run.append(0 if zero else c)
    return _common_denominator(run)


@dataclass(frozen=True)
class Generator:
    """Immutable generator record.

    `f_at_one` and `fprime_at_one` are f(1) and f'(1); the linear Taylor
    term integrates to zero against probability densities, so expansions
    never use f'(1), but conjugation does.

    `coeffs_fn(top)` lists c_2..c_top in one pass (a conjugate, the orders
    it has up to top), and `deriv_sups_fn(orders, m, M)` lists
    sup |f^(k+1)| over [m, M] for each order k >= 1 of orders, each by the
    same float operations as a one-order call.  The generator holds one
    CoeffTable, which `coeff`, `coeff_table`, conjugation and the expansion
    loops all read, and `deriv_sups` serves a report's caps in one call.
    `alpha` is the a of an `alpha_generator`, None on any other generator
    (conjugates too); conjugation and the closed form read it.
    """

    name: str
    f_at_one: Number
    fprime_at_one: Number
    coeffs_fn: Callable[[int], list] = field(repr=False)
    eval_fn: Callable[[float], float] = field(repr=False)
    deriv_sups_fn: Callable[[Sequence[int], float, float], list] = \
        field(repr=False)
    alpha: Optional[Number] = None
    _table: CoeffTable = field(default=CoeffTable((), (), (), None),
                               init=False, repr=False, compare=False)

    def coeff(self, i: int) -> Number:
        """Taylor coefficient c_i = f^(i)(1)/i! for i >= 2."""
        table = self._table
        if len(table.floats) < check_int(i, 2, "coefficient order") - 1:
            table = self.coeff_table(i)
        c = table.exact[i - 2]
        return table.floats[i - 2] if c is None else c

    def coeff_table(self, top: int) -> CoeffTable:
        """The CoeffTable, rebuilt first when it stops below order top.

        A rebuild at least doubles the table, so asking for the orders one
        by one costs a few passes.  ValueError when the generator has no
        coefficient of order top.
        """
        table = self._table
        have = len(table.floats)
        if have < check_int(top, 2, "top order") - 1:
            coeffs = self.coeffs_fn(max(top, 2 * have))
            if len(coeffs) < top - 1:
                raise ValueError(f"{self.name} has coefficients up to order "
                                 f"{len(coeffs) + 1}, asked for {top}")
            exact = [Fraction(c) if is_exact(c) else None for c in coeffs]
            zeros = [c == 0 for c in coeffs]
            table = CoeffTable(exact, to_floats(coeffs), zeros,
                               _exact_prefix(self.f_at_one, exact, zeros))
            object.__setattr__(self, "_table", table)
        return table

    def eval(self, u: Number) -> float:
        """f(u) for u > 0; u = 0 returns the limit f(0+), possibly +inf."""
        if u < 0:
            raise ValueError(f"generator argument must be >= 0, got {u!r}")
        return self.eval_fn(u)

    def deriv_sups(self, orders: Sequence[int], m: float, M: float) -> list:
        """sup over u in [m, M] of |f^(k+1)(u)| for each k in orders.

        +inf means unbounded.  [m, M] is a density-ratio interval, so
        0 <= m <= 1 <= M is required.  Each catalog derivative is
        monotone on (0, inf), which makes the sup an endpoint evaluation.
        """
        orders = [check_int(k, 1, "deriv_sup order") for k in orders]
        if not (0 <= m <= 1 <= M):
            raise ValueError(f"need 0 <= m <= 1 <= M, got m={m!r}, M={M!r}")
        return self.deriv_sups_fn(orders, m, M)

    def deriv_sup(self, k: int, m: float, M: float) -> float:
        """deriv_sups at the one order k."""
        return self.deriv_sups((k,), m, M)[0]


def _each(coeff: Callable[[int], Number]) -> Callable[[int], list]:
    """The coeffs_fn that lists the closed form coeff(i) at i = 2..top."""
    return lambda top: [coeff(i) for i in range(2, top + 1)]


def _neg_power_sups(orders, lag: int, m: float) -> list:
    """sup over [m, M] of (k - lag)! u^-(k + 1 - lag) at each order k.

    Each power of u decreases, so the sup sits at u = m.
    """
    if m == 0.0:
        return [math.inf] * len(orders)
    log_m = math.log(m)
    log_fact = log_factorials(max(orders, default=0) + 1)
    return [safe_exp(log_fact[k - lag] - (k + 1 - lag) * log_m)
            for k in orders]


# ---------------------------------------------------------------------------
# catalog


@functools.cache
def kl() -> Generator:
    """f(u) = -log u, the Kullback-Leibler generator; c_i = (-1)^i / i."""

    def ev(u):
        if u == 0:
            return math.inf
        return -math.log(u)

    def sups(orders, m, M):
        # |f^(k+1)(u)| = k! u^-(k+1), decreasing
        return _neg_power_sups(orders, 0, m)

    return Generator("kl", 0, -1, _each(lambda i: Fraction((-1) ** i, i)),
                     ev, sups)


@functools.cache
def reverse_kl() -> Generator:
    """f(u) = u log u; c_i = (-1)^i / (i (i-1))."""

    def ev(u):
        if u == 0:
            return 0.0
        return u * math.log(u)

    def sups(orders, m, M):
        # |f^(k+1)(u)| = (k-1)! u^-k
        return _neg_power_sups(orders, 1, m)

    return Generator("rkl", 0, 1,
                     _each(lambda i: Fraction((-1) ** i, i * (i - 1))),
                     ev, sups)


@functools.cache
def jeffreys() -> Generator:
    """f(u) = (u-1) log u, the symmetrized KL generator; c_i = (-1)^i/(i-1)."""

    def ev(u):
        if u == 0:
            return math.inf
        return (u - 1) * math.log(u)

    def sups(orders, m, M):
        # |f^(k+1)(u)| = (k-1)! (u+k) / u^(k+1), decreasing
        if m == 0.0:
            return [math.inf] * len(orders)
        log_m = math.log(m)
        log_fact = log_factorials(max(orders, default=0))
        return [safe_exp(log_fact[k - 1] + math.log(m + k) - (k + 1) * log_m)
                for k in orders]

    return Generator("jeffreys", 0, 0,
                     _each(lambda i: Fraction((-1) ** i, i - 1)), ev, sups)


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

    def sups(orders, m, M):
        # |f^(k+1)(u)| = (k-1)! (u^-k - (u+1)^-k), decreasing
        if m == 0.0:
            return [math.inf] * len(orders)
        log_m = math.log(m)
        log_fact = log_factorials(max(orders, default=0))
        out = []
        for k in orders:
            a = safe_exp(-k * log_m)
            out.append(math.inf if math.isinf(a) else
                       safe_exp(log_fact[k - 1]) * (a - (m + 1.0) ** (-k)))
        return out

    def coeff(i):
        half_pow = 2 ** (i - 1)
        return Fraction((-1) ** i * (half_pow - 1), half_pow * i * (i - 1))

    return Generator("js", 0, 0, _each(coeff), ev, sups)


@functools.cache
def harmonic() -> Generator:
    """f(u) = 2u/(u+1), the harmonic-mean similarity; f(1)=1, concave.

    c_i = (-1)^(i+1) / 2^i.  The divergence it generates lives in (0, 1]
    with the maximum exactly at p = q.
    """

    def ev(u):
        return 2.0 * u / (u + 1.0)

    def sups(orders, m, M):
        # |f^(k+1)(u)| = 2 (k+1)! / (u+1)^(k+2), decreasing, finite at m=0
        log_2, log1p_m = math.log(2.0), math.log1p(m)
        log_fact = log_factorials(max(orders, default=0) + 2)
        return [safe_exp(log_2 + log_fact[k + 1] - (k + 2) * log1p_m)
                for k in orders]

    return Generator("harmonic", 1, Fraction(1, 2),
                     _each(lambda i: Fraction((-1) ** (i + 1), 2**i)),
                     ev, sups)


@functools.cache
def exponential() -> Generator:
    """f(u) = e^u - e u; every derivative past the first is e^u, c_i = e/i!."""

    def ev(u):
        if u > MAX_EXP_ARG:
            return math.inf
        return math.exp(u) - math.e * u

    coeffs = _each(lambda i: math.e / float(math.factorial(i)) if i <= 170
                   else safe_exp(1.0 - log_factorial(i)))
    return Generator("exp", 0, 0, coeffs, ev,
                     lambda orders, m, M: [safe_exp(M)] * len(orders))


def _alpha_exact(a: Fraction) -> bool:
    return ((1 + a) / 2).denominator == 1


# typed: 0.5 == Fraction(1, 2), yet they name two generators
@functools.lru_cache(maxsize=None, typed=True)
def _alpha_cached(key: Union[int, float, Fraction]) -> Generator:
    a_exact = Fraction(key) if isinstance(key, (int, Fraction)) else None
    a_f = check_float(key, "alpha")
    gamma_f = 0.5 * (1.0 + a_f)
    name = f"alpha:{key}"

    if a_exact is not None and _alpha_exact(a_exact):
        gamma, scale = (1 + a_exact) / 2, Fraction(-4) / (1 - a_exact**2)
    else:
        gamma, scale = gamma_f, -4.0 / (1.0 - a_f * a_f)

    def coeffs(top):
        return [scale * b for b in _binomials(gamma, top)[2:]]

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

    # memoized per ratio interval: each sup costs an O(k) binomial, and a
    # pair's reports ask for the same orders again; one dict per interval
    # maps each order asked for to its sup
    @functools.lru_cache(maxsize=None)
    def sups_on(m, M):
        return {}

    def sups(orders, m, M):
        known = sups_on(m, M)
        for k in orders:
            if k not in known:
                known[k] = sup(k, m, M)
        return [known[k] for k in orders]

    return Generator(name, 0, fprime, coeffs, ev, sups, alpha=key)


def alpha_generator(alpha: Number) -> Generator:
    """Power generator f(u) = 4/(1-alpha^2) (1 - u^((1+alpha)/2)).

    Generates the alpha-divergence family; alpha = +-1 is excluded (those
    limits are kl and rkl).  Coefficients are exact rationals whenever
    (1+alpha)/2 is an integer, i.e. odd integer alpha.
    """
    if check_real(alpha, "alpha") in (1, -1):
        raise InputError("alpha = +-1 has no power-type generator; use kl/rkl")
    # an integral alpha is an int, so alpha:3.0 is alpha:3 with .alpha 3
    return _alpha_cached(int(alpha) if alpha == int(alpha) else alpha)


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
    return Generator(name, f1, fp1, _each(coeff), ev,
                     lambda orders, m, M: [sup(k, m, M) for k in orders])


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
    order) grids without bound-method plumbing.  A Fraction whenever the
    generator's coefficient is rational.
    """
    if not isinstance(gen, Generator):
        raise ValueError(f"expected a Generator, got {gen!r}")
    return gen.coeff(i)


# ---------------------------------------------------------------------------
# conjugation


def _conjugate(gen: Generator, top: int) -> list:
    """c*_2..c*_top of f*(u) = u f(1/u), from the coefficient table of gen.

    u f_a(1/u) = 4/(1-a^2) (u - u^((1-a)/2)) differs from f_{-a} by an
    affine term, so an alpha generator's conjugate is the table of
    alpha:-a.  Any other table takes the binomial transform of
    `conjugate_coeffs`: one integer sum per order over the common
    denominator when every coefficient is rational, else a math.fsum of
    float products, which cancels as the order grows.
    """
    if gen.alpha is not None:
        table = alpha_generator(-gen.alpha).coeff_table(top)
        return [f if c is None else c
                for c, f in zip(table.exact[:top - 1], table.floats)]
    table = gen.coeff_table(top)
    exact, floats = table.exact[:top - 1], table.floats[:top - 1]
    # row r holds C(r, m - 2) for m = 2..r + 2, the weights of order r + 2
    rows = [[math.comb(r, j) for j in range(r + 1)] for r in range(top - 1)]
    if None in exact:
        sums = [math.fsum([b * c for b, c in zip(row, floats)])
                for row in rows]
    else:
        den, nums = _common_denominator(exact)
        sums = [Fraction(sum(b * n for b, n in zip(row, nums)), den)
                for row in rows]
    return [-c if r % 2 else c for r, c in enumerate(sums)]


def conjugate_coeffs(gen: Generator, k_max: int) -> list:
    """Taylor coefficients of the conjugate f*(u) = u f(1/u), orders 2..k_max.

    f* generates the reversed divergence: I_{f*}(p:q) = I_f(q:p).  With
    u = 1 + t, u f(1/u) = (1+t) f(1) - f'(1) t + sum_m c_m (-t)^m (1+t)^(1-m),
    and the binomial series of (1+t)^(1-m) gives, for every i >= 2,

        c*_i = (-1)^i * sum_{m=2..i} C(i-2, m-2) c_m

    so f(1) and f'(1) enter only the affine part.  The sum runs over the
    coefficient table of gen: exact inputs give exact rational output, and
    float coefficients are summed with math.fsum.  An alpha generator's
    conjugate is the table of alpha:-a.
    """
    return _conjugate(gen, check_int(k_max, 2, "k_max"))


def conjugate_generator(gen: Generator, k_max: int = 64) -> Generator:
    """Generator object for f*(u) = u f(1/u), orders 2..k_max.

    Its coefficient table is that of `conjugate_coeffs`, built from the
    table of gen when an order is first asked for; orders above k_max
    raise ValueError.  f*(1) = f(1) and f*'(1) = f(1) - f'(1).  deriv_sup
    reports +inf (no monotone closed form is claimed for conjugates); eval
    at 0 approximates the u -> 0+ limit numerically.
    """
    check_int(k_max, 2, "k_max")

    def ev(u):
        if u == 0:
            u = 1e-308
        return u * gen.eval(1.0 / u)

    return Generator(
        f"conj({gen.name})",
        gen.f_at_one,
        gen.f_at_one - gen.fprime_at_one,
        lambda top: _conjugate(gen, min(top, k_max)),
        ev,
        lambda orders, m, M: [math.inf] * len(orders),
    )
