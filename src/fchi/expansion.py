"""Truncated expansions, certified remainders, and convergence verdicts.

A divergence value is reconstructed from chi terms anchored at lam = 1:
the order-k truncation is f(1) plus coeff(i) * chi_i for i = 2..k (the
order-1 term vanishes at this anchor).  With density-ratio bounds
m <= q/p <= M in hand, the truncation error is capped by the classical
Taylor remainder: sup of |f^(k+1)| over [m, M], divided by (k+1)!, times
an envelope for the (k+1)-th absolute moment of q/p - 1.  The crude
envelope (M - m)^(k+1) is always available; the absolute chi term of
order k+1 is the tighter drop-in when someone computes it.

When the basis, the generator coefficients and f(1) are all rational,
the partial sums are exact at any order, and they are summed in integers
over one common denominator.  The basis holds chi_i = A_i / (V L^i) and
the generator's table holds c_i = P_i / Q with f(1) = P_1 / Q, so the
order-k partial sum is N_k / (Q V L^k) with N_k = L N_(k-1) + P_k A_k.
A report keeps the integers N_k and reduces a partial sum to a Fraction
only when it is read: the value, the last sum, at once, and the others
all together on the first read of `partials` (Knuth, TAOCP vol. 2,
4.5.1, on delaying the normalisation of rationals).  Each reduction
takes gcds against the modulus Q V L, whose primes are all those of
Q V L^k; each term is c_i chi_i from the reduced parts of both, over two
small gcds, and is built at once.  Each float of a term or a partial sum
is one int true division, correctly rounded as Fraction.__float__ is.
That is how the paper's finite expansions (polynomial generators, odd
alpha) come out exact.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Optional, Sequence, Union

from ._num import (MAX_EXP_ARG, check_int, check_real, coprime_fraction,
                   format_number, format_real, is_exact, log_factorial,
                   log_factorials, reduced_fraction, safe_exp, to_float)
from .chi import ChiBasis, compute_basis
from .errors import DivergenceError, InputError, OverflowSaturationError
from .families import PairSpec, ratio_bounds_discrete
from .generators import Generator, alpha_generator

__all__ = [
    "RatioBounds",
    "pair_ratio_bounds",
    "chi_expansion",
    "remainder_bound",
    "ExpansionReport",
    "converge",
    "batch_evaluate",
    "alpha_odd_expansion",
    "DEFAULT_TOL",
]

Number = Union[int, float, Fraction]

DEFAULT_TOL = 1e-10

_DIVERGE_RUN = 5
_SETTLE_RUN = 3


@dataclass(frozen=True)
class RatioBounds:
    """Certified envelope m <= q/p <= M over the support of p.

    m sits in [0, 1] and M in [1, +inf]; both may be exact Fractions.
    M = +inf means the ratio is unbounded above and no finite remainder
    certificate exists.
    """

    m: Number
    M: Number

    def __post_init__(self):
        if not 0 <= self.m <= 1:
            raise InputError(f"lower ratio bound {self.m!r} must lie in [0, 1]")
        if not self.M >= 1:
            raise InputError(f"upper ratio bound {self.M!r} must be >= 1")

    @property
    def width(self):
        return self.M - self.m

    @property
    def finite(self) -> bool:
        return to_float(self.M) < math.inf


def pair_ratio_bounds(pair: PairSpec) -> RatioBounds:
    """Best available density-ratio bounds for a pair spec.

    Mixtures combine component bounds linearly, which is valid though not
    always tight; a single member is the one-component case.  Raises
    InputError when the pair's family offers no bounds at all.
    """
    if pair.kind == "discrete":
        m, M = ratio_bounds_discrete(pair.p, pair.q)
        return RatioBounds(m, M)
    lo = 0.0
    hi = 0.0
    for w, t in pair.fam.components(pair.family_q):
        m_c, M_c = pair.fam.ratio_bounds(pair.theta_p, t)
        lo += w * m_c
        hi += w * M_c
    return RatioBounds(min(lo, 1.0), max(hi, 1.0))


def _require_anchor_one(basis: ChiBasis) -> None:
    if basis.lam != 1:
        raise InputError(
            f"expansions are anchored at lam = 1; this basis was built at "
            f"lam = {basis.lam!r}"
        )


def _ratio(num: int, den: int) -> float:
    """num / den for den > 0, correctly rounded; a signed infinity past
    float range."""
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _float_terms(table, basis: ChiBasis) -> tuple:
    """(terms, floats): coeff(i) * chi_i where some product is a float.

    A vanishing coefficient kills its term even against an infinite chi
    value; a rational coefficient times a rational value is a Fraction;
    anything else is float(c_i) * float(chi_i).
    """
    exact, cfs, zeros, _ = table
    values, flags = basis.values, basis.exact_flags
    if not any(flags):
        floats = [0.0 if z else c * v for z, c, v in zip(zeros, cfs, values)]
        return floats, floats
    terms, floats = [], []
    for x, c, z, v, vf, v_exact in zip(exact, cfs, zeros, values,
                                       basis.floats, flags):
        if z:
            terms.append(0 if v_exact else 0.0)
            floats.append(0.0)
        elif x is not None and v_exact:
            term = x * v
            terms.append(term)
            floats.append(to_float(term))
        else:
            terms.append(c * vf)
            floats.append(c * vf)
    return terms, floats


class _ExactSums:
    """The exact partial sums of one expansion, each reduced on read.

    nums[0] / modulus is f(1), and nums[j] / (modulus L^j) is the partial
    sum at the j-th order, or None where that order's term vanished and
    the sum before it stands.  Indexing reduces one sum and iterating
    reduces each in turn, with reduced_fraction against the modulus.
    Only ints, None and tuples are held, so a report that holds one
    pickles and copies as it would with a tuple of Fractions.
    """

    __slots__ = ("nums", "modulus", "big_l")

    def __init__(self, nums: tuple, modulus: int, big_l: int):
        self.nums, self.modulus, self.big_l = nums, modulus, big_l

    def __getitem__(self, j: int) -> Fraction:
        nums = self.nums
        at = range(1, len(nums))[j]
        while nums[at] is None:
            at -= 1
        return reduced_fraction(nums[at], self.modulus * self.big_l ** at,
                                self.modulus)

    def __iter__(self):
        nums, modulus, den = iter(self.nums), self.modulus, self.modulus
        total = reduced_fraction(next(nums), den, modulus)
        for num in nums:
            den *= self.big_l
            if num is not None:
                total = reduced_fraction(num, den, modulus)
            yield total


def _partial_sums(gen: Generator, basis: ChiBasis) -> tuple:
    """(terms, floats, partials, partial_floats): coeff(i) * chi_i at the
    basis orders, their floats, the partial sums f(1) plus the terms up
    to each order, and the floats of those sums.

    The partial sums are exact, an _ExactSums, when the basis and the
    generator's exact prefix (CoeffTable.ints) reach the top order,
    summed in integers as the module docstring says; an order whose
    coefficient vanishes repeats the previous sum.  Otherwise they are a
    list, the float running sum of the term floats, which stops at the
    first non-finite sum and repeats it, where a later term of the other
    sign would turn an infinity into NaN; partial_floats is that list.
    """
    _require_anchor_one(basis)
    top = basis.max_order
    table = gen.coeff_table(top)
    form, prefix = basis._ints, table.ints
    if form is None or prefix is None or len(prefix[1]) < top:
        terms, floats = _float_terms(table, basis)
        sums = list(itertools.accumulate(floats,
                                         initial=to_float(gen.f_at_one)))
        if not math.isfinite(sums[-1]):
            j = next(j for j, s in enumerate(sums) if not math.isfinite(s))
            sums[j:] = [sums[j]] * (len(sums) - j)
        del sums[0]
        return terms, floats, sums, sums

    big_l, big_v, nums = form
    big_q, heads = prefix
    num, den = heads[0] * big_v * big_l, big_q * big_v * big_l
    modulus = den
    total_f = to_float(Fraction(gen.f_at_one))
    terms, floats, sums, sum_floats = [], [], [num], []
    for c, p, a, value in zip(table.exact, heads[1:], nums, basis.values):
        num *= big_l
        den *= big_l
        pa = p * a
        if pa:
            num += pa
            # c * value from the reduced parts of both
            cn, cd = c.numerator, c.denominator
            vn, vd = value.numerator, value.denominator
            g, h = gcd(cn, vd), gcd(vn, cd)
            terms.append(coprime_fraction((cn // g) * (vn // h),
                                          (cd // h) * (vd // g)))
            try:
                term_f, total_f = pa / den, num / den
            except OverflowError:
                term_f, total_f = _ratio(pa, den), _ratio(num, den)
            floats.append(term_f)
            sums.append(num)
        else:
            terms.append(c * value if p else 0)
            floats.append(0.0)
            sums.append(None)
        sum_floats.append(total_f)
    return terms, floats, _ExactSums(tuple(sums), modulus, big_l), sum_floats


def chi_expansion(gen: Generator, basis: ChiBasis, k: Optional[int] = None):
    """Truncated expansion value at order k (default: the basis' top order).

    The partial sum converge reports at order k: exact (Fraction) when
    f(1), every coefficient and every chi value of the basis are
    rational, else a float running sum.  Only the order-k sum is reduced.
    """
    if k is None:
        k = basis.max_order
    elif check_int(k, 2, "truncation order k") > basis.max_order:
        raise InputError(f"truncation order k={k} passes this basis' top "
                         f"order {basis.max_order}")
    return _partial_sums(gen, basis)[2][k - 2]


def remainder_bound(gen: Generator, k: int, bounds: RatioBounds,
                    chi_abs_k1: Optional[Number] = None) -> float:
    """Certified cap on the error of the order-k truncation.

    The envelope factor is chi_abs_k1 (the order k+1 absolute chi term),
    a nonnegative real or +inf, when supplied, else (M - m)^(k+1).
    Returns +inf when no finite certificate exists (unbounded ratio or
    unbounded derivative), and 0.0 when the generator's (k+1)-th
    derivative vanishes on [m, M].
    """
    check_int(k, 1, "truncation order")
    if chi_abs_k1 is None:
        return _remainder_bounds(gen, (k,), bounds)[0]
    if chi_abs_k1 != math.inf and not (
            check_real(chi_abs_k1, "chi_abs_k1") >= 0):
        raise InputError(f"chi_abs_k1 must be nonnegative, got {chi_abs_k1!r}")
    sup = gen.deriv_sup(k, float(bounds.m), to_float(bounds.M))
    env = to_float(chi_abs_k1)
    if sup == 0.0 or env == 0.0:
        return 0.0
    if env == math.inf or sup == math.inf:
        return math.inf
    return safe_exp(math.log(sup) - log_factorial(k + 1) + math.log(env))


def _remainder_bounds(gen: Generator, orders: Sequence[int],
                      bounds: RatioBounds) -> tuple:
    """remainder_bound with the (M - m)^(k+1) envelope at each order.

    The orders must be integers >= 1; RatioBounds guarantees 0 <= m <= 1
    <= M.  The envelope's log is taken once, and one deriv_sups call
    serves a whole report's caps.
    """
    m = float(bounds.m)
    big = to_float(bounds.M)
    width = big - m
    log_width = math.log(width) if 0.0 < width < math.inf else None
    log_fact = log_factorials(orders[-1] + 2)
    caps = []
    for k, sup in zip(orders, gen.deriv_sups_fn(orders, m, big)):
        if sup == 0.0 or width == 0.0:
            caps.append(0.0)
        elif log_width is None or sup == math.inf:
            caps.append(math.inf)
        else:
            cap = math.log(sup) - log_fact[k + 1] + (k + 1) * log_width
            caps.append(math.inf if cap > MAX_EXP_ARG else math.exp(cap))
    return tuple(caps)


class _Partials:
    """The descriptor of ExpansionReport.partials.

    A report stores what it was given, a tuple in most cases, and reads
    it back unchanged.  An _ExactSums given by converge is reduced to a
    tuple of Fractions on the first read, which replaces it, so later
    reads return that same tuple.  The class-level read gives (), the
    field's default.
    """

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return ()
        sums = obj.__dict__[self.name]
        if type(sums) is _ExactSums:
            sums = obj.__dict__[self.name] = tuple(sums)
        return sums

    def __set__(self, obj, value):
        obj.__dict__[self.name] = value


@dataclass(frozen=True)
class ExpansionReport:
    """Everything converge() observed about one generator on one basis.

    verdict is "converging", "diverging", or "inconclusive".  orders,
    terms and partials align; value repeats the last partial sum (None
    when the basis itself could not be built).  settled_at is the first
    order at which the convergence rule fired.  remainder_bounds and
    abs_errors align with orders when available, else None.

    Exact partial sums from converge are reduced to Fractions on the
    first read of partials, and value at once; a report reads, compares,
    hashes, copies and pickles as it would with the tuple given whole.
    """

    generator: str
    verdict: str
    orders: tuple = ()
    terms: tuple = ()
    partials: tuple = _Partials()
    value: Optional[Number] = None
    settled_at: Optional[int] = None
    remainder_bounds: Optional[tuple] = None
    abs_errors: Optional[tuple] = None
    note: str = ""

    def to_csv(self, fh, rational: bool = False) -> None:
        """Write the per-order table as CSV.

        Columns k,term,partial_sum are always present.  remainder_bound
        appears when bounds were supplied, with caps that are not finite
        rendered as "unbounded"; abs_error appears when an exact value
        was supplied.  rational=True renders exact entries as num/den.
        """
        header = "k,term,partial_sum"
        if self.remainder_bounds is not None:
            header += ",remainder_bound"
        if self.abs_errors is not None:
            header += ",abs_error"
        fh.write(header + "\n")
        for idx, k in enumerate(self.orders):
            row = [str(k), format_number(self.terms[idx], rational),
                   format_number(self.partials[idx], rational)]
            if self.remainder_bounds is not None:
                b = self.remainder_bounds[idx]
                row.append("unbounded" if not math.isfinite(float(b))
                           else format_real(b))
            if self.abs_errors is not None:
                row.append(format_number(self.abs_errors[idx], rational))
            fh.write(",".join(row) + "\n")


def _rises(mags) -> bool:
    """True when some _DIVERGE_RUN consecutive steps all increase."""
    rising = 0
    for prev, cur in zip(mags, mags[1:]):
        rising = rising + 1 if cur > prev else 0
        if rising >= _DIVERGE_RUN:
            return True
    return False


def _failure_report(gen: Generator, exc: Exception) -> ExpansionReport:
    return ExpansionReport(
        generator=gen.name, verdict="diverging",
        note=f"basis construction failed: {exc}",
    )


def converge(gen: Generator, source, max_order: int = 20, *,
             tol: float = DEFAULT_TOL,
             bounds: Optional[RatioBounds] = None,
             exact_value: Optional[Number] = None) -> ExpansionReport:
    """Run the expansion and diagnose its tail behaviour.

    source is a ready ChiBasis or a PairSpec (built here at lam = 1 up
    to max_order; a construction failure is itself a divergence verdict).

    The verdict rules, checked in this order:

    * any non-finite term, or five consecutive strictly increasing term
      magnitudes with the last magnitude above the first overall, reads
      as diverging;
    * term magnitudes below tol * max(1, |partial|) at three consecutive
      orders read as converging, settled at the third;
    * anything else is inconclusive.
    """
    if check_real(tol, "tolerance") <= 0:
        raise InputError(f"tolerance must be positive, got {tol!r}")
    if exact_value is not None:
        check_real(exact_value, "exact value")
    basis = source if isinstance(source, ChiBasis) else None
    check_int(max_order if basis is None else basis.max_order, 4,
              "the max order of a verdict")
    if basis is None:
        try:
            basis = compute_basis(source, max_order)
        except (DivergenceError, OverflowSaturationError) as exc:
            return _failure_report(gen, exc)

    terms, floats, partials, sum_floats = _partial_sums(gen, basis)
    orders = basis.orders
    mags = list(map(abs, floats))

    verdict = "inconclusive"
    settled = None
    note = ""

    if not all(map(math.isfinite, mags)):
        bad = next(i for i, g in zip(orders, mags) if not math.isfinite(g))
        verdict = "diverging"
        note = f"order-{bad} term is non-finite"
    elif _rises(mags) and mags[-1] > mags[0]:
        verdict = "diverging"
        note = (
            f"term magnitudes rose over {_DIVERGE_RUN} consecutive "
            f"orders and ended above the order-{orders[0]} magnitude"
        )
    else:
        streak = 0
        for i, g, s in zip(orders, mags, sum_floats):
            if g < tol * max(1.0, abs(s)):
                streak += 1
                if streak >= _SETTLE_RUN:
                    verdict, settled = "converging", i
                    break
            else:
                streak = 0

    rbounds = None
    if bounds is not None:
        rbounds = _remainder_bounds(gen, orders, bounds)
    # exact sums stay unreduced unless the errors read them all
    exact = type(partials) is _ExactSums
    if exact_value is not None or not exact:
        partials = tuple(partials)
    errors = None
    if exact_value is not None:
        if exact and is_exact(exact_value):
            errors = tuple(abs(Fraction(exact_value) - s) for s in partials)
        else:
            errors = tuple(abs(to_float(exact_value) - to_float(s))
                           for s in partials)

    return ExpansionReport(
        generator=gen.name, verdict=verdict, orders=orders,
        terms=tuple(terms), partials=partials, value=partials[-1],
        settled_at=settled, remainder_bounds=rbounds, abs_errors=errors,
        note=note,
    )


def batch_evaluate(pair: PairSpec, generators: Sequence[Generator],
                   max_order: int = 20, *, tol: float = DEFAULT_TOL,
                   bounds: Optional[RatioBounds] = None,
                   derive_bounds: bool = True) -> dict:
    """Expansion reports for many generators off one shared basis.

    The chi basis is constructed exactly once regardless of how many
    generators are evaluated; that reuse is the entire point of keeping
    coefficients and chi terms separate.
    """
    gens = list(generators)
    try:
        basis = compute_basis(pair, max_order)
    except (DivergenceError, OverflowSaturationError) as exc:
        return {g.name: _failure_report(g, exc) for g in gens}
    if bounds is None and derive_bounds:
        try:
            bounds = pair_ratio_bounds(pair)
        except InputError:
            bounds = None
    return {
        g.name: converge(g, basis, tol=tol, bounds=bounds) for g in gens
    }


def alpha_odd_expansion(alpha: int, source):
    """Exact finite expansion for odd integer alpha >= 3.

    At these parameters the coefficient stream stops after order
    (alpha + 1) / 2, so the truncation there IS the divergence, exactly,
    with no remainder to certify.  source is a ChiBasis holding orders up
    to that cut, or a PairSpec from which such a basis is built here.
    """
    if check_int(alpha, 3, "alpha of a finite expansion") % 2 == 0:
        raise InputError(f"finite expansions need an odd alpha, got {alpha}")
    cut = (alpha + 1) // 2
    if isinstance(source, ChiBasis):
        basis = source
    else:
        basis = compute_basis(source, cut)
    _require_anchor_one(basis)
    if basis.max_order < cut:
        raise InputError(
            f"alpha = {alpha} needs chi orders up to {cut}; basis stops at "
            f"{basis.max_order}"
        )
    return chi_expansion(alpha_generator(alpha), basis, cut)
