"""Truncated expansions, certified remainders, and convergence verdicts.

A divergence value is reconstructed from chi terms anchored at lam = 1:
the order-k truncation is f(1) plus coeff(i) * chi_i for i = 2..k (the
order-1 term vanishes at this anchor).  With density-ratio bounds
m <= q/p <= M in hand, the truncation error is capped by the classical
Taylor remainder: sup of |f^(k+1)| over [m, M], divided by (k+1)!, times
an envelope for the (k+1)-th absolute moment of q/p - 1.  The crude
envelope (M - m)^(k+1) is always available; the absolute chi term of
order k+1 is the tighter drop-in when someone computes it.

Everything stays in Fraction arithmetic when the basis, the generator
coefficients, and f(1) are all rational, so discrete rational inputs get
bit-exact partial sums at any order.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from ._num import (check_int, check_real, format_number, format_real,
                   is_exact, log_factorial, safe_exp, to_float, to_floats)
from .chi import ChiBasis, compute_basis
from .errors import DivergenceError, InputError, OverflowSaturationError
from .families import PairSpec, ratio_bounds_discrete
from .generators import Generator, alpha_generator

__all__ = [
    "RatioBounds",
    "pair_ratio_bounds",
    "expansion_terms",
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
    q = pair.family_q  # refuses an unknown kind before pair.fam is used
    lo = 0.0
    hi = 0.0
    for w, t in pair.fam.components(q):
        m_c, M_c = pair.fam.ratio_bounds(pair.theta_p, t)
        lo += w * m_c
        hi += w * M_c
    return RatioBounds(min(lo, 1.0), max(hi, 1.0))


def _require_anchor_one(basis: ChiBasis) -> None:
    if float(basis.lam) != 1.0:
        raise InputError(
            f"expansions are anchored at lam = 1; this basis was built at "
            f"lam = {basis.lam!r}"
        )


def expansion_terms(gen: Generator, basis: ChiBasis) -> list:
    """Per-order contributions coeff(i) * chi_i for the basis orders."""
    _require_anchor_one(basis)
    # basis orders are integers >= 2, so the coefficient stream is read
    # without Generator.coeff's per-call argument check
    coeff = gen.coeff_fn
    out = []
    for i, v in zip(basis.orders, basis.values):
        c = coeff(i)
        if c == 0:
            # a vanishing coefficient kills the term even against an
            # infinite chi value
            out.append(0 if is_exact(v) else 0.0)
        elif is_exact(c) and is_exact(v):
            # int * int is the one product that would not be a Fraction
            out.append(c * v if Fraction in (type(c), type(v))
                       else Fraction(c) * v)
        else:
            try:
                out.append(float(c) * float(v))
            except OverflowError:
                out.append(to_float(c) * to_float(v))
    return out


def _partial_sums(gen: Generator, basis: ChiBasis) -> tuple:
    """(terms, floats, sums): expansion_terms, their floats, running sums.

    sums[j] is f(1) plus the first j terms.  Exact (Fraction) when f(1)
    and every term are rational; otherwise a float running sum of the
    terms in order.
    """
    terms = expansion_terms(gen, basis)
    floats = to_floats(terms)
    if is_exact(gen.f_at_one) and all(is_exact(t) for t in terms):
        start, steps = Fraction(gen.f_at_one), terms
    else:
        start, steps = to_float(gen.f_at_one), floats
    return terms, floats, list(itertools.accumulate(steps, initial=start))


def chi_expansion(gen: Generator, basis: ChiBasis, k: Optional[int] = None):
    """Truncated expansion value at order k (default: the basis' top order).

    The partial sum converge reports at order k: exact (Fraction) when
    f(1), every coefficient and every chi value of the basis are
    rational, else a float running sum.
    """
    if k is None:
        k = basis.max_order
    elif check_int(k, 2, "truncation order k") > basis.max_order:
        raise InputError(f"truncation order k={k} passes this basis' top "
                         f"order {basis.max_order}")
    return _partial_sums(gen, basis)[2][bisect.bisect_right(basis.orders, k)]


def remainder_bound(gen: Generator, k: int, bounds: RatioBounds,
                    chi_abs_k1: Optional[Number] = None) -> float:
    """Certified cap on the error of the order-k truncation.

    The envelope factor is chi_abs_k1 (the order k+1 absolute chi term)
    when supplied, else (M - m)^(k+1).  Returns +inf when no finite
    certificate exists (unbounded ratio or unbounded derivative), and 0.0
    when the generator's (k+1)-th derivative vanishes on [m, M].
    """
    check_int(k, 1, "truncation order")
    if chi_abs_k1 is None:
        return _remainder_bounds(gen, (k,), bounds)[0]
    sup = gen.deriv_sup(k, float(bounds.m), to_float(bounds.M))
    if sup == 0.0:
        return 0.0
    env = to_float(chi_abs_k1)
    if env == 0.0:
        return 0.0
    if env == math.inf or sup == math.inf:
        return math.inf
    return safe_exp(math.log(sup) - log_factorial(k + 1) + math.log(env))


def _remainder_bounds(gen: Generator, orders: Sequence[int],
                      bounds: RatioBounds) -> tuple:
    """remainder_bound with the (M - m)^(k+1) envelope at each order.

    The orders must be integers >= 1; RatioBounds guarantees 0 <= m <= 1
    <= M.  The envelope's log is taken once, so a whole report's caps
    cost one derivative sup each.
    """
    m = float(bounds.m)
    big = to_float(bounds.M)
    sup_fn = gen.deriv_sup_fn
    width = big - m
    log_width = math.log(width) if 0.0 < width < math.inf else None
    caps = []
    for k in orders:
        sup = sup_fn(k, m, big)
        if sup == 0.0 or width == 0.0:
            caps.append(0.0)
        elif log_width is None or sup == math.inf:
            caps.append(math.inf)
        else:
            caps.append(safe_exp(
                math.log(sup) - log_factorial(k + 1) + (k + 1) * log_width
            ))
    return tuple(caps)


@dataclass(frozen=True)
class ExpansionReport:
    """Everything converge() observed about one generator on one basis.

    verdict is "converging", "diverging", or "inconclusive".  orders,
    terms and partials align; value repeats the last partial sum (None
    when the basis itself could not be built).  settled_at is the first
    order at which the convergence rule fired.  remainder_bounds and
    abs_errors align with orders when available, else None.
    """

    generator: str
    verdict: str
    orders: tuple = ()
    terms: tuple = ()
    partials: tuple = ()
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
    if isinstance(source, ChiBasis):
        basis = source
        top = basis.max_order
    else:
        basis = None
        top = max_order
    check_int(top, 4, "the max order of a verdict")
    if basis is None:
        try:
            basis = compute_basis(source, max_order)
        except (DivergenceError, OverflowSaturationError) as exc:
            return _failure_report(gen, exc)

    terms, floats, sums = _partial_sums(gen, basis)
    partials = sums[1:]
    orders = basis.orders
    mags = list(map(abs, floats))

    verdict = "inconclusive"
    settled = None
    note = ""

    bad = next((idx for idx, g in enumerate(mags) if not math.isfinite(g)), None)
    if bad is not None:
        verdict = "diverging"
        note = f"order-{orders[bad]} term is non-finite"
    else:
        rising = 0
        has_run = False
        for j in range(1, len(mags)):
            rising = rising + 1 if mags[j] > mags[j - 1] else 0
            if rising >= _DIVERGE_RUN:
                has_run = True
        if has_run and mags[-1] > mags[0]:
            verdict = "diverging"
            note = (
                f"term magnitudes rose over {_DIVERGE_RUN} consecutive "
                f"orders and ended above the order-{orders[0]} magnitude"
            )
        else:
            streak = 0
            sizes = to_floats(partials)
            for idx, g in enumerate(mags):
                if g < tol * max(1.0, abs(sizes[idx])):
                    streak += 1
                    if streak >= _SETTLE_RUN and settled is None:
                        settled = orders[idx]
                else:
                    streak = 0
            if settled is not None:
                verdict = "converging"

    rbounds = None
    if bounds is not None:
        rbounds = _remainder_bounds(gen, orders, bounds)
    errors = None
    if exact_value is not None:
        if is_exact(exact_value) and isinstance(sums[0], Fraction):
            errors = tuple(abs(Fraction(exact_value) - s) for s in partials)
        else:
            errors = tuple(abs(to_float(exact_value) - to_float(s))
                           for s in partials)

    return ExpansionReport(
        generator=gen.name, verdict=verdict, orders=orders,
        terms=tuple(terms), partials=tuple(partials),
        value=partials[-1] if partials else None,
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
