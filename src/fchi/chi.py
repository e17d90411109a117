"""Power chi terms: the building blocks every expansion is assembled from.

The order-i, anchor-lam chi term of a pair (p, q) is the sum or integral
of (q - lam p)^i / p^(i-1).  chi_pm_orders (chi_pm at one order) takes
the route that the pair's kind fixes; each forms its per-pair state once
and serves any number of orders:

* exact summation for finite discrete pairs over each atom's q_s/p_s -
  lam.  Rational inputs run in integers from the atoms on: each
  q_s/p_s - lam is one integer pair n_s/d_s, formed from the numerators
  and denominators over one small gcd; with p_s = w_s/V and
  L = lcm(d_s), every atom has the integer base e_s = n_s (L / d_s),
  atoms sharing a base are merged by summing their weights, and order i
  is sum_e W_e e^i / (V L^i).  Each distinct base pays one integer
  product per order and no atom pays a division.  Every prime of V L^i
  divides the modulus V L, so each order is reduced by gcds against
  that modulus (_num.reduced_fraction) rather than one gcd of two large
  integers, and the value equals the per-atom Fraction sum.  A basis
  keeps the unreduced numerators with V and L, which the exact
  expansions sum in.  A pair whose estimated work passes a budget is
  refused with InputError before any power is formed;
* one closed form for affine exponential families: order i is the
  binomial transform of the moments M_j = E_p[(q/p)^j], log-normalizer
  gaps summed over the compositions of j into the components of q.  The
  compositions come from one table per component count, shared by every
  pair, and each order runs as C-level maps over lists, with the float
  operations of a term-by-term loop in the same order.

chi_pm_quadrature is the numeric cross-check for families with a
density: the power is formed in log space and the family's own integrate
sums or integrates it, the same route quadrature_f_divergence takes.

Each composition's parameter is a convex combination of theta_p and the
vertices theta_p + i (theta_c - theta_p).  Natural-parameter domains are
convex, so one check of those vertices, shared by the closed form and the
quadrature route, decides divergence before any term is evaluated: a
vertex outside the domain raises DivergenceError naming j = i and the
family's convergence condition rather than returning garbage.  An order
whose composition count C(i + C, C) for C components passes a budget of
10 000 is refused with InputError, also before any term.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import gcd
from operator import add, lt, mul, neg, sub
from typing import Optional, Union

from ._num import (
    MAX_EXP_ARG,
    check_float,
    check_int,
    check_real,
    compositions,
    format_number,
    is_exact,
    multinomial,
    reduced_fraction,
    safe_exp,
    to_floats,
)
from .errors import DivergenceError, InputError, OverflowSaturationError
from .families import AefFamily, DiscreteDistribution, MixtureSpec, PairSpec

__all__ = [
    "chi_pm_quadrature",
    "chi_pm",
    "chi_pm_orders",
    "chi_abs",
    "ChiBasis",
    "provenance",
    "compute_basis",
    "basis_build_count",
    "reset_basis_build_count",
]

Number = Union[int, float, Fraction]


def _check_orders(orders):
    """The chi orders as a list of integers of at least 1, each above the
    one before it; else InputError.  Every multi-order route takes them
    through here.  A range from 1 or above with a positive step holds
    such orders by construction, and comes back as it is."""
    if type(orders) is range and orders.start >= 1 and orders.step > 0:
        return orders
    orders = [check_int(i, 1, "chi order") for i in orders]
    if not all(map(lt, orders, orders[1:])):
        before, after = next((a, b) for a, b in zip(orders, orders[1:])
                             if b <= a)
        raise InputError(f"chi orders must increase, but order {after} "
                         f"follows order {before}")
    return orders


def _check_lam(lam: Number) -> Number:
    if check_real(lam, "anchor lam") == 0:
        raise InputError("anchor lam must be nonzero")
    return lam


def _pow(base: float, n: int) -> float:
    """base**n for floats without OverflowError surprises."""
    try:
        return base ** n
    except OverflowError:
        return math.copysign(math.inf, base) if n % 2 else math.inf


# ---------------------------------------------------------------------------
# discrete


def _discrete_values(orders, lam: Number, p: DiscreteDistribution,
                     q: DiscreteDistribution, absolute: bool = False) -> tuple:
    """(values, form): terms sum_s p_s b_s^i at increasing orders i,
    b_s = q_s/p_s - lam, and their integer form.

    Each b_s (|b_s| when absolute) is formed once; see chi_pm_orders.
    Rational inputs take the integer route of _exact_discrete_values,
    which gives the form; it is None on the float route.
    """
    orders = _check_orders(orders)
    _check_lam(lam)
    if len(p) != len(q):
        raise InputError(f"support sizes differ: {len(p)} vs {len(q)}")
    if p.is_exact and q.is_exact and is_exact(lam):
        return _exact_discrete_values(orders, Fraction(lam), p.probs, q.probs,
                                      absolute)
    lam = check_float(lam, "anchor lam")
    pairs = [(float(ps), float(qs)) for ps, qs in zip(p.probs, q.probs)]
    stray = [qs for ps, qs in pairs if ps == 0 and qs != 0]
    atoms = [(ps, qs / ps - lam) for ps, qs in pairs if ps != 0]
    if absolute:
        atoms = [(ps, abs(base)) for ps, base in atoms]
    values = []
    for i in orders:
        if stray and i >= 2:
            values.append(math.inf)
            continue
        terms = [ps * _pow(base, i) for ps, base in atoms]
        values.append(math.fsum(terms + stray if i == 1 else terms))
    return values, None


# most work the integer route may take, estimated as atoms * top order *
# bits of the top denominator V L^k: a 100-atom pair with counts up to
# 10^6 at k = 64 (about 5.6e8, 0.4 s on a 2-vCPU Xeon) still runs, 150
# atoms (1.2e9) do not
_EXACT_BUDGET = 10 ** 9


def _exact_discrete_values(orders, lam: Fraction, p, q, absolute) -> tuple:
    """The rational case of _discrete_values, in integers.

    With b_s = n_s / d_s, p_s = w_s / V (V the lcm of the p denominators)
    and L the lcm of the d_s, atom s has the integer base e_s = n_s L / d_s
    and

        chi_i = sum_e W_e e^i / (V L^i),

    W_e the summed w_s of the atoms whose base is e (a zero base drops
    out, since every order is at least 1).  Each b_s comes from the
    integers of p_s, q_s and lam with one gcd, no Fraction arithmetic.
    Each order multiplies the running W_e e^i by e once per distinct
    base and is one Fraction, reduced against the modulus V L, which
    makes it equal, type included, to the per-atom Fraction sum.  The
    form is (L, V, A) with A the unreduced sums sum_e W_e e^i at the
    orders, or None when an atom strays (p_s = 0 < q_s).
    """
    stray = [Fraction(qs) for ps, qs in zip(p, q) if ps == 0 and qs != 0]
    lam_n, lam_d = lam.numerator, lam.denominator
    # per atom (p_s, n_s, d_s): q_s/p_s - lam = (c b lam_d - lam_n d a) /
    # (d a lam_d) for p_s = a/b and q_s = c/d, over one gcd
    atoms = []
    for ps, qs in zip(p, q):
        if ps:
            a = ps.numerator
            num = qs.numerator * ps.denominator * lam_d \
                - lam_n * qs.denominator * a
            den = qs.denominator * a * lam_d
            g = gcd(num, den)
            atoms.append((ps, num // g, den // g))
    scale = math.lcm(*[ps.denominator for ps, _, _ in atoms])
    common = math.lcm(*[d for _, _, d in atoms])
    top = max(orders, default=1)
    work = len(atoms) * top * (scale.bit_length() + top * common.bit_length())
    if work > _EXACT_BUDGET:
        raise InputError(
            f"exact chi terms to order {top} of a {len(atoms)}-atom pair "
            f"have an estimated work of {work:.3g} (atoms x order x bits of "
            f"the top denominator), over the exact discrete budget of "
            f"{_EXACT_BUDGET:.3g}; lower the order or the atoms, or give "
            f"float probabilities"
        )
    merged = {}
    for ps, n, d in atoms:
        base = (abs(n) if absolute else n) * (common // d)
        if base:
            merged[base] = merged.get(base, 0) \
                + ps.numerator * (scale // ps.denominator)
    bases = list(merged)
    pows, den, reached = list(merged.values()), scale, 0
    modulus = scale * common
    values, nums = [], []
    for i in orders:
        if stray and i >= 2:
            values.append(math.inf)
            continue
        while reached < i:
            pows = list(map(mul, pows, bases))
            den *= common
            reached += 1
        nums.append(sum(pows))
        value = reduced_fraction(nums[-1], den, modulus)
        values.append(value + sum(stray) if i == 1 else value)
    return values, (None if stray else (common, scale, nums))


# ---------------------------------------------------------------------------
# affine exponential families, closed form


_CANCEL_FLOOR = 1e-12


def _signed_logsum(factors, logs, order) -> float:
    """Sum terms factor_t * e^(log_t), tolerating magnitudes beyond floats.

    Terms with a zero factor or a -inf log drop out.  While every term
    fits in float range this is a plain fsum of exps, run as C-level maps
    over the two lists.  Otherwise the sum is rescaled by the peak
    magnitude; a result whose rescaled value still overflows comes back
    as a signed infinity.  The only unresolvable case is near-total
    cancellation at a scale floats cannot represent, which raises
    OverflowSaturationError naming the chi order rather than guessing a
    sign.
    """
    if 0 in factors or -math.inf in logs:
        keep = [s != 0 and l != -math.inf for s, l in zip(factors, logs)]
        factors = list(itertools.compress(factors, keep))
        logs = list(itertools.compress(logs, keep))
    if not factors:
        return 0.0
    top = max(logs)
    if top <= MAX_EXP_ARG:
        return math.fsum(map(mul, factors, map(math.exp, logs)))
    scaled = math.fsum(map(mul, factors,
                           map(math.exp, map(sub, logs, repeat(top)))))
    if abs(scaled) < _CANCEL_FLOOR:
        raise OverflowSaturationError(
            f"order-{order} chi term cancels beyond float resolution at peak "
            f"log magnitude {top:.6g}; the result cannot be represented"
        )
    log_total = top + math.log(abs(scaled))
    if log_total > MAX_EXP_ARG:
        return math.copysign(math.inf, scaled)
    return math.copysign(math.exp(log_total), scaled)


# most compositions one order may expand into: an order-i term of a
# C-component mixture has C(i + C, C) of them, one log-normalizer call
# each, so high orders on many components would otherwise run for seconds
_COMPOSITION_BUDGET = 10_000


def _check_vertices(i: int, fam: AefFamily, tp, comps, mixture: bool) -> None:
    """The one divergence check of order i against q's components.

    Each vertex theta_p + i (theta_c - theta_p) is formed as the closed
    form forms it and must lie in the domain; the closed form and the
    quadrature route share this check.
    """
    for c, (_, tc) in enumerate(comps):
        vertex = tc if i == 1 else tuple(a + i * (b - a) for a, b in zip(tp, tc))
        if not fam.in_domain(vertex):
            cond = fam.convergence_condition(i, tp, None if mixture else tc)
            raise DivergenceError(
                f"order-{i} {'mixture ' if mixture else ''}chi term diverges "
                f"for {fam.describe()}: the parameter at j={i}"
                + (f" of component {c}" if mixture else "")
                + f" ({list(vertex)!r}) leaves the domain"
                + (f"; {cond}" if cond else "")
            )


class _Compositions:
    """The compositions of j = 2..top into `parts` counts, as columns.

    The compositions run by j and then in the order compositions()
    yields them; ends[j] is how many have a sum of at most j.  columns[c]
    holds count c of each composition and log_multinomials its log
    multinomial coefficient, each a tuple with one entry per composition.
    """

    __slots__ = ("top", "ends", "columns", "log_multinomials")

    def __init__(self, top: int, ends: tuple, columns: tuple,
                 log_multinomials: tuple):
        self.top = top
        self.ends = ends
        self.columns = columns
        self.log_multinomials = log_multinomials


def _build_compositions(parts: int, top: int) -> _Compositions:
    """The table of the compositions of j = 2..top into `parts` counts."""
    columns = [[] for _ in range(parts)]
    log_multinomials, ends = [], [0, 0]
    for j in range(2, top + 1):
        for comp in compositions(j, parts):
            for column, k in zip(columns, comp):
                column.append(k)
            log_multinomials.append(math.log(multinomial(comp)))
        ends.append(len(log_multinomials))
    return _Compositions(top, tuple(ends), tuple(map(tuple, columns)),
                         tuple(log_multinomials))


# one table per component count, shared by every pair and rebuilt when a
# caller needs a higher j; orders past the composition budget never ask
_COMPOSITIONS: dict = {}


def _composition_table(parts: int, top: int) -> _Compositions:
    """The shared table for `parts` components, reaching j = top at least."""
    table = _COMPOSITIONS.get(parts)
    if table is None or table.top < top:
        table = _COMPOSITIONS[parts] = _build_compositions(parts, top)
    return table


def _moments(fam: AefFamily, tp, comps, reach: int):
    """Yield M_j = E_p[(q/p)^j] for j = 0, 1, ..., reach as (top, s),
    M_j = s e^top.

    Composition k of j contributes multinomial(k) prod_c w_c^k_c e^E with
    E = F(theta) - (1 - j) F(theta_p) - sum_c k_c F(theta_c) at theta =
    theta_p + sum_c k_c (theta_c - theta_p); M_0 and M_1 need no F.
    Each theta coordinate, the gap and the log weight fold left down the
    columns of the composition table as lazy C-level maps, pulled one j
    at a time as the orders ask, so F runs in the order a loop over the
    compositions would call it and no list spans more than one j.  The
    steps k (theta_c - theta_p), k F(theta_c) and k log w_c are formed
    once per pair and k.  A zero count steps by -0.0, which leaves every
    float as it is (x + -0.0 is x, for x = -0.0 and NaN too), so each
    fold gives the bits of one that skips zero counts.
    """
    f_p = fam.log_normalizer(tp)
    counts = range(1, reach + 1)
    # per component, the steps of each theta coordinate, of the gap and of
    # the log weight: entry k is the step at count k
    steps = [[[-0.0, *map(mul, counts, repeat(x))] for x in
              (*map(sub, tc, tp), fam.log_normalizer(tc), math.log(w))]
             for w, tc in comps]
    yield 0.0, 1.0
    yield 0.0, math.fsum(w for w, _ in comps)
    if reach < 2:
        return
    table = _composition_table(len(comps), reach)
    ends = table.ends
    sizes = list(map(sub, ends[2:reach + 1], ends[1:reach]))
    # every composition of j starts its gap at (1 - j) F(theta_p)
    gaps = itertools.chain.from_iterable(
        map(repeat, map(mul, range(-1, -reach, -1), repeat(f_p)), sizes))
    log_ws = iter(table.log_multinomials)
    coords = [repeat(t) for t in tp]
    for column, rows in zip(table.columns, steps):
        coords = [map(add, coord, map(row.__getitem__, column))
                  for coord, row in zip(coords, rows)]
        gaps = map(add, gaps, map(rows[-2].__getitem__, column))
        log_ws = map(add, log_ws, map(rows[-1].__getitem__, column))
    logs = map(add, log_ws,
               map(sub, map(fam.log_normalizer, zip(*coords)), gaps))
    for size in sizes:
        chunk = list(itertools.islice(logs, size))
        peak = max(chunk)
        yield peak, math.fsum(map(math.exp, map(sub, chunk, repeat(peak))))


@functools.cache
def _log_comb_row(i: int) -> tuple:
    """log C(i, j) for j = i, i - 1, ..., 0, shared by every pair."""
    return tuple(math.log(math.comb(i, j)) for j in range(i, -1, -1))


def _closed_values(orders, lam: Number, fam: AefFamily, theta_p, q) -> list:
    """Chi terms of p against q, a member or a MixtureSpec of fam.

    Per order: the vertex check, the exact (1 - lam)^i when p = q, the
    composition budget, then moments up to i, each formed once.  Term n
    of order i has the log C(i, i - n) + n log|lam| + log M_(i - n), from
    the binomial row cached for every pair and the multiples of log|lam|
    formed once per call, and the sign (-1)^n when lam > 0; the terms
    are C-level maps over those lists.
    """
    orders = _check_orders(orders)
    lam = _check_lam(lam)
    tp = fam.theta(theta_p)
    comps = fam.components(q)
    mixture = isinstance(q, MixtureSpec)
    sign = -1 if lam > 0 else 1
    log_abs_lam = math.log(abs(check_float(lam, "anchor lam")))
    parts = len(comps)
    # the moments stop at the highest order within the composition budget
    reach = max((i for i in orders
                 if math.comb(i + parts, parts) <= _COMPOSITION_BUDGET),
                default=0)
    lam_logs = list(map(mul, range(reach + 1), repeat(log_abs_lam)))
    stream = _moments(fam, tp, comps, reach)
    tops, sums, values = [], [], []
    for i in orders:
        _check_vertices(i, fam, tp, comps, mixture)
        if not mixture and tp == comps[0][1]:
            values.append((1 - lam) ** i)
            continue
        count = math.comb(i + parts, parts)
        if count > _COMPOSITION_BUDGET:
            raise InputError(
                f"an order-{i} chi term of a {parts}-component mixture "
                f"expands into {count} compositions, over the composition "
                f"budget of {_COMPOSITION_BUDGET}; lower the order or the "
                f"components"
            )
        for top, scaled in itertools.islice(stream, i + 1 - len(tops)):
            tops.append(top)
            sums.append(scaled)
        # entry n of each list belongs to j = i - n
        factors = sums[i::-1]
        if sign < 0:
            factors[1::2] = map(neg, factors[1::2])
        row = map(add, _log_comb_row(i), lam_logs)
        values.append(_signed_logsum(factors, list(map(add, row, tops[i::-1])),
                                     i))
    return values


# ---------------------------------------------------------------------------
# numeric cross-checks


def _log_ratio_shift(log_r: float, lam: float):
    """Sign and log magnitude of e^log_r - lam."""
    if log_r > 45.0:
        return 1, log_r + math.log1p(-lam * math.exp(-log_r))
    v = math.exp(log_r) - lam
    if v == 0.0:
        return 0, -math.inf
    return (1 if v > 0 else -1), math.log(abs(v))


def chi_pm_quadrature(i: int, lam: Number, pair: PairSpec,
                      absolute: bool = False) -> float:
    """Chi term of an aef or mixture pair by numeric integration or
    summation: the slow, closed-form-free cross-check of chi_pm.

    The power (q/p - lam)^i, or its magnitude when absolute, is formed in
    log space and handed to the family's own integrate after chi_pm's
    vertex check.  A discrete pair, or a family without a density, raises
    InputError.
    """
    check_int(i, 1, "chi order")
    lam = _check_lam(lam)
    q = pair.family_q
    fam = pair.fam
    tp = fam.theta(pair.theta_p)
    _check_vertices(i, fam, tp, fam.components(q), pair.kind == "mixture")
    lam_f = check_float(lam, "anchor lam")

    def term(log_p, log_r):
        sign, log_mag = _log_ratio_shift(log_r, lam_f)
        if sign == 0:
            return 0.0
        mag = safe_exp(log_p + i * log_mag)
        return -mag if sign < 0 and i % 2 and not absolute else mag

    value, _err = fam.integrate(term, tp, q, reach=i)
    return value


# ---------------------------------------------------------------------------
# pair-level dispatch and the shared basis


def _chi_orders(orders, lam: Number, pair: PairSpec) -> tuple:
    """(values, form): chi_pm_orders and the integer form of the exact
    discrete route (see _exact_discrete_values), None on any other."""
    if pair.kind == "discrete":
        return _discrete_values(orders, lam, pair.p, pair.q)
    return _closed_values(orders, lam, pair.fam, pair.theta_p,
                          pair.family_q), None


def chi_pm_orders(orders, lam: Number, pair: PairSpec) -> list:
    """Chi terms of a pair spec at increasing orders, from one builder pass.

    A discrete pair sums over its atoms, exactly (Fractions) when p, q
    and lam are all rational.  An atom with p_s = 0 < q_s makes every
    order i >= 2 +inf; at i = 1 it adds q_s and the total telescopes to
    1 - lam.  An aef or mixture pair takes the closed form.  Its order i
    raises DivergenceError, naming the family's convergence condition,
    when a vertex theta_p + i (theta_c - theta_p) leaves the domain, and
    InputError when its compositions pass the composition budget, both
    before any term of the order is formed.

    An order not above the one before it raises InputError naming both.
    An order that fails raises as chi_pm would at that order; the orders
    before it are not returned.
    """
    return _chi_orders(orders, lam, pair)[0]


def chi_pm(i: int, lam: Number, pair: PairSpec):
    """Chi term of a pair spec at order i, as chi_pm_orders gives it:
    exact for a rational discrete pair, the closed form for an aef or
    mixture pair, with the same +inf, DivergenceError and InputError."""
    return chi_pm_orders((i,), lam, pair)[0]


def chi_abs(i: int, lam: Number, pair: PairSpec):
    """Absolute chi term of a pair; continuous pairs go through quadrature."""
    if pair.kind == "discrete":
        return _discrete_values((i,), lam, pair.p, pair.q, absolute=True)[0][0]
    return chi_pm_quadrature(i, lam, pair, absolute=True)


def provenance(pair: PairSpec) -> str:
    """Short label for how chi terms of this pair are produced."""
    if pair.kind == "discrete":
        return "discrete-exact" if (pair.p.is_exact and pair.q.is_exact) \
            else "discrete-float"
    if pair.kind == "aef":
        return "aef-closed-form"
    return "aef-closed-form-mixture"


_basis_builds = 0


def basis_build_count() -> int:
    """How many chi bases have been constructed since the last reset."""
    return _basis_builds


def reset_basis_build_count() -> None:
    global _basis_builds
    _basis_builds = 0


@dataclass(frozen=True)
class ChiBasis:
    """Chi terms of one pair for orders 2..max_order at a fixed anchor.

    The basis is the expensive object: generators reuse it freely, so a
    batch over twenty generators costs one construction.  Values may be
    exact Fractions (rational discrete pairs) or floats, and `floats`
    converts them once for every generator that reads them.  Orders run
    2..max_order without a gap.
    """

    lam: Number
    orders: tuple
    values: tuple
    method: str = ""
    source: str = ""

    def __post_init__(self):
        if not self.orders:
            raise InputError("a basis needs at least one order")
        if len(self.orders) != len(self.values):
            raise InputError("orders and values must align")
        for i, order in enumerate(self.orders, 2):
            if check_int(order, 2, "basis order") != i:
                raise InputError(f"basis orders must run 2..n in order "
                                 f"without a gap; order {i} is missing")

    def value(self, i: int):
        if i not in range(2, self.max_order + 1):
            raise InputError(f"basis holds orders 2..{self.max_order}, "
                             f"not {i}")
        return self.values[i - 2]

    @property
    def max_order(self) -> int:
        return self.orders[-1]

    @property
    def is_exact(self) -> bool:
        return all(self.exact_flags)

    @functools.cached_property
    def exact_flags(self) -> list:
        """is_exact of each value."""
        return list(map(is_exact, self.values))

    @functools.cached_property
    def floats(self) -> list:
        """The values as floats, a signed infinity past float range."""
        return to_floats(self.values)

    @functools.cached_property
    def _ints(self) -> Optional[tuple]:
        """(L, V, A), integers with value i = A[i - 2] / (V L^i) at every
        order; None unless every value is rational.

        compute_basis seeds it with the unreduced sums of the exact
        discrete route.  Any other basis, read from CSV or built by hand,
        takes L = 1 and V the lcm of the value denominators.
        """
        if not all(self.exact_flags):
            return None
        den = math.lcm(*[v.denominator for v in self.values])
        return 1, den, [v.numerator * (den // v.denominator)
                        for v in self.values]

    def to_csv(self, fh, rational: bool = False) -> None:
        """Write `order,chi_pm` rows; rational=True keeps Fractions exact."""
        fh.write("order,chi_pm\n")
        for i, v in zip(self.orders, self.values):
            fh.write(f"{i},{format_number(v, rational)}\n")

    @classmethod
    def from_csv(cls, fh, lam: Number = 1) -> "ChiBasis":
        header = fh.readline().strip()
        if header != "order,chi_pm":
            raise InputError(
                f"basis CSV must start with 'order,chi_pm', got {header!r}"
            )
        orders, values = [], []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                text_i, text_v = line.split(",")
                orders.append(int(text_i))
                values.append(
                    Fraction(text_v) if "/" in text_v else float(text_v))
            except (ValueError, ZeroDivisionError) as exc:
                raise InputError(f"bad basis CSV row {line!r}: {exc}") from exc
        return cls(lam=lam, orders=tuple(orders), values=tuple(values),
                   method="csv", source="csv")


def compute_basis(pair: PairSpec, max_order: int, lam: Number = 1) -> ChiBasis:
    """Build the chi basis of a pair for orders 2..max_order in one pass.

    One call per pair is all an expansion workload should ever need;
    basis_build_count() counts constructions so reuse is observable.
    """
    check_int(max_order, 2, "max_order")
    global _basis_builds
    _basis_builds += 1
    orders = range(2, max_order + 1)
    values, form = _chi_orders(orders, lam, pair)
    basis = ChiBasis(lam=lam, orders=tuple(orders), values=tuple(values),
                     method=provenance(pair), source=pair.describe())
    if form is not None:
        object.__setattr__(basis, "_ints", form)
    return basis
