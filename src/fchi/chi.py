"""Power chi terms: the building blocks every expansion is assembled from.

The order-i, anchor-lam chi term of a pair (p, q) is the sum or integral
of (q - lam p)^i / p^(i-1).  Three evaluation routes live here; the
first two form their per-pair state once and serve any number of orders:

* exact summation for finite discrete pairs over each atom's q_s/p_s -
  lam.  Rational inputs run in integers: with q_s/p_s - lam = n_s/d_s,
  p_s = w_s/V and L = lcm(d_s), order i is the single Fraction
  sum_s w_s n_s^i (L^i / d_s^i) / (V L^i), so each atom pays integer
  products and one exact division per order instead of Fraction
  arithmetic, and the value equals the per-atom Fraction sum.  A pair
  whose estimated work passes a budget is refused with InputError
  before any power is formed;
* one closed form for affine exponential families: order i is the
  binomial transform of the moments M_j = E_p[(q/p)^j], log-normalizer
  gaps summed over the compositions of j into the components of q;
* a numeric cross-check for families with a density: the power is
  formed in log space and the family's own integrate sums or integrates
  it, the same route quadrature_f_divergence takes.

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

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from ._num import (
    MAX_EXP_ARG,
    check_int,
    check_real,
    compositions,
    format_number,
    is_exact,
    multinomial,
    safe_exp,
)
from .errors import DivergenceError, InputError, OverflowSaturationError
from .families import AefFamily, DiscreteDistribution, MixtureSpec, PairSpec

__all__ = [
    "chi_pm_discrete",
    "chi_abs_discrete",
    "chi_pm_aef",
    "chi_pm_mixture",
    "chi_pm_quadrature",
    "chi_pm_trunc_exp_closed",
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
                     q: DiscreteDistribution, absolute: bool = False) -> list:
    """Terms sum_s p_s b_s^i at increasing orders i, b_s = q_s/p_s - lam.

    Each b_s (|b_s| when absolute) is formed once; see chi_pm_discrete.
    Rational inputs take the integer route of _exact_discrete_values.
    """
    orders = [check_int(i, 1, "chi order") for i in orders]
    _check_lam(lam)
    if len(p) != len(q):
        raise InputError(f"support sizes differ: {len(p)} vs {len(q)}")
    if p.is_exact and q.is_exact and is_exact(lam):
        return _exact_discrete_values(orders, Fraction(lam), p.probs, q.probs,
                                      absolute)
    lam = float(lam)
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
    return values


# most work the integer route may take, estimated as atoms * top order *
# bits of the top denominator V L^k: a 100-atom pair with counts up to
# 10^6 at k = 64 (about 6e8, 2 s) still runs, 150 atoms (1.1e9) do not
_EXACT_BUDGET = 10 ** 9


def _exact_discrete_values(orders, lam: Fraction, p, q, absolute) -> list:
    """The rational case of _discrete_values, in integers.

    With b_s = n_s / d_s, p_s = w_s / V (V the lcm of the p denominators)
    and L the lcm of the d_s,

        chi_i = sum_s w_s n_s^i (L^i / d_s^i) / (V L^i),

    each L^i / d_s^i an exact division.  Every atom carries only its own
    n_s^i and d_s^i, L^i is formed once per order, and each order is one
    Fraction, whose normalisation makes it equal, type included, to the
    per-atom Fraction sum.
    """
    stray = [Fraction(qs) for ps, qs in zip(p, q) if ps == 0 and qs != 0]
    atoms = [(Fraction(ps), Fraction(qs) / Fraction(ps) - lam)
             for ps, qs in zip(p, q) if ps != 0]
    scale = math.lcm(*(ps.denominator for ps, _ in atoms))
    weights = [ps.numerator * (scale // ps.denominator) for ps, _ in atoms]
    nums = [abs(b.numerator) if absolute else b.numerator for _, b in atoms]
    dens = [b.denominator for _, b in atoms]
    common = math.lcm(*dens)
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
    num_pows, den_pows, common_pow, reached = nums, dens, common, 1
    values = []
    for i in orders:
        if stray and i >= 2:
            values.append(math.inf)
            continue
        while reached < i:
            num_pows = [a * n for a, n in zip(num_pows, nums)]
            den_pows = [a * d for a, d in zip(den_pows, dens)]
            common_pow *= common
            reached += 1
        total = sum(w * a * (common_pow // b)
                    for w, a, b in zip(weights, num_pows, den_pows))
        value = Fraction(total, scale * common_pow)
        values.append(value + sum(stray) if i == 1 else value)
    return values


def chi_pm_discrete(i: int, lam: Number, p: DiscreteDistribution,
                    q: DiscreteDistribution):
    """Sum of (q_s - lam p_s)^i / p_s^(i-1) over the atoms.

    Exact (Fraction) when p, q and lam are all rational.  An atom with
    p_s = 0 < q_s makes every order i >= 2 diverge to +inf; at i = 1 it
    contributes q_s and the total telescopes to 1 - lam.
    """
    return _discrete_values((i,), lam, p, q)[0]


def chi_abs_discrete(i: int, lam: Number, p: DiscreteDistribution,
                     q: DiscreteDistribution):
    """Absolute-value variant: sum of |q_s - lam p_s|^i / p_s^(i-1)."""
    return _discrete_values((i,), lam, p, q, absolute=True)[0]


# ---------------------------------------------------------------------------
# affine exponential families, closed form


_CANCEL_FLOOR = 1e-12


def _signed_logsum(factors, logs, what: str):
    """Sum terms factor_t * e^(log_t), tolerating magnitudes beyond floats.

    While every term fits in float range this is a plain fsum of exps.
    Otherwise the sum is rescaled by the peak magnitude; a result whose
    rescaled value still overflows comes back as a signed infinity.  The
    only unresolvable case is near-total cancellation at a scale floats
    cannot represent, which raises OverflowSaturationError rather than
    guessing a sign.
    """
    pairs = [(s, l) for s, l in zip(factors, logs) if s != 0 and l != -math.inf]
    if not pairs:
        return 0.0
    top = max(l for _, l in pairs)
    if top <= MAX_EXP_ARG:
        return math.fsum(s * math.exp(l) for s, l in pairs)
    scaled = math.fsum(s * math.exp(l - top) for s, l in pairs)
    if abs(scaled) < _CANCEL_FLOOR:
        raise OverflowSaturationError(
            f"{what} cancels beyond float resolution at peak log magnitude "
            f"{top:.6g}; the result cannot be represented"
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
        vertex = tc if i == 1 else tp + i * (tc - tp)
        if not fam.in_domain(vertex):
            cond = fam.convergence_condition(i, tp, None if mixture else tc)
            raise DivergenceError(
                f"order-{i} {'mixture ' if mixture else ''}chi term diverges "
                f"for {fam.describe()}: the parameter at j={i}"
                + (f" of component {c}" if mixture else "")
                + f" ({np.asarray(vertex).tolist()!r}) leaves the domain"
                + (f"; {cond}" if cond else "")
            )


def _moments(fam: AefFamily, tp, comps):
    """Yield M_j = E_p[(q/p)^j] for j = 0, 1, ... as (top, s), M_j = s e^top.

    Composition k of j contributes multinomial(k) prod_c w_c^k_c e^E with
    E = F(theta) - (1 - j) F(theta_p) - sum_c k_c F(theta_c) at theta =
    theta_p + sum_c k_c (theta_c - theta_p); M_0 and M_1 need no F.
    """
    f_p = fam.log_normalizer(tp)
    parts = [(tc - tp, fam.log_normalizer(tc), math.log(w))
             for w, tc in comps]
    yield 0.0, 1.0
    yield 0.0, math.fsum(w for w, _ in comps)
    for j in itertools.count(2):
        logs = []
        for counts in compositions(j, len(parts)):
            theta = tp
            gap = (1 - j) * f_p
            log_w = math.log(multinomial(counts))
            for k, (delta, f_c, log_w_c) in zip(counts, parts):
                if k:
                    theta = theta + k * delta
                    gap += k * f_c
                    log_w += k * log_w_c
            logs.append(log_w + (fam.log_normalizer(theta) - gap))
        top = max(logs)
        yield top, math.fsum(math.exp(l - top) for l in logs)


def _closed_values(orders, lam: Number, fam: AefFamily, theta_p, q) -> list:
    """Chi terms of p against q, a member or a MixtureSpec of fam.

    Per order: the vertex check, the exact (1 - lam)^i when p = q, the
    composition budget, then moments up to i, each formed once.
    """
    orders = [check_int(i, 1, "chi order") for i in orders]
    lam = _check_lam(lam)
    tp = fam.theta(theta_p)
    comps = fam.components(q)
    mixture = isinstance(q, MixtureSpec)
    sign = -1 if lam > 0 else 1
    log_abs_lam = math.log(abs(float(lam)))
    stream = _moments(fam, tp, comps)
    moments, values = [], []
    for i in orders:
        _check_vertices(i, fam, tp, comps, mixture)
        if not mixture and np.array_equal(tp, comps[0][1]):
            values.append((1 - lam) ** i)
            continue
        count = math.comb(i + len(comps), len(comps))
        if count > _COMPOSITION_BUDGET:
            raise InputError(
                f"an order-{i} chi term of a {len(comps)}-component mixture "
                f"expands into {count} compositions, over the composition "
                f"budget of {_COMPOSITION_BUDGET}; lower the order or the "
                f"components"
            )
        moments += itertools.islice(stream, i + 1 - len(moments))
        js = range(i, -1, -1)
        factors = [sign ** (i - j) * moments[j][1] for j in js]
        logs = [math.log(math.comb(i, j)) + (i - j) * log_abs_lam
                + moments[j][0] for j in js]
        values.append(_signed_logsum(factors, logs, f"order-{i} chi term"))
    return values


def chi_pm_aef(i: int, lam: Number, fam: AefFamily, theta_p, theta_q) -> float:
    """Closed-form chi term for two members of one affine exponential family.

    Expanding the i-th power binomially turns each j-summand into
    exp(E_j) with E_j = F((1-j) theta_p + j theta_q) - (1-j) F(theta_p)
    - j F(theta_q), weighted by C(i, j) (-lam)^(i-j).  Every j from 0 to
    i must keep the interpolated parameter inside the family's domain;
    the j = i endpoint is precisely the usual convergence condition.
    """
    if isinstance(theta_q, MixtureSpec):
        raise InputError("chi_pm_aef takes a natural parameter for q; "
                         "use chi_pm_mixture for a mixture")
    return _closed_values((i,), lam, fam, theta_p, theta_q)[0]


def chi_pm_mixture(i: int, lam: Number, fam: AefFamily, theta_p,
                   mixture: MixtureSpec) -> float:
    """Chi term of p against a finite mixture q of the same family.

    The binomial transform of moments M_0..M_i, each a sum of one
    log-normalizer gap per composition of j over the components.  Domain
    checks apply as in chi_pm_aef; orders past the composition budget
    raise InputError.
    """
    if not isinstance(mixture, MixtureSpec):
        raise InputError(f"chi_pm_mixture needs a MixtureSpec, got "
                         f"{type(mixture).__name__}")
    return _closed_values((i,), lam, fam, theta_p, mixture)[0]


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


def chi_pm_quadrature(i: int, lam: Number, fam: AefFamily, theta_p,
                      theta_q=None, mixture: Optional[MixtureSpec] = None,
                      absolute: bool = False) -> float:
    """Chi term by numeric integration or summation against the density.

    This is the slow, closed-form-free route used to cross-check the
    analytic paths.  Exactly one of theta_q and mixture must be given.
    The power (q/p - lam)^i is formed in log space and handed to the
    family's own integrate; families without a density raise InputError.
    """
    check_int(i, 1, "chi order")
    lam = _check_lam(lam)
    if (theta_q is None) == (mixture is None):
        raise InputError("give exactly one of theta_q and mixture")
    tp = fam.theta(theta_p)
    q = fam.theta(theta_q) if mixture is None else mixture
    _check_vertices(i, fam, tp, fam.components(q), mixture is not None)
    lam_f = float(lam)

    def term(log_p, log_r):
        sign, log_mag = _log_ratio_shift(log_r, lam_f)
        if sign == 0:
            return 0.0
        mag = safe_exp(log_p + i * log_mag)
        return -mag if sign < 0 and i % 2 and not absolute else mag

    value, _err = fam.integrate(term, tp, q, reach=i)
    return value


def chi_pm_trunc_exp_closed(theta_p: Number, theta_q: Number, i: int = 3):
    """Order-3 chi term between singly truncated exponential densities.

    Symbolic reduction of the log-normalizer route collapses to a single
    rational function of the two rates; the truncation point cancels
    entirely, so no `a` argument is needed.  The denominator factors as
    theta_p^2 (2 theta_q - theta_p)(3 theta_q - 2 theta_p), placing the
    poles exactly on the order-2 and order-3 convergence boundaries.
    Exact (Fraction) for rational rates.  Only order 3 has this form
    tabulated; other orders go through chi_pm_aef.
    """
    if check_int(i, 1, "chi order") != 3:
        raise InputError(
            f"the tabulated rational form covers order 3 only, got i={i}")
    for name, value in (("theta_p", theta_p), ("theta_q", theta_q)):
        if not check_real(value, name) > 0:
            raise InputError(f"{name} must be positive, got {value!r}")
    exact = (isinstance(theta_p, (int, Fraction))
             and isinstance(theta_q, (int, Fraction)))
    tp = Fraction(theta_p) if exact else float(theta_p)
    tq = Fraction(theta_q) if exact else float(theta_q)
    margin = 3 * tq - 2 * tp
    if margin <= 0:
        raise DivergenceError(
            f"order-3 chi term diverges for the singly truncated exponential "
            f"pair: convergence requires 3*theta_q - 2*theta_p > 0, got "
            f"{float(margin):.6g}"
        )
    num = (2 * tq ** 4 - 10 * tp * tq ** 3 + 18 * tp ** 2 * tq ** 2
           - 14 * tp ** 3 * tq + 4 * tp ** 4)
    den = tp ** 2 * (6 * tq ** 2 - 7 * tp * tq + 2 * tp ** 2)
    return num / den


# ---------------------------------------------------------------------------
# pair-level dispatch and the shared basis


def chi_pm_orders(orders, lam: Number, pair: PairSpec) -> list:
    """Chi terms of a pair spec at increasing orders, from one builder pass.

    An order that fails raises as chi_pm would at that order; the orders
    before it are not returned.
    """
    if pair.kind == "discrete":
        return _discrete_values(orders, lam, pair.p, pair.q)
    return _closed_values(orders, lam, pair.fam, pair.theta_p, pair.family_q)


def chi_pm(i: int, lam: Number, pair: PairSpec):
    """Chi term of a pair spec via its best available route."""
    return chi_pm_orders((i,), lam, pair)[0]


def chi_abs(i: int, lam: Number, pair: PairSpec):
    """Absolute chi term of a pair; continuous pairs go through quadrature."""
    if pair.kind == "discrete":
        return chi_abs_discrete(i, lam, pair.p, pair.q)
    return chi_pm_quadrature(i, lam, pair.fam, pair.theta_p,
                             theta_q=pair.theta_q, mixture=pair.mixture,
                             absolute=True)


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
    exact Fractions (rational discrete pairs) or floats.
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
        if tuple(sorted(set(self.orders))) != tuple(self.orders):
            raise InputError("orders must be strictly increasing")

    def value(self, i: int):
        try:
            return self.values[self.orders.index(i)]
        except ValueError:
            raise InputError(
                f"basis holds orders {self.orders[0]}..{self.orders[-1]}, "
                f"not {i}"
            ) from None

    @property
    def max_order(self) -> int:
        return self.orders[-1]

    @property
    def is_exact(self) -> bool:
        return all(isinstance(v, (int, Fraction)) for v in self.values)

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
            except ValueError as exc:
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
    orders = tuple(range(2, max_order + 1))
    values = tuple(chi_pm_orders(orders, lam, pair))
    return ChiBasis(lam=lam, orders=orders, values=values,
                    method=provenance(pair), source=pair.describe())
