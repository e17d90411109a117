"""Power chi terms: the building blocks every expansion is assembled from.

The order-i, anchor-lam chi term of a pair (p, q) is the sum or integral
of (q - lam p)^i / p^(i-1).  Three evaluation routes live here:

* exact summation for finite discrete pairs, one loop that stays in
  Fraction arithmetic whenever the inputs are rational;
* one closed form for affine exponential families: (q - lam p)^i expands
  multinomially over the components of q into log-normalizer gaps, and a
  single member q is the one-component case, the binomial sum;
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

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from ._num import (
    MAX_EXP_ARG,
    compositions,
    exact_or_fsum,
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
    "chi_abs",
    "ChiBasis",
    "provenance",
    "compute_basis",
    "basis_build_count",
    "reset_basis_build_count",
]

Number = Union[int, float, Fraction]


def _check_order(i: int) -> int:
    if not isinstance(i, int) or isinstance(i, bool) or i < 1:
        raise InputError(f"chi order must be an integer >= 1, got {i!r}")
    return i


def _check_lam(lam: Number) -> Number:
    if isinstance(lam, bool) or not isinstance(lam, (int, float, Fraction)):
        raise InputError(f"anchor lam must be a real number, got {lam!r}")
    if isinstance(lam, float) and not math.isfinite(lam):
        raise InputError(f"anchor lam must be finite, got {lam!r}")
    if lam == 0:
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


def _discrete_terms(i, lam, p, q, absolute):
    if len(p) != len(q):
        raise InputError(f"support sizes differ: {len(p)} vs {len(q)}")
    num = Fraction if p.is_exact and q.is_exact and is_exact(lam) else float
    lam = num(lam)
    terms = []
    for ps, qs in zip(p.probs, q.probs):
        ps = num(ps)
        qs = num(qs)
        if ps == 0:
            if qs != 0:
                if i >= 2:
                    return math.inf
                terms.append(abs(qs) if absolute else qs)
            continue
        base = qs / ps - lam
        terms.append(ps * _pow(abs(base) if absolute else base, i))
    return exact_or_fsum(terms)


def chi_pm_discrete(i: int, lam: Number, p: DiscreteDistribution,
                    q: DiscreteDistribution):
    """Sum of (q_s - lam p_s)^i / p_s^(i-1) over the atoms.

    Exact (Fraction) when p, q and lam are all rational.  An atom with
    p_s = 0 < q_s makes every order i >= 2 diverge to +inf; at i = 1 it
    contributes q_s and the total telescopes to 1 - lam.
    """
    _check_order(i)
    _check_lam(lam)
    return _discrete_terms(i, lam, p, q, absolute=False)


def chi_abs_discrete(i: int, lam: Number, p: DiscreteDistribution,
                     q: DiscreteDistribution):
    """Absolute-value variant: sum of |q_s - lam p_s|^i / p_s^(i-1)."""
    _check_order(i)
    _check_lam(lam)
    return _discrete_terms(i, lam, p, q, absolute=True)


# ---------------------------------------------------------------------------
# affine exponential families, closed form


_CANCEL_FLOOR = 1e-12


def _signed_logsum(signs, logs, what: str):
    """Sum terms sign_t * e^(log_t), tolerating magnitudes beyond floats.

    While every term fits in float range this is a plain fsum of exps.
    Otherwise the sum is rescaled by the peak magnitude; a result whose
    rescaled value still overflows comes back as a signed infinity.  The
    only unresolvable case is near-total cancellation at a scale floats
    cannot represent, which raises OverflowSaturationError rather than
    guessing a sign.
    """
    pairs = [(s, l) for s, l in zip(signs, logs) if s != 0 and l != -math.inf]
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


def _convergent_components(i: int, fam: AefFamily, tp, q) -> list:
    """fam.components(q), after the one divergence check of order i.

    Each vertex theta_p + i (theta_c - theta_p) is formed as the closed
    form forms it and must lie in the domain; the closed form and the
    quadrature route share this check.
    """
    comps = fam.components(q)
    for c, (_, tc) in enumerate(comps):
        vertex = tc if i == 1 else tp + i * (tc - tp)
        if not fam.in_domain(vertex):
            mixture = isinstance(q, MixtureSpec)
            cond = fam.convergence_condition(i, tp, None if mixture else tc)
            raise DivergenceError(
                f"order-{i} {'mixture ' if mixture else ''}chi term diverges "
                f"for {fam.describe()}: the parameter at j={i}"
                + (f" of component {c}" if mixture else "")
                + f" ({np.asarray(vertex).tolist()!r}) leaves the domain"
                + (f"; {cond}" if cond else "")
            )
    return comps


def _chi_pm_closed(i: int, lam: Number, fam: AefFamily, theta_p, q):
    """Chi term of p against q, a member or a MixtureSpec of fam.

    Composition k_0 + sum_c k_c = i contributes exp(F(theta) - a_p
    F(theta_p) - sum_c k_c F(theta_c)) with theta = theta_p + sum_c k_c
    (theta_c - theta_p) and a_p = k_0 + 1 - i, weighted by its
    multinomial, (-lam)^k_0 and prod_c w_c^k_c.
    """
    _check_order(i)
    lam = _check_lam(lam)
    tp = fam.theta(theta_p)
    comps = _convergent_components(i, fam, tp, q)
    if not isinstance(q, MixtureSpec) and np.array_equal(tp, comps[0][1]):
        one = 1 - lam if isinstance(lam, (int, Fraction)) else 1.0 - lam
        return one ** i
    count = math.comb(i + len(comps), len(comps))
    if count > _COMPOSITION_BUDGET:
        raise InputError(
            f"an order-{i} chi term of a {len(comps)}-component mixture "
            f"expands into {count} compositions, over the composition budget "
            f"of {_COMPOSITION_BUDGET}; lower the order or the components"
        )
    lam_f = float(lam)
    sign_base = int(math.copysign(1.0, -lam_f))
    log_abs_lam = math.log(abs(lam_f))
    f_p = fam.log_normalizer(tp)
    parts = [(tc, tc - tp, fam.log_normalizer(tc), math.log(w))
             for w, tc in comps]
    signs, logs = [], []
    for counts in compositions(i, len(parts) + 1):
        k0 = counts[0]
        theta = tp
        gap = (k0 + 1 - i) * f_p
        log_w = math.log(multinomial(counts)) + k0 * log_abs_lam
        for k, (tc, delta, f_c, log_w_c) in zip(counts[1:], parts):
            if k:
                # a single unit on c lands on theta_c itself
                theta = tc if k0 == i - 1 else theta + k * delta
                gap += k * f_c
                log_w += k * log_w_c
        signs.append(sign_base ** k0)
        logs.append(log_w + (fam.log_normalizer(theta) - gap))
    return _signed_logsum(signs, logs, f"order-{i} chi term")


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
    return _chi_pm_closed(i, lam, fam, theta_p, theta_q)


def chi_pm_mixture(i: int, lam: Number, fam: AefFamily, theta_p,
                   mixture: MixtureSpec) -> float:
    """Chi term of p against a finite mixture q of the same family.

    The i-th power of (sum_c w_c p_c - lam p) expands multinomially; each
    composition contributes one log-normalizer gap, evaluated at a
    signed-integer combination of the component parameters.  Domain
    checks apply to every combination, as in chi_pm_aef; orders past the
    composition budget raise InputError.
    """
    if not isinstance(mixture, MixtureSpec):
        raise InputError(f"chi_pm_mixture needs a MixtureSpec, got "
                         f"{type(mixture).__name__}")
    return _chi_pm_closed(i, lam, fam, theta_p, mixture)


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
    _check_order(i)
    lam = _check_lam(lam)
    if (theta_q is None) == (mixture is None):
        raise InputError("give exactly one of theta_q and mixture")
    tp = fam.theta(theta_p)
    q = fam.theta(theta_q) if mixture is None else mixture
    _convergent_components(i, fam, tp, q)
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
    _check_order(i)
    if i != 3:
        raise InputError(
            f"the tabulated rational form covers order 3 only, got i={i}")
    for name, value in (("theta_p", theta_p), ("theta_q", theta_q)):
        if isinstance(value, bool) or not isinstance(value, (int, float,
                                                             Fraction)):
            raise InputError(f"{name} must be a positive real, got {value!r}")
        if not (value > 0 and (not isinstance(value, float)
                               or math.isfinite(value))):
            raise InputError(f"{name} must be a positive finite real, "
                             f"got {value!r}")
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


def chi_pm(i: int, lam: Number, pair: PairSpec):
    """Chi term of a pair spec via its best available route."""
    if pair.kind == "discrete":
        return chi_pm_discrete(i, lam, pair.p, pair.q)
    return _chi_pm_closed(i, lam, pair.fam, pair.theta_p, pair.family_q)


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
    """Build the chi basis of a pair for orders 2..max_order.

    One call per pair is all an expansion workload should ever need;
    basis_build_count() counts constructions so reuse is observable.
    """
    if not isinstance(max_order, int) or max_order < 2:
        raise InputError(f"max_order must be an integer >= 2, got {max_order!r}")
    global _basis_builds
    _basis_builds += 1
    orders = tuple(range(2, max_order + 1))
    values = tuple(chi_pm(i, lam, pair) for i in orders)
    return ChiBasis(lam=lam, orders=orders, values=values,
                    method=provenance(pair), source=pair.describe())
