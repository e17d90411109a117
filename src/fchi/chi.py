"""Power chi terms: the building blocks every expansion is assembled from.

The order-i, anchor-lam chi term of a pair (p, q) is the sum or integral
of (q - lam p)^i / p^(i-1).  Three evaluation routes live here:

* exact summation for finite discrete pairs, staying in Fraction
  arithmetic whenever the inputs are rational;
* a closed form for affine exponential families, a signed binomial
  combination of log-normalizer gaps, extended to mixtures through a
  multinomial expansion;
* a numeric cross-check for families with a density: the power is
  formed in log space and the family's own integrate sums or integrates
  it, the same route quadrature_f_divergence takes.

The closed form only ever queries the log-normalizer along the line
through theta_p and theta_q.  When an interpolated or extrapolated
parameter leaves the family's domain the underlying integral diverges,
and the functions here raise DivergenceError naming the offending index
rather than returning garbage.
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
    format_real,
    multinomial,
    pascal_row,
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
    exact = (
        p.is_exact and q.is_exact
        and isinstance(lam, (int, Fraction)) and not isinstance(lam, bool)
    )
    if exact:
        lam_x = Fraction(lam)
        total = Fraction(0)
        for ps, qs in zip(p.probs, q.probs):
            ps = Fraction(ps)
            qs = Fraction(qs)
            if ps == 0:
                if qs != 0:
                    if i >= 2:
                        return math.inf
                    total += abs(qs) if absolute else qs
                continue
            base = qs - lam_x * ps
            if absolute:
                base = abs(base)
            total += base ** i / ps ** (i - 1)
        return total
    lam_f = float(lam)
    terms = []
    for ps, qs in zip(p.probs, q.probs):
        ps = float(ps)
        qs = float(qs)
        if ps == 0.0:
            if qs != 0.0:
                if i >= 2:
                    return math.inf
                terms.append(abs(qs) if absolute else qs)
            continue
        base = qs / ps - lam_f
        if absolute:
            base = abs(base)
        terms.append(ps * _pow(base, i))
    return math.fsum(terms)


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


def chi_pm_aef(i: int, lam: Number, fam: AefFamily, theta_p, theta_q) -> float:
    """Closed-form chi term for two members of one affine exponential family.

    Expanding the i-th power binomially turns each j-summand into
    exp(E_j) with E_j = F((1-j) theta_p + j theta_q) - (1-j) F(theta_p)
    - j F(theta_q), weighted by C(i, j) (-lam)^(i-j).  Every j from 0 to
    i must keep the interpolated parameter inside the family's domain;
    the j = i endpoint is precisely the usual convergence condition.
    """
    _check_order(i)
    lam = _check_lam(lam)
    tp = fam.theta(theta_p)
    tq = fam.theta(theta_q)
    if np.array_equal(tp, tq):
        one = 1 - lam if isinstance(lam, (int, Fraction)) else 1.0 - lam
        return one ** i
    lam_f = float(lam)
    f_p = fam.log_normalizer(tp)
    f_q = fam.log_normalizer(tq)
    delta = tq - tp
    row = pascal_row(i)
    sign_base = int(math.copysign(1.0, -lam_f))
    log_abs_lam = math.log(abs(lam_f))
    signs, logs = [], []
    for j in range(i + 1):
        k = i - j
        sign = 1 if k == 0 else sign_base ** k
        theta_j = tq if j == 1 else tp + j * delta
        if not fam.in_domain(theta_j):
            # theta_j is linear in j, so an excursion implies the j = i
            # endpoint fails too: that is the condition the family names
            cond = fam.convergence_condition(i, tp, tq)
            raise DivergenceError(
                f"order-{i} chi term diverges for {fam.describe()}: the "
                f"interpolated parameter at j={j} "
                f"({np.asarray(theta_j).tolist()!r}) leaves the domain"
                + (f"; {cond}" if cond else "")
            )
        e_j = fam.log_normalizer(theta_j) - ((1 - j) * f_p + j * f_q)
        signs.append(sign)
        logs.append(math.log(row[j]) + k * log_abs_lam + e_j)
    return _signed_logsum(signs, logs, f"order-{i} chi term")


def chi_pm_mixture(i: int, lam: Number, fam: AefFamily, theta_p,
                   mixture: MixtureSpec) -> float:
    """Chi term of p against a finite mixture q of the same family.

    The i-th power of (sum_c w_c p_c - lam p) expands multinomially; each
    composition contributes one log-normalizer gap, evaluated at a
    signed-integer combination of the component parameters.  Domain
    checks apply to every combination, as in chi_pm_aef.
    """
    _check_order(i)
    lam = _check_lam(lam)
    tp = fam.theta(theta_p)
    comps = [fam.theta(t) for t in mixture.thetas]
    lam_f = float(lam)
    f_p = fam.log_normalizer(tp)
    f_c = [fam.log_normalizer(t) for t in comps]
    log_w = [math.log(w) for w in mixture.weights]
    sign_base = int(math.copysign(1.0, -lam_f))
    log_abs_lam = math.log(abs(lam_f))
    signs, logs = [], []
    for counts in compositions(i, len(comps) + 1):
        k0 = counts[0]
        sign = 1 if k0 == 0 else sign_base ** k0
        kc = counts[1:]
        a_p = k0 + 1 - i
        theta_bar = a_p * tp
        for k, t in zip(kc, comps):
            if k:
                theta_bar = theta_bar + k * t
        if not fam.in_domain(theta_bar):
            cond = fam.convergence_condition(i, tp)
            raise DivergenceError(
                f"order-{i} mixture chi term diverges for {fam.describe()}: "
                f"the combined parameter for composition {tuple(counts)!r} "
                f"({np.asarray(theta_bar).tolist()!r}) leaves the domain"
                + (f"; {cond}" if cond else "")
            )
        e = fam.log_normalizer(theta_bar) - a_p * f_p
        for k, fc in zip(kc, f_c):
            e -= k * fc
        signs.append(sign)
        logs.append(
            math.log(multinomial(counts)) + k0 * log_abs_lam + e
            + sum(k * lw for k, lw in zip(kc, log_w))
        )
    return _signed_logsum(signs, logs, f"order-{i} mixture chi term")


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
    # p (q_c/p)^i integrates only where the extrapolated parameter exists
    for _, tc in fam.components(q):
        if not fam.in_domain(i * tc - (i - 1) * tp):
            what = "chi" if mixture is None else "mixture chi"
            cond = fam.convergence_condition(
                i, tp, tc if mixture is None else None)
            raise DivergenceError(
                f"order-{i} {what} integral diverges for {fam.describe()}"
                + (f": {cond}" if cond else "")
            )
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
    if pair.kind == "aef":
        return chi_pm_aef(i, lam, pair.fam, pair.theta_p, pair.theta_q)
    if pair.kind == "mixture":
        return chi_pm_mixture(i, lam, pair.fam, pair.theta_p, pair.mixture)
    raise InputError(f"unknown pair kind {pair.kind!r}")


def chi_abs(i: int, lam: Number, pair: PairSpec):
    """Absolute chi term of a pair; continuous pairs go through quadrature."""
    if pair.kind == "discrete":
        return chi_abs_discrete(i, lam, pair.p, pair.q)
    if pair.kind == "aef":
        return chi_pm_quadrature(i, lam, pair.fam, pair.theta_p,
                                 theta_q=pair.theta_q, absolute=True)
    if pair.kind == "mixture":
        return chi_pm_quadrature(i, lam, pair.fam, pair.theta_p,
                                 mixture=pair.mixture, absolute=True)
    raise InputError(f"unknown pair kind {pair.kind!r}")


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
            if rational and isinstance(v, (int, Fraction)):
                v = Fraction(v)
                fh.write(f"{i},{v.numerator}/{v.denominator}\n")
            else:
                fh.write(f"{i},{format_real(v)}\n")

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
