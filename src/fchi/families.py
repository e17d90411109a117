"""Distributions: finite discrete vectors and affine exponential families.

An affine exponential family (AEF) is parameterized so that densities are
``h(x) exp(theta . t(x) - F(theta))`` with t affine and theta ranging over
an affine slice of R^d; what this package needs from a family is its
log-normalizer F and the parameter domain.  A natural parameter is a
tuple of floats.  Closed-form chi values only touch F, which is why the
von Mises-Fisher family participates without any density.  Every family
with a density carries the one numeric route both quadrature oracles
use: `integrate` sums or integrates a term of (log p(x), log q(x)/p(x))
over its support, and owns the windows, cutoffs and atom budget that
takes.

Five families ship: gaussian_iso(d) (unit covariance, mean as natural
parameter), poisson, categorical(d) (d+1 atoms, log-odds against atom 0),
vmf(d) (unit sphere in R^d), and trunc_exp(a, b) (exponential restricted
to [a, b], b may be +inf).  The truncated exponential is the deliberately
awkward guest: its singly truncated parameter domain (0, inf) is a half
line, so binomial interpolations can leave it, and that is exactly the
divergence mechanism the chi module must detect.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from ._num import check_float, check_int, quad, safe_exp, saturating_fsum
from .errors import InputError

__all__ = [
    "DiscreteDistribution",
    "bernoulli",
    "ratio_bounds_discrete",
    "AefFamily",
    "GaussianIso",
    "Poisson",
    "Categorical",
    "VonMisesFisher",
    "TruncatedExponential",
    "gaussian_iso",
    "poisson",
    "categorical",
    "vmf",
    "trunc_exp",
    "family_from_name",
    "MixtureSpec",
    "PairSpec",
    "load_pair_spec",
]

Number = Union[int, float, Fraction]

_SUM_TOL = 1e-12


def _as_number(x) -> Number:
    """JSON scalar (or 'num/den' / decimal string) to a number; strings stay exact."""
    if isinstance(x, bool):
        raise InputError(f"probability entries must be numbers, got {x!r}")
    if isinstance(x, (int, float)):
        return x
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"cannot parse {x!r} as a rational number") from exc
    if isinstance(x, Fraction):
        return x
    raise InputError(f"probability entries must be numbers, got {type(x).__name__}")


def _entries(values, what: str) -> tuple:
    """tuple(values), or InputError when values is not a sequence."""
    try:
        return tuple(values)
    except TypeError:
        raise InputError(f"{what} must be a list, got {values!r}") from None


def _reals(value, what: str) -> tuple:
    """A scalar or an iterable of reals (a str is one entry) as floats."""
    try:
        entries = (value,) if isinstance(value, str) else tuple(value)
    except TypeError:
        entries = (value,)
    return tuple(check_float(x, what) for x in entries)


@dataclass(frozen=True)
class DiscreteDistribution:
    """Probability vector over finitely many atoms.

    Entries may be floats or exact Fractions; rational vectors keep every
    downstream chi value exact.  Validation: entries >= 0 and the total
    within 1e-12 of 1.
    """

    probs: tuple

    def __init__(self, probs: Sequence[Number]):
        entries = tuple(_as_number(p) for p in _entries(probs, "probabilities"))
        if len(entries) < 1:
            raise InputError("a discrete distribution needs at least one atom")
        # written so that NaN fails each check
        for p in entries:
            if not p >= 0:
                raise InputError(f"negative or NaN probability {p!r}")
        total = check_float(sum(entries), "probabilities") if all(
            isinstance(p, (int, Fraction)) for p in entries
        ) else math.fsum(check_float(p, "probabilities") for p in entries)
        if not abs(total - 1.0) <= _SUM_TOL:
            raise InputError(f"probabilities sum to {total!r}, not 1")
        object.__setattr__(self, "probs", entries)

    def __len__(self) -> int:
        return len(self.probs)

    def __getitem__(self, s: int) -> Number:
        return self.probs[s]

    @property
    def is_exact(self) -> bool:
        return all(isinstance(p, (int, Fraction)) for p in self.probs)

    def describe(self) -> str:
        return f"discrete[{len(self.probs)}]"


def bernoulli(lam: Number) -> DiscreteDistribution:
    """Two-atom distribution (lam, 1 - lam); Fractions stay exact."""
    if isinstance(lam, (int, Fraction)):
        return DiscreteDistribution((Fraction(lam), 1 - Fraction(lam)))
    return DiscreteDistribution((lam, 1.0 - lam))


def ratio_bounds_discrete(p: DiscreteDistribution, q: DiscreteDistribution):
    """(m, M) = extremes of q_s/p_s over the union support.

    m = 0 when q misses mass somewhere p has it; M = +inf when q has mass
    where p has none.  Exact inputs give exact Fractions back (except the
    inf case).
    """
    if len(p) != len(q):
        raise InputError(f"support sizes differ: {len(p)} vs {len(q)}")
    if p.is_exact and q.is_exact:
        return _exact_ratio_bounds(p.probs, q.probs)
    ratios = []
    m_zero = False
    M_inf = False
    for ps, qs in zip(p.probs, q.probs):
        if ps == 0 and qs == 0:
            continue
        if ps == 0:
            M_inf = True
        elif qs == 0:
            m_zero = True
        else:
            ratios.append(Fraction(qs) / Fraction(ps) if isinstance(ps, (int, Fraction))
                          and isinstance(qs, (int, Fraction)) else qs / ps)
    if not ratios and not (m_zero or M_inf):
        raise InputError("distributions share no support")
    m = 0 if m_zero else (min(ratios) if ratios else 0)
    M = math.inf if M_inf else max(ratios)
    return m, M


def _exact_ratio_bounds(p, q) -> tuple:
    """ratio_bounds_discrete of rational p and q, in integers.

    Each ratio q_s/p_s is the pair (c b, d a) for p_s = a/b and q_s = c/d,
    the extremes are found by integer cross-products, and only the two
    returned are Fractions.
    """
    lo = hi = None
    m_zero = M_inf = False
    for ps, qs in zip(p, q):
        if not ps:
            if qs:
                M_inf = True
        elif not qs:
            m_zero = True
        else:
            n = qs.numerator * ps.denominator
            d = qs.denominator * ps.numerator
            if lo is None:
                lo = hi = n, d
            elif n * lo[1] < lo[0] * d:
                lo = n, d
            elif n * hi[1] > hi[0] * d:
                hi = n, d
    if lo is None and not (m_zero or M_inf):
        raise InputError("distributions share no support")
    m = 0 if m_zero or lo is None else Fraction(*lo)
    M = math.inf if M_inf else Fraction(*hi)
    return m, M


# ---------------------------------------------------------------------------
# affine exponential families


# integration targets absolute accuracy 1e-10; callers see the
# integrator's own error estimate and can judge whether that was met
_QUAD_KW = {"limit": 300, "epsabs": 1e-10, "epsrel": 1e-12}

# half-width of integration windows around the relevant means, in units
# of the unit standard deviation (12 sigma leaves tail mass ~ 1e-32)
_SIGMA_SPAN = 12.0

# most atoms a Poisson series may sum: the cutoff grows like
# rate_q^reach / rate_p^(reach-1), so high orders on modest rates would
# otherwise run for hours
_POISSON_ATOM_BUDGET = 100_000

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


class AefFamily:
    """Base for the exponential-family descriptors.

    Subclasses set `name` and `dim`, implement `log_normalizer`, and
    override `in_domain` and the parameter maps (theta itself) as needed.
    Families with a density also implement `integrate`, the one numeric
    route both quadrature oracles share.  Methods take a natural parameter
    as any sequence of floats and return them as tuples.
    """

    name: str = ""
    dim: int = 0

    # -- parameters ---------------------------------------------------------

    def theta(self, value) -> tuple:
        """A scalar or an iterable of reals as a validated natural parameter."""
        theta = _reals(value, "a natural parameter entry")
        if len(theta) != self.dim:
            raise InputError(
                f"{self.describe()} expects a {self.dim}-dimensional natural "
                f"parameter, got shape {(len(theta),)}"
            )
        if not self.in_domain(theta):
            raise InputError(
                f"natural parameter {list(theta)!r} outside the domain of "
                f"{self.describe()}"
            )
        return theta

    def in_domain(self, theta) -> bool:
        return all(math.isfinite(t) for t in theta)

    def natural_param(self, source) -> tuple:
        """Map the family's usual parameterization to theta."""
        return self.theta(source)

    def source_param(self, theta):
        """Inverse of natural_param."""
        return tuple(theta)

    # -- structure ----------------------------------------------------------

    def log_normalizer(self, theta) -> float:
        raise NotImplementedError

    def ratio_bounds(self, theta_p, theta_q):
        """(m, M) bounds on the density ratio q/p; M = +inf means unbounded."""
        raise InputError(f"no density-ratio bounds available for {self.describe()}")

    def convergence_condition(self, i: int, theta_p, theta_q=None) -> str:
        """The condition an order-i chi term needs, or "" if none applies.

        theta_q None means a mixture q, whose every component must meet it.
        """
        return ""

    # -- integration --------------------------------------------------------

    def integrate(self, term, theta_p, q, reach: int = 1):
        """(value, error_estimate) of the sum or integral of term over x.

        term(log p(x), log(q(x)/p(x))) is summed or integrated over the
        support, where q is a natural parameter or a MixtureSpec whose
        density is sum_c w_c p(.; theta_c).  `reach` is the power the term
        raises the ratio to: p (q/p)^reach peaks near theta_p + reach
        (theta_c - theta_p), so windows and cutoffs widen with it.
        """
        raise InputError(f"{self.describe()} exposes no density to integrate")

    def components(self, q) -> list:
        """(weight, validated theta) for a natural parameter or a mixture."""
        if isinstance(q, MixtureSpec):
            return [(w, self.theta(t)) for w, t in zip(q.weights, q.thetas)]
        return [(1.0, self.theta(q))]

    def _log_ratio(self, theta_p, comps):
        """stat -> log(q(x)/p(x)) for a one-dimensional sufficient statistic.

        Component c contributes the line log w_c + (theta_c - theta_p) stat
        - (F(theta_c) - F(theta_p)); a mixture combines the lines by
        log-sum-exp, so no density is formed and none underflows.
        """
        t_p = theta_p[0]
        f_p = self.log_normalizer(theta_p)
        lines = [(t[0] - t_p, math.log(w) - (self.log_normalizer(t) - f_p))
                 for w, t in comps]
        if len(lines) == 1:
            (a, b), = lines
            return lambda s: a * s + b

        def log_ratio(s):
            vals = [a * s + b for a, b in lines]
            top = max(vals)
            return top + math.log(math.fsum(math.exp(v - top) for v in vals))

        return log_ratio

    def describe(self) -> str:
        return self.name


@dataclass(frozen=True)
class GaussianIso(AefFamily):
    """Gaussian with identity covariance; natural parameter = mean vector.

    F(theta) = |theta|^2 / 2.  The density ratio of two distinct members
    is unbounded in both directions, so remainder certification is never
    available here; that is what makes it the canonical divergent case.
    """

    d: int = 1

    def __post_init__(self):
        check_int(self.d, 1, "gaussian_iso d")
        object.__setattr__(self, "name", "gaussian_iso")
        object.__setattr__(self, "dim", self.d)

    def log_normalizer(self, theta):
        return 0.5 * math.fsum(t * t for t in theta)

    def ratio_bounds(self, theta_p, theta_q):
        if tuple(theta_p) == tuple(theta_q):
            return 1.0, 1.0
        return 0.0, math.inf

    def integrate(self, term, theta_p, q, reach=1):
        if isinstance(q, MixtureSpec):
            if self.d != 1:
                raise InputError(
                    "gaussian mixture quadrature supports d = 1 only"
                )
            comps = self.components(q)
            log_ratio = self._log_ratio(theta_p, comps)
            centre = theta_p[0]
            centers = sorted([t[0] for _, t in comps] + [centre])
            widen = (reach - 1) * (centers[-1] - centers[0])
            lo = centers[0] - _SIGMA_SPAN - widen
            hi = centers[-1] + _SIGMA_SPAN + widen
            points = centers
        else:
            # the ratio depends on x only through its projection s onto the
            # mean gap, measured from theta_p, so one axis serves any d
            gap = math.dist(q, theta_p)
            shift = -0.5 * gap * gap
            log_ratio = lambda s: gap * s + shift
            centre = 0.0
            lo, hi = -_SIGMA_SPAN, reach * gap + _SIGMA_SPAN
            points = [0.0, reach * gap]

        def integrand(x):
            return term(-0.5 * (x - centre) ** 2 - _LOG_SQRT_2PI, log_ratio(x))

        return quad(integrand, lo, hi, points=points, **_QUAD_KW)

    def describe(self):
        return f"gaussian_iso(d={self.d})"


@dataclass(frozen=True)
class Poisson(AefFamily):
    """Poisson family; theta = log rate, F(theta) = e^theta."""

    def __post_init__(self):
        object.__setattr__(self, "name", "poisson")
        object.__setattr__(self, "dim", 1)

    def log_normalizer(self, theta):
        return math.exp(theta[0])

    def natural_param(self, source):
        rate = _reals(source, "poisson rate")
        if len(rate) != 1 or not rate[0] > 0:
            raise InputError(f"poisson rate must be positive, got {source!r}")
        return (math.log(rate[0]),)

    def source_param(self, theta):
        return math.exp(theta[0])

    def ratio_bounds(self, theta_p, theta_q):
        lp = self.source_param(theta_p)
        lq = self.source_param(theta_q)
        if lp == lq:
            return 1.0, 1.0
        if lq < lp:
            # ratio e^(lp-lq) (lq/lp)^x decreases in x: max at x=0, inf at m
            return 0.0, math.exp(lp - lq)
        return math.exp(lp - lq), math.inf

    def integrate(self, term, theta_p, q, reach=1):
        """Series over x = 0..cutoff, refused past _POISSON_ATOM_BUDGET atoms."""
        t_p = theta_p[0]
        comps = self.components(q)
        # the tail of p (q/p)^reach is a Poisson series with this rate
        eff = safe_exp(max(
            max(reach * t[0] - (reach - 1) * t_p for _, t in comps),
            t_p, 0.0,
        ))
        cutoff = eff + 40.0 * math.sqrt(eff) + 100.0
        if cutoff > _POISSON_ATOM_BUDGET:
            raise InputError(
                f"poisson summation at power {reach} needs a cutoff of "
                f"{cutoff:.4g} atoms, over the atom budget of "
                f"{_POISSON_ATOM_BUDGET}; lower the order or the rates"
            )
        log_ratio = self._log_ratio(theta_p, comps)
        rate_p = math.exp(t_p)
        terms = [term(x * t_p - rate_p - math.lgamma(x + 1), log_ratio(x))
                 for x in range(int(cutoff) + 1)]
        return saturating_fsum(terms, "poisson series"), 0.0


@dataclass(frozen=True)
class Categorical(AefFamily):
    """Categorical on d+1 atoms; theta_i = log(p_i / p_0), i = 1..d.

    F(theta) = log(1 + sum e^theta_i).  Full support is part of the
    parameterization: a zero probability has no finite log-odds.
    """

    d: int = 1

    def __post_init__(self):
        check_int(self.d, 1, "categorical d")
        object.__setattr__(self, "name", "categorical")
        object.__setattr__(self, "dim", self.d)

    def log_normalizer(self, theta):
        hi = max(0.0, *theta)
        return hi + math.log(
            math.exp(-hi) + math.fsum(math.exp(t - hi) for t in theta)
        )

    def natural_param(self, source):
        probs = _reals(source, "a categorical probability")
        if len(probs) != self.d + 1:
            raise InputError(
                f"categorical(d={self.d}) expects {self.d + 1} probabilities"
            )
        if not all(p > 0 for p in probs):
            raise InputError("categorical probabilities must all be positive")
        if not abs(math.fsum(probs) - 1.0) <= _SUM_TOL:
            raise InputError(f"probabilities sum to {math.fsum(probs)!r}, not 1")
        return tuple(math.log(p / probs[0]) for p in probs[1:])

    def source_param(self, theta):
        hi = max(0.0, *theta)
        w = [math.exp(-hi), *(math.exp(t - hi) for t in theta)]
        total = math.fsum(w)
        return tuple(x / total for x in w)

    def ratio_bounds(self, theta_p, theta_q):
        r = [qs / ps for ps, qs in zip(self.source_param(theta_p),
                                       self.source_param(theta_q))]
        return min(r), max(r)

    def integrate(self, term, theta_p, q, reach=1):
        """A finite sum over the d + 1 atoms; a mixture q is formed linearly."""
        comps = [(w, self.source_param(t)) for w, t in self.components(q)]
        probs_q = [math.fsum(w * probs[s] for w, probs in comps)
                   for s in range(self.d + 1)]
        terms = [term(math.log(ps), math.log(qs / ps))
                 for ps, qs in zip(self.source_param(theta_p), probs_q)]
        return saturating_fsum(terms, "categorical sum"), 0.0

    def describe(self):
        return f"categorical(d={self.d})"


_HYP0F1_CAP = 10_000


def _log_hyp0f1(b: float, z: float) -> float:
    """log 0F1(; b; z) for z >= 0 by direct series summation.

    Terms z^n / ((b)_n n!) fall superexponentially; summation stops when
    the relative term drops under 1e-16.  Past 1e300 the sum and the term
    are divided by 2^996, which is exact, and the log adds the shift back.
    A series that has not settled within the cap raises InputError.
    """
    term = 1.0
    acc = 1.0
    shifts = 0
    for n in range(_HYP0F1_CAP):
        term *= z / ((b + n) * (n + 1))
        acc += term
        if term < 1e-16 * acc:
            return math.log(acc) + shifts * 996 * math.log(2.0)
        if acc > 1e300:
            acc = math.ldexp(acc, -996)
            term = math.ldexp(term, -996)
            shifts += 1
    raise InputError(f"0F1 series did not settle within the "
                     f"{_HYP0F1_CAP}-term cap (b={b}, z={z})")


@dataclass(frozen=True)
class VonMisesFisher(AefFamily):
    """von Mises-Fisher on the unit sphere in R^d; no density is exposed.

    F(theta) = log 0F1(; d/2; |theta|^2/4).  Only the log-normalizer is
    needed for closed-form chi values, which is the point of carrying a
    family without a practical density evaluator.
    """

    d: int = 3

    def __post_init__(self):
        check_int(self.d, 2, "vmf ambient dimension d")
        object.__setattr__(self, "name", "vmf")
        object.__setattr__(self, "dim", self.d)

    def log_normalizer(self, theta):
        return _log_hyp0f1(0.5 * self.d, 0.25 * math.fsum(t * t for t in theta))

    def ratio_bounds(self, theta_p, theta_q):
        # ratio = exp((tq-tp).x + F(tp) - F(tq)) on |x| = 1; extremes along Delta
        gap = math.dist(theta_q, theta_p)
        if gap == 0.0:
            return 1.0, 1.0
        shift = self.log_normalizer(theta_p) - self.log_normalizer(theta_q)
        return math.exp(-gap + shift), math.exp(gap + shift)

    def describe(self):
        return f"vmf(d={self.d})"


@dataclass(frozen=True)
class TruncatedExponential(AefFamily):
    """Exponential density e^(-theta x), renormalized to [a, b].

    Doubly truncated (finite b): any real theta, F = log((e^(-a theta) -
    e^(-b theta)) / theta) with the removable singularity at theta = 0
    filled by log(b - a).  Singly truncated (b = +inf): theta > 0 and
    F = -a theta - log theta.  Densities are exp(-theta x - F(theta)).
    """

    a: float = 0.0
    b: float = math.inf

    def __post_init__(self):
        object.__setattr__(self, "a", check_float(self.a, "trunc_exp a"))
        # a non-finite float b is left to the a < b rule below: +inf means
        # singly truncated, NaN and -inf are refused there
        if not (isinstance(self.b, float) and not math.isfinite(self.b)):
            object.__setattr__(self, "b", check_float(self.b, "trunc_exp b"))
        if not self.b > self.a:
            # written so that a NaN b is refused, not read as singly truncated
            raise InputError(f"need a < b, got a={self.a}, b={self.b}")
        object.__setattr__(self, "name", "trunc_exp")
        object.__setattr__(self, "dim", 1)

    @property
    def doubly(self) -> bool:
        return math.isfinite(self.b)

    def in_domain(self, theta):
        t = theta[0]
        if not math.isfinite(t):
            return False
        return True if self.doubly else t > 0.0

    def log_normalizer(self, theta):
        t = theta[0]
        if not self.doubly:
            if t <= 0.0:
                raise InputError(
                    f"singly truncated exponential needs theta > 0, got {t!r}"
                )
            return -self.a * t - math.log(t)
        width = self.b - self.a
        s = width * t
        if s == 0.0:
            # theta = 0, or a theta so small that width * theta underflows
            return math.log(width)
        # (e^(-a t) - e^(-b t))/t = width * e^(-a t) * (-expm1(-s))/s
        if s < -36.0:
            tail = -s - math.log(-s)
        elif s > 36.0:
            tail = -math.log(s)
        else:
            tail = math.log(-math.expm1(-s) / s)
        return -self.a * t + math.log(width) + tail

    def source_param(self, theta):
        return theta[0]

    def ratio_bounds(self, theta_p, theta_q):
        tp, tq = theta_p[0], theta_q[0]
        if tp == tq:
            return 1.0, 1.0
        if self.doubly:
            # the density e^(-theta x - F(theta)) of q over that of p at each end
            f_p, f_q = self.log_normalizer(theta_p), self.log_normalizer(theta_q)
            ends = [math.exp(-tq * x - f_q) / math.exp(-tp * x - f_p)
                    for x in (self.a, self.b)]
            return min(ends), max(ends)
        at_a = tq / tp
        if tq > tp:
            return 0.0, at_a
        return at_a, math.inf

    def convergence_condition(self, i, theta_p, theta_q=None):
        # the integrand tail ~ exp(-(i theta_q - (i-1) theta_p) x) must decay
        if self.doubly:
            return ""
        if theta_q is None:
            return (f"convergence requires {i}*theta_c - {i - 1}*theta_p > 0 "
                    f"for every component c")
        margin = i * theta_q[0] - (i - 1) * theta_p[0]
        return (f"convergence requires {i}*theta_q - {i - 1}*theta_p > 0, "
                f"got {margin:.6g}")

    def integrate(self, term, theta_p, q, reach=1):
        """Doubly truncated: one quad over [a, b].

        Singly truncated: p (q/p)^reach is a sum of exponentials whose
        rates lie between the vertices theta_p and theta_p + reach (theta_c
        - theta_p); the slowest nears 0 at the convergence boundary.
        [a, a + 50 / slowest] is integrated with a breakpoint at every
        doubling from 1 / fastest, so a tail of length 1 / margin does not
        hide the head, and the rest in units of the slowest rate.
        """
        f_p = self.log_normalizer(theta_p)
        t_p = theta_p[0]
        comps = self.components(q)
        # the sufficient statistic is -x
        log_ratio = self._log_ratio(theta_p, comps)

        def integrand(x):
            return term(-t_p * x - f_p, log_ratio(-x))

        if self.doubly:
            return quad(integrand, self.a, self.b, **_QUAD_KW)
        # formed as chi._check_vertices forms them, so a vertex that
        # passed that check is a positive rate here
        rates = [t_p] + [t_p + reach * (t[0] - t_p) for _, t in comps]
        slow, fast = min(rates), max(rates)
        end = self.a + 50.0 / slow
        points = [self.a + 2.0 ** m / fast
                  for m in range(math.ceil(math.log2(50.0 * fast / slow)))]
        head, head_err = quad(integrand, self.a, end, points=points,
                              **_QUAD_KW)
        tail, tail_err = quad(lambda s: integrand(end + s / slow) / slow,
                              0.0, math.inf, **_QUAD_KW)
        return head + tail, head_err + tail_err

    def describe(self):
        return f"trunc_exp(a={self.a}, b={self.b})"


def gaussian_iso(d: int = 1) -> GaussianIso:
    return GaussianIso(d)


def poisson() -> Poisson:
    return Poisson()


def categorical(d: int) -> Categorical:
    return Categorical(d)


def vmf(d: int) -> VonMisesFisher:
    return VonMisesFisher(d)


def trunc_exp(a: float = 0.0, b: float = math.inf) -> TruncatedExponential:
    return TruncatedExponential(a, math.inf if b is None else b)


def family_from_name(name: str, *, dim: Optional[int] = None,
                     a: float = 0.0, b: Optional[float] = None) -> AefFamily:
    """Build a family from its external name, as used in spec files."""
    if name == "gaussian_iso":
        return gaussian_iso(1 if dim is None else dim)
    if name == "poisson":
        return poisson()
    if name == "categorical":
        return categorical(1 if dim is None else dim)
    if name == "vmf":
        return vmf(3 if dim is None else dim)
    if name == "trunc_exp":
        return trunc_exp(a, math.inf if b is None else b)
    raise InputError(
        f"unknown family {name!r}; expected gaussian_iso, poisson, "
        f"categorical, vmf or trunc_exp"
    )


# ---------------------------------------------------------------------------
# mixtures and pair specs


@dataclass(frozen=True)
class MixtureSpec:
    """Finite mixture of members of one family: weights and component thetas."""

    weights: tuple
    thetas: tuple

    def __init__(self, weights: Sequence[float], thetas: Sequence):
        w = tuple(check_float(x, "mixture weights")
                  for x in _entries(weights, "mixture weights"))
        thetas = _entries(thetas, "mixture component parameters")
        if len(w) != len(thetas):
            raise InputError(
                f"{len(w)} weights against {len(thetas)} component parameters"
            )
        if len(w) == 0:
            raise InputError("a mixture needs at least one component")
        if not all(x > 0 for x in w):
            raise InputError(f"mixture weights must be positive, got {w!r}")
        if not abs(math.fsum(w) - 1.0) <= _SUM_TOL:
            raise InputError(f"mixture weights sum to {math.fsum(w)!r}, not 1")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "thetas", thetas)

    def validated(self, fam: AefFamily) -> "MixtureSpec":
        for t in self.thetas:
            fam.theta(t)
        return self


# the fields each pair kind needs
_PAIR_FIELDS = {"discrete": ("p", "q"), "aef": ("fam", "theta_p", "theta_q"),
                "mixture": ("fam", "theta_p", "mixture")}


@dataclass(frozen=True)
class PairSpec:
    """A (p, q) pair as described by a JSON spec file.

    kind = "discrete": p and q are DiscreteDistributions.
    kind = "aef": fam plus two natural parameters.
    kind = "mixture": fam, theta_p, and a MixtureSpec for q.

    An unknown kind, or a field its kind needs left as None, raises
    InputError here, so no layer meets a half-built pair.
    """

    kind: str
    p: Optional[DiscreteDistribution] = None
    q: Optional[DiscreteDistribution] = None
    fam: Optional[AefFamily] = None
    theta_p: Optional[tuple] = None
    theta_q: Optional[tuple] = None
    mixture: Optional[MixtureSpec] = None

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _PAIR_FIELDS:
            raise InputError(f"unknown pair kind {self.kind!r}; expected "
                             f"discrete, aef or mixture")
        needed = _PAIR_FIELDS[self.kind]
        missing = [name for name in needed if getattr(self, name) is None]
        if missing:
            raise InputError(f"a {self.kind!r} pair needs {', '.join(needed)}; "
                             f"{', '.join(missing)} missing")

    @property
    def family_q(self):
        """q as AefFamily.components takes it: theta_q, or the MixtureSpec."""
        if self.kind == "aef":
            return self.theta_q
        if self.kind == "mixture":
            return self.mixture
        raise InputError("a discrete pair has no exponential-family q")

    def describe(self) -> str:
        if self.kind == "discrete":
            return self.p.describe()
        if self.kind == "aef":
            return self.fam.describe()
        return f"mixture[{len(self.mixture.weights)}] of {self.fam.describe()}"


def _require(obj: dict, key: str):
    if key not in obj:
        raise InputError(f"distribution spec is missing the {key!r} field")
    return obj[key]


def load_pair_spec(source) -> PairSpec:
    """Parse a pair spec from a dict, a JSON string, or a file path."""
    if isinstance(source, PairSpec):
        return source
    if isinstance(source, dict):
        obj = source
    else:
        text = str(source)
        if text.lstrip().startswith("{"):
            raw = text
        else:
            try:
                with open(text, "r", encoding="utf-8") as fh:
                    raw = fh.read()
            except OSError as exc:
                raise InputError(f"cannot read spec file {text!r}: {exc}") from exc
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise InputError(f"spec is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise InputError("spec must be a JSON object")

    kind = _require(obj, "kind")
    if kind == "discrete":
        return PairSpec(
            kind="discrete",
            p=DiscreteDistribution(_require(obj, "p")),
            q=DiscreteDistribution(_require(obj, "q")),
        )

    if kind in ("aef", "mixture"):
        fam_name = _require(obj, "family")
        theta_p_raw = _require(obj, "theta_p")
        tp_len = len(theta_p_raw) if isinstance(theta_p_raw, (list, tuple)) \
            else 1
        fam = family_from_name(
            fam_name,
            dim=obj.get("d", tp_len),
            a=obj.get("a", 0.0),
            b=obj.get("b", None),
        )
        theta_p = fam.theta(theta_p_raw)
        if kind == "aef":
            return PairSpec(
                kind="aef",
                fam=fam,
                theta_p=theta_p,
                theta_q=fam.theta(_require(obj, "theta_q")),
            )
        mix = MixtureSpec(_require(obj, "weights"), _require(obj, "thetas"))
        return PairSpec(
            kind="mixture", fam=fam, theta_p=theta_p,
            mixture=mix.validated(fam),
        )

    raise InputError(
        f"unknown spec kind {kind!r}; expected discrete, aef or mixture"
    )
