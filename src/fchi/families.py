"""Distributions: finite discrete vectors and affine exponential families.

An affine exponential family (AEF) is parameterized so that densities are
``h(x) exp(theta . t(x) - F(theta))`` with t affine and theta ranging over
an affine slice of R^d; what this package needs from a family is its
log-normalizer F, the parameter domain, and (when available) a density.
Closed-form chi values only touch F, which is why the von Mises-Fisher
family participates without any density.  Every family with a density
carries the one numeric route both quadrature oracles use: `integrate`
sums or integrates a term of (log p(x), log q(x)/p(x)) over its support,
and owns the windows, cutoffs and atom budget that takes.

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

import numpy as np

from ._num import quad, safe_exp, saturating_fsum
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


@dataclass(frozen=True)
class DiscreteDistribution:
    """Probability vector over finitely many atoms.

    Entries may be floats or exact Fractions; rational vectors keep every
    downstream chi value exact.  Validation: entries >= 0 and the total
    within 1e-12 of 1.
    """

    probs: tuple

    def __init__(self, probs: Sequence[Number]):
        entries = tuple(_as_number(p) for p in probs)
        if len(entries) < 1:
            raise InputError("a discrete distribution needs at least one atom")
        # written so that NaN fails each check
        for p in entries:
            if not p >= 0:
                raise InputError(f"negative or NaN probability {p!r}")
        total = sum(entries) if all(
            isinstance(p, (int, Fraction)) for p in entries
        ) else math.fsum(float(p) for p in entries)
        if not abs(float(total) - 1.0) <= _SUM_TOL:
            raise InputError(f"probabilities sum to {float(total)!r}, not 1")
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
    route both quadrature oracles share.
    """

    name: str = ""
    dim: int = 0

    # -- parameters ---------------------------------------------------------

    def theta(self, value) -> np.ndarray:
        """Coerce a scalar/sequence to a validated natural-parameter vector."""
        arr = np.atleast_1d(np.asarray(value, dtype=float))
        if arr.shape != (self.dim,):
            raise InputError(
                f"{self.describe()} expects a {self.dim}-dimensional natural "
                f"parameter, got shape {arr.shape}"
            )
        return self.check_domain(arr)

    def in_domain(self, theta: np.ndarray) -> bool:
        return bool(np.all(np.isfinite(theta)))

    def check_domain(self, theta: np.ndarray) -> np.ndarray:
        if not self.in_domain(theta):
            raise InputError(
                f"natural parameter {np.asarray(theta).tolist()!r} outside the "
                f"domain of {self.describe()}"
            )
        return theta

    def natural_param(self, source) -> np.ndarray:
        """Map the family's usual parameterization to theta."""
        return self.theta(source)

    def source_param(self, theta):
        """Inverse of natural_param."""
        return np.asarray(theta, dtype=float)

    # -- structure ----------------------------------------------------------

    def log_normalizer(self, theta: np.ndarray) -> float:
        raise NotImplementedError

    def density(self, x, theta: np.ndarray) -> float:
        raise InputError(f"{self.describe()} exposes no density")

    def ratio_bounds(self, theta_p: np.ndarray, theta_q: np.ndarray):
        """(m, M) bounds on the density ratio q/p; M = +inf means unbounded."""
        raise InputError(f"no density-ratio bounds available for {self.describe()}")

    def convergence_condition(self, i: int, theta_p, theta_q=None) -> str:
        """The condition an order-i chi term needs, or "" if none applies.

        theta_q None means a mixture q, whose every component must meet it.
        """
        return ""

    # -- integration --------------------------------------------------------

    def integrate(self, term, theta_p: np.ndarray, q, reach: int = 1):
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
        t_p = float(theta_p[0])
        f_p = self.log_normalizer(theta_p)
        lines = [(float(t[0]) - t_p, math.log(w) - (self.log_normalizer(t) - f_p))
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
        if self.d < 1:
            raise InputError("gaussian_iso needs d >= 1")
        object.__setattr__(self, "name", "gaussian_iso")
        object.__setattr__(self, "dim", self.d)

    def log_normalizer(self, theta):
        theta = np.asarray(theta, dtype=float)
        return 0.5 * float(theta @ theta)

    def density(self, x, theta):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        theta = np.asarray(theta, dtype=float)
        z = -0.5 * float((x - theta) @ (x - theta))
        return (2.0 * math.pi) ** (-0.5 * self.d) * math.exp(z)

    def ratio_bounds(self, theta_p, theta_q):
        if np.array_equal(np.asarray(theta_p, float), np.asarray(theta_q, float)):
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
            centre = float(theta_p[0])
            centers = sorted([float(t[0]) for _, t in comps] + [centre])
            widen = (reach - 1) * (centers[-1] - centers[0])
            lo = centers[0] - _SIGMA_SPAN - widen
            hi = centers[-1] + _SIGMA_SPAN + widen
            points = centers
        else:
            # the ratio depends on x only through its projection s onto the
            # mean gap, measured from theta_p, so one axis serves any d
            gap = float(np.linalg.norm(q - theta_p))
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
        return math.exp(float(np.asarray(theta).reshape(())))

    def natural_param(self, source):
        lam = float(np.asarray(source).reshape(()))
        if lam <= 0:
            raise InputError(f"poisson rate must be positive, got {lam!r}")
        return np.array([math.log(lam)])

    def source_param(self, theta):
        return math.exp(float(np.asarray(theta).reshape(())))

    def density(self, x, theta):
        if x < 0 or x != int(x):
            return 0.0
        t = float(np.asarray(theta).reshape(()))
        return math.exp(x * t - math.exp(t) - math.lgamma(x + 1))

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
        t_p = float(theta_p[0])
        comps = self.components(q)
        # the tail of p (q/p)^reach is a Poisson series with this rate
        eff = safe_exp(max(
            max(reach * float(t[0]) - (reach - 1) * t_p for _, t in comps),
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
        if self.d < 1:
            raise InputError("categorical needs d >= 1")
        object.__setattr__(self, "name", "categorical")
        object.__setattr__(self, "dim", self.d)

    def log_normalizer(self, theta):
        theta = np.asarray(theta, dtype=float)
        hi = max(0.0, float(np.max(theta)))
        return hi + math.log(
            math.exp(-hi) + float(np.sum(np.exp(theta - hi)))
        )

    def natural_param(self, source):
        probs = np.asarray(source, dtype=float)
        if probs.shape != (self.d + 1,):
            raise InputError(
                f"categorical(d={self.d}) expects {self.d + 1} probabilities"
            )
        if not np.all(probs > 0):
            # written so that NaN fails too
            raise InputError("categorical probabilities must all be positive")
        if not abs(float(probs.sum()) - 1.0) <= _SUM_TOL:
            raise InputError(f"probabilities sum to {float(probs.sum())!r}, not 1")
        return np.log(probs[1:] / probs[0])

    def source_param(self, theta):
        theta = np.asarray(theta, dtype=float)
        hi = max(0.0, float(np.max(theta)))
        w = np.concatenate(([math.exp(-hi)], np.exp(theta - hi)))
        return w / w.sum()

    def density(self, x, theta):
        x = int(x)
        if not 0 <= x <= self.d:
            return 0.0
        return float(self.source_param(theta)[x])

    def ratio_bounds(self, theta_p, theta_q):
        r = self.source_param(theta_q) / self.source_param(theta_p)
        return float(r.min()), float(r.max())

    def integrate(self, term, theta_p, q, reach=1):
        """A finite sum over the d + 1 atoms; a mixture q is formed linearly."""
        probs_q = sum(w * self.source_param(t) for w, t in self.components(q))
        terms = [term(math.log(ps), math.log(qs / ps))
                 for ps, qs in zip(self.source_param(theta_p).tolist(),
                                   probs_q.tolist())]
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
        if self.d < 2:
            raise InputError("vmf needs ambient dimension d >= 2")
        object.__setattr__(self, "name", "vmf")
        object.__setattr__(self, "dim", self.d)

    def log_normalizer(self, theta):
        theta = np.asarray(theta, dtype=float)
        return _log_hyp0f1(0.5 * self.d, 0.25 * float(theta @ theta))

    def ratio_bounds(self, theta_p, theta_q):
        # ratio = exp((tq-tp).x + F(tp) - F(tq)) on |x| = 1; extremes along Delta
        tp = np.asarray(theta_p, dtype=float)
        tq = np.asarray(theta_q, dtype=float)
        gap = float(np.linalg.norm(tq - tp))
        if gap == 0.0:
            return 1.0, 1.0
        shift = self.log_normalizer(tp) - self.log_normalizer(tq)
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
        if not math.isfinite(self.a):
            raise InputError("trunc_exp needs a finite left endpoint")
        if not self.b > self.a:
            # written so that a NaN b is refused, not read as singly truncated
            raise InputError(f"need a < b, got a={self.a}, b={self.b}")
        object.__setattr__(self, "name", "trunc_exp")
        object.__setattr__(self, "dim", 1)

    @property
    def doubly(self) -> bool:
        return math.isfinite(self.b)

    def in_domain(self, theta):
        t = float(np.asarray(theta).reshape(()))
        if not math.isfinite(t):
            return False
        return True if self.doubly else t > 0.0

    def log_normalizer(self, theta):
        t = float(np.asarray(theta).reshape(()))
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

    def mass(self, theta) -> float:
        """Untruncated-density mass e^(-a theta) - e^(-b theta) over [a, b]."""
        t = float(np.asarray(theta).reshape(()))
        lo = math.exp(-self.a * t)
        hi = 0.0 if not self.doubly else math.exp(-self.b * t)
        return lo - hi

    def source_param(self, theta):
        return float(np.asarray(theta).reshape(()))

    def density(self, x, theta):
        t = float(np.asarray(theta).reshape(()))
        if x < self.a or x > self.b:
            return 0.0
        return math.exp(-t * x - self.log_normalizer(theta))

    def ratio_bounds(self, theta_p, theta_q):
        tp = float(np.asarray(theta_p).reshape(()))
        tq = float(np.asarray(theta_q).reshape(()))
        if tp == tq:
            return 1.0, 1.0
        if self.doubly:
            ends = [
                self.density(self.a, theta_q) / self.density(self.a, theta_p),
                self.density(self.b, theta_q) / self.density(self.b, theta_p),
            ]
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
        margin = i * float(theta_q[0]) - (i - 1) * float(theta_p[0])
        return (f"convergence requires {i}*theta_q - {i - 1}*theta_p > 0, "
                f"got {margin:.6g}")

    def integrate(self, term, theta_p, q, reach=1):
        f_p = self.log_normalizer(theta_p)
        t_p = float(theta_p[0])
        # the sufficient statistic is -x
        log_ratio = self._log_ratio(theta_p, self.components(q))

        def integrand(x):
            return term(-t_p * x - f_p, log_ratio(-x))

        return quad(integrand, self.a, self.b, **_QUAD_KW)

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
    return TruncatedExponential(float(a), math.inf if b is None else float(b))


def family_from_name(name: str, *, dim: Optional[int] = None,
                     a: float = 0.0, b: Optional[float] = None) -> AefFamily:
    """Build a family from its external name, as used in spec files."""
    if name == "gaussian_iso":
        return gaussian_iso(dim or 1)
    if name == "poisson":
        return poisson()
    if name == "categorical":
        return categorical(dim or 1)
    if name == "vmf":
        return vmf(dim or 3)
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
        bad = f"mixture weights must be numbers, got {weights!r}"
        if any(isinstance(x, bool) for x in weights):
            raise InputError(bad)
        try:
            w = tuple(float(x) for x in weights)
        except (TypeError, ValueError) as exc:
            raise InputError(bad) from exc
        if len(w) != len(thetas):
            raise InputError(
                f"{len(w)} weights against {len(thetas)} component parameters"
            )
        if len(w) == 0:
            raise InputError("a mixture needs at least one component")
        if not all(x > 0 for x in w):
            # written so that NaN fails too
            raise InputError(f"mixture weights must be positive, got {w!r}")
        if not abs(math.fsum(w) - 1.0) <= _SUM_TOL:
            raise InputError(f"mixture weights sum to {math.fsum(w)!r}, not 1")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "thetas", tuple(thetas))

    def validated(self, fam: AefFamily) -> "MixtureSpec":
        for t in self.thetas:
            fam.theta(t)
        return self


@dataclass(frozen=True)
class PairSpec:
    """A (p, q) pair as described by a JSON spec file.

    kind = "discrete": p and q are DiscreteDistributions.
    kind = "aef": fam plus two natural parameters.
    kind = "mixture": fam, theta_p, and a MixtureSpec for q.
    """

    kind: str
    p: Optional[DiscreteDistribution] = None
    q: Optional[DiscreteDistribution] = None
    fam: Optional[AefFamily] = None
    theta_p: Optional[np.ndarray] = None
    theta_q: Optional[np.ndarray] = None
    mixture: Optional[MixtureSpec] = None

    @property
    def family_q(self):
        """q as AefFamily.components takes it: theta_q, or the MixtureSpec."""
        if self.kind == "aef":
            return self.theta_q
        if self.kind == "mixture":
            return self.mixture
        raise InputError(f"a {self.kind!r} pair has no exponential-family q")

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
        tp_len = len(np.atleast_1d(np.asarray(theta_p_raw, dtype=float)))
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
        mix = MixtureSpec(_require(obj, "weights"), tuple(_require(obj, "thetas")))
        return PairSpec(
            kind="mixture", fam=fam, theta_p=theta_p,
            mixture=mix.validated(fam),
        )

    raise InputError(
        f"unknown spec kind {kind!r}; expected discrete, aef or mixture"
    )
