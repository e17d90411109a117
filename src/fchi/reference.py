"""Ground-truth divergence values, computed without any expansion.

Three routes: exact summation for finite discrete pairs, a closed form
for power-type generators on affine exponential families, and plain
numeric integration against densities.  The expansion machinery is
validated against these, never the other way around.

Support conventions for the discrete route, applied uniformly to every
generator: an atom where q has mass but p has none sends the divergence
to +inf (the same atom sends every order-2-and-up chi term to +inf, so
the two evaluation routes stay consistent); an atom where p has mass but
q has none contributes p_s * f(0+); a shared zero contributes nothing.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

import numpy as np

from ._num import MAX_EXP_ARG, exact_or_fsum, quad
from .errors import InputError
from .families import (
    AefFamily,
    Categorical,
    DiscreteDistribution,
    GaussianIso,
    PairSpec,
    Poisson,
    TruncatedExponential,
)
from .generators import Generator

__all__ = [
    "exact_f_divergence_discrete",
    "exact_alpha_aef",
    "quadrature_f_divergence",
]

Number = Union[int, float, Fraction]


def exact_f_divergence_discrete(gen: Generator, p: DiscreteDistribution,
                                q: DiscreteDistribution):
    """Sum of p_s f(q_s / p_s) with the support conventions above.

    Exact (Fraction) when the inputs are rational and the generator
    evaluates rationally, which polynomial generators do.
    """
    if len(p) != len(q):
        raise InputError(f"support sizes differ: {len(p)} vs {len(q)}")
    exact_in = p.is_exact and q.is_exact
    terms = []
    for ps, qs in zip(p.probs, q.probs):
        if ps == 0:
            if qs != 0:
                return math.inf
            continue
        if exact_in:
            u = Fraction(qs) / Fraction(ps)
        else:
            u = float(qs) / float(ps)
        val = gen.eval(u)
        if val == math.inf:
            return math.inf
        terms.append(ps * val)
    return exact_or_fsum(terms)


def exact_alpha_aef(alpha: Number, fam: AefFamily, theta_p, theta_q) -> float:
    """Closed-form power divergence between two members of one family.

    The coupling integral behind the power-type generator reduces to one
    log-normalizer gap at the interpolated (|alpha| < 1) or extrapolated
    (|alpha| > 1) parameter gamma = (1 + alpha)/2 along the segment.
    Extrapolation can leave the domain, in which case the divergence is
    +inf.  alpha = +-1 is excluded; those limits are the KL pair.
    """
    a_f = float(alpha)
    if not math.isfinite(a_f):
        raise InputError(f"alpha must be finite, got {alpha!r}")
    if a_f in (1.0, -1.0):
        raise InputError("alpha = +-1 is the KL/reverse-KL limit; "
                         "no power closed form exists there")
    gamma = 0.5 * (1.0 + a_f)
    tp = fam.theta(theta_p)
    tq = fam.theta(theta_q)
    if np.array_equal(tp, tq):
        # the gap is identically zero; skip the float round trip that
        # would otherwise leave ~1e-17 of noise
        return 0.0
    lead = 4.0 / (1.0 - a_f * a_f)
    theta_bar = tp + gamma * (tq - tp)
    if not fam.in_domain(theta_bar):
        # the coupling integral diverges; this only happens when
        # extrapolating, where the prefactor is negative
        return math.inf
    gap = fam.log_normalizer(theta_bar) - (
        (1.0 - gamma) * fam.log_normalizer(tp)
        + gamma * fam.log_normalizer(tq)
    )
    if gap > MAX_EXP_ARG:
        return math.copysign(math.inf, -lead)
    return -lead * math.expm1(gap)


# integration targets absolute accuracy 1e-10; the caller sees the
# integrator's own error estimate and can judge whether that was met
_QUAD_KW = {"limit": 300, "epsabs": 1e-10, "epsrel": 1e-12}

# half-width of integration windows around the relevant means, in units
# of the unit standard deviation (12 sigma leaves tail mass ~ 1e-32)
_SIGMA_SPAN = 12.0


def quadrature_f_divergence(gen: Generator, pair: PairSpec):
    """(value, error_estimate) for a pair, by integration or summation.

    This is a cross-check instrument: it needs a density and convergent
    tails, and offers no certificates.  Discrete pairs delegate to the
    exact route with a zero error estimate.
    """
    if pair.kind == "discrete":
        v = exact_f_divergence_discrete(gen, pair.p, pair.q)
        return float(v), 0.0
    fam = pair.fam
    if not fam.has_density:
        raise InputError(f"{fam.describe()} exposes no density to integrate")
    mixture = pair.mixture if pair.kind == "mixture" else None
    tp = fam.theta(pair.theta_p)
    if mixture is None:
        tq = fam.theta(pair.theta_q)
        q_of, q_thetas = (lambda x: fam.density(x, tq)), [tq]
    else:
        q_of, q_thetas = mixture.density_fn(fam)

    def term(px: float, qx: float) -> float:
        if px == 0.0:
            return 0.0
        return px * gen.eval(qx / px)

    if isinstance(fam, Categorical):
        p = DiscreteDistribution([float(v) for v in fam.source_param(tp)])
        if mixture is None:
            acc = np.asarray(fam.source_param(q_thetas[0]))
        else:
            acc = np.zeros(fam.d + 1)
            for w, t in zip(mixture.weights, q_thetas):
                acc = acc + w * np.asarray(fam.source_param(t))
        q = DiscreteDistribution([float(v) for v in acc])
        return float(exact_f_divergence_discrete(gen, p, q)), 0.0

    if isinstance(fam, Poisson):
        rate_p = fam.source_param(tp)
        rates = [fam.source_param(t) for t in q_thetas]
        top = max(rates + [rate_p, 1.0])
        cutoff = int(top + 40.0 * math.sqrt(top) + 100.0)
        total = math.fsum(
            term(fam.density(x, tp), q_of(x)) for x in range(cutoff + 1)
        )
        return total, 0.0

    if isinstance(fam, GaussianIso):
        if mixture is None:
            tq = q_thetas[0]
            gap = float(np.linalg.norm(tq - tp))
            if gap == 0.0:
                return float(gen.eval(1.0)), 0.0
            # the density ratio depends on x only through its projection
            # onto the mean gap, so one axis suffices in any dimension
            u = (tq - tp) / gap
            mu = float(u @ tp)
            shift = 0.5 * (float(tp @ tp) - float(tq @ tq))

            def integrand(t):
                px = math.exp(-0.5 * (t - mu) ** 2) / math.sqrt(2 * math.pi)
                if px == 0.0:
                    return 0.0
                arg = gap * t + shift
                r = math.inf if arg > MAX_EXP_ARG else math.exp(arg)
                return px * gen.eval(r)

            lo = mu - _SIGMA_SPAN
            hi = mu + gap + _SIGMA_SPAN
            val, err = quad(integrand, lo, hi, points=[mu, mu + gap],
                            **_QUAD_KW)
            return val, err
        if fam.d != 1:
            raise InputError(
                "gaussian mixture quadrature supports d = 1 only"
            )
        centers = [float(np.asarray(t, float).reshape(())) for t in q_thetas]
        centers.append(float(tp.reshape(())))

        def integrand(x):
            return term(fam.density(x, tp), q_of(x))

        val, err = quad(
            integrand, min(centers) - _SIGMA_SPAN, max(centers) + _SIGMA_SPAN,
            points=sorted(centers), **_QUAD_KW,
        )
        return val, err

    if isinstance(fam, TruncatedExponential):

        def integrand(x):
            return term(fam.density(x, tp), q_of(x))

        hi = fam.b if fam.doubly else np.inf
        val, err = quad(integrand, fam.a, hi, **_QUAD_KW)
        return val, err

    raise InputError(f"no quadrature route for {fam.describe()}")
