"""Ground-truth divergence values, computed without any expansion.

Three routes: exact summation for finite discrete pairs, a closed form
for power-type generators on affine exponential families, and numeric
integration, which each family carries as its own integrate method.  The
expansion machinery is validated against these, never the other way
around.

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

from ._num import MAX_EXP_ARG, check_real, exact_or_fsum, safe_exp
from .errors import InputError
from .families import AefFamily, DiscreteDistribution, PairSpec
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
    a_f = float(check_real(alpha, "alpha"))
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


def quadrature_f_divergence(gen: Generator, pair: PairSpec):
    """(value, error_estimate) for a pair, by integration or summation.

    This is a cross-check instrument: it needs a density and convergent
    tails, and offers no certificates.  Discrete pairs delegate to the
    exact route with a zero error estimate; every other pair goes through
    its family's integrate, which reports the integrator's estimate (zero
    for the categorical and Poisson sums).
    """
    if pair.kind == "discrete":
        v = exact_f_divergence_discrete(gen, pair.p, pair.q)
        return float(v), 0.0
    fam = pair.fam
    q = pair.mixture if pair.kind == "mixture" else fam.theta(pair.theta_q)

    def term(log_p: float, log_r: float) -> float:
        p = math.exp(log_p)
        if p == 0.0:
            return 0.0
        return p * gen.eval(safe_exp(log_r))

    return fam.integrate(term, fam.theta(pair.theta_p), q)
