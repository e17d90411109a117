"""Property tests over generated inputs; conftest derandomizes hypothesis."""

import math
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fchi.chi import chi_pm_aef, chi_pm_mixture, chi_pm_quadrature
from fchi.errors import DivergenceError
from fchi.families import (
    MixtureSpec,
    TruncatedExponential,
    categorical,
    gaussian_iso,
    poisson,
    trunc_exp,
)
from fchi.generators import (
    conjugate_coeffs,
    conjugate_generator,
    from_spec,
    generalized_binomial,
    polynomial_generator,
)

poly_coeffs = st.lists(
    st.fractions(min_value=-10, max_value=10, max_denominator=12),
    min_size=1, max_size=8,
)
orders = st.integers(min_value=2, max_value=30)


@settings(max_examples=60)
@given(poly_coeffs, orders)
def test_poly_conjugate_matches_binomial_oracle(a, k_max):
    # u * u^(-j) = (1+t)^(1-j) with u = 1 + t, so f*(u) = sum_j a_j u^(1-j)
    # has c*_i = sum_j a_j C(1-j, i), independent of the conjugation sum
    got = conjugate_coeffs(polynomial_generator(a), k_max)
    want = [
        sum((a_j * generalized_binomial(1 - j, i) for j, a_j in enumerate(a)),
            start=Fraction(0))
        for i in range(2, k_max + 1)
    ]
    assert got == want
    assert all(isinstance(c, Fraction) for c in got)


exact_generators = st.one_of(
    st.sampled_from(["kl", "rkl", "jeffreys", "js", "harmonic", "alpha:3",
                     "alpha:-3", "alpha:5", "alpha:-7"]).map(from_spec),
    poly_coeffs.map(polynomial_generator),
)


@settings(max_examples=40)
@given(exact_generators, orders)
def test_conjugating_twice_returns_the_stream(gen, k_max):
    twice = conjugate_coeffs(conjugate_generator(gen, k_max), k_max)
    assert twice == [gen.coeff(i) for i in range(2, k_max + 1)]


# ---------------------------------------------------------------------------
# closed forms against the family's own integration route

def _vector(d, lo, hi):
    return st.lists(st.floats(min_value=lo, max_value=hi), min_size=d,
                    max_size=d)


@st.composite
def aef_pairs(draw):
    """(family, theta_p, theta_q) for every family with a density."""
    kind = draw(st.sampled_from(["gaussian", "poisson", "categorical",
                                 "singly", "doubly"]))
    if kind == "gaussian":
        d = draw(st.integers(1, 3))
        tp = draw(_vector(d, -1.0, 1.0))
        gap = draw(_vector(d, -1.5, 1.5))
        return gaussian_iso(d), tp, [a + g for a, g in zip(tp, gap)]
    if kind == "poisson":
        rate = draw(st.floats(min_value=0.5, max_value=5.0))
        ratio = draw(st.floats(min_value=0.5, max_value=2.0))
        return poisson(), [math.log(rate)], [math.log(rate * ratio)]
    if kind == "categorical":
        d = draw(st.integers(1, 3))
        return (categorical(d), draw(_vector(d, -2.0, 2.0)),
                draw(_vector(d, -2.0, 2.0)))
    a = draw(st.floats(min_value=0.0, max_value=1.0))
    if kind == "singly":
        # q may sit on either side of p, so some orders diverge
        tp = draw(st.floats(min_value=0.5, max_value=3.0))
        ratio = draw(st.floats(min_value=0.5, max_value=2.0))
        return trunc_exp(a), [tp], [tp * ratio]
    b = a + draw(st.floats(min_value=0.5, max_value=3.0))
    return (trunc_exp(a, b), [draw(st.floats(-3.0, 3.0))],
            [draw(st.floats(-3.0, 3.0))])


@st.composite
def mixture_pairs(draw):
    """(family, theta_p, MixtureSpec) with 1-3 components."""
    n = draw(st.integers(1, 3))
    raw = draw(st.lists(st.floats(min_value=0.5, max_value=1.5), min_size=n,
                        max_size=n))
    weights = [w / math.fsum(raw) for w in raw]
    if draw(st.booleans()):
        tp = draw(st.floats(-1.0, 1.0))
        offsets = draw(st.lists(st.floats(-0.6, 0.6), min_size=n, max_size=n))
        return gaussian_iso(1), [tp], MixtureSpec(
            weights, [[tp + o] for o in offsets])
    rate = draw(st.floats(min_value=0.5, max_value=4.0))
    ratios = draw(st.lists(st.floats(0.6, 1.6), min_size=n, max_size=n))
    return poisson(), [math.log(rate)], MixtureSpec(
        weights, [[math.log(rate * r)] for r in ratios])


def _route(fn):
    try:
        return fn()
    except DivergenceError:
        return DivergenceError


def _assert_routes_agree(closed, summed):
    if closed is DivergenceError or summed is DivergenceError:
        assert closed is summed
    elif closed == math.inf:
        assert summed == math.inf
    else:
        assert abs(summed - closed) <= 1e-8 * max(1.0, abs(closed))


chi_orders = st.integers(min_value=2, max_value=10)
anchors = st.sampled_from([1, Fraction(1, 2)])


@settings(max_examples=120)
@given(aef_pairs(), chi_orders, anchors)
def test_aef_closed_form_matches_quadrature(pair, i, lam):
    fam, tp, tq = pair
    # within a relative 1e-3 of the singly truncated convergence boundary
    # the integrand barely decays, and quad misses its mass
    if isinstance(fam, TruncatedExponential) and not fam.doubly:
        margin = i * tq[0] - (i - 1) * tp[0]
        assume(not 0 < margin < 1e-3 * tp[0])
    _assert_routes_agree(
        _route(lambda: chi_pm_aef(i, lam, fam, tp, tq)),
        _route(lambda: chi_pm_quadrature(i, lam, fam, tp, theta_q=tq)),
    )


@settings(max_examples=60)
@given(mixture_pairs(), chi_orders, anchors)
def test_mixture_closed_form_matches_quadrature(pair, i, lam):
    fam, tp, mix = pair
    _assert_routes_agree(
        _route(lambda: chi_pm_mixture(i, lam, fam, tp, mix)),
        _route(lambda: chi_pm_quadrature(i, lam, fam, tp, mixture=mix)),
    )
