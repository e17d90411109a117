"""Property tests over generated inputs; conftest derandomizes hypothesis."""

import io
import math
import sys
import warnings
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate as scipy_integrate

import oracles
from pairs import family_pair
from fchi import chi, families
from fchi._num import safe_exp
from fchi.chi import (
    ChiBasis,
    _discrete_values,
    _log_ratio_shift,
    chi_abs,
    chi_pm,
    chi_pm_orders,
    chi_pm_quadrature,
    compute_basis,
)
from fchi.errors import DivergenceError, InputError, OverflowSaturationError
from fchi.expansion import (_partial_sums, batch_evaluate, chi_expansion,
                            converge)
from fchi.families import (
    DiscreteDistribution,
    MixtureSpec,
    PairSpec,
    categorical,
    gaussian_iso,
    poisson,
    ratio_bounds_discrete,
    trunc_exp,
    vmf,
)
from fchi.generators import (
    alpha_generator,
    conjugate_coeffs,
    conjugate_generator,
    from_spec,
    generalized_binomial,
    polynomial_generator,
)
from fchi.reference import exact_f_divergence_discrete

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
def test_aef_closed_form_matches_quadrature(members, i, lam):
    pair = family_pair(*members)
    _assert_routes_agree(
        _route(lambda: chi_pm(i, lam, pair)),
        _route(lambda: chi_pm_quadrature(i, lam, pair)),
    )


@settings(max_examples=60)
@given(mixture_pairs(), chi_orders, anchors)
def test_mixture_closed_form_matches_quadrature(members, i, lam):
    pair = family_pair(*members)
    _assert_routes_agree(
        _route(lambda: chi_pm(i, lam, pair)),
        _route(lambda: chi_pm_quadrature(i, lam, pair)),
    )


@st.composite
def closed_form_pairs(draw):
    """aef_pairs plus vmf, which has a log-normalizer and no density."""
    if draw(st.integers(0, 5)):
        return draw(aef_pairs())
    return vmf(3), draw(_vector(3, -1.0, 1.0)), draw(_vector(3, -1.5, 1.5))


def _outcome(fn):
    try:
        return repr(fn())
    except (DivergenceError, OverflowSaturationError) as exc:
        return type(exc)


@settings(max_examples=150)
@given(closed_form_pairs(), st.integers(min_value=2, max_value=64),
       st.sampled_from([1, Fraction(1, 2), 2, -1, 0.7]))
def test_one_component_mixture_is_the_aef_pair(pair, i, lam):
    fam, tp, tq = pair
    # identical parameters take the aef pair's exact (1 - lam)^i shortcut
    assume(tp != tq)
    mixture = family_pair(fam, tp, MixtureSpec([1.0], (tq,)))
    assert _outcome(lambda: chi_pm(i, lam, mixture)) == _outcome(
        lambda: chi_pm(i, lam, family_pair(fam, tp, tq)))


@st.composite
def singly_truncated_near_the_boundary(draw):
    """(i, family, theta_p, q) with q a member or a 1-3 component mixture.

    Components sit within a few ulps of the order-i convergence boundary
    i theta_c = (i - 1) theta_p, or anywhere in a wider band around it.
    """
    i = draw(st.integers(min_value=2, max_value=12))
    tp = draw(st.floats(min_value=0.5, max_value=3.0))

    def component():
        edge = tp * (i - 1) / i
        if draw(st.booleans()):
            return [edge + draw(st.integers(-4, 4)) * math.ulp(edge)]
        return [edge * draw(st.floats(min_value=0.9, max_value=1.1))]

    if draw(st.booleans()):
        return i, trunc_exp(draw(st.floats(0.0, 1.0))), [tp], component()
    n = draw(st.integers(1, 3))
    raw = draw(st.lists(st.floats(min_value=0.5, max_value=1.5), min_size=n,
                        max_size=n))
    weights = [w / math.fsum(raw) for w in raw]
    return i, trunc_exp(0.0), [tp], MixtureSpec(
        weights, [component() for _ in range(n)])


# near the boundary quad warns and may miss mass; only refusals compare here
@pytest.mark.filterwarnings(
    "ignore:quadrature reached its limit:RuntimeWarning")
@settings(max_examples=80)
@given(singly_truncated_near_the_boundary())
def test_closed_form_and_quadrature_refuse_the_same_pairs(case):
    i, fam, tp, q = case
    pair = family_pair(fam, tp, q)
    closed = _route(lambda: chi_pm(i, 1, pair))
    summed = _route(lambda: chi_pm_quadrature(i, 1, pair))
    assert (closed is DivergenceError) == (summed is DivergenceError)


@st.composite
def integration_cases(draw):
    """(family, theta_p, q, i) for the families integrated on a real range:
    gaussian members and mixtures, and singly and doubly truncated
    exponentials with the order-i chi term convergent."""
    i = draw(st.integers(min_value=2, max_value=4))
    kind = draw(st.sampled_from(["gaussian", "mixture", "singly", "doubly"]))
    if kind == "gaussian":
        d = draw(st.integers(1, 2))
        tp = draw(_vector(d, -1.0, 1.0))
        return gaussian_iso(d), tp, [t + draw(st.floats(-1.5, 1.5))
                                     for t in tp], i
    if kind == "mixture":
        tp = draw(st.floats(-1.0, 1.0))
        n = draw(st.integers(1, 3))
        raw = draw(st.lists(st.floats(0.5, 1.5), min_size=n, max_size=n))
        thetas = [[tp + draw(st.floats(-1.5, 1.5))] for _ in range(n)]
        return gaussian_iso(1), [tp], MixtureSpec(
            [w / math.fsum(raw) for w in raw], thetas), i
    a = draw(st.floats(0.0, 1.0))
    if kind == "singly":
        tp = draw(st.floats(0.5, 3.0))
        # i theta_q - (i - 1) theta_p stays at least theta_p / 20
        low = (i - 1) / i + 0.05 / i
        return trunc_exp(a), [tp], [tp * draw(st.floats(low, 2.0))], i
    fam = trunc_exp(a, a + draw(st.floats(0.5, 5.0)))
    return fam, [draw(st.floats(-2.0, 3.0))], [draw(st.floats(-2.0, 3.0))], i


def _scipy_quad(fn, lo, hi, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return scipy_integrate.quad(fn, lo, hi, **kw)


@settings(max_examples=40)
@given(integration_cases())
def test_quad_matches_scipy_quad_on_every_family_integrand(case):
    fam, tp, q, i = case
    tp = fam.theta(tp)
    if not isinstance(q, MixtureSpec):
        q = fam.theta(q)

    def term(log_p, log_r):
        # p (q/p - 1)^i, formed in log space as chi_pm_quadrature forms it
        sign, log_mag = _log_ratio_shift(log_r, 1.0)
        return sign ** i * safe_exp(log_p + i * log_mag) if sign else 0.0

    ours, our_err = fam.integrate(term, tp, q, reach=i)
    with mock.patch.object(families, "quad", _scipy_quad):
        theirs, their_err = fam.integrate(term, tp, q, reach=i)
    assert (abs(ours - theirs) <= our_err + their_err
            or abs(ours - theirs) <= 1e-12 * abs(theirs))


# ---------------------------------------------------------------------------
# one builder pass per basis against one builder call per order


@st.composite
def discrete_pairs(draw):
    """Exact or float pairs on 1-6 atoms; zero atoms are allowed."""
    n = draw(st.integers(1, 6))
    exact = draw(st.booleans())

    def dist():
        raw = draw(st.lists(st.integers(0, 20), min_size=n, max_size=n)
                   .filter(any))
        if exact:
            return DiscreteDistribution([Fraction(r, sum(raw)) for r in raw])
        return DiscreteDistribution([r / sum(raw) for r in raw])

    return PairSpec(kind="discrete", p=dist(), q=dist())


def _orders(top):
    """A max order in 2..top, the top itself about half the time."""
    return st.one_of(st.just(top), st.integers(2, top))


# highest order drawn per component count: one past the composition
# budget at four components, and bounded elsewhere to keep the per-order
# side of the comparison fast
_MIXTURE_TOP = {1: 64, 2: 20, 3: 16, 4: 20}


@st.composite
def mixture_bases(draw):
    """(pair, max_order) for 1-4 component mixtures."""
    fam, tp, mix = draw(mixture_pairs())
    if draw(st.integers(0, 3)) == 0:
        # a fourth component, beyond the others' rate or offset
        step = [[1.3 * mix.thetas[-1][0] + 0.2]]
        mix = MixtureSpec([w * 0.8 for w in mix.weights] + [0.2],
                          list(mix.thetas) + step)
    pair = PairSpec(kind="mixture", fam=fam, theta_p=fam.theta(tp),
                    mixture=mix)
    return pair, draw(_orders(_MIXTURE_TOP[len(mix.weights)]))


def _values(fn):
    try:
        return [(type(v), repr(v)) for v in fn()]
    except (DivergenceError, InputError, OverflowSaturationError) as exc:
        return type(exc), str(exc)


def _assert_basis_is_each_order(pair, k, lam):
    assert _values(lambda: compute_basis(pair, k, lam).values) == _values(
        lambda: [chi_pm(i, lam, pair) for i in range(2, k + 1)])


basis_anchors = st.sampled_from([1, Fraction(1, 2), -1, 0.7])


@settings(max_examples=40)
@given(discrete_pairs(), _orders(64), basis_anchors)
def test_discrete_basis_is_each_order_bit_for_bit(pair, k, lam):
    _assert_basis_is_each_order(pair, k, lam)


@settings(max_examples=40)
@given(closed_form_pairs(), _orders(64), basis_anchors)
def test_aef_basis_is_each_order_bit_for_bit(case, k, lam):
    fam, tp, tq = case
    pair = PairSpec(kind="aef", fam=fam, theta_p=fam.theta(tp),
                    theta_q=fam.theta(tq))
    _assert_basis_is_each_order(pair, k, lam)


@settings(max_examples=20)
@given(mixture_bases(), basis_anchors)
def test_mixture_basis_is_each_order_bit_for_bit(case, lam):
    _assert_basis_is_each_order(*case, lam)


# ---------------------------------------------------------------------------
# the closed form against its per-term reference copy


_CLOSED_KINDS = ["gaussian1", "gaussian3", "poisson", "categorical",
                 "singly", "doubly", "vmf"]


@st.composite
def closed_form_specs(draw, kind):
    """p and q of one closed-form family: q a member or a 2-3 component
    mixture, far from p, close to it or equal to it."""
    if kind in ("gaussian1", "gaussian3"):
        fam = gaussian_iso(1 if kind == "gaussian1" else 3)
        tp = draw(_vector(fam.dim, -1.0, 1.0))
    elif kind == "poisson":
        fam, tp = poisson(), [math.log(draw(st.floats(0.5, 5.0)))]
    elif kind == "categorical":
        fam, tp = categorical(3), draw(_vector(3, -2.0, 2.0))
    elif kind == "singly":
        fam = trunc_exp(draw(st.floats(0.0, 1.0)))
        tp = [draw(st.floats(0.5, 3.0))]
    elif kind == "doubly":
        a = draw(st.floats(0.0, 1.0))
        fam = trunc_exp(a, a + draw(st.floats(0.5, 3.0)))
        tp = [draw(st.floats(-3.0, 3.0))]
    else:
        fam, tp = vmf(3), draw(_vector(3, -1.5, 1.5))
    scale = draw(st.sampled_from([1.0, 0.5, 1e-3, 0]))

    def member():
        if kind == "singly":
            # q on either side of p, so some orders diverge
            return [tp[0] * draw(st.floats(1 - scale / 2, 1 + scale))]
        return [t + scale * draw(st.floats(-1.0, 1.0)) for t in tp]

    n = draw(st.sampled_from([1, 2, 3]))
    if n == 1:
        return PairSpec(kind="aef", fam=fam, theta_p=fam.theta(tp),
                        theta_q=fam.theta(member()))
    raw = draw(st.lists(st.floats(0.5, 1.5), min_size=n, max_size=n))
    mix = MixtureSpec([w / math.fsum(raw) for w in raw],
                      [member() for _ in range(n)])
    return PairSpec(kind="mixture", fam=fam, theta_p=fam.theta(tp),
                    mixture=mix.validated(fam))


def _outcomes(fn):
    try:
        return [repr(v) for v in fn()]
    except Exception as exc:  # the routes must fail alike, whatever fails
        return type(exc), str(exc)


@pytest.mark.parametrize("kind", _CLOSED_KINDS)
@settings(max_examples=12)
@given(data=st.data())
def test_closed_form_is_the_per_term_route_bit_for_bit(kind, data):
    pair = data.draw(closed_form_specs(kind))
    lo, top = data.draw(st.integers(1, 3)), data.draw(st.integers(2, 64))
    lam = data.draw(st.sampled_from([1, -0.5, 2.5]))
    orders = range(lo, top + 1)
    got = _outcomes(lambda: chi_pm_orders(orders, lam, pair))
    want = _outcomes(lambda: oracles.closed_chi_values(
        orders, lam, pair.fam, pair.theta_p, pair.family_q))
    assert got == want


# ---------------------------------------------------------------------------
# the exact discrete builder against the per-atom Fraction sum


@st.composite
def exact_discrete_pairs(draw):
    """Rational pairs on 1-60 atoms with counts up to 10^6.

    q may miss up to three atoms, up to three more may be empty on both
    sides, and a quarter of the pairs have p miss up to three atoms, which
    makes p_s = 0 < q_s strays.
    """
    n = draw(st.integers(1, 60))
    counts = st.lists(st.integers(1, 10**6), min_size=n, max_size=n)
    atoms = st.sets(st.integers(0, n - 1), max_size=3)
    wp, wq = draw(counts), draw(counts)
    for s in draw(atoms):
        wq[s] = 0
    for s in draw(atoms):
        wp[s] = wq[s] = 0
    if draw(st.integers(0, 3)) == 0:
        for s in draw(atoms):
            wp[s] = 0
    assume(any(wp) and any(wq))
    return tuple(DiscreteDistribution([Fraction(w, sum(ws)) for w in ws])
                 for ws in (wp, wq))


def _typed(values):
    return [(type(v), v) for v in values]


@settings(max_examples=25)
@given(exact_discrete_pairs(), st.integers(2, 64), st.data(),
       st.sampled_from([1, Fraction(1, 2), -1, Fraction(3, 2), 2]))
def test_exact_discrete_builder_matches_the_per_atom_sum(pq, k, data, lam):
    p, q = pq
    i = data.draw(st.integers(1, k))
    pair = PairSpec(kind="discrete", p=p, q=q)
    basis = compute_basis(pair, k, lam)
    assert _typed(basis.values) == _typed(
        oracles.chi_power_exact(range(2, k + 1), lam, p.probs, q.probs))
    # order 1 telescopes to 1 - lam, strays included
    for j in (1, i):
        assert _typed([chi_pm(j, lam, pair)]) == _typed(
            oracles.chi_power_exact([j], lam, p.probs, q.probs))
        assert _typed([chi_abs(j, lam, pair)]) == _typed(
            oracles.chi_power_exact([j], lam, p.probs, q.probs,
                                    absolute=True))
    assert all(isinstance(v, Fraction) or v == math.inf
               for v in basis.values)


# ---------------------------------------------------------------------------
# the merged-base integer route: atoms that share q_s/p_s share one power


@st.composite
def repeated_ratio_pairs(draw):
    """Rational pairs on 1-12 atoms whose ratios q_s/p_s come from a pool
    of at most four, so atoms merge; some atoms may have p_s = 0 < q_s."""
    n = draw(st.integers(1, 12))
    pool = draw(st.lists(st.fractions(0, 3, max_denominator=6), min_size=1,
                         max_size=4))
    wp = draw(st.lists(st.integers(1, 30), min_size=n, max_size=n))
    wq = [w * draw(st.sampled_from(pool)) for w in wp]
    if draw(st.integers(0, 3)) == 0:
        for s in draw(st.sets(st.integers(0, n - 1), max_size=2)):
            wp[s], wq[s] = 0, Fraction(draw(st.integers(1, 30)))
    assume(any(wp) and any(wq))
    return tuple(DiscreteDistribution([Fraction(w) / sum(ws) for w in ws])
                 for ws in (wp, wq))


@settings(max_examples=80)
@given(repeated_ratio_pairs(),
       st.lists(st.integers(1, 20), min_size=1, max_size=6, unique=True),
       st.sampled_from([1, Fraction(1, 2), Fraction(3, 2), Fraction(-2, 3),
                        2]),
       st.booleans())
def test_merged_bases_equal_the_per_atom_sum(pq, orders, lam, absolute):
    p, q = pq
    orders = sorted(orders)
    got, form = _discrete_values(orders, lam, p, q, absolute)
    assert _typed(got) == _typed(
        oracles.chi_power_exact(orders, lam, p.probs, q.probs, absolute))
    # the integer form the exact expansions sum in: A_i / (V L^i)
    if form is None:
        assert any(ps == 0 < qs for ps, qs in zip(p.probs, q.probs))
    else:
        big_l, v, nums = form
        assert [Fraction(a, v * big_l ** i) for a, i in zip(nums, orders)] \
            == got


def _work_estimate(p, q, lam, top):
    """The exact route's work estimate: atoms x order x bits of V L^top."""
    atoms = [(Fraction(ps), Fraction(qs) / Fraction(ps) - lam)
             for ps, qs in zip(p.probs, q.probs) if ps != 0]
    scale = math.lcm(*(ps.denominator for ps, _ in atoms))
    common = math.lcm(*(b.denominator for _, b in atoms))
    return len(atoms) * top * (scale.bit_length()
                               + top * common.bit_length())


@settings(max_examples=60)
@given(exact_discrete_pairs(), st.integers(1, 64),
       st.sampled_from([1, Fraction(1, 2), Fraction(-2, 3)]), st.data())
def test_exact_budget_refuses_exactly_over_its_estimate(pq, top, lam, data):
    p, q = pq
    work = _work_estimate(p, q, Fraction(lam), top)
    budget = data.draw(st.sampled_from([work - 1, work, work + 1, work // 2,
                                        2 * work]))
    with mock.patch.object(chi, "_EXACT_BUDGET", budget):
        if work > budget:
            with pytest.raises(InputError, match="exact discrete budget"):
                _discrete_values([top], lam, p, q)
        else:
            _discrete_values([top], lam, p, q)


# ---------------------------------------------------------------------------
# exact expansions, summed in integers, against plain Fraction accumulation


@st.composite
def small_rational_pairs(draw):
    """Rational pairs on 2-8 atoms; an atom may be empty on either side or
    both (p_s = 0 < q_s makes a stray), and a fifth of the pairs have
    p = q."""
    n = draw(st.integers(2, 8))
    counts = st.lists(st.integers(0, 9), min_size=n, max_size=n)
    wp = draw(counts)
    wq = wp if draw(st.integers(0, 4)) == 0 else draw(counts)
    assume(any(wp) and any(wq))
    return PairSpec(kind="discrete", p=DiscreteDistribution(
        [Fraction(w, sum(wp)) for w in wp]), q=DiscreteDistribution(
        [Fraction(w, sum(wq)) for w in wq]))


_named = st.sampled_from(["kl", "rkl", "jeffreys", "js", "harmonic", "exp",
                          "alpha:3", "alpha:5", "alpha:7", "alpha:-3",
                          "alpha:0.5", "alpha:-0.5", "alpha:2"]).map(from_spec)
expansion_generators = st.one_of(
    _named, poly_coeffs.map(polynomial_generator),
    st.one_of(_named, poly_coeffs.map(polynomial_generator)).map(
        lambda g: conjugate_generator(g, 40)))

# ints (an aef basis of p = q holds int zeros), rationals of about unit
# size, and some past float range either way
chi_values = st.one_of(
    st.integers(-3, 3), st.fractions(-3, 3, max_denominator=50),
    st.builds(lambda n, e: Fraction(n) * 10 ** e, st.integers(-9, 9),
              st.integers(300, 400)),
    st.builds(lambda n, e: Fraction(n, 10 ** e), st.integers(-9, 9),
              st.integers(300, 400)))


def _same(a, b) -> bool:
    """Equal with equal types, elementwise; NaN equals NaN."""
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    return type(a) is type(b) and (a == b or a != a and b != b)


def _assert_the_oracle(gen, basis, reports):
    want = oracles.expansion_by_fractions(gen, basis)
    terms, floats, partials, partial_floats = _partial_sums(gen, basis)
    assert _same(terms, want["terms"])
    assert _same(floats, want["floats"])
    assert _same(list(partials), want["partials"])
    assert _same(partial_floats, want["partial_floats"])
    assert _same(chi_expansion(gen, basis), want["partials"][-1])
    for rep in reports:
        assert _same(rep.terms, tuple(want["terms"]))
        assert _same(rep.partials, tuple(want["partials"]))
        assert _same(rep.value, want["partials"][-1])
        assert (rep.verdict, rep.settled_at, rep.note) == (
            want["verdict"], want["settled_at"], want["note"])
    return want


@settings(max_examples=80)
@given(small_rational_pairs(), expansion_generators, st.integers(2, 40))
def test_expansions_on_rational_pairs_equal_the_fraction_oracle(pair, gen, k):
    basis = compute_basis(pair, k)
    reports = [] if k < 4 else [converge(gen, basis),
                                batch_evaluate(pair, [gen], k)[gen.name]]
    _assert_the_oracle(gen, basis, reports)


@settings(max_examples=80)
@given(expansion_generators, st.integers(2, 40), st.data())
def test_hand_built_and_csv_bases_equal_the_fraction_oracle(gen, k, data):
    # a float value at an order whose coefficient vanishes has a 0.0 term,
    # and puts the whole expansion on the float route
    values = []
    for i in range(2, k + 1):
        if gen.coeff(i) == 0 and data.draw(st.integers(0, 3)) == 0:
            values.append(data.draw(st.sampled_from([0.5, -2.0, math.inf])))
        else:
            values.append(data.draw(chi_values))
    basis = ChiBasis(lam=1, orders=tuple(range(2, k + 1)),
                     values=tuple(values))
    text = io.StringIO()
    basis.to_csv(text, rational=data.draw(st.booleans()))
    text.seek(0)
    for b in (basis, ChiBasis.from_csv(text)):
        want = _assert_the_oracle(gen, b,
                                  [converge(gen, b)] if k >= 4 else [])
        # a partial sum past float range reads as a signed infinity
        for s, f in zip(want["partials"], want["partial_floats"]):
            if abs(s) > sys.float_info.max:
                assert f == (math.inf if s > 0 else -math.inf)


@settings(max_examples=60)
@given(small_rational_pairs(),
       st.one_of(poly_coeffs.map(lambda a: (a, polynomial_generator(a))),
                 st.sampled_from([3, 5, 7]).map(
                     lambda a: (a, alpha_generator(a)))),
       st.integers(2, 40))
def test_finite_expansions_are_the_divergence(pair, case, k):
    # a polynomial's coefficients vanish past its degree and odd alpha's
    # past (alpha + 1) / 2, so the truncation there is the divergence
    p, q = pair.p.probs, pair.q.probs
    assume(all(ps > 0 for ps in p))
    param, gen = case
    if isinstance(param, int):
        assume(k >= (param + 1) // 2)
        g = (1 + param) // 2
        want = Fraction(4, 1 - param * param) * (
            1 - sum(ps * (qs / ps) ** g for ps, qs in zip(p, q)))
    else:
        assume(k >= len(param) - 1)
        want = exact_f_divergence_discrete(gen, pair.p, pair.q)
    got = chi_expansion(gen, compute_basis(pair, k))
    assert type(got) is Fraction and got == want


# ---------------------------------------------------------------------------
# the integer discrete route end to end, against plain Fraction arithmetic


@st.composite
def integer_route_pairs(draw):
    """Rational pairs on 2-50 atoms.  q may miss atoms, atoms may be empty
    on both sides, a quarter of the pairs have p miss atoms where q has
    mass (strays), and a sixth have p as a point mass.  A zero entry is
    an int or a Fraction, and a point mass is an int 1 or a Fraction."""
    n = draw(st.integers(2, 50))
    counts = st.lists(st.integers(1, 40), min_size=n, max_size=n)
    atoms = st.sets(st.integers(0, n - 1), max_size=3)
    wp, wq = draw(counts), draw(counts)
    for s in draw(atoms):
        wq[s] = 0
    for s in draw(atoms):
        wp[s] = wq[s] = 0
    if draw(st.integers(0, 3)) == 0:
        for s in draw(atoms):
            wp[s] = 0
    if draw(st.integers(0, 5)) == 0:
        wp = [0] * n
        wp[draw(st.integers(0, n - 1))] = 1
    assume(any(wp) and any(wq))

    def entry(w, total):
        if (w == 0 or w == total) and draw(st.booleans()):
            return w // total
        return Fraction(w, total)

    return tuple(DiscreteDistribution([entry(w, sum(ws)) for w in ws])
                 for ws in (wp, wq))


integer_route_anchors = st.sampled_from([1, Fraction(1, 2), Fraction(-3, 2),
                                         2])


@settings(max_examples=30)
@given(integer_route_pairs(), integer_route_anchors, st.booleans())
def test_integer_route_basis_equals_the_fraction_oracle(pq, lam, absolute):
    p, q = pq
    orders = range(2, 65)
    want = _typed(oracles.chi_power_exact(orders, lam, p.probs, q.probs,
                                          absolute))
    assert _typed(_discrete_values(orders, lam, p, q, absolute)[0]) == want
    if not absolute:
        pair = PairSpec(kind="discrete", p=p, q=q)
        assert _typed(compute_basis(pair, 64, lam).values) == want


@settings(max_examples=30)
@given(integer_route_pairs(),
       st.sampled_from(["kl", "rkl", "jeffreys", "js", "harmonic",
                        "poly:1/2,-3,0,2/5"]).map(from_spec))
def test_integer_route_reports_equal_the_fraction_oracle(pq, gen):
    p, q = pq
    basis = compute_basis(PairSpec(kind="discrete", p=p, q=q), 64)
    want = _assert_the_oracle(gen, basis, [converge(gen, basis)])
    for k in range(2, 64):
        assert _same(chi_expansion(gen, basis, k), want["partials"][k - 2])


@settings(max_examples=100)
@given(integer_route_pairs())
def test_exact_ratio_bounds_are_the_fraction_extremes(pq):
    p, q = pq
    atoms = list(zip(p.probs, q.probs))
    ratios = [Fraction(qs) / Fraction(ps) for ps, qs in atoms if ps and qs]
    m = 0 if any(ps and not qs for ps, qs in atoms) else min(ratios)
    big = math.inf if any(qs and not ps for ps, qs in atoms) else max(ratios)
    assert _typed(ratio_bounds_discrete(p, q)) == _typed([m, big])
