import math
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fchi import InputError
from fchi._num import MAX_EXP_ARG
from fchi.chi import compute_basis
from fchi.expansion import RatioBounds, converge, remainder_bound
from fchi.families import PairSpec, bernoulli
from fchi.generators import (
    CATALOG,
    alpha_generator,
    catalog_coeff,
    conjugate_coeffs,
    conjugate_generator,
    exponential,
    from_spec,
    generalized_binomial,
    harmonic,
    jeffreys,
    jensen_shannon,
    kl,
    polynomial_generator,
    reverse_kl,
)

SAMPLE_U = (0.1, 0.5, 0.9, 1.0, 1.3, 2.0, 7.25)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_coeffs_match_taylor_oracle(name):
    gen = CATALOG[name]()
    coeffs = oracles.taylor_coeffs(oracles.MP_F[name], 20)
    # exp carries float coefficients e/i!; the rest are exact rationals
    tol = mp.mpf("1e-15") if name == "exp" else mp.mpf("1e-25")
    for i in range(2, 21):
        assert oracles.rel_err(gen.coeff(i), coeffs[i]) < tol
    assert oracles.rel_err(gen.f_at_one, coeffs[0]) < mp.mpf("1e-30")
    assert oracles.rel_err(gen.fprime_at_one, coeffs[1]) < mp.mpf("1e-30")


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_eval_matches_oracle(name):
    gen = CATALOG[name]()
    f = oracles.MP_F[name]
    for u in SAMPLE_U:
        # js and exp lose a couple of digits to cancellation near u = 1
        assert oracles.rel_err(gen.eval(u), f(mp.mpf(u))) < mp.mpf("1e-12")


def test_eval_zero_limits():
    assert kl().eval(0) == math.inf
    assert reverse_kl().eval(0) == 0.0
    assert jeffreys().eval(0) == math.inf
    assert jensen_shannon().eval(0) == pytest.approx(math.log(2), rel=1e-15)
    assert harmonic().eval(0) == 0.0
    assert exponential().eval(0) == 1.0
    assert alpha_generator(3).eval(0) == pytest.approx(-0.5, rel=1e-15)
    assert alpha_generator(-3).eval(0) == math.inf


def test_eval_rejects_negative():
    with pytest.raises(ValueError):
        kl().eval(-0.25)


def test_coeff_order_validation():
    for bad in (1, 0, -3, 2.0):
        with pytest.raises(ValueError):
            kl().coeff(bad)


def test_known_exact_coefficients():
    assert kl().coeff(5) == Fraction(-1, 5)
    assert reverse_kl().coeff(4) == Fraction(1, 12)
    assert jeffreys().coeff(6) == Fraction(1, 5)
    assert harmonic().coeff(3) == Fraction(1, 8)
    assert jensen_shannon().coeff(2) == Fraction(1, 4)
    assert jensen_shannon().coeff(23) == Fraction(-182361, 92274688)
    assert exponential().coeff(3) == pytest.approx(math.e / 6, rel=1e-16)


def test_exponential_coeff_large_order():
    c = exponential().coeff(200)
    want = mp.e / mp.factorial(200)
    assert oracles.rel_err(c, want) < mp.mpf("1e-12")


def test_generalized_binomial():
    assert generalized_binomial(5, 2) == Fraction(10)
    assert generalized_binomial(5, 7) == 0
    assert generalized_binomial(Fraction(1, 2), 3) == Fraction(1, 16)
    assert generalized_binomial(Fraction(-1), 3) == Fraction(-1)
    out = generalized_binomial(0.5, 3)
    assert isinstance(out, float)
    assert out == pytest.approx(1 / 16, rel=1e-15)
    with pytest.raises(ValueError):
        generalized_binomial(2, -1)


@pytest.mark.parametrize("alpha", [0, 3, -3, 7, 0.5, Fraction(1, 3)])
def test_alpha_second_coefficient_is_half(alpha):
    c = alpha_generator(alpha).coeff(2)
    if isinstance(c, Fraction):
        assert c == Fraction(1, 2)
    else:
        assert c == pytest.approx(0.5, abs=1e-15)


def test_alpha_coeffs_match_taylor_oracle():
    for alpha in (3, -5, 0, 0.5):
        gen = alpha_generator(alpha)
        coeffs = oracles.taylor_coeffs(oracles.f_alpha(alpha), 12)
        tol = mp.mpf("1e-22") if alpha in (3, -5) else mp.mpf("1e-13")
        for i in range(2, 13):
            if coeffs[i] == 0:
                assert gen.coeff(i) == 0
            else:
                assert oracles.rel_err(gen.coeff(i), coeffs[i]) < tol


def test_alpha_exactness_split():
    assert isinstance(alpha_generator(3).coeff(4), Fraction)
    assert isinstance(alpha_generator(5).coeff(3), Fraction)
    assert isinstance(alpha_generator(0).coeff(3), float)
    assert isinstance(alpha_generator(0.5).coeff(3), float)
    # odd alpha makes (1+alpha)/2 an integer, so f is a polynomial of that
    # degree and the coefficients terminate right after it
    assert alpha_generator(3).coeff(4) == 0
    assert alpha_generator(5).coeff(3) != 0
    assert alpha_generator(5).coeff(4) == 0


def test_alpha_rejects_unit_values():
    for bad in (1, -1, 1.0):
        with pytest.raises(ValueError):
            alpha_generator(bad)


def test_alpha_eval_saturates_past_float_range():
    # u^gamma overflows here; f is +inf on both sides of the range
    assert alpha_generator(3).eval(1e300) == math.inf
    assert alpha_generator(-3).eval(5e-324) == math.inf
    assert alpha_generator(5).eval(1e250) == math.inf


def test_alpha_eval_matches_oracle():
    for alpha in (3, -3, 0, 0.5):
        gen = alpha_generator(alpha)
        f = oracles.f_alpha(alpha)
        for u in SAMPLE_U:
            assert oracles.rel_err(gen.eval(u), f(mp.mpf(u))) < mp.mpf("1e-13")


def test_polynomial_generator():
    gen = polynomial_generator([2, 0, 1, 5])
    # c_i = sum_j a_j C(j, i)
    assert gen.coeff(2) == Fraction(1 + 5 * 3)
    assert gen.coeff(3) == Fraction(5)
    assert gen.coeff(4) == 0
    assert gen.f_at_one == Fraction(8)
    assert gen.fprime_at_one == Fraction(17)
    for u in SAMPLE_U:
        assert gen.eval(u) == pytest.approx(2 + u**2 + 5 * u**3, rel=1e-15)
    # deriv_sup(k) bounds the (k+1)-th derivative: f''' = 30, f'''' = 0
    assert gen.deriv_sup(2, 0.0, 4.0) == 30.0
    assert gen.deriv_sup(3, 0.0, 4.0) == 0.0


def test_polynomial_quadratic_distance():
    gen = polynomial_generator([1, -2, 1])
    assert gen.name == "poly:1,-2,1"
    assert gen.coeff(2) == 1
    assert gen.coeff(3) == 0
    assert gen.f_at_one == 0
    assert gen.eval(Fraction(3, 2)) == Fraction(1, 4)


def test_from_spec_names_and_aliases():
    assert from_spec("kl") is kl()
    assert from_spec(" js ") is jensen_shannon()
    assert from_spec("alpha:3") is alpha_generator(3)
    assert from_spec("alpha:0.5").name == "alpha:0.5"
    assert from_spec("alpha:1/3").coeff(2) == pytest.approx(0.5, abs=1e-15)
    assert from_spec("poly:1,-2,1").coeff(2) == 1
    assert from_spec("poly:1/3,2/3").f_at_one == Fraction(1)


def test_from_spec_errors():
    with pytest.raises(InputError):
        from_spec("mystery")
    with pytest.raises(InputError):
        from_spec("alpha:1")
    with pytest.raises(InputError):
        from_spec("alpha:abc")
    with pytest.raises(InputError):
        from_spec("poly:1,x")
    with pytest.raises(InputError):
        from_spec("poly:1/0")


MP_DERIV_CASES = [
    ("kl", oracles.f_kl),
    ("rkl", oracles.f_rkl),
    ("jeffreys", oracles.f_jeffreys),
    ("js", oracles.f_js),
    ("harmonic", oracles.f_harmonic),
    ("exp", oracles.f_exponential),
]


@pytest.mark.parametrize("name,f", MP_DERIV_CASES)
def test_deriv_sup_is_endpoint_max(name, f):
    """Each catalog |f^(k+1)| is monotone, so the sup is an endpoint value."""
    gen = CATALOG[name]()
    m, M = 0.4, 2.5
    for k in range(1, 7):
        end = max(abs(mp.diff(f, mp.mpf(m), k + 1)), abs(mp.diff(f, mp.mpf(M), k + 1)))
        got = gen.deriv_sup(k, m, M)
        assert oracles.rel_err(got, end) < mp.mpf("1e-12")
        for u in (0.6, 1.0, 1.7):
            inner = abs(mp.diff(f, mp.mpf(u), k + 1))
            assert mp.mpf(got) * (1 + mp.mpf("1e-12")) >= inner


def test_deriv_sup_alpha_endpoint_max():
    for alpha in (3, 0, 0.5, -3):
        gen = alpha_generator(alpha)
        f = oracles.f_alpha(alpha)
        for k in range(1, 6):
            end = max(
                abs(mp.diff(f, mp.mpf("0.4"), k + 1)),
                abs(mp.diff(f, mp.mpf("2.5"), k + 1)),
            )
            got = gen.deriv_sup(k, 0.4, 2.5)
            if end == 0:
                assert got == 0.0
            else:
                assert oracles.rel_err(got, end) < mp.mpf("1e-10")


def test_deriv_sup_at_zero_edge():
    assert kl().deriv_sup(2, 0.0, 2.0) == math.inf
    assert reverse_kl().deriv_sup(2, 0.0, 2.0) == math.inf
    assert jeffreys().deriv_sup(2, 0.0, 2.0) == math.inf
    assert jensen_shannon().deriv_sup(2, 0.0, 2.0) == math.inf
    # harmonic and exp stay bounded as m -> 0
    assert harmonic().deriv_sup(2, 0.0, 2.0) == pytest.approx(12.0, rel=1e-12)
    assert exponential().deriv_sup(5, 0.0, 2.0) == pytest.approx(math.exp(2), rel=1e-15)
    # unbounded exponent range saturates instead of raising
    assert exponential().deriv_sup(2, 0.0, 1e5) == math.inf


def test_deriv_sup_validation():
    with pytest.raises(ValueError):
        kl().deriv_sup(0, 0.5, 2.0)
    with pytest.raises(ValueError):
        kl().deriv_sup(2, 1.5, 2.0)
    with pytest.raises(ValueError):
        kl().deriv_sup(2, 0.5, 0.9)


def test_conjugate_swaps_kl_and_rkl():
    conj = conjugate_coeffs(kl(), 64)
    want = [reverse_kl().coeff(i) for i in range(2, 65)]
    assert conj == want
    conj_back = conjugate_coeffs(reverse_kl(), 64)
    assert conj_back == [kl().coeff(i) for i in range(2, 65)]


@pytest.mark.parametrize("factory", [jeffreys, jensen_shannon, harmonic])
def test_symmetric_generators_are_self_conjugate(factory):
    gen = factory()
    assert conjugate_coeffs(gen, 64) == [gen.coeff(i) for i in range(2, 65)]


def test_alpha_generators_carry_their_alpha():
    assert alpha_generator(Fraction(1, 3)).alpha == Fraction(1, 3)
    assert alpha_generator(3.0).alpha == 3
    assert alpha_generator(0).alpha == 0
    assert kl().alpha is None
    assert conjugate_generator(alpha_generator(3)).alpha is None


def test_conjugate_alpha_negates_alpha():
    conj = conjugate_coeffs(alpha_generator(3), 64)
    want = [alpha_generator(-3).coeff(i) for i in range(2, 65)]
    assert conj == want


def test_alpha_conjugate_oracle_matches_mp_taylor():
    f = oracles.f_alpha(0.5)
    coeffs = oracles.taylor_coeffs(lambda u: u * f(1 / u), 12)
    want = oracles.alpha_conjugate_taylor(0.5, 12)
    for i in range(13):
        assert abs(coeffs[i] - want[i]) < mp.mpf("1e-30"), i


@pytest.mark.parametrize("alpha", [0.5, -0.5, 2, -3])
def test_conjugate_alpha_matches_mp_oracle_to_order_64(alpha):
    want = oracles.alpha_conjugate_taylor(alpha, 64)
    conj = conjugate_generator(alpha_generator(alpha), 64)
    streamed = conjugate_coeffs(alpha_generator(alpha), 64)
    for i in range(2, 65):
        assert conj.coeff(i) == streamed[i - 2]
        assert oracles.rel_err(conj.coeff(i), want[i]) < mp.mpf("1e-13"), i
    gen = alpha_generator(alpha)
    assert conj.name == f"conj({gen.name})"
    assert conj.f_at_one == gen.f_at_one
    assert conj.fprime_at_one == gen.f_at_one - gen.fprime_at_one
    assert conj.eval(2.0) == 2.0 * gen.eval(0.5)


def test_conjugate_generator_object():
    cg = conjugate_generator(kl(), 20)
    assert cg.name == "conj(kl)"
    assert cg.f_at_one == 0
    assert cg.fprime_at_one == kl().f_at_one - kl().fprime_at_one
    assert cg.coeff(5) == reverse_kl().coeff(5)
    with pytest.raises(ValueError):
        cg.coeff(21)
    # u f(1/u) pointwise
    for u in (0.5, 2.0):
        assert cg.eval(u) == pytest.approx(u * kl().eval(1 / u), rel=1e-15)
    assert cg.deriv_sup(3, 0.5, 2.0) == math.inf


def test_conjugation_is_an_involution():
    gen = jensen_shannon()
    twice = conjugate_coeffs(conjugate_generator(gen, 30), 12)
    assert twice == [gen.coeff(i) for i in range(2, 13)]


@pytest.mark.parametrize(
    "spec, f, tol",
    [
        pytest.param("exp", oracles.f_exponential, "1e-13", id="exp"),
        pytest.param("alpha:0.5", oracles.f_alpha(0.5), "1e-10",
                     id="alpha:0.5"),
        pytest.param("alpha:-0.5", oracles.f_alpha(-0.5), "1e-10",
                     id="alpha:-0.5"),
    ],
)
def test_conjugate_float_path(spec, f, tol):
    conj = conjugate_coeffs(from_spec(spec), 20)
    f_star = lambda u: u * f(1 / u)
    coeffs = oracles.taylor_coeffs(f_star, 20)
    for i, c in enumerate(conj, start=2):
        assert isinstance(c, float)
        assert oracles.rel_err(c, coeffs[i]) < mp.mpf(tol), i


def test_catalog_coeff_delegates_to_the_method():
    assert catalog_coeff(kl(), 2) == Fraction(1, 2)
    for name, factory in CATALOG.items():
        gen = factory()
        for i in (2, 5, 11):
            assert catalog_coeff(gen, i) == gen.coeff(i)


def test_catalog_coeff_rejects_bad_arguments():
    with pytest.raises(ValueError):
        catalog_coeff("kl", 2)
    with pytest.raises(ValueError):
        catalog_coeff(kl(), 1)


# ---------------------------------------------------------------------------
# vectorised derivative sups against the one-order formulas they replaced


def _lf(n):
    return math.lgamma(n + 1)


def _exp(x):
    return math.inf if x > MAX_EXP_ARG else math.exp(x)


def _alpha_sup(alpha, k, m, M):
    a_f = float(alpha)
    gamma_f = 0.5 * (1.0 + a_f)
    lead = 4.0 / (1.0 - a_f * a_f)
    mag = abs(lead) * abs(float(generalized_binomial(gamma_f, k + 1)))
    mag *= float(math.factorial(k + 1)) if k + 1 <= 170 else _exp(_lf(k + 1))
    if mag == 0.0:
        return 0.0
    expo = gamma_f - (k + 1)

    def piece(u):
        if u == 0.0:
            return math.inf if expo < 0 else (mag if expo == 0 else 0.0)
        if math.isinf(u):
            return math.inf if expo > 0 else (mag if expo == 0 else 0.0)
        return _exp(math.log(mag) + expo * math.log(u))

    return max(piece(m), piece(M))


def _poly_sup(a, k, m, M):
    d = len(a) - 1
    if k + 1 > d:
        return 0.0
    total = 0.0
    for j in range(k + 1, d + 1):
        if a[j] == 0:
            continue
        ff = 1
        for t in range(j, j - k - 1, -1):
            ff *= t
        total += abs(float(a[j])) * ff * M ** (j - k - 1)
    return total


def _js_sup(k, m, M):
    if m == 0.0:
        return math.inf
    a = _exp(-k * math.log(m))
    if math.isinf(a):
        return math.inf
    return _exp(_lf(k - 1)) * (a - (m + 1.0) ** (-k))


POLY = (Fraction(1, 3), Fraction(-2), Fraction(0), Fraction(5, 2), Fraction(1))

# each generator with a copy of the scalar sup formula it had before
# deriv_sups served many orders from one call
SCALAR_SUPS = [
    (kl(), lambda k, m, M: math.inf if m == 0.0
     else _exp(_lf(k) - (k + 1) * math.log(m))),
    (reverse_kl(), lambda k, m, M: math.inf if m == 0.0
     else _exp(_lf(k - 1) - k * math.log(m))),
    (jeffreys(), lambda k, m, M: math.inf if m == 0.0 else _exp(
        _lf(k - 1) + math.log(m + k) - (k + 1) * math.log(m))),
    (jensen_shannon(), _js_sup),
    (harmonic(), lambda k, m, M: _exp(
        math.log(2.0) + _lf(k + 1) - (k + 2) * math.log1p(m))),
    (exponential(), lambda k, m, M: _exp(M)),
    (polynomial_generator(POLY), lambda k, m, M: _poly_sup(POLY, k, m, M)),
    (conjugate_generator(kl(), 64), lambda k, m, M: math.inf),
] + [
    (alpha_generator(a), lambda k, m, M, a=a: _alpha_sup(a, k, m, M))
    for a in (3, 5, Fraction(1, 3), 0.5, 2.5, -3, -0.5)
]

ratio_lows = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
ratio_highs = st.one_of(st.sampled_from([1.0, math.inf]),
                        st.floats(1.0, 1e6))


@pytest.mark.parametrize("gen, scalar", SCALAR_SUPS,
                         ids=[g.name for g, _ in SCALAR_SUPS])
@settings(max_examples=30)
@given(m=ratio_lows, M=ratio_highs)
def test_deriv_sups_equal_the_scalar_formula_bit_for_bit(gen, scalar, m, M):
    orders = range(1, 65)
    sups = gen.deriv_sups(orders, m, M)
    for k, sup in zip(orders, sups):
        assert sup == gen.deriv_sups((k,), m, M)[0] == gen.deriv_sup(k, m, M)
        assert sup == scalar(k, m, M), k
    if m == 1.0:
        assert gen.deriv_sups(orders, 1.0, 1.0) == \
            [scalar(k, 1.0, 1.0) for k in orders]


@pytest.mark.parametrize("gen", [g for g, _ in SCALAR_SUPS],
                         ids=[g.name for g, _ in SCALAR_SUPS])
@settings(max_examples=10)
@given(m=ratio_lows, M=ratio_highs)
def test_remainder_bound_is_the_report_cap(gen, m, M):
    pair = PairSpec(kind="discrete", p=bernoulli(Fraction(3, 5)),
                    q=bernoulli(Fraction(2, 5)))
    bounds = RatioBounds(m, M)
    report = converge(gen, compute_basis(pair, 24), bounds=bounds)
    assert report.remainder_bounds == tuple(
        remainder_bound(gen, k, bounds) for k in report.orders)


def test_alpha_names_do_not_depend_on_call_order():
    # 0.5 == Fraction(1, 2) and their hashes agree, yet each names its own
    # generator whichever is asked for first
    for first, second in (("alpha:1/2", "alpha:0.5"),
                          ("alpha:0.5", "alpha:1/2")):
        assert [from_spec(s).name for s in (first, second)] == [first, second]
    assert type(from_spec("alpha:0.5").alpha) is float
    assert from_spec("alpha:1/2").alpha == Fraction(1, 2)
    assert type(alpha_generator(Fraction(1, 2)).alpha) is Fraction


@pytest.mark.parametrize("gen", [g for g, _ in SCALAR_SUPS],
                         ids=[g.name for g, _ in SCALAR_SUPS])
def test_coeff_table_holds_each_coefficient(gen):
    table = gen.coeff_table(40)
    assert gen.coeff_table(40) is table
    q, heads = table.ints
    assert Fraction(heads[0], q) == gen.f_at_one
    for i in range(2, 41):
        c = gen.coeff(i)
        exact, cf, zero = (col[i - 2] for col in table[:3])
        assert exact == (Fraction(c) if isinstance(c, (int, Fraction))
                         else None)
        assert type(cf) is float and cf == float(c)
        assert zero == (c == 0)
        if exact is not None:
            assert Fraction(heads[i - 1], q) == exact
    # the prefix stops at the first nonzero float coefficient
    assert len(heads) - 1 == next(
        (n for n, (x, z) in enumerate(zip(table.exact, table.zeros))
         if x is None and not z), len(table.exact))


# ---------------------------------------------------------------------------
# one table per generator, against the per-order formulas it replaced


def _old_binomial(gamma, i):
    if isinstance(gamma, int):
        gamma = Fraction(gamma)
    out = Fraction(1) if isinstance(gamma, Fraction) else 1.0
    for t in range(i):
        out = out * (gamma - t) / (t + 1)
    return out


def _old_alpha(key):
    if isinstance(key, float) and key.is_integer():
        key = int(key)
    a_f = float(key)
    if isinstance(key, (int, Fraction)) and ((1 + Fraction(key)) / 2
                                             ).denominator == 1:
        a = Fraction(key)
        gamma, scale = (1 + a) / 2, Fraction(-4) / (1 - a**2)
    else:
        gamma, scale = 0.5 * (1.0 + a_f), -4.0 / (1.0 - a_f * a_f)
    return lambda i: scale * _old_binomial(gamma, i)


def _old_poly(a):
    a = [Fraction(c) for c in a]
    return lambda i: sum((a[j] * math.comb(j, i) for j in range(i, len(a))),
                         start=Fraction(0))


def _old_conjugate(stream):
    def coeff(i):
        terms = [math.comb(i - 2, m - 2) * stream(m) for m in range(2, i + 1)]
        if all(isinstance(t, (int, Fraction)) for t in terms):
            total = sum(terms)
        else:
            total = math.fsum(map(float, terms))
        return -total if i % 2 else total
    return coeff


def _old_exp(i):
    if i <= 170:
        return math.e / float(math.factorial(i))
    return math.exp(1.0 - math.lgamma(i + 1))


OLD_STREAMS = {
    "kl": lambda i: Fraction((-1) ** i, i),
    "rkl": lambda i: Fraction((-1) ** i, i * (i - 1)),
    "jeffreys": lambda i: Fraction((-1) ** i, i - 1),
    "js": lambda i: Fraction((-1) ** i * (2 ** (i - 1) - 1),
                             2 ** (i - 1) * i * (i - 1)),
    "harmonic": lambda i: Fraction((-1) ** (i + 1), 2**i),
    "exp": _old_exp,
}
ALPHAS = [3, 5, 7, -3, 0.5, -0.5, 2, 2.5, Fraction(1, 3), Fraction(-7, 3)]
POLYS = [(Fraction(1, 3), -2, 0, Fraction(5, 2), 1), (4, 0, -1, 0, 0, 2)]
CONJ_BASES = [kl(), jensen_shannon(), exponential(),
              polynomial_generator(POLYS[0]), alpha_generator(0.5),
              conjugate_generator(jensen_shannon(), 64)]
OLD_CONJUGATES = [_old_conjugate(OLD_STREAMS["kl"]),
                  _old_conjugate(OLD_STREAMS["js"]), _old_conjugate(_old_exp),
                  _old_conjugate(_old_poly(POLYS[0])),
                  _old_alpha(-0.5),  # conj(alpha:a) is alpha:-a
                  _old_conjugate(_old_conjugate(OLD_STREAMS["js"]))]
TABLE_CASES = (
    [(CATALOG[name](), OLD_STREAMS[name], None) for name in sorted(CATALOG)]
    + [(alpha_generator(a), _old_alpha(a), None) for a in ALPHAS]
    + [(polynomial_generator(a), _old_poly(a), None) for a in POLYS]
    + [(conjugate_generator(base, 64), old, base)
       for base, old in zip(CONJ_BASES, OLD_CONJUGATES)]
)


@pytest.mark.parametrize("gen, old, base", TABLE_CASES,
                         ids=[gen.name for gen, _, _ in TABLE_CASES])
def test_table_equals_the_per_order_formula(gen, old, base):
    want = [old(i) for i in range(2, 65)]
    exact, floats, _, _ = gen.coeff_table(64)
    tabled = [f if x is None else x for x, f in zip(exact, floats)][:63]
    for got in ([gen.coeff(i) for i in range(2, 65)], tabled,
                want if base is None else conjugate_coeffs(base, 64)):
        assert [type(c) for c in got] == [type(c) for c in want]
        assert got == want


def test_one_table_grows_and_keeps_its_prefixes():
    for gen in (conjugate_generator(jensen_shannon(), 64),
                conjugate_generator(exponential(), 64), kl()):
        small = gen.coeff_table(12)
        big = gen.coeff_table(64)
        assert gen.coeff_table(20) is big
        for short, full in zip(small[:3], big[:3]):
            assert len(short) >= 11 and len(full) >= 63
            assert full[:len(short)] == short
        if small.ints is not None:
            (q_s, p_s), (q_b, p_b) = small.ints, big.ints
            assert [Fraction(p, q_b) for p in p_b[:len(p_s)]] == \
                [Fraction(p, q_s) for p in p_s]
    cg = conjugate_generator(kl(), 20)
    assert cg.coeff(20) == reverse_kl().coeff(20)
    with pytest.raises(ValueError):
        cg.coeff(21)
    with pytest.raises(ValueError):
        cg.coeff_table(21)
