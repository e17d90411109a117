import math
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fchi._num import (
    _QK15,
    _QK21,
    MAX_EXP_ARG,
    check_int,
    check_real,
    compositions,
    coprime_fraction,
    exact_or_fsum,
    format_number,
    format_real,
    is_exact,
    log_factorial,
    multinomial,
    quad,
    reduced_fraction,
    safe_exp,
    saturating_fsum,
    to_float,
)
from fchi._num import _MODULUS_RATIO, _gauss_kronrod
from fchi.errors import InputError, OverflowSaturationError


def test_is_exact():
    assert is_exact(3)
    assert is_exact(Fraction(1, 3))
    assert not is_exact(0.5)
    assert not is_exact("1/3")


def test_check_int():
    assert check_int(2, 2, "k") == 2
    assert check_int(10 ** 30, 0, "k") == 10 ** 30
    for bad in (1, True, 2.0, Fraction(3), "3", None):
        with pytest.raises(InputError, match="k must be an integer of at "
                                             "least 2"):
            check_int(bad, 2, "k")


def test_check_real():
    for good in (0, -3, 0.5, Fraction(1, 3), 1e308):
        assert check_real(good, "x") is good
    for bad in (True, math.nan, math.inf, -math.inf, "1", None, [1.0]):
        with pytest.raises(InputError, match="x must be a finite real"):
            check_real(bad, "x")


def test_to_float_saturates_past_float_range():
    big = Fraction(10 ** 400, 3)
    assert to_float(big) == math.inf
    assert to_float(-big) == -math.inf
    assert to_float(-10 ** 400) == -math.inf
    for x in (Fraction(1, 3), 7, 0.1, math.inf, Fraction(-10 ** 300, 7)):
        assert to_float(x) == float(x)
    assert format_real(big) == "inf"
    assert format_real(-big) == "-inf"


def test_safe_exp_saturates():
    assert safe_exp(0.0) == 1.0
    assert safe_exp(1.0) == math.exp(1.0)
    assert safe_exp(MAX_EXP_ARG + 1) == math.inf
    assert safe_exp(-800.0) == 0.0


def test_saturating_fsum_past_float_range():
    big = 1e308
    assert saturating_fsum([0.1, 0.2, 0.3], "t") == math.fsum([0.1, 0.2, 0.3])
    # partial sums overflow but the total is representable
    assert saturating_fsum([big, big, -big], "t") == big
    assert saturating_fsum([big, big], "t") == math.inf
    assert saturating_fsum([-big, -big, 1.0], "t") == -math.inf
    assert saturating_fsum([math.inf, 1.0], "t") == math.inf
    with pytest.raises(OverflowSaturationError):
        saturating_fsum([math.inf, -math.inf], "t")


def test_exact_or_fsum_keeps_rationals():
    out = exact_or_fsum([Fraction(1, 3), Fraction(1, 6), 1])
    assert out == Fraction(3, 2)
    assert isinstance(out, Fraction)


def test_exact_or_fsum_degrades_to_float():
    out = exact_or_fsum([Fraction(1, 3), 0.5])
    assert isinstance(out, float)
    assert out == pytest.approx(1 / 3 + 0.5, rel=1e-15)
    assert exact_or_fsum([]) == 0.0


def test_log_factorial_matches_lgamma():
    for n in (0, 1, 2, 10, 170, 1000):
        assert log_factorial(n) == math.lgamma(n + 1)
    assert math.exp(log_factorial(10)) == pytest.approx(3628800, rel=1e-12)


def test_compositions_enumeration():
    combos = list(compositions(3, 2))
    assert combos == [(0, 3), (1, 2), (2, 1), (3, 0)]
    assert len(list(compositions(5, 3))) == math.comb(5 + 2, 2)
    assert list(compositions(0, 0)) == [()]
    assert list(compositions(2, 0)) == []


def test_multinomial():
    assert multinomial([]) == 1
    assert multinomial([7]) == 1
    assert multinomial([2, 1]) == 3
    assert multinomial([3, 3, 3]) == math.factorial(9) // math.factorial(3) ** 3
    assert multinomial([5, 0, 2, 1]) == math.factorial(8) // (120 * 2)


def _parts(x):
    return type(x), x.numerator, x.denominator


def test_coprime_fraction_keeps_its_pair():
    for n, d in ((0, 1), (3, 7), (-5, 2), (2 ** 200 + 1, 3 ** 150)):
        assert _parts(coprime_fraction(n, d)) == (Fraction, n, d)


# m = 2^3 3 5^2 = 600; each den below is a multiple of m whose primes
# all divide it, and each num puts some prime past m's exponent
_M = 2 ** 3 * 3 * 5 ** 2
_REDUCED_CASES = [
    (0, _M ** 9),
    (-(2 ** 40) * 7, _M ** 9),
    (_M, _M),
    (-7 * _M, _M),
    (2 ** 80 * 3 ** 5 * 11, _M ** 12),
    (-(5 ** 30) * 3 * 13 ** 9, 2 ** 4 * 3 ** 40 * 5 ** 60),
    (2 ** 3 * 3 ** 70 * 5 + 1, _M ** 20),
    (6 ** 60, 2 ** 200 * 3 ** 30 * 5 ** 2),
    (2 ** 2 * 3 ** 9 * 7 ** 5, _M * 2 ** 8 * 3 ** 8),
]


@pytest.mark.parametrize("num, den", _REDUCED_CASES)
def test_reduced_fraction_is_the_normalised_fraction(num, den):
    want = Fraction(num, den)
    # 30 and 600^2 have the primes of 600 too; any such m dividing den works
    for m in (_M, 2 * 3 * 5, _M ** 2):
        if den % m == 0:
            assert _parts(reduced_fraction(num, den, m)) == _parts(want)


def test_reduced_fraction_cases_span_the_size_ratio():
    below = [den.bit_length() < _MODULUS_RATIO * _M.bit_length()
             for _, den in _REDUCED_CASES]
    assert any(below) and not all(below)


@settings(max_examples=200)
@given(st.integers(-10 ** 400, 10 ** 400),
       st.lists(st.sampled_from([2, 3, 5, 7]), min_size=1, max_size=4,
                unique=True),
       st.integers(1, 80), st.integers(0, 60))
def test_reduced_fraction_matches_fraction(num, primes, power, shift):
    # den = m^power times extra powers of m's primes; num shares some
    m = math.prod(primes)
    den = m ** power * primes[0] ** shift
    num *= primes[-1] ** (shift // 2)
    assert _parts(reduced_fraction(num, den, m)) == _parts(Fraction(num, den))


def test_format_real_round_trips():
    for x in (1.0, -2.5, 1 / 3, 1e300, 5.436563656918093e-17, 108.20108519691063):
        assert float(format_real(x)) == x
    assert format_real(math.inf) == "inf"
    assert format_real(-math.inf) == "-inf"
    assert format_real(math.nan) == "nan"
    assert format_real(Fraction(1, 2)) == "0.5"


def test_format_number_renders_exact_values_as_fractions():
    assert format_number(Fraction(3, 8), rational=True) == "3/8"
    assert format_number(2, rational=True) == "2/1"
    assert format_number(Fraction(3, 8)) == "0.375"
    assert format_number(0.375, rational=True) == "0.375"
    assert format_number(math.inf, rational=True) == "inf"


def _monomial_miss(value, m):
    """|value - integral of x^m over [-1, 1]|."""
    return abs(value - (0.0 if m % 2 else 2.0 / (m + 1)))


@pytest.mark.parametrize("rule, n_gauss", [(_QK15, 7), (_QK21, 10)])
def test_gauss_kronrod_rules_have_their_degrees(rule, n_gauss):
    # a 2n+1 point Kronrod extension of the n-point Gauss rule is exact to
    # degree 3n+2 (n odd) or 3n+1 (n even), the Gauss rule to degree 2n-1
    assert len(rule.nodes) == 2 * n_gauss + 1
    assert 2 * len(rule.wg) + (rule.cg != 0.0) == n_gauss
    top = 3 * n_gauss + 1 + n_gauss % 2
    for m in range(top + 2):
        value, _ = _gauss_kronrod(lambda x: x ** m, -1.0, 1.0, rule)
        if m <= top:
            assert _monomial_miss(value, m) < 1e-15, m
        else:
            assert _monomial_miss(value, m) > 1e-13
    positive = rule.nodes[rule.n:2 * rule.n]

    def gauss(m):
        pairs = math.fsum(w * (x ** m + (-x) ** m)
                          for x, w in zip(positive, rule.wg))
        return pairs + rule.cg * 0.0 ** m

    for m in range(2 * n_gauss):
        assert _monomial_miss(gauss(m), m) < 1e-15, m
    assert _monomial_miss(gauss(2 * n_gauss), 2 * n_gauss) > 1e-6


def test_quad_integrates_finite_and_infinite_ranges():
    value, err = quad(math.sin, 0.0, math.pi)
    assert value == pytest.approx(2.0, rel=1e-15) and err < 1e-13
    value, err = quad(lambda x: math.exp(-x), 0.0, math.inf)
    assert value == pytest.approx(1.0, rel=1e-13) and err < 1e-10
    value, _ = quad(lambda x: 1.0 / (x * x), 1.0, math.inf)
    assert value == pytest.approx(1.0, rel=1e-13)


def test_quad_splits_at_the_points_inside_the_range():
    calls = []

    def kink(x):
        calls.append(x)
        return abs(x)

    # two linear pieces are exact at once; points outside or repeated
    # add no interval
    value, err = quad(kink, -1.0, 2.0, points=[0.0, 0.0, -3.0, 2.0])
    assert value == 2.5 and err < 1e-13
    assert len(calls) == 2 * 21


def test_quad_warns_when_the_limit_is_reached_above_tolerance():
    with pytest.warns(RuntimeWarning, match="limit of 4 intervals with "
                                            "error estimate"):
        value, err = quad(lambda x: x ** -0.9, 0.0, 1.0, limit=4)
    assert abs(value - 10.0) > 1.0 and err > 1.0


def test_quad_sums_the_interval_values_exactly():
    # a running float total of 1e16, 1 and -1e16 would drop the 1
    steps = lambda x: 1e16 if x < 1.0 else 1.0 if x < 2.0 else -1e16
    value, _ = quad(steps, 0.0, 3.0, points=[1.0, 2.0], epsabs=1e3)
    assert value == 1.0


def test_quad_keeps_the_estimates_a_first_spike_dwarfs():
    # 1e40 at one node of the first rule: its estimate is more than 2^53
    # times the rest, so running totals would cancel to 0 at the first
    # bisection and stop there
    node = 0.5 + 0.5 * 0.14887433898163121
    spike = lambda x: 1e40 if x == node else x ** -0.5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, err = quad(spike, 0.0, 1.0, limit=300, epsabs=1e-10,
                          epsrel=1e-12)
    assert err <= max(1e-10, 1e-12 * value)
    assert abs(value - 2.0) <= err


def test_quad_totals_saturate_and_meet_in_nan():
    # each piece integrates to 1e308, so an exact sum of the two raises
    value, _ = quad(lambda x: 1e308, 0.0, 2.0, points=[1.0])
    assert value == math.inf
    value, _ = quad(lambda x: math.inf if x < 1.0 else -math.inf, 0.0, 2.0,
                    points=[1.0])
    assert math.isnan(value)


def _rule_node(level, index, x):
    """The node x of the 21-point rule on interval index of the 2^level
    equal pieces of [0, 1], formed as quad's bisections form it."""
    width = 2.0 ** -level
    a = index % 2 ** level * width
    b = a + width
    return 0.5 * (a + b) + 0.5 * (b - a) * x


_SPIKES = st.lists(st.tuples(
    st.integers(0, 3), st.integers(0, 7), st.sampled_from(_QK21.nodes),
    st.builds(lambda sign, e: sign * 10.0 ** e,
              st.sampled_from([1.0, -1.0]), st.integers(0, 45))),
    max_size=3)


@settings(max_examples=60)
@given(power=st.floats(0.0, 0.9), wave=st.integers(0, 40), spikes=_SPIKES,
       eps=st.sampled_from([1e-6, 1e-10, 1e-12]))
def test_quad_returns_within_tolerance_or_warns(power, wave, spikes, eps):
    heights = {_rule_node(*s[:3]): s[3] for s in spikes}
    fn = lambda x: heights.get(x, x ** -power + math.sin(wave * x))
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        value, err = quad(fn, 0.0, 1.0, limit=100, epsabs=eps, epsrel=eps)
    assert (any(w.category is RuntimeWarning for w in seen)
            or not (math.isfinite(value) and math.isfinite(err))
            or err <= max(eps, eps * abs(value)))


@pytest.mark.parametrize("fn", [
    lambda x: math.inf if x < 0.4 else 1.0,
    lambda x: math.nan if x < 0.4 else 1.0,
    # finite values whose error estimate overflows
    lambda x: 1.5e308 if x < 2.0 else -1.5e308,
])
def test_quad_stops_at_a_non_finite_value_or_estimate(fn):
    calls = []

    def counted(x):
        calls.append(x)
        return fn(x)

    value, err = quad(counted, 0.0, 4.0, limit=300)
    assert len(calls) == 21
    assert not math.isfinite(value + err)
