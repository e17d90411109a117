import math
from fractions import Fraction

import pytest

from fchi._num import (
    MAX_EXP_ARG,
    check_int,
    check_real,
    compositions,
    exact_or_fsum,
    format_number,
    format_real,
    is_exact,
    log_factorial,
    multinomial,
    safe_exp,
    saturating_fsum,
    to_float,
)
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
