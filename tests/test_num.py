import math
from fractions import Fraction

import pytest

from fchi._num import (
    MAX_EXP_ARG,
    compositions,
    exact_or_fsum,
    format_real,
    is_exact,
    log_factorial,
    multinomial,
    pascal_row,
    safe_exp,
    saturating_fsum,
)
from fchi.errors import OverflowSaturationError


def test_is_exact():
    assert is_exact(3)
    assert is_exact(Fraction(1, 3))
    assert not is_exact(0.5)
    assert not is_exact("1/3")


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


def test_pascal_row_exact():
    for n in range(0, 40):
        assert pascal_row(n) == [math.comb(n, j) for j in range(n + 1)]
    with pytest.raises(ValueError):
        pascal_row(-1)


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


def test_format_real_round_trips():
    for x in (1.0, -2.5, 1 / 3, 1e300, 5.436563656918093e-17, 108.20108519691063):
        assert float(format_real(x)) == x
    assert format_real(math.inf) == "inf"
    assert format_real(-math.inf) == "-inf"
    assert format_real(math.nan) == "nan"
    assert format_real(Fraction(1, 2)) == "0.5"
