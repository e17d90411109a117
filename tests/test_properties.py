"""Property tests over generated inputs; conftest derandomizes hypothesis."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

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
