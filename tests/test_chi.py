import io
import itertools
import math
import time
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

import oracles
from fchi import DivergenceError, InputError, OverflowSaturationError
from fchi.chi import (
    ChiBasis,
    basis_build_count,
    chi_abs,
    chi_abs_discrete,
    chi_pm,
    chi_pm_aef,
    chi_pm_discrete,
    chi_pm_mixture,
    chi_pm_quadrature,
    chi_pm_trunc_exp_closed,
    compute_basis,
    provenance,
    _signed_logsum,
)
from fchi.families import (
    DiscreteDistribution,
    MixtureSpec,
    PairSpec,
    bernoulli,
    categorical,
    gaussian_iso,
    poisson,
    ratio_bounds_discrete,
    trunc_exp,
    vmf,
)

BERN_P = bernoulli(Fraction(9, 10))
BERN_Q = bernoulli(Fraction(3, 10))


def aef_closed_form_oracle(i, lam, log_norm, tp, q, magnitude=False):
    """Independent mp implementation of the multinomial closed form.

    q is a natural parameter or a MixtureSpec.  The power (sum_c w_c q_c -
    lam p)^i expands over k_0 + sum_c k_c = i into terms multinomial (-lam)^k_0
    prod_c w_c^k_c e^E with E = F(theta) - (k_0 + 1 - i) F(theta_p) -
    sum_c k_c F(theta_c) at theta = theta_p + sum_c k_c (theta_c - theta_p);
    a single member is the one-component, binomial case.  magnitude=True
    sums |terms| instead, the scale float cancellation is measured against.
    """
    tp = np.asarray(tp, dtype=float)
    comps = (zip(q.weights, q.thetas) if isinstance(q, MixtureSpec)
             else [(1, q)])
    comps = [(w, np.asarray(t, dtype=float)) for w, t in comps]
    fp = log_norm(tp)
    fc = [log_norm(t) for _, t in comps]
    # x^k / k! for the anchor and each weight, so a term is a product
    powers = [[x ** k / mp.factorial(k) for k in range(i + 1)]
              for x in [-oracles.mpf_exact(lam)] + [mp.mpf(w) for w, _ in comps]]
    total = mp.mpf(0)
    for ks in itertools.product(range(i + 1), repeat=len(comps)):
        k0 = i - sum(ks)
        if k0 < 0:
            continue
        theta = tp + sum(k * (t - tp) for k, (_, t) in zip(ks, comps))
        e = log_norm(theta) - ((k0 + 1 - i) * fp
                               + sum(k * f for k, f in zip(ks, fc)))
        term = mp.factorial(i) * mp.exp(e)
        for k, row in zip((k0,) + ks, powers):
            term *= row[k]
        total += abs(term) if magnitude else term
    return total


class TestDiscrete:
    def test_known_exact_values(self):
        assert chi_pm_discrete(2, 1, BERN_P, BERN_Q) == Fraction(4)
        assert chi_pm_discrete(3, 1, BERN_P, BERN_Q) == Fraction(64, 3)
        assert chi_abs_discrete(3, 1, BERN_P, BERN_Q) == Fraction(328, 15)
        assert chi_pm_discrete(3, Fraction(1, 2), BERN_P, BERN_Q) == Fraction(659, 24)

    def test_order_one_telescopes(self):
        assert chi_pm_discrete(1, Fraction(1, 2), BERN_P, BERN_Q) == Fraction(1, 2)
        assert chi_pm_discrete(1, 1, BERN_P, BERN_Q) == 0
        assert chi_pm_discrete(1, 3, BERN_P, BERN_Q) == -2

    def test_bernoulli_two_term_formula(self):
        # independent closed form: (d)^i/p1^(i-1) + (-d)^i/(1-p1)^(i-1)
        lp, lq = Fraction(9, 10), Fraction(3, 10)
        d = lq - lp
        for i in range(2, 31):
            want = d**i / lp ** (i - 1) + (-d) ** i / (1 - lp) ** (i - 1)
            assert chi_pm_discrete(i, 1, bernoulli(lp), bernoulli(lq)) == want

    def test_float_path_agrees_with_exact(self):
        p = bernoulli(0.9)
        q = bernoulli(0.3)
        for i in (2, 3, 7, 12):
            exact = chi_pm_discrete(i, 1, BERN_P, BERN_Q)
            got = chi_pm_discrete(i, 1.0, p, q)
            assert isinstance(got, float)
            assert got == pytest.approx(float(exact), rel=1e-13)

    def test_p_equals_q_is_powers_of_one_minus_lam(self):
        p = bernoulli(Fraction(2, 5))
        assert chi_pm_discrete(4, 1, p, p) == 0
        assert chi_pm_discrete(3, Fraction(1, 2), p, p) == Fraction(1, 8)
        assert chi_pm_discrete(3, 2, p, p) == -1

    def test_missing_p_support_diverges_at_order_two(self):
        p = DiscreteDistribution([Fraction(1), 0])
        q = DiscreteDistribution([Fraction(1, 2), Fraction(1, 2)])
        assert chi_pm_discrete(2, 1, p, q) == math.inf
        assert chi_abs_discrete(5, 1, p, q) == math.inf
        # float route too
        pf = DiscreteDistribution([1.0, 0.0])
        qf = DiscreteDistribution([0.5, 0.5])
        assert chi_pm_discrete(3, 1.0, pf, qf) == math.inf
        # order 1 stays finite and telescopes
        assert chi_pm_discrete(1, 1, p, q) == 0

    def test_sign_flip_against_hand_swapped_sum(self):
        """Swapping q and lam*p in the definition flips the sign by (-1)^i."""
        p = DiscreteDistribution([Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)])
        q = DiscreteDistribution([Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)])
        for lam in (1, Fraction(1, 2), 2):
            for i in range(2, 9):
                swapped = sum(
                    (lam * ps - qs) ** i / ps ** (i - 1)
                    for ps, qs in zip(p.probs, q.probs)
                )
                assert swapped == (-1) ** i * chi_pm_discrete(i, lam, p, q)

    def test_even_order_nonnegative(self):
        p = DiscreteDistribution([Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)])
        q = DiscreteDistribution([Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)])
        for lam in (Fraction(1, 3), 1, 2, -1):
            for i in (2, 4, 6, 8):
                assert chi_pm_discrete(i, lam, p, q) >= 0

    def test_degeneracy_at_half(self):
        # odd orders vanish identically when p is the fair coin
        half = bernoulli(Fraction(1, 2))
        for lq_num in range(1, 10):
            q = bernoulli(Fraction(lq_num, 10))
            for i in (3, 5, 7, 9, 11, 13, 15):
                val = chi_pm_discrete(i, 1, half, q)
                assert val == 0
                assert isinstance(val, Fraction)

    def test_validation(self):
        with pytest.raises(InputError):
            chi_pm_discrete(0, 1, BERN_P, BERN_Q)
        with pytest.raises(InputError):
            chi_pm_discrete(2.0, 1, BERN_P, BERN_Q)
        with pytest.raises(InputError):
            chi_pm_discrete(2, 0, BERN_P, BERN_Q)
        with pytest.raises(InputError):
            chi_pm_discrete(2, math.nan, BERN_P, BERN_Q)
        with pytest.raises(InputError):
            chi_pm_discrete(2, True, BERN_P, BERN_Q)
        with pytest.raises(InputError):
            chi_pm_discrete(2, 1, BERN_P, DiscreteDistribution([1]))


class TestBoundChain:
    def test_chain_on_exact_pair(self):
        m, M = ratio_bounds_discrete(BERN_P, BERN_Q)
        width = M - m
        prev = None
        for i in range(2, 13):
            cur = chi_abs_discrete(i, 1, BERN_P, BERN_Q)
            if prev is not None:
                assert cur <= width * prev
            assert cur <= width**i
            prev = cur

    def test_chain_on_categorical_pair(self):
        p = DiscreteDistribution([Fraction(2, 5), Fraction(2, 5), Fraction(1, 5)])
        q = DiscreteDistribution([Fraction(1, 5), Fraction(1, 2), Fraction(3, 10)])
        m, M = ratio_bounds_discrete(p, q)
        width = M - m
        prev = None
        for i in range(2, 13):
            cur = chi_abs_discrete(i, 1, p, q)
            if prev is not None:
                assert cur <= width * prev
            assert cur <= width**i
            prev = cur


class TestAefClosedForm:
    def test_gaussian_matches_direct_binomial_sum(self):
        fam = gaussian_iso(1)
        for delta in (0.5, 1.0):
            for i in range(2, 11):
                want = math.fsum(
                    (-1) ** (i - j) * math.comb(i, j)
                    * math.exp(j * (j - 1) * delta**2 / 2)
                    for j in range(i + 1)
                )
                got = chi_pm_aef(i, 1, fam, 0.0, delta)
                assert got == pytest.approx(want, rel=1e-12)

    def test_gaussian_magnitude_bound(self):
        for d, shape in ((1, lambda g: (0.0, g)), (3, lambda g: ([0.0] * 3, [g, 0.0, 0.0]))):
            fam = gaussian_iso(d)
            for gap in (0.5, 1.0, 2.0):
                tp, tq = shape(gap)
                for i in range(2, 11):
                    cap = 2.0**i * math.exp(i * (i - 1) * gap**2 / 2)
                    assert abs(chi_pm_aef(i, 1, fam, tp, tq)) <= cap

    def test_gaussian_depends_only_on_gap(self):
        fam = gaussian_iso(2)
        a = chi_pm_aef(4, 1, fam, [0.3, -0.4], [0.3, 0.6])
        b = chi_pm_aef(4, 1, gaussian_iso(1), 0.0, 1.0)
        assert a == pytest.approx(b, rel=1e-12)

    def test_poisson_matches_independent_formula(self):
        fam = poisson()
        a, b = 1.5, 2.75
        tp = fam.natural_param(a)
        tq = fam.natural_param(b)
        for i in (2, 3, 5, 8):
            want = mp.fsum(
                (-1) ** (i - j) * mp.binomial(i, j)
                * mp.e ** (a * (mp.mpf(b) / a) ** j - (1 - j) * a - j * b)
                for j in range(i + 1)
            )
            assert oracles.rel_err(chi_pm_aef(i, 1, fam, tp, tq), want) < mp.mpf("1e-12")

    @pytest.mark.parametrize(
        "fam,tp,tq",
        [
            (gaussian_iso(1), [0.2], [1.1]),
            (gaussian_iso(3), [0.0, 0.1, -0.2], [0.4, 0.0, 0.3]),
            (poisson(), [math.log(1.5)], [math.log(0.8)]),
            (vmf(3), [0.5, 0.0, 0.0], [0.1, 1.2, 0.0]),
            (vmf(2), [2.0, 0.5], [0.3, 0.4]),
            (trunc_exp(0.0, 2.0), [-1.5], [2.0]),
            (trunc_exp(1.0), [1.0], [3.0]),
        ],
    )
    def test_matches_mp_closed_form_oracle(self, fam, tp, tq):
        for i in (2, 3, 5):
            for lam in (1, Fraction(1, 2), 2, -1):
                want = aef_closed_form_oracle(i, lam, fam.log_normalizer, tp, tq)
                got = chi_pm_aef(i, lam, fam, tp, tq)
                assert oracles.rel_err(got, want) < mp.mpf("1e-11")

    def test_vmf_d3_has_elementary_normalizer(self):
        # 0F1(; 3/2; k^2/4) = sinh(k)/k gives a by-hand route for d = 3
        def log_norm(theta):
            k = float(np.linalg.norm(theta))
            if k == 0.0:
                return 0.0
            return math.log(math.sinh(k) / k)

        fam = vmf(3)
        tp = [0.8, 0.0, 0.0]
        tq = [0.0, 1.5, 0.2]
        for i in (2, 3, 4):
            want = aef_closed_form_oracle(i, 1, log_norm, tp, tq)
            assert oracles.rel_err(chi_pm_aef(i, 1, fam, tp, tq), want) < mp.mpf("1e-11")

    def test_identical_parameters_shortcut(self):
        fam = gaussian_iso(2)
        t = [0.3, 0.4]
        assert chi_pm_aef(5, 1, fam, t, t) == 0.0
        assert chi_pm_aef(3, Fraction(1, 2), fam, t, t) == Fraction(1, 8)
        assert chi_pm_aef(2, 3, fam, t, t) == 4

    def test_trunc_exp_domain_error_names_condition(self):
        fam = trunc_exp(0.0)
        with pytest.raises(DivergenceError) as err:
            chi_pm_aef(3, 1, fam, 3.0, 1.0)
        msg = str(err.value)
        assert "j=" in msg
        assert "3*theta_q - 2*theta_p > 0" in msg
        with pytest.raises(DivergenceError) as err2:
            chi_pm_aef(2, 1, fam, 5.0, 2.0)
        assert "2*theta_q - 1*theta_p > 0" in str(err2.value)

    def test_doubly_truncated_never_leaves_domain(self):
        fam = trunc_exp(0.0, 1.0)
        for i in (2, 3, 6):
            val = chi_pm_aef(i, 1, fam, -40.0, 40.0)
            assert math.isfinite(val) or val == math.inf

    def test_overflow_becomes_signed_infinity(self):
        fam = gaussian_iso(1)
        assert chi_pm_aef(2, 1, fam, 0.0, 30.0) == math.inf
        # odd order: the j=i term dominates with positive sign
        assert chi_pm_aef(3, 1, fam, 0.0, 30.0) == math.inf


class TestSignedLogsum:
    def test_plain_sum_in_range(self):
        got = _signed_logsum([1, 1], [math.log(2.0), math.log(3.0)], "t")
        assert got == pytest.approx(5.0, rel=1e-15)

    def test_zero_terms_dropped(self):
        assert _signed_logsum([0, 1], [900.0, 0.0], "t") == 1.0
        assert _signed_logsum([], [], "t") == 0.0

    def test_sign_resolves_beyond_float_range(self):
        assert _signed_logsum([1, -1], [800.0, 700.0], "t") == math.inf
        assert _signed_logsum([-1, 1], [800.0, 700.0], "t") == -math.inf

    def test_rescaled_finite_result(self):
        # log(e^800 - e^800/2) = 800 + log(1/2): still overflows; but
        # with a smaller peak the rescaled path must produce finite output
        got = _signed_logsum([1, -1], [700.0, 699.0], "t")
        want = math.exp(700.0) - math.exp(699.0)
        assert got == pytest.approx(want, rel=1e-12)

    def test_unresolvable_cancellation_raises(self):
        with pytest.raises(OverflowSaturationError):
            _signed_logsum([1, -1], [800.0, 800.0], "t")


class TestMixture:
    def test_single_component_equals_pair(self):
        fam = gaussian_iso(1)
        mix = MixtureSpec([1.0], ([0.9],))
        for i in (2, 3, 4):
            assert chi_pm_mixture(i, 1, fam, [0.2], mix) == pytest.approx(
                chi_pm_aef(i, 1, fam, [0.2], [0.9]), rel=1e-12
            )

    def test_gaussian_mixture_against_quadrature(self):
        fam = gaussian_iso(1)
        mix = MixtureSpec([0.3, 0.7], ([-0.5], [0.8]))
        for i in (2, 3, 4):
            closed = chi_pm_mixture(i, 1, fam, [0.1], mix)
            quad = chi_pm_quadrature(i, 1, fam, [0.1], mixture=mix)
            assert closed == pytest.approx(quad, rel=1e-8)

    def test_poisson_mixture_against_summation(self):
        fam = poisson()
        mix = MixtureSpec([0.5, 0.5], ([math.log(1.0)], [math.log(3.0)]))
        tp = [math.log(2.0)]
        for i in (2, 3):
            closed = chi_pm_mixture(i, 1, fam, tp, mix)
            summed = chi_pm_quadrature(i, 1, fam, tp, mixture=mix)
            assert closed == pytest.approx(summed, rel=1e-9)

    def test_trunc_exp_mixture_domain_error(self):
        fam = trunc_exp(0.0)
        mix = MixtureSpec([0.5, 0.5], ([1.0], [5.0]))
        with pytest.raises(DivergenceError) as err:
            chi_pm_mixture(3, 1, fam, [4.0], mix)
        assert "every component" in str(err.value)

    def test_composition_budget_refuses_up_front(self):
        # orders 2-20 of five components hold 230 223 compositions
        fam = gaussian_iso(1)
        pair = PairSpec(kind="mixture", fam=fam, theta_p=fam.theta([0.0]),
                        mixture=MixtureSpec([0.2] * 5, ([-0.4], [-0.2], [0.1],
                                                        [0.3], [0.5])))
        t0 = time.perf_counter()
        with pytest.raises(InputError, match="11628 compositions, over the "
                                             "composition budget of 10000"):
            compute_basis(pair, 20)
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize(
        "fam,tp,mix,lam",
        [
            (gaussian_iso(1), [0.1], MixtureSpec([0.3, 0.7], ([-0.5], [0.8])),
             1),
            (gaussian_iso(1), [0.0],
             MixtureSpec([0.2, 0.5, 0.3], ([-0.3], [0.1], [0.4])),
             Fraction(1, 2)),
            (poisson(), [math.log(2.0)],
             MixtureSpec([0.5, 0.5], ([math.log(1.6)], [math.log(2.5)])),
             Fraction(1, 2)),
            (poisson(), [math.log(1.5)],
             MixtureSpec([0.2, 0.3, 0.5], ([math.log(1.2)], [math.log(1.8)],
                                           [math.log(1.5)])), 1),
            (trunc_exp(0.0), [2.0], MixtureSpec([0.4, 0.6], ([2.2], [3.0])),
             1),
            (trunc_exp(0.5, 2.0), [1.0],
             MixtureSpec([0.6, 0.4], ([-1.0], [2.0])), Fraction(1, 2)),
        ],
    )
    def test_matches_mp_multinomial_oracle(self, fam, tp, mix, lam):
        # float cancellation is bounded by the scale of the summed terms
        pair = PairSpec(kind="mixture", fam=fam, theta_p=fam.theta(tp),
                        mixture=mix)
        basis = compute_basis(pair, 16, lam)
        for i, got in zip(basis.orders, basis.values):
            want = aef_closed_form_oracle(i, lam, fam.log_normalizer, tp, mix)
            scale = aef_closed_form_oracle(i, lam, fam.log_normalizer, tp,
                                           mix, magnitude=True)
            assert abs(got - want) <= 1e-13 * scale

    def test_lam_shift(self):
        fam = gaussian_iso(1)
        mix = MixtureSpec([0.4, 0.6], ([0.0], [1.0]))
        a = chi_pm_mixture(2, Fraction(1, 2), fam, [0.5], mix)
        b = chi_pm_quadrature(2, Fraction(1, 2), fam, [0.5], mixture=mix)
        assert a == pytest.approx(b, rel=1e-8)


class TestQuadratureRoute:
    def test_backend_agreement_categorical(self):
        # discrete-exact, closed form and the summation oracle line up
        fam = categorical(1)
        p_probs = [Fraction(9, 10), Fraction(1, 10)]
        q_probs = [Fraction(3, 10), Fraction(7, 10)]
        p = DiscreteDistribution(p_probs)
        q = DiscreteDistribution(q_probs)
        tp = fam.natural_param([float(v) for v in p_probs])
        tq = fam.natural_param([float(v) for v in q_probs])
        for i in (2, 3, 5, 8):
            for lam in (1, Fraction(1, 2), 2):
                exact = chi_pm_discrete(i, lam, p, q)
                closed = chi_pm_aef(i, lam, fam, tp, tq)
                summed = chi_pm_quadrature(i, lam, fam, tp, theta_q=tq)
                assert closed == pytest.approx(float(exact), rel=1e-10)
                assert summed == pytest.approx(float(exact), rel=1e-10)

    def test_backend_agreement_poisson(self):
        fam = poisson()
        tp = fam.natural_param(2.0)
        tq = fam.natural_param(3.5)
        for i in (2, 3, 6):
            closed = chi_pm_aef(i, 1, fam, tp, tq)
            summed = chi_pm_quadrature(i, 1, fam, tp, theta_q=tq)
            assert summed == pytest.approx(closed, rel=1e-10)

    def test_backend_agreement_gaussian(self):
        # from order 12 a linear-space power overflowed to inf * 0 = nan
        fam = gaussian_iso(1)
        for i in range(2, 17):
            closed = chi_pm_aef(i, 1, fam, 0.0, 1.0)
            quad = chi_pm_quadrature(i, 1, fam, 0.0, theta_q=1.0)
            assert quad == pytest.approx(closed, rel=1e-9)

    def test_backend_agreement_trunc_exp(self):
        doubly = trunc_exp(0.5, 3.0)
        singly = trunc_exp(1.0)
        for i in (2, 3):
            a = chi_pm_aef(i, 1, doubly, -1.0, 2.0)
            b = chi_pm_quadrature(i, 1, doubly, -1.0, theta_q=2.0)
            assert b == pytest.approx(a, rel=1e-9)
            c = chi_pm_aef(i, 1, singly, 1.0, 3.0)
            d = chi_pm_quadrature(i, 1, singly, 1.0, theta_q=3.0)
            assert d == pytest.approx(c, rel=1e-9)

    @pytest.mark.parametrize("margin", [1e-6, 1e-4, 1e-2])
    @pytest.mark.parametrize("i, lam", [(2, 1), (3, Fraction(1, 2)), (7, 1)])
    def test_singly_truncated_near_the_boundary(self, i, lam, margin):
        # i theta_q - (i - 1) theta_p = margin: the integrand decays over a
        # length 1/margin beside a head of length 1/theta_p
        fam = trunc_exp(0.0)
        tq = (i - 1 + margin) / i
        closed = chi_pm_aef(i, lam, fam, [1.0], [tq])
        summed = chi_pm_quadrature(i, lam, fam, [1.0], theta_q=[tq])
        assert summed == pytest.approx(closed, rel=1e-9)
        # a second component just inside the first adds rates between
        mix = MixtureSpec([0.5, 0.5], ([tq], [tq + 0.02]))
        closed = chi_pm_mixture(i, lam, fam, [1.0], mix)
        summed = chi_pm_quadrature(i, lam, fam, [1.0], mixture=mix)
        assert summed == pytest.approx(closed, rel=1e-9)

    def test_quadrature_short_of_its_tolerance_warns(self):
        # a margin 2 theta_q - theta_p of 2.2e-16: the log-space integrand
        # cancels two numbers near 5e15, and the value is off (the closed
        # form gives 1.41e15), so the integrator must say it did not converge
        fam = trunc_exp(0.0)
        with pytest.warns(RuntimeWarning, match="quadrature reached its "
                                                "limit of 300 intervals"):
            chi_pm_quadrature(2, 1, fam, [1.25], theta_q=[0.6250000000000001])

    def test_singly_truncated_divergent_region_raises(self):
        fam = trunc_exp(0.0)
        with pytest.raises(DivergenceError) as err:
            chi_pm_quadrature(3, 1, fam, 3.0, theta_q=1.0)
        assert "3*theta_q - 2*theta_p > 0" in str(err.value)
        mix = MixtureSpec([0.5, 0.5], ([1.0], [5.0]))
        with pytest.raises(DivergenceError):
            chi_pm_quadrature(3, 1, fam, 4.0, mixture=mix)

    def test_poisson_atom_budget_refuses_up_front(self):
        # these would sum 1.05e10 and 9.3e11 atoms
        fam = poisson()
        pair = PairSpec(kind="aef", fam=fam,
                        theta_p=fam.natural_param(2.0),
                        theta_q=fam.natural_param(3.5))
        calls = (
            lambda: chi_abs(40, 1, pair),
            lambda: chi_pm_quadrature(64, 1, fam, math.log(5.0),
                                      theta_q=math.log(7.5)),
        )
        for call in calls:
            t0 = time.perf_counter()
            with pytest.raises(InputError, match="budget of 100000"):
                call()
            assert time.perf_counter() - t0 < 1.0

    def test_absolute_variant(self):
        fam = gaussian_iso(1)
        even = chi_pm_quadrature(2, 1, fam, 0.0, theta_q=0.8)
        even_abs = chi_pm_quadrature(2, 1, fam, 0.0, theta_q=0.8, absolute=True)
        assert even_abs == pytest.approx(even, rel=1e-10)
        odd = chi_pm_quadrature(3, 1, fam, 0.0, theta_q=0.8)
        odd_abs = chi_pm_quadrature(3, 1, fam, 0.0, theta_q=0.8, absolute=True)
        assert odd_abs >= abs(odd)

    def test_argument_validation(self):
        fam = gaussian_iso(1)
        with pytest.raises(InputError):
            chi_pm_quadrature(2, 1, fam, 0.0)
        with pytest.raises(InputError):
            chi_pm_quadrature(
                2, 1, fam, 0.0, theta_q=1.0,
                mixture=MixtureSpec([1.0], ([1.0],)),
            )
        with pytest.raises(InputError):
            chi_pm_quadrature(2, 1, vmf(3), [1.0, 0.0, 0.0],
                              theta_q=[0.0, 1.0, 0.0])
        # a malformed component is refused before any integration starts
        bad = MixtureSpec([0.5, 0.5], ([0.0, 1.0], [1.0]))
        with pytest.raises(InputError, match="1-dimensional"):
            chi_pm_quadrature(2, 1, fam, 0.0, mixture=bad)


class TestTruncExpClosedForm:
    def test_exact_rational_value(self):
        got = chi_pm_trunc_exp_closed(1, 3)
        assert got == Fraction(16, 35)
        assert isinstance(got, Fraction)
        assert chi_pm_trunc_exp_closed(Fraction(1), Fraction(2)) == 0

    def test_float_inputs(self):
        got = chi_pm_trunc_exp_closed(1.0, 3.0)
        assert isinstance(got, float)
        assert got == pytest.approx(16 / 35, rel=1e-14)

    def test_truncation_point_cancels(self):
        for a in (0.0, 2.5, 7.5):
            via_aef = chi_pm_aef(3, 1, trunc_exp(a), 1.0, 3.0)
            assert via_aef == pytest.approx(16 / 35, rel=1e-11)

    def test_matches_general_closed_form_on_grid(self):
        for tp in (0.5, 1.0, 2.0):
            for tq in (tp, 1.5 * tp, 4.0 * tp):
                got = chi_pm_trunc_exp_closed(tp, tq)
                want = chi_pm_aef(3, 1, trunc_exp(0.0), tp, tq)
                assert got == pytest.approx(want, rel=1e-10, abs=1e-14)

    def test_divergent_region(self):
        with pytest.raises(DivergenceError) as err:
            chi_pm_trunc_exp_closed(3, 2)
        assert "3*theta_q - 2*theta_p > 0" in str(err.value)
        with pytest.raises(DivergenceError):
            chi_pm_trunc_exp_closed(Fraction(3), Fraction(2))

    def test_validation(self):
        with pytest.raises(InputError):
            chi_pm_trunc_exp_closed(1, 3, i=4)
        with pytest.raises(InputError):
            chi_pm_trunc_exp_closed(0, 3)
        with pytest.raises(InputError):
            chi_pm_trunc_exp_closed(1, -2)
        with pytest.raises(InputError):
            chi_pm_trunc_exp_closed(math.inf, 1.0)
        with pytest.raises(InputError):
            chi_pm_trunc_exp_closed("1", 3)


class TestPairDispatch:
    def test_discrete_pair(self):
        pair = PairSpec(kind="discrete", p=BERN_P, q=BERN_Q)
        assert chi_pm(2, 1, pair) == 4
        assert chi_abs(3, 1, pair) == Fraction(328, 15)
        assert provenance(pair) == "discrete-exact"

    def test_float_pair_provenance(self):
        pair = PairSpec(kind="discrete", p=bernoulli(0.9), q=bernoulli(0.3))
        assert provenance(pair) == "discrete-float"

    def test_aef_pair(self):
        fam = poisson()
        pair = PairSpec(kind="aef", fam=fam,
                        theta_p=fam.natural_param(1.0),
                        theta_q=fam.natural_param(2.0))
        assert chi_pm(2, 1, pair) == pytest.approx(
            chi_pm_aef(2, 1, fam, pair.theta_p, pair.theta_q), rel=1e-15
        )
        assert provenance(pair) == "aef-closed-form"
        assert chi_abs(2, 1, pair) == pytest.approx(chi_pm(2, 1, pair), rel=1e-9)

    def test_chi_abs_on_a_wide_gaussian_pair(self):
        fam = gaussian_iso(1)
        pair = PairSpec(kind="aef", fam=fam, theta_p=np.array([0.0]),
                        theta_q=np.array([1.5]))
        assert chi_pm(8, 1, pair) == 2.2937805079052495e27
        assert chi_abs(8, 1, pair) == pytest.approx(2.2937805079052495e27,
                                                    rel=1e-9)

    def test_mixture_pair(self):
        fam = gaussian_iso(1)
        mix = MixtureSpec([0.5, 0.5], ([0.0], [1.0]))
        pair = PairSpec(kind="mixture", fam=fam, theta_p=np.array([0.5]),
                        mixture=mix)
        assert chi_pm(2, 1, pair) == pytest.approx(
            chi_pm_mixture(2, 1, fam, [0.5], mix), rel=1e-15
        )
        assert provenance(pair) == "aef-closed-form-mixture"
        assert chi_abs(2, 1, pair) == pytest.approx(chi_pm(2, 1, pair), rel=1e-8)


class TestChiBasis:
    def test_construction_and_lookup(self):
        basis = ChiBasis(lam=1, orders=(2, 3, 4), values=(Fraction(4), Fraction(64, 3), 1.0))
        assert basis.max_order == 4
        assert basis.value(3) == Fraction(64, 3)
        assert not basis.is_exact
        with pytest.raises(InputError):
            basis.value(5)

    def test_validation(self):
        with pytest.raises(InputError):
            ChiBasis(lam=1, orders=(2, 3), values=(1.0,))
        with pytest.raises(InputError):
            ChiBasis(lam=1, orders=(3, 2), values=(1.0, 2.0))
        with pytest.raises(InputError):
            ChiBasis(lam=1, orders=(2, 2), values=(1.0, 1.0))

    def test_float_csv_round_trip_is_bit_exact(self):
        pair = PairSpec(kind="discrete", p=bernoulli(0.9), q=bernoulli(0.3))
        basis = compute_basis(pair, 12)
        buf = io.StringIO()
        basis.to_csv(buf)
        back = ChiBasis.from_csv(io.StringIO(buf.getvalue()))
        assert back.orders == basis.orders
        assert all(a == b for a, b in zip(back.values, basis.values))

    def test_rational_csv_round_trip_is_exact(self):
        pair = PairSpec(kind="discrete", p=BERN_P, q=BERN_Q)
        basis = compute_basis(pair, 10)
        assert basis.is_exact
        buf = io.StringIO()
        basis.to_csv(buf, rational=True)
        text = buf.getvalue()
        assert "/" in text.splitlines()[2]
        back = ChiBasis.from_csv(io.StringIO(text))
        assert back.is_exact
        assert back.values == basis.values

    def test_from_csv_errors(self):
        with pytest.raises(InputError):
            ChiBasis.from_csv(io.StringIO("wrong,header\n2,1.0\n"))
        with pytest.raises(InputError):
            ChiBasis.from_csv(io.StringIO("order,chi_pm\n2,abc\n"))
        with pytest.raises(InputError):
            ChiBasis.from_csv(io.StringIO("order,chi_pm\ntwo,1.0\n"))
        with pytest.raises(InputError, match="at least one order"):
            ChiBasis.from_csv(io.StringIO("order,chi_pm\n"))

    def test_compute_basis_counts_builds(self):
        pair = PairSpec(kind="discrete", p=BERN_P, q=BERN_Q)
        assert basis_build_count() == 0
        basis = compute_basis(pair, 6)
        assert basis_build_count() == 1
        compute_basis(pair, 6)
        assert basis_build_count() == 2
        assert basis.orders == (2, 3, 4, 5, 6)
        assert basis.values[0] == 4
        assert basis.method == "discrete-exact"
        assert basis.lam == 1

    @pytest.mark.parametrize(
        "q,k,most",
        [
            # k - 1 moments past the first two, F(theta_p) and F(theta_q)
            ([0.7], 64, 64 + 2),
            # C(k + C, C) compositions over moments 0..k, plus F(theta_c)
            (MixtureSpec([0.2, 0.5, 0.3], ([-0.3], [0.1], [0.4])), 16,
             math.comb(19, 3) + 3),
        ],
    )
    def test_basis_forms_each_moment_once(self, monkeypatch, q, k, most):
        fam = gaussian_iso(1)
        calls = 0
        real = type(fam).log_normalizer

        def counted(self, theta):
            nonlocal calls
            calls += 1
            return real(self, theta)

        monkeypatch.setattr(type(fam), "log_normalizer", counted)
        mixture = isinstance(q, MixtureSpec)
        pair = PairSpec(kind="mixture" if mixture else "aef", fam=fam,
                        theta_p=fam.theta([0.0]),
                        theta_q=None if mixture else fam.theta(q),
                        mixture=q if mixture else None)
        compute_basis(pair, k)
        assert calls <= most

    def test_exact_discrete_budget_refuses_up_front(self):
        # 300 atoms with counts up to 10^6: at k = 64 the top denominator
        # V L^64 has about 200 000 bits and the basis took 15-20 s
        rng = np.random.default_rng(7)
        p, q = (DiscreteDistribution([Fraction(int(c), int(sum(w)))
                                      for c in w])
                for w in rng.integers(1, 10 ** 6, size=(2, 300)))
        pair = PairSpec(kind="discrete", p=p, q=q)
        t0 = time.perf_counter()
        with pytest.raises(InputError, match="exact discrete budget"):
            compute_basis(pair, 64)
        assert time.perf_counter() - t0 < 1.0
        # the same atoms in floats, or at a low order, still run
        assert compute_basis(pair, 4).is_exact
        floats = [DiscreteDistribution([float(x) for x in d]) for d in (p, q)]
        compute_basis(PairSpec(kind="discrete", p=floats[0], q=floats[1]), 64)

    def test_compute_basis_validation(self):
        pair = PairSpec(kind="discrete", p=BERN_P, q=BERN_Q)
        with pytest.raises(InputError):
            compute_basis(pair, 1)
        with pytest.raises(InputError):
            compute_basis(pair, 2.5)
