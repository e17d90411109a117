"""Tests for the exact/quadrature oracle layer."""

import math
import random
import time
from fractions import Fraction as Fr

import mpmath as mp
import numpy as np
import pytest

from fchi.errors import InputError
from fchi.expansion import converge, pair_ratio_bounds
from fchi.families import (
    DiscreteDistribution,
    PairSpec,
    bernoulli,
    categorical,
    gaussian_iso,
    poisson,
    trunc_exp,
    vmf,
)
from fchi.generators import (
    alpha_generator,
    conjugate_generator,
    exponential,
    harmonic,
    jeffreys,
    jensen_shannon,
    kl,
    polynomial_generator,
    reverse_kl,
)
from fchi.reference import (
    exact_alpha_aef,
    exact_f_divergence_discrete,
    quadrature_f_divergence,
)

import oracles

TWO_LOG2 = 2.0 * math.log(2.0)


def rand_full_support(rng, atoms):
    return DiscreteDistribution(oracles.rand_categorical(rng, atoms))


class TestExactDiscrete:
    def test_worked_exponential_value(self):
        got = exact_f_divergence_discrete(
            exponential(), bernoulli(Fr(9, 10)), bernoulli(Fr(3, 10)))
        assert got == pytest.approx(108.20108519696437, rel=1e-12)

    def test_kl_bernoulli_frozen(self):
        got = exact_f_divergence_discrete(
            kl(), bernoulli(Fr(3, 10)), bernoulli(Fr(7, 10)))
        # frozen from the 50-digit oracle: 0.3 log(3/7) + 0.7 log(7/3)
        assert got == pytest.approx(0.33891914415488134, rel=1e-15)
        want = mp.mpf(3) / 10 * mp.log(mp.mpf(3) / 7) \
            + mp.mpf(7) / 10 * mp.log(mp.mpf(7) / 3)
        assert oracles.rel_err(got, want) < 1e-15

    @pytest.mark.parametrize("name", sorted(oracles.MP_F))
    def test_matches_high_precision_oracle(self, name):
        from fchi.generators import from_spec
        gen = from_spec(name)
        rng = random.Random(77001 + len(name))
        for atoms in (2, 4):
            for _ in range(6):
                p = rand_full_support(rng, atoms)
                q = rand_full_support(rng, atoms)
                got = exact_f_divergence_discrete(gen, p, q)
                want = oracles.exact_divergence(
                    oracles.MP_F[name], p.probs, q.probs)
                # near-identical pairs cancel to ~1e-5, where the float
                # evaluation's ~1e-17 absolute noise dominates any
                # relative measure; allow that floor explicitly
                assert abs(got - want) < 1e-15 + 1e-13 * abs(want)

    def test_identical_pair_returns_f_at_one(self):
        p = rand_full_support(random.Random(3), 4)
        assert exact_f_divergence_discrete(kl(), p, p) == 0
        assert exact_f_divergence_discrete(harmonic(), p, p) == 1
        cubic = polynomial_generator([2, -1, 0, 3])
        assert exact_f_divergence_discrete(cubic, p, p) == Fr(4)

    def test_missing_mass_in_p_is_inf_for_every_generator(self):
        # the dominance convention: q putting mass where p has none sends
        # the divergence to +inf regardless of the generator's own slope
        p = DiscreteDistribution([Fr(1), Fr(0)])
        q = DiscreteDistribution([Fr(1, 2), Fr(1, 2)])
        for gen in (kl(), reverse_kl(), jensen_shannon(), harmonic(),
                    exponential(), jeffreys()):
            assert exact_f_divergence_discrete(gen, p, q) == math.inf

    def test_missing_mass_in_q_uses_f_at_zero(self):
        p = DiscreteDistribution([Fr(1, 2), Fr(1, 2)])
        q = DiscreteDistribution([Fr(1), Fr(0)])
        # kl: f(0+) = +inf
        assert exact_f_divergence_discrete(kl(), p, q) == math.inf
        # js: f(0) = log 2, so the value is finite
        got = exact_f_divergence_discrete(jensen_shannon(), p, q)
        want = mp.mpf(1) / 2 * oracles.f_js(mp.mpf(2)) \
            + mp.mpf(1) / 2 * mp.log(2)
        assert oracles.rel_err(got, want) < 1e-14
        # harmonic: f(0) = 0, leaving only the surviving atom
        got = exact_f_divergence_discrete(harmonic(), p, q)
        assert got == pytest.approx(2.0 / 3.0, rel=1e-15)
        # rkl: u log u -> 0, same shape
        got = exact_f_divergence_discrete(reverse_kl(), p, q)
        assert got == pytest.approx(math.log(2.0), rel=1e-14)

    def test_shared_zero_atoms_are_skipped(self):
        p3 = DiscreteDistribution([Fr(1, 2), Fr(1, 2), Fr(0)])
        q3 = DiscreteDistribution([Fr(3, 4), Fr(1, 4), Fr(0)])
        p2 = DiscreteDistribution([Fr(1, 2), Fr(1, 2)])
        q2 = DiscreteDistribution([Fr(3, 4), Fr(1, 4)])
        for gen in (kl(), jensen_shannon(), harmonic()):
            assert exact_f_divergence_discrete(gen, p3, q3) == \
                exact_f_divergence_discrete(gen, p2, q2)

    def test_polynomial_stays_rational(self):
        sq = polynomial_generator([1, -2, 1])
        p = DiscreteDistribution([Fr(2, 3), Fr(1, 3)])
        q = DiscreteDistribution([Fr(1, 3), Fr(2, 3)])
        got = exact_f_divergence_discrete(sq, p, q)
        assert isinstance(got, Fr)
        assert got == Fr(1, 9) * Fr(3, 2) + Fr(1, 9) * Fr(3)

    def test_float_inputs_give_floats(self):
        p = DiscreteDistribution([0.6, 0.4])
        q = DiscreteDistribution([0.4, 0.6])
        got = exact_f_divergence_discrete(kl(), p, q)
        assert isinstance(got, float) and got > 0

    def test_alpha_overflowing_ratio_is_inf(self):
        p = DiscreteDistribution([1e-300, 1 - 1e-300])
        q = DiscreteDistribution([0.5, 0.5])
        assert exact_f_divergence_discrete(alpha_generator(3), p, q) == math.inf

    def test_support_size_mismatch(self):
        with pytest.raises(InputError, match="support sizes differ"):
            exact_f_divergence_discrete(
                kl(), bernoulli(Fr(1, 2)),
                DiscreteDistribution([Fr(1, 3)] * 3))


class TestExactAlphaAef:
    def test_identical_parameters(self):
        fam = gaussian_iso(2)
        t = np.array([0.7, -0.1])
        for a in (0, 3, 0.5, -2):
            assert exact_alpha_aef(a, fam, t, t) == 0.0

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_hellinger_between_unit_separated_gaussians(self, d):
        fam = gaussian_iso(d)
        tp = np.zeros(d)
        tq = np.zeros(d)
        tq[0] = 1.0
        got = exact_alpha_aef(0, fam, tp, tq)
        assert got == pytest.approx(4.0 * (1.0 - math.exp(-0.125)),
                                    rel=1e-15)
        assert got == pytest.approx(0.4700123896616184, rel=1e-15)

    def test_alpha_negation_swaps_arguments(self):
        cases = [
            (gaussian_iso(1), np.array([0.3]), np.array([1.7])),
            (poisson(), np.array([0.0]), np.array([math.log(3.0)])),
        ]
        for fam, tp, tq in cases:
            for a in (0.5, 2, 5, -3):
                x = exact_alpha_aef(a, fam, tp, tq)
                y = exact_alpha_aef(-a, fam, tq, tp)
                assert x == pytest.approx(y, rel=1e-14)

    def test_poisson_alpha5_hand_closed_form(self):
        # For rates (1, 2) and gamma = 3 the coupling sum telescopes to
        # exp(2^3 - (1 - 3 + 2*3)) = e^4, giving (e^4 - 1)/6.
        fam = poisson()
        tp, tq = np.array([0.0]), np.array([math.log(2.0)])
        got = exact_alpha_aef(5, fam, tp, tq)
        want = (mp.e ** 4 - 1) / 6
        assert oracles.rel_err(got, want) < 1e-13

    def test_extrapolation_outside_domain_is_inf(self):
        fam = trunc_exp(0.0)
        got = exact_alpha_aef(5, fam, np.array([3.0]), np.array([1.0]))
        assert got == math.inf

    def test_interpolation_stays_inside_domain(self):
        fam = trunc_exp(0.0)
        got = exact_alpha_aef(0, fam, np.array([3.0]), np.array([1.0]))
        assert 0 < got < 4

    def test_huge_gap_saturates_to_inf(self):
        fam = gaussian_iso(1)
        got = exact_alpha_aef(3, fam, np.array([0.0]), np.array([30.0]))
        assert got == math.inf

    @pytest.mark.parametrize("a", [1, -1, 1.0, math.nan, math.inf])
    def test_rejects_degenerate_alpha(self, a):
        fam = gaussian_iso(1)
        with pytest.raises(InputError):
            exact_alpha_aef(a, fam, np.array([0.0]), np.array([1.0]))


def mp_gauss_pdf(x, mu):
    return mp.exp(-(x - mu) ** 2 / 2) / mp.sqrt(2 * mp.pi)


class TestQuadrature:
    def test_discrete_delegates_exactly(self):
        pair = PairSpec(kind="discrete", p=bernoulli(Fr(9, 10)),
                        q=bernoulli(Fr(3, 10)))
        val, err = quadrature_f_divergence(exponential(), pair)
        assert err == 0.0
        assert val == float(exact_f_divergence_discrete(
            exponential(), pair.p, pair.q))

    def test_identical_gaussians_vanish(self):
        pair = PairSpec(kind="aef", fam=gaussian_iso(1),
                        theta_p=np.array([0.4]), theta_q=np.array([0.4]))
        val, err = quadrature_f_divergence(kl(), pair)
        assert abs(val) < 1e-10

    @pytest.mark.parametrize("gen", [kl(), reverse_kl()])
    def test_unit_separated_gaussian_kl_is_half(self, gen):
        pair = PairSpec(kind="aef", fam=gaussian_iso(1),
                        theta_p=np.array([0.0]), theta_q=np.array([1.0]))
        val, err = quadrature_f_divergence(gen, pair)
        assert val == pytest.approx(0.5, rel=1e-9)
        assert err < 1e-9

    # KL = gap^2 / 2 = 800 (450 at theta_q = 30), but the density ratio
    # underflows to 0 in the tails, where kl's f(0+) = +inf enters the sum
    @pytest.mark.xfail(strict=True, reason="the quadrature integrand forms "
                       "the ratio in linear space, so it underflows")
    @pytest.mark.parametrize("theta_q", [30.0, 40.0])
    def test_far_gaussian_kl_survives_ratio_underflow(self, theta_q):
        pair = PairSpec(kind="aef", fam=gaussian_iso(1),
                        theta_p=np.array([0.0]), theta_q=np.array([theta_q]))
        val, err = quadrature_f_divergence(kl(), pair)
        want = theta_q**2 / 2
        assert math.isfinite(err) and abs(val - want) <= err + 1e-12 * want

    # alpha:5 on trunc_exp(0) from theta 2.0: the integrand's tail decays
    # at rate 3 theta_q - 2 theta_p
    @staticmethod
    def _trunc_exp_pair(theta_q):
        return PairSpec(kind="aef", fam=trunc_exp(0.0),
                        theta_p=np.array([2.0]), theta_q=np.array([theta_q]))

    def test_diverging_trunc_exp_alpha_is_inf(self):
        # rate -0.4: the first tail estimate, 3.6e42, dwarfs the rest,
        # which must not be lost to a cancelling running total
        val, err = quadrature_f_divergence(alpha_generator(5),
                                           self._trunc_exp_pair(1.2))
        assert (val, err) == (math.inf, math.inf)

    # rate 0.02: the integral converges, but near x = 360 f(q/p) overflows
    # to +inf where p is about 4e-313, so p f(q/p) ~ e^-7.7 is lost
    @pytest.mark.xfail(strict=True, reason="the quadrature integrand forms "
                       "f(q/p) in linear space, so it overflows")
    def test_slow_trunc_exp_alpha_survives_ratio_overflow(self):
        val, err = quadrature_f_divergence(alpha_generator(5),
                                           self._trunc_exp_pair(1.34))
        want = exact_alpha_aef(5, trunc_exp(0.0), [2.0], [1.34])
        assert math.isfinite(err) and abs(val - want) <= err + 1e-12 * want

    def test_gaussian_projection_in_three_dimensions(self):
        # the ratio depends on x only through one projection, so any-d
        # pairs with |gap| = 1 must reproduce the d = 1 value
        tp = np.array([0.2, -0.4, 1.0])
        tq = tp + np.array([1.0, 0.0, 0.0])
        pair = PairSpec(kind="aef", fam=gaussian_iso(3),
                        theta_p=tp, theta_q=tq)
        val, _ = quadrature_f_divergence(kl(), pair)
        assert val == pytest.approx(0.5, rel=1e-9)

    def test_poisson_alpha0_matches_closed_form(self):
        fam = poisson()
        tp, tq = np.array([0.0]), np.array([math.log(2.0)])
        pair = PairSpec(kind="aef", fam=fam, theta_p=tp, theta_q=tq)
        val, _ = quadrature_f_divergence(alpha_generator(0), pair)
        want = exact_alpha_aef(0, fam, tp, tq)
        assert val == pytest.approx(want, rel=1e-8)

    def test_poisson_kl_textbook_value(self):
        # KL(Poisson(a) : Poisson(b)) = a log(a/b) + b - a
        fam = poisson()
        pair = PairSpec(kind="aef", fam=fam, theta_p=np.array([0.0]),
                        theta_q=np.array([math.log(2.0)]))
        val, _ = quadrature_f_divergence(kl(), pair)
        assert val == pytest.approx(1.0 - math.log(2.0), rel=1e-10)

    def test_categorical_is_a_finite_sum(self):
        fam = categorical(3)
        tp = np.array([0.2, -0.5, 0.9])
        tq = np.array([-0.3, 0.4, 0.1])
        pair = PairSpec(kind="aef", fam=fam, theta_p=tp, theta_q=tq)
        val, err = quadrature_f_divergence(jensen_shannon(), pair)
        assert err == 0.0
        p = DiscreteDistribution([float(v) for v in fam.source_param(tp)])
        q = DiscreteDistribution([float(v) for v in fam.source_param(tq)])
        assert val == float(exact_f_divergence_discrete(
            jensen_shannon(), p, q))

    def test_trunc_exp_kl_against_mp_quad(self):
        fam = trunc_exp(0.0, 2.0)
        tp, tq = 1.0, -0.5
        pair = PairSpec(kind="aef", fam=fam, theta_p=np.array([tp]),
                        theta_q=np.array([tq]))
        val, _ = quadrature_f_divergence(kl(), pair)

        def z(t):
            return (mp.e ** (-0 * t) - mp.e ** (-2 * t)) / t

        def dens(x, t):
            return mp.e ** (-t * x) / z(t)

        # 20 digits keep tanh-sinh refinement fast and leave plenty of
        # headroom over the 1e-8 comparison
        with mp.workdps(20):
            want = mp.quad(
                lambda x: dens(x, tp) * mp.log(dens(x, tp) / dens(x, tq)),
                [0, 2],
            )
        assert oracles.rel_err(val, want) < 1e-8

    def test_gaussian_mixture_js_against_mp_quad(self):
        from fchi.families import MixtureSpec
        fam = gaussian_iso(1)
        mix = MixtureSpec(weights=(0.5, 0.5), thetas=([-1.0], [2.0]))
        pair = PairSpec(kind="mixture", fam=fam,
                        theta_p=np.array([0.0]), mixture=mix)
        val, err = quadrature_f_divergence(jensen_shannon(), pair)
        assert err < 1e-8

        def q_of(x):
            return (mp_gauss_pdf(x, -1) + mp_gauss_pdf(x, 2)) / 2

        with mp.workdps(20):
            want = mp.quad(
                lambda x: mp_gauss_pdf(x, 0)
                * oracles.f_js(q_of(x) / mp_gauss_pdf(x, 0)),
                [-14, -1, 0, 2, 15],
            )
        assert oracles.rel_err(val, want) < 1e-7

    def test_gaussian_mixture_needs_one_dimension(self):
        from fchi.families import MixtureSpec
        fam = gaussian_iso(2)
        mix = MixtureSpec(weights=(1.0,), thetas=([0.5, 0.5],))
        pair = PairSpec(kind="mixture", fam=fam,
                        theta_p=np.array([0.0, 0.0]), mixture=mix)
        with pytest.raises(InputError, match="d = 1"):
            quadrature_f_divergence(kl(), pair)

    def test_poisson_atom_budget_refuses_a_huge_rate(self):
        fam = poisson()
        pair = PairSpec(kind="aef", fam=fam, theta_p=fam.natural_param(1e9),
                        theta_q=fam.natural_param(1e9))
        t0 = time.perf_counter()
        with pytest.raises(InputError, match="cutoff of 1.001e\\+09 atoms"):
            quadrature_f_divergence(kl(), pair)
        assert time.perf_counter() - t0 < 1.0

    def test_vmf_has_no_density_route(self):
        pair = PairSpec(kind="aef", fam=vmf(3),
                        theta_p=np.array([0.0, 0.0, 1.0]),
                        theta_q=np.array([0.0, 0.0, 2.0]))
        with pytest.raises(InputError, match="density"):
            quadrature_f_divergence(kl(), pair)


class TestDivergenceProperties:
    def test_reverse_identity_via_conjugate(self):
        rng = random.Random(880011)
        gens = [kl(), reverse_kl(), jensen_shannon(), jeffreys(), harmonic()]
        for _ in range(10):
            p = rand_full_support(rng, 3)
            q = rand_full_support(rng, 3)
            for gen in gens:
                fwd = float(exact_f_divergence_discrete(gen, p, q))
                rev = float(exact_f_divergence_discrete(
                    conjugate_generator(gen), q, p))
                assert abs(fwd - rev) <= 1e-12 * max(1.0, abs(fwd))

    def test_kl_reverses_to_rkl(self):
        p = DiscreteDistribution([0.25, 0.35, 0.4])
        q = DiscreteDistribution([0.5, 0.2, 0.3])
        a = exact_f_divergence_discrete(kl(), p, q)
        b = exact_f_divergence_discrete(reverse_kl(), q, p)
        assert a == pytest.approx(b, rel=1e-14)

    def test_js_bounded_by_twice_log2(self):
        rng = random.Random(424242)
        for _ in range(40):
            p = rand_full_support(rng, 3)
            q = rand_full_support(rng, 3)
            val = float(exact_f_divergence_discrete(jensen_shannon(), p, q))
            assert 0.0 <= val <= TWO_LOG2 * (1 + 1e-12)

    def test_js_approaches_the_cap_on_nearly_disjoint_pairs(self):
        eps = Fr(1, 10**8)
        val = exact_f_divergence_discrete(
            jensen_shannon(), bernoulli(eps), bernoulli(1 - eps))
        assert val == pytest.approx(TWO_LOG2, abs=1e-6)
        assert val < TWO_LOG2

    def test_js_disjoint_is_inf_by_convention(self):
        # the dominance convention wins over the generator's finite slope
        p = DiscreteDistribution([Fr(1), Fr(0)])
        q = DiscreteDistribution([Fr(0), Fr(1)])
        assert exact_f_divergence_discrete(jensen_shannon(), p, q) == math.inf

    def test_harmonic_range(self):
        rng = random.Random(515151)
        p0 = rand_full_support(rng, 4)
        assert exact_f_divergence_discrete(harmonic(), p0, p0) == 1
        for _ in range(40):
            p = rand_full_support(rng, 4)
            q = rand_full_support(rng, 4)
            val = exact_f_divergence_discrete(harmonic(), p, q)
            if p.probs == q.probs:
                continue
            assert 0 < val < 1

    def test_standard_generators_are_nonnegative(self):
        rng = random.Random(616161)
        gens = [kl(), reverse_kl(), jensen_shannon(), jeffreys(),
                alpha_generator(3), alpha_generator(Fr(1, 2))]
        for _ in range(20):
            p = rand_full_support(rng, 3)
            q = rand_full_support(rng, 3)
            for gen in gens:
                val = float(exact_f_divergence_discrete(gen, p, q))
                assert val >= -1e-15

    def test_oracle_triangle_on_categorical_pairs(self):
        # three independent routes to the same number: the direct finite
        # sum, the quadrature wrapper, and the converged chi expansion
        fam = categorical(3)
        rng = random.Random(717171)
        checked = 0
        for _ in range(8):
            tp = np.array([rng.uniform(-0.4, 0.4) for _ in range(3)])
            tq = tp + np.array([rng.uniform(-0.3, 0.3) for _ in range(3)])
            pair = PairSpec(kind="aef", fam=fam, theta_p=tp, theta_q=tq)
            p = DiscreteDistribution(
                [float(v) for v in fam.source_param(fam.theta(tp))])
            q = DiscreteDistribution(
                [float(v) for v in fam.source_param(fam.theta(tq))])
            exact = float(exact_f_divergence_discrete(kl(), p, q))
            quadval, _ = quadrature_f_divergence(kl(), pair)
            assert quadval == pytest.approx(exact, rel=1e-12)
            rep = converge(kl(), pair, 20, bounds=pair_ratio_bounds(pair))
            if rep.verdict != "converging":
                continue
            checked += 1
            cap = rep.remainder_bounds[-1]
            assert abs(float(rep.value) - exact) <= 1e-8 + 2.0 * cap
        assert checked >= 4
