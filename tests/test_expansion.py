"""Tests for truncated expansions, remainder caps, and verdicts."""

import io
import random
import math
from fractions import Fraction as Fr

import mpmath as mp
import numpy as np
import pytest

from fchi.chi import (ChiBasis, basis_build_count, chi_abs_discrete,
                      chi_pm_discrete, compute_basis)
from fchi.errors import DivergenceError, InputError, OverflowSaturationError
from fchi.expansion import (
    DEFAULT_TOL,
    ExpansionReport,
    RatioBounds,
    alpha_odd_expansion,
    batch_evaluate,
    chi_expansion,
    converge,
    expansion_terms,
    pair_ratio_bounds,
    remainder_bound,
)
from fchi.families import (
    DiscreteDistribution,
    PairSpec,
    bernoulli,
    gaussian_iso,
    poisson,
    trunc_exp,
)
from fchi.generators import (
    alpha_generator,
    exponential,
    harmonic,
    jeffreys,
    jensen_shannon,
    kl,
    polynomial_generator,
    reverse_kl,
)
from fchi import reference

import oracles


def discrete_pair(p, q):
    return PairSpec(kind="discrete", p=p, q=q)


def bern_pair(lp, lq):
    return discrete_pair(bernoulli(lp), bernoulli(lq))


# Bernoulli(9/10 : 3/10), the worked two-atom example used throughout.
WORKED = bern_pair(Fr(9, 10), Fr(3, 10))


class TestRatioBounds:
    def test_exact_fields(self):
        rb = RatioBounds(Fr(1, 3), Fr(7, 2))
        assert rb.m == Fr(1, 3)
        assert rb.M == Fr(7, 2)
        assert rb.width == Fr(19, 6)
        assert rb.finite

    def test_unbounded(self):
        rb = RatioBounds(0.0, math.inf)
        assert not rb.finite
        assert rb.width == math.inf

    def test_degenerate(self):
        rb = RatioBounds(1, 1)
        assert rb.width == 0
        assert rb.finite

    @pytest.mark.parametrize("m,M", [(-0.1, 2.0), (1.2, 2.0), (0.5, 0.9)])
    def test_rejects_bad_range(self, m, M):
        with pytest.raises(InputError):
            RatioBounds(m, M)


class TestPairRatioBounds:
    def test_discrete_exact(self):
        p = DiscreteDistribution([Fr(1, 2), Fr(1, 4), Fr(1, 4)])
        q = DiscreteDistribution([Fr(1, 4), Fr(1, 2), Fr(1, 4)])
        rb = pair_ratio_bounds(discrete_pair(p, q))
        assert rb.m == Fr(1, 2) and rb.M == 2
        assert isinstance(rb.m, Fr)

    def test_gaussian_unbounded(self):
        pair = PairSpec(kind="aef", fam=gaussian_iso(1),
                        theta_p=np.array([0.0]), theta_q=np.array([1.0]))
        rb = pair_ratio_bounds(pair)
        assert rb.m == 0.0 and rb.M == math.inf

    def test_aef_delegates_to_family(self):
        fam = poisson()
        tp, tq = np.array([0.0]), np.array([math.log(2.0)])
        pair = PairSpec(kind="aef", fam=fam, theta_p=tp, theta_q=tq)
        rb = pair_ratio_bounds(pair)
        assert (rb.m, rb.M) == tuple(fam.ratio_bounds(tp, tq))

    def test_identical_thetas(self):
        pair = PairSpec(kind="aef", fam=gaussian_iso(2),
                        theta_p=np.array([0.5, -1.0]),
                        theta_q=np.array([0.5, -1.0]))
        rb = pair_ratio_bounds(pair)
        assert rb.m == 1.0 and rb.M == 1.0

    def test_mixture_combines_linearly(self):
        from fchi.families import MixtureSpec
        fam = gaussian_iso(1)
        mix = MixtureSpec(weights=(0.5, 0.5), thetas=([0.3], [0.3]))
        pair = PairSpec(kind="mixture", fam=fam,
                        theta_p=np.array([0.3]), mixture=mix)
        rb = pair_ratio_bounds(pair)
        # both components coincide with p, so the mixture is p itself
        assert rb.m == 1.0 and rb.M == 1.0

    def test_mixture_unbounded_component(self):
        from fchi.families import MixtureSpec
        fam = gaussian_iso(1)
        mix = MixtureSpec(weights=(0.5, 0.5), thetas=([0.0], [1.0]))
        pair = PairSpec(kind="mixture", fam=fam,
                        theta_p=np.array([0.0]), mixture=mix)
        rb = pair_ratio_bounds(pair)
        assert rb.M == math.inf

    def test_unknown_kind(self):
        pair = PairSpec(kind="surprise")
        with pytest.raises(InputError):
            pair_ratio_bounds(pair)


class TestExpansionTerms:
    def test_matches_direct_products(self):
        basis = compute_basis(WORKED, 6)
        terms = expansion_terms(kl(), basis)
        for i, t in zip(basis.orders, terms):
            want = Fr((-1) ** i, i) * Fr(chi_pm_discrete(i, 1, WORKED.p, WORKED.q))
            assert t == want
            assert isinstance(t, Fr)

    def test_zero_coeff_kills_infinite_chi(self):
        # q puts mass where p has none, so every chi value is +inf; a
        # polynomial generator's vanishing coefficients must still yield
        # exact zero terms past its degree.
        p = DiscreteDistribution([Fr(1), Fr(0)])
        q = DiscreteDistribution([Fr(1, 2), Fr(1, 2)])
        basis = compute_basis(discrete_pair(p, q), 4)
        assert basis.value(3) == math.inf
        sq = polynomial_generator([1, -2, 1])  # (u - 1)^2
        terms = expansion_terms(sq, basis)
        assert terms[0] == math.inf
        assert terms[1] == 0.0 and terms[2] == 0.0

    def test_rejects_shifted_anchor(self):
        basis = compute_basis(WORKED, 4, lam=Fr(1, 2))
        with pytest.raises(InputError, match="anchored at lam = 1"):
            expansion_terms(kl(), basis)
        with pytest.raises(InputError, match="anchored at lam = 1"):
            chi_expansion(kl(), basis)


class TestChiExpansion:
    def test_worked_example_low_order(self):
        basis = compute_basis(WORKED, 30)
        s2 = chi_expansion(exponential(), basis, k=2)
        assert s2 == pytest.approx(5.436563656918093, rel=1e-12)

    def test_worked_example_top_order(self):
        basis = compute_basis(WORKED, 30)
        s30 = chi_expansion(exponential(), basis)
        assert s30 == pytest.approx(108.20108519691063, rel=1e-12)
        # default k is the basis' top order
        assert s30 == chi_expansion(exponential(), basis, k=30)

    def test_exact_rational_partials(self):
        basis = compute_basis(WORKED, 8)
        for k in range(2, 9):
            got = chi_expansion(harmonic(), basis, k=k)
            assert isinstance(got, Fr)
            want = Fr(1) + sum(
                Fr(-1) ** (i + 1) / Fr(2 ** i)
                * Fr(chi_pm_discrete(i, 1, WORKED.p, WORKED.q))
                for i in range(2, k + 1)
            )
            assert got == want

    def test_successive_difference_is_the_term(self):
        basis = compute_basis(WORKED, 10)
        terms = expansion_terms(jensen_shannon(), basis)
        for idx, k in enumerate(range(3, 11)):
            delta = chi_expansion(jensen_shannon(), basis, k=k) \
                - chi_expansion(jensen_shannon(), basis, k=k - 1)
            assert delta == terms[idx + 1]

    def test_jeffreys_splits_into_kl_parts(self):
        # jeffreys coefficients are the sum of the kl and rkl ones, so the
        # partial sums split exactly in rational arithmetic
        basis = compute_basis(bern_pair(Fr(2, 5), Fr(3, 5)), 10)
        for k in range(2, 11):
            assert chi_expansion(jeffreys(), basis, k=k) == \
                chi_expansion(kl(), basis, k=k) \
                + chi_expansion(reverse_kl(), basis, k=k)

    def test_identical_pair_returns_f_at_one(self):
        basis = compute_basis(bern_pair(Fr(1, 3), Fr(1, 3)), 6)
        assert chi_expansion(kl(), basis) == 0
        assert chi_expansion(harmonic(), basis) == 1
        assert chi_expansion(harmonic(), basis, k=2) == 1

    def test_squared_generator_is_chi2(self):
        basis = compute_basis(WORKED, 8)
        sq = polynomial_generator([1, -2, 1])
        chi2 = Fr(chi_pm_discrete(2, 1, WORKED.p, WORKED.q))
        for k in range(2, 9):
            assert chi_expansion(sq, basis, k=k) == chi2

    @pytest.mark.parametrize("exact", [True, False])
    def test_is_the_partial_sum_converge_reports(self, exact):
        # fsum over the first k terms rounds differently from the running
        # sum converge keeps; both now read one routine
        rng = random.Random(13)
        gens = [kl(), jensen_shannon(), exponential(), alpha_generator(0.5),
                harmonic()]
        for _ in range(20):
            atoms = rng.randint(2, 6)
            p, q = (oracles.rand_categorical(rng, atoms) for _ in range(2))
            if not exact:
                p, q = [float(x) for x in p], [float(x) for x in q]
            basis = compute_basis(discrete_pair(DiscreteDistribution(p),
                                                DiscreteDistribution(q)), 30)
            for gen in gens:
                partials = converge(gen, basis).partials
                for k in range(2, 31):
                    got = chi_expansion(gen, basis, k)
                    assert type(got) is type(partials[k - 2])
                    assert got == partials[k - 2], (gen.name, k)

    @pytest.mark.parametrize("k", [1, 0, -3, 9, 2.5, True])
    def test_rejects_bad_order(self, k):
        basis = compute_basis(WORKED, 8)
        with pytest.raises(InputError):
            chi_expansion(kl(), basis, k=k)


class TestRemainderBound:
    def test_degenerate_interval_is_zero(self):
        assert remainder_bound(kl(), 5, RatioBounds(1, 1)) == 0.0

    @pytest.mark.parametrize("k", [2, 5, 10])
    @pytest.mark.parametrize("eps", [Fr(1, 10), Fr(1, 4)])
    def test_symmetric_bernoulli_formula(self, k, eps):
        # For p = Bernoulli(eps), q = Bernoulli(1 - eps) the ratio interval
        # is [eps/(1-eps), (1-eps)/eps] and the exponential-generator cap
        # collapses to e^M / (k+1)! * width^(k+1).
        rb = pair_ratio_bounds(bern_pair(eps, 1 - eps))
        assert rb.m == eps / (1 - eps)
        assert rb.M == (1 - eps) / eps
        assert rb.width == (1 - 2 * eps) / (eps * (1 - eps))
        got = remainder_bound(exponential(), k, rb)
        want = mp.e ** oracles.mpf_exact(rb.M) \
            / mp.factorial(k + 1) * oracles.mpf_exact(rb.width) ** (k + 1)
        assert oracles.rel_err(got, want) < 1e-12

    def test_unbounded_derivative_is_inf(self):
        assert remainder_bound(kl(), 4, RatioBounds(0, 2)) == math.inf
        assert remainder_bound(jeffreys(), 4, RatioBounds(0, 2)) == math.inf

    def test_unbounded_ratio_is_inf(self):
        assert remainder_bound(exponential(), 4,
                               RatioBounds(0.5, math.inf)) == math.inf

    @pytest.mark.parametrize("k,want", [(1, 18.0), (3, 162.0), (6, 4374.0)])
    def test_harmonic_closed_form(self, k, want):
        # sup |f^(k+1)| = 2 (k+1)! at m = 0, so the cap is 2 * width^(k+1)
        got = remainder_bound(harmonic(), k, RatioBounds(0, 3))
        assert got == pytest.approx(want, rel=1e-12)

    def test_vanishing_derivative_beats_infinite_width(self):
        sq = polynomial_generator([1, -2, 1])
        assert remainder_bound(sq, 2, RatioBounds(0, math.inf)) == 0.0
        assert remainder_bound(sq, 1, RatioBounds(0, math.inf)) == math.inf

    def test_chi_abs_envelope(self):
        rb = pair_ratio_bounds(WORKED)
        k = 6
        env = chi_abs_discrete(k + 1, 1, WORKED.p, WORKED.q)
        got = remainder_bound(exponential(), k, rb, chi_abs_k1=env)
        sup = math.exp(float(rb.M))
        want = sup / math.factorial(k + 1) * float(env)
        assert got == pytest.approx(want, rel=1e-12)

    def test_chi_abs_envelope_is_tighter(self):
        # the absolute chi term never exceeds width^(k+1), so the cap it
        # produces can only shrink
        rb = pair_ratio_bounds(WORKED)
        for k in range(2, 12):
            env = chi_abs_discrete(k + 1, 1, WORKED.p, WORKED.q)
            tight = remainder_bound(exponential(), k, rb, chi_abs_k1=env)
            crude = remainder_bound(exponential(), k, rb)
            assert tight <= crude

    def test_chi_abs_corner_values(self):
        rb = RatioBounds(0.5, 2.0)
        assert remainder_bound(exponential(), 3, rb, chi_abs_k1=0) == 0.0
        assert remainder_bound(exponential(), 3, rb,
                               chi_abs_k1=math.inf) == math.inf

    @pytest.mark.parametrize("k", [0, -1, 2.0, True])
    def test_rejects_bad_order(self, k):
        with pytest.raises(InputError):
            remainder_bound(kl(), k, RatioBounds(0.5, 2.0))


class TestConvergeVerdicts:
    def test_worked_example_converges_at_top(self):
        rep = converge(exponential(), WORKED, 30)
        assert rep.verdict == "converging"
        assert rep.settled_at == 30
        assert rep.orders == tuple(range(2, 31))
        assert rep.value == rep.partials[-1]
        assert float(rep.value) == pytest.approx(108.20108519691063,
                                                 rel=1e-12)

    def test_worked_example_tighter_tol_is_inconclusive(self):
        # the order-30 term is ~2.3e-10, above 1e-12 * |S_30|, so the
        # settle rule cannot fire anywhere at this tolerance
        rep = converge(exponential(), WORKED, 30, tol=1e-12)
        assert rep.verdict == "inconclusive"
        assert rep.settled_at is None

    def test_close_pair_settles_early(self):
        rep = converge(jensen_shannon(), bern_pair(Fr(1, 10), Fr(1, 20)), 30)
        assert rep.verdict == "converging"
        assert rep.settled_at == 24
        assert all(isinstance(s, Fr) for s in rep.partials)

    def test_close_pair_short_run_is_inconclusive(self):
        rep = converge(jensen_shannon(), bern_pair(Fr(1, 10), Fr(1, 20)), 10)
        assert rep.verdict == "inconclusive"
        assert rep.settled_at is None
        assert rep.note == ""
        assert rep.value == rep.partials[-1]

    def test_gaussian_js_diverges(self):
        pair = PairSpec(kind="aef", fam=gaussian_iso(1),
                        theta_p=np.array([0.0]), theta_q=np.array([1.0]))
        rep = converge(jensen_shannon(), pair, 20)
        assert rep.verdict == "diverging"
        assert "rose over 5 consecutive" in rep.note

    def test_wide_bernoulli_js_diverges(self):
        rep = converge(jensen_shannon(), bern_pair(Fr(1, 20), Fr(17, 20)), 30)
        assert rep.verdict == "diverging"
        assert rep.settled_at is None

    def test_nonfinite_term_diverges(self):
        p = DiscreteDistribution([Fr(1), Fr(0)])
        q = DiscreteDistribution([Fr(1, 2), Fr(1, 2)])
        rep = converge(kl(), discrete_pair(p, q), 6)
        assert rep.verdict == "diverging"
        assert rep.note == "order-2 term is non-finite"
        # alternating infinite terms leave a non-finite accumulated value
        assert not math.isfinite(float(rep.value))

    def test_basis_failure_reported(self):
        pair = PairSpec(kind="aef", fam=trunc_exp(0.0),
                        theta_p=np.array([3.0]), theta_q=np.array([1.0]))
        rep = converge(exponential(), pair, 6)
        assert rep.verdict == "diverging"
        assert rep.note.startswith("basis construction failed:")
        assert rep.value is None
        assert rep.orders == () and rep.partials == ()
        assert rep.settled_at is None

    def test_saturation_failure_reported(self, monkeypatch):
        def boom(pair, max_order, lam=1):
            raise OverflowSaturationError("cancellation lost")
        monkeypatch.setattr("fchi.expansion.compute_basis", boom)
        rep = converge(kl(), WORKED, 6)
        assert rep.verdict == "diverging"
        assert "cancellation lost" in rep.note

    def test_minimum_order(self):
        with pytest.raises(InputError, match="at least 4"):
            converge(kl(), WORKED, 3)
        small = compute_basis(WORKED, 3)
        with pytest.raises(InputError, match="at least 4"):
            converge(kl(), small)
        assert converge(kl(), WORKED, 4).orders == (2, 3, 4)

    @pytest.mark.parametrize("tol", [0.0, -1e-3])
    def test_rejects_bad_tol(self, tol):
        with pytest.raises(InputError, match="tolerance"):
            converge(kl(), WORKED, 8, tol=tol)


class TestConvergeExtras:
    def test_remainder_bounds_attached_and_dominate(self):
        rb = pair_ratio_bounds(WORKED)
        exact = reference.exact_f_divergence_discrete(
            exponential(), WORKED.p, WORKED.q)
        rep = converge(exponential(), WORKED, 30, bounds=rb,
                       exact_value=exact)
        assert rep.remainder_bounds is not None
        assert len(rep.remainder_bounds) == len(rep.orders)
        assert rep.abs_errors is not None
        # the certificate holds at the top order where both are finite
        assert rep.abs_errors[-1] <= rep.remainder_bounds[-1]
        assert all(b > 0 for b in rep.remainder_bounds)

    def test_bounds_defaults_to_none(self):
        rep = converge(kl(), WORKED, 6)
        assert rep.remainder_bounds is None
        assert rep.abs_errors is None

    def test_exact_errors_stay_rational(self):
        # a polynomial generator evaluates rationally, so the exact value
        # and every per-order error survive as Fractions
        pair = bern_pair(Fr(1, 2), Fr(9, 20))
        sq = polynomial_generator([1, -2, 1])
        exact = reference.exact_f_divergence_discrete(sq, pair.p, pair.q)
        assert isinstance(exact, Fr)
        rep = converge(sq, pair, 10, exact_value=exact)
        assert all(isinstance(e, Fr) for e in rep.abs_errors)
        for idx in range(len(rep.orders)):
            assert rep.abs_errors[idx] == abs(exact - rep.partials[idx])
        # the expansion of a quadratic is exact from order 2 on
        assert set(rep.abs_errors) == {0}

    def test_bound_decay_monotone(self):
        pair = bern_pair(Fr(1, 2), Fr(9, 20))
        rb = pair_ratio_bounds(pair)
        rep = converge(exponential(), pair, 20, bounds=rb)
        bounds = rep.remainder_bounds
        assert all(bounds[j + 1] < bounds[j] for j in range(len(bounds) - 1))

    def test_nonnegative_at_convergence(self):
        pair = bern_pair(Fr(1, 2), Fr(9, 20))
        rb = pair_ratio_bounds(pair)
        for gen in (kl(), jensen_shannon(), exponential()):
            rep = converge(gen, pair, 20, bounds=rb)
            assert rep.verdict == "converging"
            assert float(rep.value) >= -2.0 * rep.remainder_bounds[-1]


class TestReportCsv:
    def render(self, rep, rational=False):
        buf = io.StringIO()
        rep.to_csv(buf, rational=rational)
        return buf.getvalue()

    def test_base_columns(self):
        rep = converge(kl(), bern_pair(Fr(1, 2), Fr(9, 20)), 6)
        text = self.render(rep)
        lines = text.strip().split("\n")
        assert lines[0] == "k,term,partial_sum"
        assert len(lines) == 1 + len(rep.orders)
        assert lines[1].split(",")[0] == "2"

    def test_optional_columns(self):
        pair = bern_pair(Fr(1, 2), Fr(9, 20))
        rb = pair_ratio_bounds(pair)
        exact = reference.exact_f_divergence_discrete(kl(), pair.p, pair.q)
        rep = converge(kl(), pair, 6, bounds=rb, exact_value=exact)
        text = self.render(rep)
        assert text.splitlines()[0] == \
            "k,term,partial_sum,remainder_bound,abs_error"

    def test_unbounded_rendering(self):
        # q drops an atom p keeps, so m = 0 and the kl cap is infinite
        p = DiscreteDistribution([Fr(1, 2), Fr(1, 2)])
        q = DiscreteDistribution([Fr(1), Fr(0)])
        pair = discrete_pair(p, q)
        rep = converge(kl(), pair, 6, bounds=pair_ratio_bounds(pair))
        text = self.render(rep)
        for line in text.splitlines()[1:]:
            assert line.endswith(",unbounded")

    def test_rational_rendering_round_trips(self):
        rep = converge(harmonic(), WORKED, 6)
        text = self.render(rep, rational=True)
        row = text.splitlines()[1].split(",")
        assert "/" in row[1]
        num, den = row[1].split("/")
        assert Fr(int(num), int(den)) == rep.terms[0]

    def test_deterministic(self):
        rep = converge(jensen_shannon(), WORKED, 8)
        assert self.render(rep) == self.render(rep)


class TestBatchEvaluate:
    def gens(self):
        return [kl(), reverse_kl(), jeffreys(), jensen_shannon(),
                harmonic(), exponential(), alpha_generator(3),
                alpha_generator(5)]

    def test_single_basis_construction(self):
        gens = self.gens()
        reports = batch_evaluate(WORKED, gens, 12)
        assert basis_build_count() == 1
        assert set(reports) == {g.name for g in gens}

    def test_matches_individual_converge(self):
        gens = self.gens()
        pair = bern_pair(0.62, 0.48)
        reports = batch_evaluate(pair, gens, 12)
        basis = compute_basis(pair, 12)
        rb = pair_ratio_bounds(pair)
        for g in gens:
            solo = converge(g, basis, bounds=rb)
            got = reports[g.name]
            assert got.verdict == solo.verdict
            assert got.orders == solo.orders
            assert got.terms == solo.terms
            assert got.partials == solo.partials
            assert got.value == solo.value
            assert got.settled_at == solo.settled_at
            assert got.remainder_bounds == solo.remainder_bounds

    def test_reverse_divergence_identity(self):
        # kl on (p, q) and rkl on (q, p) target the same quantity; in the
        # convergent regime the order-20 truncations agree far below the
        # certificate level
        fwd = bern_pair(Fr(11, 20), Fr(9, 20))
        rev = bern_pair(Fr(9, 20), Fr(11, 20))
        a = batch_evaluate(fwd, [kl()], 20)["kl"]
        b = batch_evaluate(rev, [reverse_kl()], 20)["rkl"]
        assert a.verdict == "converging" and b.verdict == "converging"
        assert abs(float(a.value) - float(b.value)) < 1e-12

    def test_derive_bounds_toggle(self):
        with_b = batch_evaluate(WORKED, [kl()], 8)["kl"]
        assert with_b.remainder_bounds is not None
        without = batch_evaluate(WORKED, [kl()], 8,
                                 derive_bounds=False)["kl"]
        assert without.remainder_bounds is None

    def test_bounds_failure_degrades_quietly(self, monkeypatch):
        def no_bounds(pair):
            raise InputError("no bounds for this family")
        monkeypatch.setattr("fchi.expansion.pair_ratio_bounds", no_bounds)
        rep = batch_evaluate(WORKED, [kl()], 8)["kl"]
        assert rep.verdict in {"converging", "diverging", "inconclusive"}
        assert rep.remainder_bounds is None

    def test_basis_failure_hits_every_report(self):
        pair = PairSpec(kind="aef", fam=trunc_exp(0.0),
                        theta_p=np.array([3.0]), theta_q=np.array([1.0]))
        reports = batch_evaluate(pair, [kl(), jensen_shannon()], 8)
        assert set(reports) == {"kl", "js"}
        for rep in reports.values():
            assert rep.verdict == "diverging"
            assert rep.note.startswith("basis construction failed:")


class TestAlphaOdd:
    def test_alpha3_is_half_chi2(self):
        rng = random.Random(20260822)
        for _ in range(25):
            p = DiscreteDistribution(oracles.rand_categorical(rng, 4))
            q = DiscreteDistribution(oracles.rand_categorical(rng, 4))
            got = alpha_odd_expansion(3, discrete_pair(p, q))
            want = Fr(chi_pm_discrete(2, 1, p, q)) / 2
            assert got == want
            assert isinstance(got, Fr)

    def test_alpha3_matches_polynomial_divergence(self):
        # at alpha = 3 the generator is a quadratic polynomial, so the
        # finite expansion must equal the divergence computed from the
        # definition, exactly
        p = bernoulli(Fr(7, 10))
        q = bernoulli(Fr(2, 5))
        got = alpha_odd_expansion(3, discrete_pair(p, q))
        want = reference.exact_f_divergence_discrete(alpha_generator(3), p, q)
        # the generator evaluates in floats, so the match is to rounding
        assert float(got) == pytest.approx(want, rel=1e-13)

    def test_alpha5_poisson_matches_reference(self):
        fam = poisson()
        tp, tq = np.array([0.0]), np.array([math.log(2.0)])
        pair = PairSpec(kind="aef", fam=fam, theta_p=tp, theta_q=tq)
        got = alpha_odd_expansion(5, pair)
        want = reference.exact_alpha_aef(5, fam, tp, tq)
        assert got == pytest.approx(want, rel=1e-12)

    def test_identical_pair_is_zero(self):
        pair = PairSpec(kind="aef", fam=gaussian_iso(2),
                        theta_p=np.array([0.4, -0.2]),
                        theta_q=np.array([0.4, -0.2]))
        assert alpha_odd_expansion(7, pair) == 0

    def test_accepts_ready_basis(self):
        basis = compute_basis(WORKED, 3)
        got = alpha_odd_expansion(5, basis)
        want = alpha_odd_expansion(5, WORKED)
        assert got == want

    def test_ignores_orders_beyond_cut(self):
        wide = compute_basis(WORKED, 12)
        assert alpha_odd_expansion(5, wide) == alpha_odd_expansion(5, WORKED)

    def test_exact_on_rational_pairs(self):
        got = alpha_odd_expansion(7, WORKED)
        assert isinstance(got, Fr)
        gen = alpha_generator(7)
        want = sum(Fr(gen.coeff(i)) * Fr(chi_pm_discrete(i, 1, WORKED.p, WORKED.q))
                   for i in range(2, 5))
        assert got == want

    def test_short_basis_rejected(self):
        basis = compute_basis(WORKED, 2)
        with pytest.raises(InputError, match="orders up to 3"):
            alpha_odd_expansion(5, basis)

    def test_shifted_anchor_rejected(self):
        basis = compute_basis(WORKED, 3, lam=Fr(1, 2))
        with pytest.raises(InputError, match="anchored at lam = 1"):
            alpha_odd_expansion(5, basis)

    @pytest.mark.parametrize("alpha", [2, 4, 1, -3, 3.0, True])
    def test_rejects_bad_alpha(self, alpha):
        with pytest.raises(InputError):
            alpha_odd_expansion(alpha, WORKED)
