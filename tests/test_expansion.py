"""Tests for truncated expansions, remainder caps, and verdicts."""

import copy
import dataclasses
import io
import pickle
import random
import math
from fractions import Fraction as Fr

import mpmath as mp
import numpy as np
import pytest

from fchi.chi import (ChiBasis, basis_build_count, chi_abs, chi_pm,
                      compute_basis)
from fchi.errors import DivergenceError, InputError, OverflowSaturationError
from fchi.expansion import (
    DEFAULT_TOL,
    ExpansionReport,
    RatioBounds,
    alpha_odd_expansion,
    batch_evaluate,
    chi_expansion,
    converge,
    pair_ratio_bounds,
    remainder_bound,
)
from fchi.families import (
    DiscreteDistribution,
    PairSpec,
    bernoulli,
    gaussian_iso,
    load_pair_spec,
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
from fchi import expansion, reference

import oracles
from pairs import discrete_pair


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
        # the pair itself refuses the kind, before any layer reads it
        with pytest.raises(InputError, match="unknown pair kind"):
            pair_ratio_bounds(PairSpec(kind="surprise"))


class TestExpansionTerms:
    """The per-order terms coeff(i) * chi_i that converge reports."""

    def test_matches_direct_products(self):
        basis = compute_basis(WORKED, 6)
        terms = converge(kl(), basis).terms
        for i, t in zip(basis.orders, terms):
            want = Fr((-1) ** i, i) * Fr(chi_pm(i, 1, WORKED))
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
        terms = converge(sq, basis).terms
        assert terms[0] == math.inf
        assert terms[1] == 0.0 and terms[2] == 0.0

    def test_rejects_shifted_anchor(self):
        basis = compute_basis(WORKED, 4, lam=Fr(1, 2))
        with pytest.raises(InputError, match="anchored at lam = 1"):
            converge(kl(), basis)
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
                * Fr(chi_pm(i, 1, WORKED))
                for i in range(2, k + 1)
            )
            assert got == want

    def test_successive_difference_is_the_term(self):
        basis = compute_basis(WORKED, 10)
        terms = converge(jensen_shannon(), basis).terms
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
        chi2 = Fr(chi_pm(2, 1, WORKED))
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
        env = chi_abs(k + 1, 1, WORKED)
        got = remainder_bound(exponential(), k, rb, chi_abs_k1=env)
        sup = math.exp(float(rb.M))
        want = sup / math.factorial(k + 1) * float(env)
        assert got == pytest.approx(want, rel=1e-12)

    def test_chi_abs_envelope_is_tighter(self):
        # the absolute chi term never exceeds width^(k+1), so the cap it
        # produces can only shrink
        rb = pair_ratio_bounds(WORKED)
        for k in range(2, 12):
            env = chi_abs(k + 1, 1, WORKED)
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
        # the terms alternate +-inf; the partial sums stop at the first
        assert rep.partials == (math.inf,) * 5

    def test_partial_sums_stop_at_the_first_infinity(self):
        # the deep-orders bench's seed-1 poisson pair: kl and js terms
        # alternate +-inf from order 26, where the sums read NaN before
        pair = load_pair_spec({"kind": "aef", "family": "poisson",
                               "theta_p": [1.1948332514741775],
                               "theta_q": [1.4042020765974514]})
        reports = batch_evaluate(pair, [kl(), jensen_shannon()], 64)
        for rep in reports.values():
            assert rep.verdict == "diverging"
            assert rep.note == "order-26 term is non-finite"
            cut = rep.orders.index(26)
            assert all(map(math.isfinite, rep.partials[:cut]))
            assert rep.partials[cut:] == (math.inf,) * (len(rep.orders) - cut)
            assert rep.value == math.inf

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


# six rational atoms, so every exact partial sum is a Fraction of some size
SIX_ATOMS = discrete_pair(
    DiscreteDistribution([Fr(w, 21) for w in (1, 2, 3, 4, 5, 6)]),
    DiscreteDistribution([Fr(w, 26) for w in (6, 5, 4, 4, 4, 3)]))


class TestLazyPartials:
    """converge reduces only the value; partials is built on first read."""

    def lazy(self, gen=None):
        rep = converge(gen or kl(), SIX_ATOMS, 20,
                       bounds=pair_ratio_bounds(SIX_ATOMS))
        assert not isinstance(vars(rep)["partials"], tuple)
        return rep

    def twin(self, gen=None):
        rep = self.lazy(gen)
        return ExpansionReport(**{f.name: getattr(rep, f.name)
                                  for f in dataclasses.fields(rep)})

    def assert_same(self, got, want):
        assert got == want
        assert type(got.partials) is tuple
        assert [type(s) for s in got.partials] == [Fr] * len(want.orders)

    def count_reductions(self, monkeypatch) -> list:
        calls = []
        reduce = expansion.reduced_fraction
        monkeypatch.setattr(expansion, "reduced_fraction",
                            lambda *args: calls.append(args) or reduce(*args))
        return calls

    def test_reading_twice_returns_the_same_tuple(self):
        rep = self.lazy()
        assert rep.partials is rep.partials

    def test_hand_built_partials_are_kept_as_given(self):
        given = (Fr(1, 2), Fr(1, 3))
        rep = ExpansionReport("kl", "inconclusive", (2, 3), (0, 0), given)
        assert rep.partials is given
        assert ExpansionReport("kl", "inconclusive").partials == ()
        assert ExpansionReport.partials == ()

    def test_fields_keep_their_names_types_and_defaults(self):
        got = [(f.name, f.type, f.default)
               for f in dataclasses.fields(ExpansionReport)]
        missing = dataclasses.MISSING
        assert got == [
            ("generator", "str", missing), ("verdict", "str", missing),
            ("orders", "tuple", ()), ("terms", "tuple", ()),
            ("partials", "tuple", ()), ("value", "Optional[Number]", None),
            ("settled_at", "Optional[int]", None),
            ("remainder_bounds", "Optional[tuple]", None),
            ("abs_errors", "Optional[tuple]", None), ("note", "str", "")]

    def test_equality_hash_and_repr_match_an_eager_twin(self):
        twin = self.twin()
        assert self.lazy() == twin and twin == self.lazy()
        assert hash(self.lazy()) == hash(twin)
        assert repr(self.lazy()) == repr(twin)
        assert dataclasses.asdict(self.lazy()) == dataclasses.asdict(twin)
        assert self.lazy(jensen_shannon()) != twin

    @pytest.mark.parametrize("clone", [
        copy.copy, copy.deepcopy, lambda rep: pickle.loads(pickle.dumps(rep)),
        lambda rep: dataclasses.replace(rep)],
        ids=["copy", "deepcopy", "pickle", "replace"])
    def test_clones_match_an_eager_twin(self, clone):
        twin = self.twin()
        self.assert_same(clone(self.lazy()), twin)
        self.assert_same(clone(twin), twin)
        rep = self.lazy()
        rep.partials
        self.assert_same(clone(rep), twin)

    def test_only_the_value_is_reduced_until_partials_is_read(
            self, monkeypatch):
        calls = self.count_reductions(monkeypatch)
        gens = [kl(), jensen_shannon(), polynomial_generator([1, -2, 1]),
                alpha_generator(3)]
        reports = batch_evaluate(SIX_ATOMS, gens, 20)
        assert all(type(rep.value) is Fr for rep in reports.values())
        assert len(calls) <= len(reports)
        before = len(calls)
        rep = reports["kl"]
        assert rep.partials is rep.partials
        assert before < len(calls) <= before + 1 + len(rep.orders)

    def test_chi_expansion_reduces_only_its_order(self, monkeypatch):
        basis = compute_basis(SIX_ATOMS, 20)
        sums = converge(kl(), basis).partials
        calls = self.count_reductions(monkeypatch)
        for k in basis.orders:
            assert chi_expansion(kl(), basis, k) == sums[k - 2]
        assert len(calls) == len(basis.orders)


class TestAlphaOdd:
    def test_alpha3_is_half_chi2(self):
        rng = random.Random(20260822)
        for _ in range(25):
            p = DiscreteDistribution(oracles.rand_categorical(rng, 4))
            q = DiscreteDistribution(oracles.rand_categorical(rng, 4))
            got = alpha_odd_expansion(3, discrete_pair(p, q))
            want = Fr(chi_pm(2, 1, discrete_pair(p, q))) / 2
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
        want = sum(Fr(gen.coeff(i)) * Fr(chi_pm(i, 1, WORKED))
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


# Close mixtures of the deep-orders bench workload, by seed: (family, k,
# theta_p, weights, thetas).  Their closed-form chi values from about
# order 5 on are float noise, and kl settles on it.  At seed 7 it settles
# at order 6 on 2.0094950e-07 where quadrature gives 2.0094913e-07
# +- 1.1e-15: 1.8e-6 relative, past the 1e-6 an uncapped converging value
# may miss by.  The others miss by 1.1e-6 to 1.1e-5.  These are the
# bench's only failing requests over seeds 0-199, and a bench run at any
# of these seeds reads correct: false.  Chi values that carry their error
# will flip them.
CLOSE_MIXTURES = {
    7: ("gaussian_iso", 16, [0.19618055501495046],
        [0.5657532509378514, 0.4342467490621485],
        [[0.17240964652819313], [0.2262630727916855]]),
    41: ("gaussian_iso", 16, [0.013986120899488808],
         [0.3897814459270412, 0.6102185540729588],
         [[-0.025155587449362762], [0.04212059157295492]]),
    63: ("poisson", 16, [0.20624908558466412],
         [0.32031614858283697, 0.4084860170692674, 0.2711978343478956],
         [[0.3408717606325987], [0.031329931924922026],
          [0.208661562067588]]),
    88: ("gaussian_iso", 12, [0.3277829419071874],
         [0.3646836221971693, 0.6353163778028307],
         [[0.3124910430313617], [0.33613324621115115]]),
    112: ("gaussian_iso", 16, [-0.01808601134853527],
          [0.5416593560402606, 0.45834064395973934],
          [[-0.03990660978182964], [0.009608144786715636]]),
    125: ("gaussian_iso", 14, [-0.09911194124612688],
          [0.5111363933349335, 0.48886360666506656],
          [[-0.08006986689055769], [-0.11933351825312044]]),
    154: ("gaussian_iso", 14, [0.05844724871345086],
          [0.530779887431307, 0.46922011256869295],
          [[0.07973530352044776], [0.034654390364100555]]),
    170: ("gaussian_iso", 16, [0.06294584744503195],
          [0.6156402138584098, 0.3843597861415903],
          [[0.08001353150384555], [0.0367089827999807]]),
}


@pytest.mark.xfail(strict=True, reason="float noise in closed-form chi "
                   "values reads as converged (chi values carry no error)")
@pytest.mark.parametrize("family, k, theta_p, weights, thetas",
                         list(CLOSE_MIXTURES.values()),
                         ids=[f"seed{s}" for s in CLOSE_MIXTURES])
def test_kl_on_a_close_gaussian_mixture_converges_to_quadrature(
        family, k, theta_p, weights, thetas):
    pair = load_pair_spec({
        "kind": "mixture", "family": family, "theta_p": theta_p,
        "weights": weights, "thetas": thetas})
    report = batch_evaluate(pair, [kl()], k)["kl"]
    value, err_est = reference.quadrature_f_divergence(kl(), pair)
    assert report.remainder_bounds[-1] == math.inf
    if report.verdict == "converging":
        assert abs(report.value - value) <= err_est + 1e-6 * abs(value)
