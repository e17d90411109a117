import json
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from scipy import stats

import oracles
from fchi import (InputError, compute_basis, kl, provenance,
                  quadrature_f_divergence)
from fchi.families import (
    DiscreteDistribution,
    MixtureSpec,
    PairSpec,
    bernoulli,
    categorical,
    family_from_name,
    gaussian_iso,
    load_pair_spec,
    poisson,
    ratio_bounds_discrete,
    trunc_exp,
    vmf,
)


class TestDiscreteDistribution:
    def test_strings_become_exact_fractions(self):
        d = DiscreteDistribution(["9/10", "0.1"])
        assert d.probs == (Fraction(9, 10), Fraction(1, 10))
        assert d.is_exact

    def test_float_entries_stay_float(self):
        d = DiscreteDistribution([0.25, 0.75])
        assert d.probs == (0.25, 0.75)
        assert not d.is_exact

    def test_len_and_getitem(self):
        d = DiscreteDistribution([Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)])
        assert len(d) == 3
        assert d[1] == Fraction(1, 3)
        assert d.describe() == "discrete[3]"

    def test_zero_atoms_allowed(self):
        d = DiscreteDistribution([Fraction(1), 0])
        assert d.probs == (Fraction(1), 0)

    @pytest.mark.parametrize(
        "bad",
        [
            [],
            [Fraction(1, 2)],
            [Fraction(-1, 2), Fraction(3, 2)],
            [0.5, 0.6],
            ["1/0", "1"],
            ["what", "ever"],
            [True, False],
            [math.nan, 1.0],
            [0.5, math.nan, 0.5],
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(InputError):
            DiscreteDistribution(bad)

    def test_bernoulli(self):
        assert bernoulli(Fraction(3, 10)).probs == (Fraction(3, 10), Fraction(7, 10))
        assert bernoulli(1).probs == (Fraction(1), Fraction(0))
        b = bernoulli(0.3)
        assert b.probs == (0.3, 0.7)
        assert not b.is_exact


class TestRatioBoundsDiscrete:
    def test_exact_two_atom(self):
        m, M = ratio_bounds_discrete(bernoulli(Fraction(9, 10)), bernoulli(Fraction(3, 10)))
        assert (m, M) == (Fraction(1, 3), Fraction(7, 1))

    def test_q_missing_mass_gives_zero_floor(self):
        p = DiscreteDistribution([Fraction(1, 2), Fraction(1, 2)])
        q = DiscreteDistribution([Fraction(1), 0])
        m, M = ratio_bounds_discrete(p, q)
        assert m == 0
        assert M == 2

    def test_p_missing_mass_gives_inf_cap(self):
        p = DiscreteDistribution([Fraction(1), 0])
        q = DiscreteDistribution([Fraction(1, 2), Fraction(1, 2)])
        m, M = ratio_bounds_discrete(p, q)
        assert m == Fraction(1, 2)
        assert M == math.inf

    def test_shared_zero_atoms_ignored(self):
        p = DiscreteDistribution([Fraction(1, 2), Fraction(1, 2), 0])
        q = DiscreteDistribution([Fraction(1, 4), Fraction(3, 4), 0])
        assert ratio_bounds_discrete(p, q) == (Fraction(1, 2), Fraction(3, 2))

    def test_disjoint_supports(self):
        # disjoint supports are legal and give the degenerate envelope
        p = DiscreteDistribution([Fraction(1), 0])
        q = DiscreteDistribution([0, Fraction(1)])
        assert ratio_bounds_discrete(p, q) == (0, math.inf)
        # a shared zero atom is simply skipped
        assert ratio_bounds_discrete(
            DiscreteDistribution([0, Fraction(1)]),
            DiscreteDistribution([0, Fraction(1)]),
        ) == (1, 1)

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            ratio_bounds_discrete(bernoulli(Fraction(1, 2)), DiscreteDistribution([1]))


def _mass(fam, th) -> float:
    """Total mass of the density fam.integrate sums or integrates."""
    return fam.integrate(lambda log_p, log_r: math.exp(log_p), th, th)[0]


class TestGaussianIso:
    def test_log_normalizer(self):
        fam = gaussian_iso(3)
        th = fam.theta([1.0, -2.0, 0.5])
        assert fam.log_normalizer(th) == pytest.approx(0.5 * 5.25, rel=1e-15)

    def test_density_matches_scipy(self):
        # against theta_q = theta_p + 1 the log-ratio at offset s from the
        # mean of p is s - 1/2, so each call reveals where p was evaluated
        fam = gaussian_iso(1)
        th = fam.theta(0.7)
        seen = []
        fam.integrate(lambda log_p, log_r: seen.append((log_p, log_r)) or 0.0,
                      th, fam.theta(1.7))
        assert len(seen) > 20
        for log_p, log_r in seen:
            x = 0.7 + log_r + 0.5
            assert math.exp(log_p) == pytest.approx(
                stats.norm.pdf(x, loc=0.7), rel=1e-12
            )

    def test_density_integrates_to_one(self):
        fam = gaussian_iso(1)
        assert _mass(fam, fam.theta(-1.2)) == pytest.approx(1.0, abs=1e-10)

    def test_ratio_bounds(self):
        fam = gaussian_iso(2)
        t = fam.theta([0.0, 1.0])
        assert fam.ratio_bounds(t, t) == (1.0, 1.0)
        assert fam.ratio_bounds(t, fam.theta([0.0, 2.0])) == (0.0, math.inf)

    def test_validation(self):
        with pytest.raises(InputError):
            gaussian_iso(0)
        with pytest.raises(InputError):
            gaussian_iso(2).theta([1.0])
        with pytest.raises(InputError):
            gaussian_iso(1).theta([math.nan])


class TestPoisson:
    def test_log_normalizer_and_params(self):
        fam = poisson()
        th = fam.natural_param(2.5)
        assert th[0] == pytest.approx(math.log(2.5), rel=1e-15)
        assert fam.log_normalizer(th) == pytest.approx(2.5, rel=1e-15)
        assert fam.source_param(th) == pytest.approx(2.5, rel=1e-15)
        with pytest.raises(InputError):
            fam.natural_param(0)

    def test_density_matches_scipy(self):
        # the series visits the atoms x = 0, 1, 2, ... in order
        fam = poisson()
        th = fam.natural_param(3.2)
        log_p = []
        fam.integrate(lambda lp, lr: log_p.append(lp) or 0.0, th, th)
        for k in (0, 1, 4, 11):
            assert math.exp(log_p[k]) == pytest.approx(
                stats.poisson.pmf(k, 3.2), rel=1e-12
            )

    def test_density_sums_to_one(self):
        fam = poisson()
        assert _mass(fam, fam.natural_param(4.0)) == pytest.approx(
            1.0, abs=1e-14)

    def test_ratio_bounds_directions(self):
        fam = poisson()
        tp = fam.natural_param(3.0)
        assert fam.ratio_bounds(tp, tp) == (1.0, 1.0)
        m, M = fam.ratio_bounds(tp, fam.natural_param(1.0))
        assert (m, M) == (0.0, pytest.approx(math.exp(2.0)))
        m, M = fam.ratio_bounds(tp, fam.natural_param(5.0))
        assert (m, M) == (pytest.approx(math.exp(-2.0)), math.inf)


class TestCategorical:
    def test_param_round_trip(self):
        fam = categorical(3)
        probs = [0.1, 0.2, 0.3, 0.4]
        th = fam.natural_param(probs)
        np.testing.assert_allclose(fam.source_param(th), probs, rtol=1e-14)

    def test_log_normalizer_is_log_sum_exp(self):
        fam = categorical(2)
        th = np.array([0.3, -1.1])
        want = math.log(1.0 + math.exp(0.3) + math.exp(-1.1))
        assert fam.log_normalizer(th) == pytest.approx(want, rel=1e-15)
        # shift-stable for huge parameters
        big = np.array([800.0, 10.0])
        assert fam.log_normalizer(big) == pytest.approx(800.0, rel=1e-12)

    def test_density_and_ratio_bounds(self):
        fam = categorical(2)
        tp = fam.natural_param([0.5, 0.25, 0.25])
        tq = fam.natural_param([0.25, 0.25, 0.5])
        assert fam.source_param(tp) == pytest.approx((0.5, 0.25, 0.25),
                                                     rel=1e-13)
        assert _mass(fam, tp) == pytest.approx(1.0, rel=1e-15)
        m, M = fam.ratio_bounds(tp, tq)
        assert m == pytest.approx(0.5, rel=1e-13)
        assert M == pytest.approx(2.0, rel=1e-13)

    def test_validation(self):
        fam = categorical(2)
        with pytest.raises(InputError):
            fam.natural_param([0.5, 0.5])
        with pytest.raises(InputError):
            fam.natural_param([0.5, 0.5, 0.0])
        with pytest.raises(InputError):
            fam.natural_param([0.5, 0.4, 0.2])
        with pytest.raises(InputError):
            fam.natural_param([math.nan, 0.5, 0.5])
        with pytest.raises(InputError):
            categorical(0)


class TestVonMisesFisher:
    def test_log_normalizer_matches_hyp0f1(self):
        for d in (2, 3, 5):
            fam = vmf(d)
            for kappa in (0.0, 0.5, 2.0, 10.0):
                th = np.zeros(d)
                th[0] = kappa
                want = mp.log(mp.hyp0f1(d / 2, kappa**2 / 4))
                assert oracles.rel_err(
                    fam.log_normalizer(th), want
                ) < mp.mpf("1e-13")

    def test_no_density(self):
        fam = vmf(3)
        with pytest.raises(InputError, match="no density"):
            _mass(fam, np.zeros(3))

    def test_ratio_bounds_bracket_true_ratio(self):
        fam = vmf(3)
        tp = np.array([1.0, 0.0, 0.0])
        tq = np.array([0.2, 1.5, 0.0])
        m, M = fam.ratio_bounds(tp, tq)
        rng = np.random.default_rng(7)
        shift = fam.log_normalizer(tp) - fam.log_normalizer(tq)
        for _ in range(200):
            x = rng.normal(size=3)
            x /= np.linalg.norm(x)
            ratio = math.exp(float((tq - tp) @ x) + shift)
            assert m * (1 - 1e-12) <= ratio <= M * (1 + 1e-12)

    def test_degenerate_pair(self):
        fam = vmf(4)
        t = np.array([0.3, 0.0, 0.0, 0.1])
        assert fam.ratio_bounds(t, t.copy()) == (1.0, 1.0)

    def test_log_normalizer_at_large_concentration(self):
        # d = 3: F = log(sinh k / k) = k - log(2k) + log1p(-e^(-2k)); the
        # series passes float range near k = 700 and must rescale
        for kappa in (1500.0, 5000.0):
            got = vmf(3).log_normalizer(np.array([kappa, 0.0, 0.0]))
            want = (kappa - math.log(2.0 * kappa)
                    + math.log1p(-math.exp(-2.0 * kappa)))
            assert abs(got - want) <= 1e-13 * want

    def test_series_guard(self):
        with pytest.raises(InputError, match="10000-term cap"):
            vmf(3).log_normalizer(np.array([64000.0, 0.0, 0.0]))
        with pytest.raises(InputError):
            vmf(1)


class TestTruncatedExponential:
    def test_doubly_log_normalizer_matches_integral(self):
        fam = trunc_exp(0.5, 3.0)
        for t in (-50.0, -2.0, -1e-9, 0.0, 1e-9, 1.3, 50.0):
            want = mp.log(mp.quad(lambda x: mp.exp(-t * x), [0.5, 3.0]))
            assert oracles.rel_err(
                fam.log_normalizer(np.array([t])), want
            ) < mp.mpf("1e-12")

    def test_removable_singularity(self):
        fam = trunc_exp(1.0, 4.0)
        assert fam.log_normalizer(np.array([0.0])) == pytest.approx(
            math.log(3.0), rel=1e-15
        )

    def test_singly_log_normalizer(self):
        fam = trunc_exp(2.0)
        assert not fam.doubly
        th = np.array([1.5])
        # Z = e^(-a theta)/theta, so F = -a theta - log theta
        assert fam.log_normalizer(th) == pytest.approx(
            -2.0 * 1.5 - math.log(1.5), rel=1e-15
        )
        with pytest.raises(InputError):
            fam.log_normalizer(np.array([-0.5]))
        assert not fam.in_domain(np.array([0.0]))
        assert fam.in_domain(np.array([0.1]))

    @pytest.mark.parametrize("fam_args", [(0.0, 1.0), (1.0, 5.0), (0.5, math.inf)])
    def test_density_integrates_to_one(self, fam_args):
        fam = trunc_exp(*fam_args)
        assert _mass(fam, np.array([1.2])) == pytest.approx(1.0, abs=1e-9)

    def test_ratio_bounds(self):
        doubly = trunc_exp(0.0, 1.0)
        m, M = doubly.ratio_bounds(np.array([1.0]), np.array([2.0]))
        f1 = doubly.log_normalizer((1.0,))
        f2 = doubly.log_normalizer((2.0,))
        r0 = math.exp(-2.0 * 0.0 - f2) / math.exp(-1.0 * 0.0 - f1)
        r1 = math.exp(-2.0 * 1.0 - f2) / math.exp(-1.0 * 1.0 - f1)
        assert (m, M) == (min(r0, r1), max(r0, r1))
        single = trunc_exp(0.0)
        assert single.ratio_bounds(np.array([1.0]), np.array([3.0])) == (0.0, 3.0)
        assert single.ratio_bounds(np.array([3.0]), np.array([1.0])) == (
            pytest.approx(1 / 3),
            math.inf,
        )

    def test_validation(self):
        with pytest.raises(InputError):
            trunc_exp(2.0, 1.0)
        with pytest.raises(InputError):
            trunc_exp(math.inf)
        with pytest.raises(InputError):
            trunc_exp(0.0, math.nan)


def test_family_from_name():
    assert family_from_name("gaussian_iso", dim=3).d == 3
    assert family_from_name("poisson").name == "poisson"
    assert family_from_name("categorical", dim=2).d == 2
    assert family_from_name("vmf", dim=4).d == 4
    fam = family_from_name("trunc_exp", a=1.0, b=2.0)
    assert (fam.a, fam.b) == (1.0, 2.0)
    assert family_from_name("trunc_exp", a=1.0).b == math.inf
    with pytest.raises(InputError):
        family_from_name("weibull")


class TestMixtureSpec:
    def test_valid(self):
        mix = MixtureSpec([0.25, 0.75], ([0.0], [1.0]))
        assert mix.weights == (0.25, 0.75)

    @pytest.mark.parametrize(
        "weights,thetas",
        [
            ([], ()),
            ([0.5, 0.5], ([0.0],)),
            ([0.0, 1.0], ([0.0], [1.0])),
            ([0.6, 0.6], ([0.0], [1.0])),
            ([math.nan, 1.0], ([0.0], [1.0])),
            ([True], ([0.0],)),
            (["heavy"], ([0.0],)),
        ],
    )
    def test_invalid(self, weights, thetas):
        with pytest.raises(InputError):
            MixtureSpec(weights, thetas)

    def test_validated_checks_domains(self):
        mix = MixtureSpec([1.0], ([-1.0],))
        with pytest.raises(InputError):
            mix.validated(trunc_exp(0.0))


class TestLoadPairSpec:
    def test_discrete_dict(self):
        pair = load_pair_spec({"kind": "discrete", "p": ["9/10", "1/10"], "q": [0.3, 0.7]})
        assert pair.kind == "discrete"
        assert pair.p.probs == (Fraction(9, 10), Fraction(1, 10))
        assert pair.describe() == "discrete[2]"

    def test_json_string_and_file(self, tmp_path):
        obj = {"kind": "aef", "family": "poisson", "theta_p": 0.0, "theta_q": 1.0}
        pair = load_pair_spec(json.dumps(obj))
        assert pair.kind == "aef"
        assert pair.fam.name == "poisson"
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(obj))
        pair2 = load_pair_spec(str(path))
        assert pair2.fam.name == "poisson"
        np.testing.assert_array_equal(pair2.theta_q, pair.theta_q)

    def test_aef_dim_inferred_from_theta(self):
        pair = load_pair_spec(
            {"kind": "aef", "family": "gaussian_iso",
             "theta_p": [0.0, 0.0], "theta_q": [1.0, 0.5]}
        )
        assert pair.fam.d == 2

    def test_trunc_exp_interval_keys(self):
        pair = load_pair_spec(
            {"kind": "aef", "family": "trunc_exp", "a": 1.0, "b": 4.0,
             "theta_p": -2.0, "theta_q": 3.0}
        )
        assert pair.fam.doubly
        assert pair.fam.b == 4.0

    def test_trunc_exp_nan_right_end_rejected(self):
        with pytest.raises(InputError, match="need a < b"):
            load_pair_spec(
                '{"kind": "aef", "family": "trunc_exp", "a": 0, "b": NaN, '
                '"theta_p": [2.0], "theta_q": [1.5]}'
            )

    def test_mixture(self):
        pair = load_pair_spec(
            {"kind": "mixture", "family": "gaussian_iso", "theta_p": 0.0,
             "weights": [0.5, 0.5], "thetas": [[-1.0], [1.0]]}
        )
        assert pair.kind == "mixture"
        assert pair.mixture.weights == (0.5, 0.5)
        assert "mixture[2]" in pair.describe()

    def test_pass_through(self):
        pair = PairSpec(kind="discrete", p=bernoulli(0.5), q=bernoulli(0.5))
        assert load_pair_spec(pair) is pair

    @pytest.mark.parametrize(
        "obj",
        [
            {"p": [1.0], "q": [1.0]},
            {"kind": "discrete", "p": [1.0]},
            {"kind": "aef", "family": "poisson", "theta_p": 0.0},
            {"kind": "nope"},
            {"kind": "aef", "family": "poisson", "theta_p": [0.0, 1.0],
             "theta_q": 0.0},
            ["not", "a", "dict"],
        ],
    )
    def test_malformed(self, obj):
        with pytest.raises(InputError):
            load_pair_spec(obj)

    def test_bad_json_and_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            load_pair_spec("{not json")
        with pytest.raises(InputError):
            load_pair_spec(str(tmp_path / "missing.json"))


class TestPairSpec:
    """A PairSpec is refused when built, not in whichever layer reads it."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: provenance(PairSpec(kind="bogus")),
            lambda: PairSpec(kind="bogus").describe(),
            lambda: quadrature_f_divergence(kl(), PairSpec(kind="bogus")),
            lambda: compute_basis(PairSpec(kind="bogus"), 4),
        ],
        ids=["provenance", "describe", "quadrature_f_divergence",
             "compute_basis"],
    )
    def test_unknown_kind_is_one_input_error(self, call):
        with pytest.raises(InputError, match="unknown pair kind 'bogus'; "
                                             "expected discrete, aef or "
                                             "mixture"):
            call()

    def test_compute_basis_on_a_discrete_pair_without_fields(self):
        with pytest.raises(InputError, match="a 'discrete' pair needs p, q; "
                                             "p, q missing"):
            compute_basis(PairSpec(kind="discrete"), 4)

    @pytest.mark.parametrize(
        "fields,missing",
        [
            ({"kind": "discrete", "p": bernoulli(0.5)}, "q missing"),
            ({"kind": "aef", "fam": poisson(), "theta_p": (0.0,)},
             "theta_q missing"),
            ({"kind": "aef", "theta_p": (0.0,), "theta_q": (0.1,)},
             "fam missing"),
            ({"kind": "mixture", "fam": poisson(), "theta_p": (0.0,),
              "theta_q": (0.1,)}, "mixture missing"),
            ({"kind": "mixture", "fam": poisson(),
              "mixture": MixtureSpec([1.0], ([0.1],))}, "theta_p missing"),
        ],
    )
    def test_missing_field_names_it(self, fields, missing):
        with pytest.raises(InputError, match=missing):
            PairSpec(**fields)

    def test_non_string_kind(self):
        with pytest.raises(InputError, match="unknown pair kind"):
            PairSpec(kind=["aef"])

    def test_complete_pairs_build(self):
        fam = poisson()
        for pair in (
            PairSpec(kind="discrete", p=bernoulli(0.5), q=bernoulli(0.4)),
            PairSpec(kind="aef", fam=fam, theta_p=(0.0,), theta_q=(0.1,)),
            PairSpec(kind="mixture", fam=fam, theta_p=(0.0,),
                     mixture=MixtureSpec([1.0], ([0.1],))),
        ):
            assert pair.describe()
