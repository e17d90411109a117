import json
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate, stats

import oracles
from fchi import DivergenceError, InputError
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


class TestGaussianIso:
    def test_log_normalizer(self):
        fam = gaussian_iso(3)
        th = fam.theta([1.0, -2.0, 0.5])
        assert fam.log_normalizer(th) == pytest.approx(0.5 * 5.25, rel=1e-15)

    def test_density_matches_scipy(self):
        fam = gaussian_iso(1)
        th = fam.theta(0.7)
        for x in (-1.0, 0.0, 2.3):
            assert fam.density(x, th) == pytest.approx(
                stats.norm.pdf(x, loc=0.7), rel=1e-12
            )

    def test_density_integrates_to_one(self):
        fam = gaussian_iso(1)
        th = fam.theta(-1.2)
        total, _ = integrate.quad(lambda x: fam.density(x, th), -13.2, 10.8)
        assert total == pytest.approx(1.0, abs=1e-10)

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
        fam = poisson()
        th = fam.natural_param(3.2)
        for k in (0, 1, 4, 11):
            assert fam.density(k, th) == pytest.approx(
                stats.poisson.pmf(k, 3.2), rel=1e-12
            )
        assert fam.density(-1, th) == 0.0
        assert fam.density(2.5, th) == 0.0

    def test_density_sums_to_one(self):
        fam = poisson()
        th = fam.natural_param(4.0)
        total = math.fsum(fam.density(k, th) for k in range(200))
        assert total == pytest.approx(1.0, abs=1e-14)

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
        assert fam.density(0, tp) == pytest.approx(0.5, rel=1e-13)
        assert fam.density(3, tp) == 0.0
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
        assert not fam.has_density
        with pytest.raises(InputError):
            fam.density(0.0, np.zeros(3))

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

    def test_series_guard(self):
        with pytest.raises(DivergenceError):
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
        t = 1.2
        hi = fam.b if fam.doubly else np.inf
        total, _ = integrate.quad(
            lambda x: fam.density(x, np.array([t])), fam.a, hi
        )
        assert total == pytest.approx(1.0, abs=1e-9)
        assert fam.density(fam.a - 0.1, np.array([t])) == 0.0

    def test_mass(self):
        fam = trunc_exp(0.0, 2.0)
        assert fam.mass(np.array([1.0])) == pytest.approx(1 - math.exp(-2.0), rel=1e-15)
        single = trunc_exp(1.0)
        assert single.mass(np.array([2.0])) == pytest.approx(math.exp(-2.0), rel=1e-15)

    def test_ratio_bounds(self):
        doubly = trunc_exp(0.0, 1.0)
        m, M = doubly.ratio_bounds(np.array([1.0]), np.array([2.0]))
        r0 = doubly.density(0.0, np.array([2.0])) / doubly.density(0.0, np.array([1.0]))
        r1 = doubly.density(1.0, np.array([2.0])) / doubly.density(1.0, np.array([1.0]))
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
