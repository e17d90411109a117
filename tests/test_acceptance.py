"""Acceptance gate: one test per shipping criterion.

Each test function is one criterion; `pytest -v` therefore prints one
pass/fail line per criterion.  Reference numbers are frozen here rather
than recomputed so that a regression in the library cannot silently
drag the expectations along with it.
"""

import math
import random
import time
from fractions import Fraction as Fr

import mpmath as mp
import pytest

import oracles
from pairs import family_pair
from fchi.chi import (
    basis_build_count,
    chi_pm,
    chi_pm_quadrature,
    compute_basis,
    reset_basis_build_count,
)
from fchi.errors import DivergenceError
from fchi.expansion import (
    DEFAULT_TOL,
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
    categorical,
    gaussian_iso,
    poisson,
    trunc_exp,
)
from fchi.generators import (
    CATALOG,
    catalog_coeff,
    exponential,
    from_spec,
    jensen_shannon,
)
from fchi.reference import (
    exact_alpha_aef,
    exact_f_divergence_discrete,
    quadrature_f_divergence,
)

SEED = 20260822

# chi values of an isotropic-Gaussian pair at unit mean gap, orders 2..10
GAUSS_CHI = (
    1.718281828459045,
    13.930691437810532,
    336.3963367707387,
    20186.99437829033,
    3142544.0730946246,
    1.2963817005597024e9,
    1.4357968646042915e12,
    4.298262439031654e15,
    3.489122366600497e19,
)

# Bernoulli(0.9 : 0.3), orders 2..30: chi values and the exponential
# generator's partial sums
WORKED_CHI = (
    4.000000000000002,
    21.333333333333357,
    129.77777777777794,
    777.4814814814827,
    4665.6790123456885,
    27993.547325102943,
    167961.6351165985,
    1007769.5765889378,
    6046617.615607398,
    3.627970558959522e7,
    2.1767823360693753e8,
    1.3060694015953817e9,
    7.836416409603122e9,
    4.70184984575982e10,
    2.821109907456029e11,
    1.6926659444736094e12,
    1.0155995666841666e13,
    6.093597400105001e13,
    3.6561584400630025e14,
    2.1936950640378022e15,
    1.3162170384226816e16,
    7.8973022305360928e16,
    4.7383813383216576e17,
    2.8430288029929964e18,
    1.7058172817957982e19,
    1.0234903690774793e20,
    6.140942214464877e20,
    3.684565328678928e21,
    2.2107391972073577e22,
)
WORKED_PARTIALS = (
    5.436563656918093,
    15.101565713661374,
    29.800423008291787,
    47.412204533912885,
    65.02696908486016,
    80.1250546023077,
    91.44864241519754,
    98.9976992034349,
    103.52713339328994,
    105.99773385339799,
    107.23303408384565,
    107.8031726517244,
    108.04751775224481,
    108.14525579245294,
    108.18190755753099,
    108.19484347461736,
    108.19915544697947,
    108.20051712246224,
    108.20092562510708,
    108.20104234014846,
    108.20107417152339,
    108.20108247536032,
    108.20108455131955,
    108.20108504954977,
    108.20108516452598,
    108.20108519007624,
    108.2010851955513,
    108.20108519668408,
    108.20108519691063,
)
WORKED_EXACT = 108.20108519696437


def dpair(p, q):
    return PairSpec(kind="discrete", p=p, q=q)


def rand_bounded_pair(rng, kind):
    """Random full-support rational pair with ratio width M - m < 2."""
    while True:
        if kind == "bernoulli":
            pd = bernoulli(Fr(rng.randint(1, 199), 200))
            qd = bernoulli(Fr(rng.randint(1, 199), 200))
        else:
            pd = DiscreteDistribution(oracles.rand_categorical(rng, 4))
            qd = DiscreteDistribution(oracles.rand_categorical(rng, 4))
        pair = dpair(pd, qd)
        bd = pair_ratio_bounds(pair)
        if float(bd.M) - float(bd.m) < 2:
            return pair, bd


def test_criterion_01_gaussian_chi_closed_form():
    pair = family_pair(gaussian_iso(1), [0.0], [1.0])
    vals, best = None, math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        vals = [chi_pm(i, 1, pair) for i in range(2, 11)]
        best = min(best, time.perf_counter() - t0)
    for i, (got, want) in enumerate(zip(vals, GAUSS_CHI), start=2):
        assert got == pytest.approx(want, rel=1e-9), f"order {i}"
    assert best < 1e-3, f"nine closed forms took {best * 1e3:.3f} ms"


def test_criterion_02_worked_bernoulli_table():
    p, q = bernoulli(Fr(9, 10)), bernoulli(Fr(3, 10))
    gen = exponential()
    basis = partials = exact = None
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        basis = compute_basis(dpair(p, q), 30)
        partials = [chi_expansion(gen, basis, k) for k in range(2, 31)]
        exact = exact_f_divergence_discrete(gen, p, q)
        best = min(best, time.perf_counter() - t0)
    for i, (got, want) in enumerate(zip(basis.values, WORKED_CHI), start=2):
        assert float(got) == pytest.approx(want, rel=1e-10), f"chi order {i}"
    for k, (got, want) in enumerate(zip(partials, WORKED_PARTIALS), start=2):
        assert float(got) == pytest.approx(want, rel=1e-9), f"partial sum {k}"
    assert exact == pytest.approx(WORKED_EXACT, rel=1e-12)
    tail_gap = abs(float(partials[-1]) - exact)
    assert 4e-11 <= tail_gap <= 7e-11
    assert best < 10e-3, f"table reproduction took {best * 1e3:.3f} ms"


def test_criterion_03_js_coefficient_exact():
    got = catalog_coeff(jensen_shannon(), 23)
    assert isinstance(got, Fr)
    assert got == Fr(-182361, 92274688)


def test_criterion_04_odd_alpha_equivalence():
    rng = random.Random(SEED)

    def draw_pairs(kind):
        out = []
        for _ in range(20):
            if kind == "poisson":
                fam, n = poisson(), 1
                lo, hi = -1.0, 1.5
            elif kind == "gaussian1":
                fam, n, lo, hi = gaussian_iso(1), 1, -1.5, 1.5
            elif kind == "gaussian3":
                fam, n, lo, hi = gaussian_iso(3), 3, -1.5, 1.5
            else:
                fam, n, lo, hi = categorical(4), 4, -1.5, 1.5
            tp = [rng.uniform(lo, hi) for _ in range(n)]
            tq = [rng.uniform(lo, hi) for _ in range(n)]
            out.append((fam, tp, tq))
        return out

    for kind in ("poisson", "gaussian1", "gaussian3", "categorical4"):
        for fam, tp, tq in draw_pairs(kind):
            for alpha in (3, 5, 7):
                pair = PairSpec(kind="aef", fam=fam, theta_p=fam.theta(tp),
                                theta_q=fam.theta(tq))
                got = float(alpha_odd_expansion(alpha, pair))
                want = exact_alpha_aef(alpha, fam, tp, tq)
                assert got == pytest.approx(want, rel=1e-10, abs=1e-300), \
                    f"{kind} alpha={alpha} tp={tp} tq={tq}"


def test_criterion_05_remainder_certification():
    rng = random.Random(SEED)
    pairs = [rand_bounded_pair(rng, "bernoulli") for _ in range(100)]
    pairs += [rand_bounded_pair(rng, "categorical") for _ in range(100)]

    exact_gens = [(n, CATALOG[n]()) for n in ("js", "jeffreys", "kl",
                                              "harmonic")]
    exp_gen = exponential()
    violations = []
    checked = 0
    for pair, bd in pairs:
        basis = compute_basis(pair, 20)
        pp, qq = pair.p.probs, pair.q.probs
        for name, gen in exact_gens:
            # rational coefficient streams on rational pairs: the partial
            # sums are exact Fractions and the measured error is purely
            # the truncation term
            exact = oracles.exact_divergence(oracles.MP_F[name], pp, qq)
            for k in range(2, 21):
                sk = chi_expansion(gen, basis, k)
                err = abs(oracles.mpf_exact(sk) - exact)
                bound = remainder_bound(gen, k, bd)
                checked += 1
                if err > bound:
                    violations.append((name, pair.describe(), k,
                                       float(err), bound))
        # The exponential generator's coefficients e/i! have no exact
        # machine representation, so any float partial sum sits on a
        # ~1e-16 relative noise floor while the order-20 certificates on
        # narrow pairs live as low as 1e-55.  The certificate concerns
        # the truncation term alone; evaluate the partial sums at 90
        # digits from the library's own exact chi basis and pin the
        # shipped float values against those sums at float resolution.
        with mp.workdps(90):
            exact = oracles.exact_divergence(oracles.f_exponential, pp, qq)
            run = mp.mpf(0)
            for idx, i in enumerate(basis.orders):
                run += mp.e / mp.factorial(i) \
                    * oracles.mpf_exact(basis.values[idx])
                err = abs(run - exact)
                bound = remainder_bound(exp_gen, i, bd)
                checked += 1
                if err > bound:
                    violations.append(("exp", pair.describe(), i,
                                       float(err), bound))
                shipped = chi_expansion(exp_gen, basis, i)
                assert abs(float(run) - shipped) \
                    <= 1e-13 * max(1.0, abs(float(run)))
    assert checked == 200 * 5 * 19
    assert not violations, violations[:5]


def test_criterion_06_convergence_verdicts():
    js = jensen_shannon()
    gauss = PairSpec(kind="aef", fam=gaussian_iso(1),
                     theta_p=gaussian_iso(1).theta([0.0]),
                     theta_q=gaussian_iso(1).theta([1.0]))
    assert converge(js, gauss, 20).verdict == "diverging"
    wide = dpair(bernoulli(Fr(1, 20)), bernoulli(Fr(17, 20)))
    assert converge(js, wide, 30).verdict == "diverging"
    close = dpair(bernoulli(Fr(1, 10)), bernoulli(Fr(1, 20)))
    assert converge(js, close, 30).verdict == "converging"
    worked = dpair(bernoulli(Fr(9, 10)), bernoulli(Fr(3, 10)))
    assert converge(exponential(), worked, 30).verdict == "converging"


def test_criterion_07_truncated_exponential_cross_check():
    fam = trunc_exp(0.0)
    # theta_2 = (2/3) theta_1 + s keeps the order-3 margin at 3s > 0; the
    # s values dodge the chi_3 zero crossings at theta_2 = theta_1 and
    # theta_2 = 2 theta_1, where a relative comparison is ill-posed
    for t1 in (0.5, 1.0, 1.5, 2.0, 2.5):
        for s in (0.1, 0.6, 1.1, 2.3, 4.0):
            t2 = (2.0 / 3.0) * t1 + s
            exact = float(oracles.trunc_exp_chi3(t1, t2))
            pair = family_pair(fam, [t1], [t2])
            for got in (chi_pm(3, 1, pair), chi_pm_quadrature(3, 1, pair)):
                rel = abs(got - exact) / max(abs(got), abs(exact))
                assert rel < 1e-7, f"t1={t1} t2={t2}"
    for t1 in (0.5, 1.0, 1.5, 2.0, 2.5):
        with pytest.raises(DivergenceError):
            chi_pm(3, 1, family_pair(fam, [t1], [(2.0 / 3.0) * t1 - 0.05]))
    with pytest.raises(DivergenceError):
        chi_pm(3, 1, family_pair(fam, Fr(3), Fr(2)))
    with pytest.raises(DivergenceError):
        chi_pm(3, 1, family_pair(fam, [1.5], [0.95]))


def test_criterion_08_oracle_triangle():
    rng = random.Random(SEED)
    cat1 = categorical(1)
    gens = [from_spec(n) for n in ("kl", "rkl", "jeffreys", "js",
                                   "harmonic", "exp")]
    n_converging = 0
    for _ in range(50):
        pd = bernoulli(Fr(rng.randint(2, 198), 200))
        qd = bernoulli(Fr(rng.randint(2, 198), 200))
        pair = dpair(pd, qd)
        bd = pair_ratio_bounds(pair)
        tp = cat1.natural_param([float(x) for x in pd.probs])
        tq = cat1.natural_param([float(x) for x in qd.probs])
        aef_pair = PairSpec(kind="aef", fam=cat1, theta_p=tp, theta_q=tq)
        for gen in gens:
            discrete = float(exact_f_divergence_discrete(gen, pd, qd))
            closed, _ = quadrature_f_divergence(gen, aef_pair)
            cap20 = remainder_bound(gen, 20, bd)
            tol = 1e-8 + 2 * cap20
            assert abs(discrete - closed) <= tol, \
                f"{gen.name} on {pair.describe()}"
            report = converge(gen, pair, 20, bounds=bd)
            if report.verdict != "converging":
                continue
            n_converging += 1
            cap = report.remainder_bounds[-1]
            tol = 1e-8 + 2 * cap
            value = float(report.value)
            assert abs(value - discrete) <= tol, \
                f"{gen.name} on {pair.describe()}"
            assert abs(value - closed) <= tol, \
                f"{gen.name} on {pair.describe()}"
    assert n_converging >= 60, n_converging


def test_criterion_09_odd_chi_degeneracy_at_half():
    half = bernoulli(Fr(1, 2))
    for i in range(3, 16, 2):
        for tenth in range(1, 10):
            val = chi_pm(i, 1, dpair(half, bernoulli(Fr(tenth, 10))))
            assert isinstance(val, (int, Fr))
            assert val == 0, f"order {i}, lambda_q {tenth}/10"


def test_criterion_10_batch_shares_one_basis():
    gens = [from_spec(n) for n in ("kl", "rkl", "jeffreys", "js",
                                   "harmonic", "exp", "alpha:3", "alpha:5")]
    pair = dpair(bernoulli(0.9), bernoulli(0.3))
    reset_basis_build_count()
    batch = batch_evaluate(pair, gens, 30)
    assert basis_build_count() == 1
    bounds = pair_ratio_bounds(pair)
    for gen in gens:
        solo = converge(gen, pair, 30, bounds=bounds)
        assert batch[gen.name] == solo, gen.name
    # post-construction cost: rerun the batch body on a ready basis
    basis = compute_basis(pair, 30)
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        reports = {g.name: converge(g, basis, tol=DEFAULT_TOL,
                                    bounds=bounds) for g in gens}
        best = min(best, time.perf_counter() - t0)
    assert all(reports[name] == batch[name] for name in batch)
    assert best < 1e-3, f"batch after basis construction: {best * 1e3:.3f} ms"


def test_criterion_11_second_order_fisher_behaviour():
    # c_2 = f''(1) / 2, so the generators normalized to f''(1) = 1 carry
    # exactly 1/2; the others are standardized by the 2 c_2 factor below
    for name in ("kl", "rkl"):
        assert catalog_coeff(from_spec(name), 2) == Fr(1, 2)
    assert catalog_coeff(from_spec("js"), 2) == Fr(1, 4)
    assert catalog_coeff(from_spec("jeffreys"), 2) == Fr(1)
    delta = 1e-4
    target = 1.0 / (2 * 0.3 * 0.7)
    p = bernoulli(0.3)
    q = bernoulli(0.3 + delta)
    for name in ("kl", "rkl", "js", "jeffreys", "exp"):
        gen = from_spec(name)
        value = float(exact_f_divergence_discrete(gen, p, q))
        # dividing by 2 c_2 standardizes f''(1) to 1; a no-op for the
        # generators already carrying c_2 = 1/2
        ratio = value / delta**2 / (2 * float(gen.coeff(2)))
        assert abs(ratio - target) <= 0.01 * target, name
