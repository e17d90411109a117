"""High-precision oracles used by the tests.

Everything here is computed from scratch, with mpmath at 50 significant
digits or in exact Fraction arithmetic. The formulas are written out
directly instead of being routed through fchi, so a bug in the package
cannot vouch for itself.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp

mp.mp.dps = 50


def mpf_exact(x):
    """Convert int, Fraction or float to mpf without hidden rounding."""
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpf(x)


def f_kl(u):
    return -mp.log(u)


def f_rkl(u):
    return u * mp.log(u)


def f_jeffreys(u):
    return (u - 1) * mp.log(u)


def f_js(u):
    return u * mp.log(2 * u / (1 + u)) + mp.log(2 / (1 + u))


def f_harmonic(u):
    return 2 * u / (1 + u)


def f_exponential(u):
    return mp.e ** u - mp.e * u


MP_F = {
    "kl": f_kl,
    "rkl": f_rkl,
    "jeffreys": f_jeffreys,
    "js": f_js,
    "harmonic": f_harmonic,
    "exp": f_exponential,
}


def f_alpha(alpha):
    a = mpf_exact(alpha)

    def f(u):
        return 4 / (1 - a * a) * (1 - u ** ((1 + a) / 2))

    return f


def alpha_conjugate_taylor(alpha, n):
    """Taylor coefficients about u = 1 of u f_alpha(1/u), orders 0..n.

    With u = 1 + t and g = (1 + alpha)/2 this is
    4/(1 - alpha^2) (1 + t) (1 - (1 + t)^(-g)), whose middle factor is a
    binomial series; no derivative of order n is taken.
    """
    a = mpf_exact(alpha)
    g = (1 + a) / 2
    inner = [1 - mp.binomial(-g, 0)] + [-mp.binomial(-g, i)
                                        for i in range(1, n + 1)]
    return [4 / (1 - a * a) * (inner[i] + (inner[i - 1] if i else 0))
            for i in range(n + 1)]


def exact_divergence(f, p, q):
    """sum_s p_s * f(q_s / p_s) for full-support distributions."""
    total = mp.mpf(0)
    for ps, qs in zip(p, q):
        ps_m = mpf_exact(ps)
        qs_m = mpf_exact(qs)
        if ps_m <= 0 or qs_m <= 0:
            raise ValueError("oracle expects full-support pairs")
        total += ps_m * f(qs_m / ps_m)
    return total


def chi_power(i, lam, p, q):
    """sum_s (q_s - lam*p_s)^i / p_s^(i-1) in mp arithmetic."""
    lam_m = mpf_exact(lam)
    total = mp.mpf(0)
    for ps, qs in zip(p, q):
        ps_m = mpf_exact(ps)
        qs_m = mpf_exact(qs)
        total += (qs_m - lam_m * ps_m) ** i / ps_m ** (i - 1)
    return total


def chi_power_exact(orders, lam, p, q, absolute=False):
    """sum_s p_s * b_s^i with b_s = q_s/p_s - lam, one Fraction per atom.

    |b_s| when absolute.  An atom with p_s = 0 < q_s makes every order
    i >= 2 +inf and adds q_s at i = 1.  Returns a list over `orders`.
    """
    lam = Fraction(lam)
    stray = [Fraction(qs) for ps, qs in zip(p, q) if ps == 0 and qs != 0]
    atoms = [(Fraction(ps), Fraction(qs) / Fraction(ps) - lam)
             for ps, qs in zip(p, q) if ps != 0]
    values = []
    for i in orders:
        if stray and i >= 2:
            values.append(math.inf)
            continue
        terms = [ps * (abs(b) if absolute else b) ** i for ps, b in atoms]
        values.append(sum(terms + stray if i == 1 else terms))
    return values


def _to_float(x):
    """float(x), a signed infinity where an exact x passes float range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def expansion_by_fractions(gen, basis, tol=1e-10):
    """What converge reports for gen on basis, by plain accumulation.

    Order i's term is 0 where c_i = 0 (0.0 against a float chi value),
    the Fraction c_i * chi_i where both are rational, and
    float(c_i) * float(chi_i) otherwise.  When f(1) and every term are
    rational the partial sums add the terms to f(1) one Fraction at a
    time; otherwise they add the term floats and stop at the first
    non-finite sum.  The verdict follows the rules converge documents.
    Returns a dict of terms, floats (of the terms), partials,
    partial_floats, verdict, settled_at and note.
    """
    orders = list(basis.orders)
    terms = []
    for i, v in zip(orders, basis.values):
        c = gen.coeff(i)
        v_exact = isinstance(v, (int, Fraction))
        if c == 0:
            terms.append(0 if v_exact else 0.0)
        elif isinstance(c, (int, Fraction)) and v_exact:
            terms.append(Fraction(c) * v)
        else:
            terms.append(_to_float(c) * _to_float(v))
    floats = [_to_float(t) for t in terms]
    partials = []
    if isinstance(gen.f_at_one, (int, Fraction)) and all(
            isinstance(t, (int, Fraction)) for t in terms):
        total = Fraction(gen.f_at_one)
        for t in terms:
            total = total + t
            partials.append(total)
    else:
        total = _to_float(gen.f_at_one)
        for t in floats:
            if math.isfinite(total):
                total = total + t
            partials.append(total)
    partial_floats = [_to_float(s) for s in partials]

    mags = [abs(t) for t in floats]
    rising = longest = 0
    for a, b in zip(mags, mags[1:]):
        rising = rising + 1 if b > a else 0
        longest = max(longest, rising)
    verdict, settled, note = "inconclusive", None, ""
    bad = [i for i, g in zip(orders, mags) if not math.isfinite(g)]
    if bad:
        verdict, note = "diverging", f"order-{bad[0]} term is non-finite"
    elif longest >= 5 and mags[-1] > mags[0]:
        verdict = "diverging"
        note = (f"term magnitudes rose over 5 consecutive orders and ended "
                f"above the order-{orders[0]} magnitude")
    else:
        streak = 0
        for i, g, s in zip(orders, mags, partial_floats):
            streak = streak + 1 if g < tol * max(1.0, abs(s)) else 0
            if streak == 3:
                verdict, settled = "converging", i
                break
    return {"terms": terms, "floats": floats, "partials": partials,
            "partial_floats": partial_floats, "verdict": verdict,
            "settled_at": settled, "note": note}


def taylor_coeffs(f, n):
    """Taylor coefficients of f about u = 1, orders 0..n."""
    return mp.taylor(f, 1, n)


def rel_err(got, want):
    """|got - want| / max(1e-300, |want|) with mp precision."""
    got_m = mpf_exact(got)
    want_m = mpf_exact(want)
    return abs(got_m - want_m) / max(mp.mpf("1e-300"), abs(want_m))


def rand_fraction(rng, den=200, lo=1, hi=None):
    """Random Fraction k/den with k uniform in [lo, hi]."""
    if hi is None:
        hi = den - 1
    return Fraction(rng.randint(lo, hi), den)


def rand_categorical(rng, atoms, unit=60):
    """Random full-support rational pmf on `atoms` outcomes."""
    counts = [rng.randint(1, unit) for _ in range(atoms)]
    total = sum(counts)
    return [Fraction(c, total) for c in counts]
