"""High-precision oracles used by the tests.

Everything here is computed from scratch, with mpmath at 50 significant
digits or in exact Fraction arithmetic. The formulas are written out
directly instead of being routed through fchi, so a bug in the package
cannot vouch for itself. The one exception is closed_chi_values, a
reference copy of the closed-form route itself, which reads the family's
log-normalizer and shares the divergence check with it.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import mpmath as mp

from fchi._num import MAX_EXP_ARG, check_float, check_int
from fchi.chi import _check_lam, _check_vertices
from fchi.errors import InputError, OverflowSaturationError
from fchi.families import MixtureSpec

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


def trunc_exp_chi3(theta_p, theta_q):
    """Exact order-3, anchor-1 chi term of two singly truncated
    exponentials with rates theta_p and theta_q.

    The binomial transform of the moments M_j = theta_p^(1-j) theta_q^j /
    ((1 - j) theta_p + j theta_q) collapses to one rational function of
    the rates; the truncation point cancels.  Its denominator theta_p^2
    (2 theta_q - theta_p)(3 theta_q - 2 theta_p) has its poles on the
    order-2 and order-3 convergence boundaries, so it holds only where
    3 theta_q > 2 theta_p.  Floats enter at their exact binary values.
    """
    tp, tq = Fraction(theta_p), Fraction(theta_q)
    num = (2 * tq ** 4 - 10 * tp * tq ** 3 + 18 * tp ** 2 * tq ** 2
           - 14 * tp ** 3 * tq + 4 * tp ** 4)
    return num / (tp ** 2 * (6 * tq ** 2 - 7 * tp * tq + 2 * tp ** 2))


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


# ---------------------------------------------------------------------------
# the closed-form chi route, one Python step per composition and per term
#
# A plain copy of the closed form before its per-order and per-composition
# loops became table lookups and C-level pipelines.  Every float operation
# of chi._closed_values happens here in the same order, so the two must
# agree bit for bit, exceptions and their messages included.

def compositions(total, parts):
    """All ordered tuples of `parts` nonnegative ints summing to `total`."""
    if parts <= 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in compositions(total - head, parts - 1):
            yield (head,) + tail


def multinomial(counts):
    out = 1
    seen = 0
    for c in counts:
        seen += c
        out *= math.comb(seen, c)
    return out


def signed_logsum(factors, logs, what):
    """Sum of factor_t e^(log_t), rescaled by the peak past float range."""
    pairs = [(s, l) for s, l in zip(factors, logs) if s != 0 and l != -math.inf]
    if not pairs:
        return 0.0
    top = max(l for _, l in pairs)
    if top <= MAX_EXP_ARG:
        return math.fsum(s * math.exp(l) for s, l in pairs)
    scaled = math.fsum(s * math.exp(l - top) for s, l in pairs)
    if abs(scaled) < 1e-12:
        raise OverflowSaturationError(
            f"{what} cancels beyond float resolution at peak log magnitude "
            f"{top:.6g}; the result cannot be represented"
        )
    log_total = top + math.log(abs(scaled))
    if log_total > MAX_EXP_ARG:
        return math.copysign(math.inf, scaled)
    return math.copysign(math.exp(log_total), scaled)


def closed_moments(fam, tp, comps):
    """Yield (top, s) with M_j = s e^top for j = 0, 1, ..., one
    log-normalizer call per composition of j over the components."""
    f_p = fam.log_normalizer(tp)
    parts = [(tuple(c - a for a, c in zip(tp, tc)), fam.log_normalizer(tc),
              math.log(w)) for w, tc in comps]
    yield 0.0, 1.0
    yield 0.0, math.fsum(w for w, _ in comps)
    for j in itertools.count(2):
        logs = []
        for counts in compositions(j, len(parts)):
            theta = tp
            gap = (1 - j) * f_p
            log_w = math.log(multinomial(counts))
            for k, (delta, f_c, log_w_c) in zip(counts, parts):
                if k:
                    theta = tuple(t + k * e for t, e in zip(theta, delta))
                    gap += k * f_c
                    log_w += k * log_w_c
            logs.append(log_w + (fam.log_normalizer(theta) - gap))
        top = max(logs)
        yield top, math.fsum(math.exp(l - top) for l in logs)


def closed_chi_values(orders, lam, fam, theta_p, q):
    """Chi terms of p against q, a member or a MixtureSpec of fam, at the
    given orders: the signed binomial transform of closed_moments."""
    orders = [check_int(i, 1, "chi order") for i in orders]
    lam = _check_lam(lam)
    tp = fam.theta(theta_p)
    comps = fam.components(q)
    mixture = isinstance(q, MixtureSpec)
    sign = -1 if lam > 0 else 1
    log_abs_lam = math.log(abs(check_float(lam, "anchor lam")))
    stream = closed_moments(fam, tp, comps)
    tops, sums, values = [], [], []
    for i in orders:
        _check_vertices(i, fam, tp, comps, mixture)
        if not mixture and tp == comps[0][1]:
            values.append((1 - lam) ** i)
            continue
        count = math.comb(i + len(comps), len(comps))
        if count > 10_000:
            raise InputError(
                f"an order-{i} chi term of a {len(comps)}-component mixture "
                f"expands into {count} compositions, over the composition "
                f"budget of 10000; lower the order or the components"
            )
        for top, scaled in itertools.islice(stream, i + 1 - len(tops)):
            tops.append(top)
            sums.append(scaled)
        factors = sums[i::-1]
        if sign < 0:
            factors[1::2] = [-s for s in factors[1::2]]
        row = [math.log(math.comb(i, j)) for j in range(i, -1, -1)]
        logs = [c + n * log_abs_lam + t
                for n, (c, t) in enumerate(zip(row, tops[i::-1]))]
        values.append(signed_logsum(factors, logs, f"order-{i} chi term"))
    return values
