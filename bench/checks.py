"""Output checks.  Each returns a list of problems; an empty list is a pass.

The checks compare fchi's outputs with routes that do not go through the
expansion: exact discrete summation, the closed-form alpha divergence and
quadrature.  They run outside the timed region.
"""

from __future__ import annotations

import math
from dataclasses import fields, is_dataclass
from fractions import Fraction

# Relative tolerance of alpha:3 against its closed form.  The expansion
# holds the single term c_2 chi_2, so only float rounding separates them.
ALPHA3_RTOL = 1e-9
# A converging kl series with no finite certificate must match quadrature
# to this relative tolerance (plus the integrator's own error estimate).
UNCERTIFIED_RTOL = 1e-6
# Conjugate requests use pairs with q/p within about 20% of 1, where the
# order-20 truncation error is below 1e-13 of the value.
CONJ_RTOL = 1e-9


def _float_slack(report, exact) -> float:
    """Rounding allowance of a float partial sum and a float reference."""
    mass = abs(float(exact)) + sum(abs(float(t)) for t in report.terms)
    return 1e-12 * (1.0 + mass)


def rational_stream(gen, k: int) -> bool:
    """True when f(1) and every coefficient up to order k are exact."""
    return isinstance(gen.f_at_one, (int, Fraction)) and all(
        isinstance(gen.coeff(i), (int, Fraction)) for i in range(2, k + 1))


def catalog(req, reports: dict, exact: dict, rational: set) -> list:
    """``exact`` maps generator name to exact_f_divergence_discrete;
    ``rational`` names the generators with exact coefficient streams."""
    problems = []
    rational_pair = req.pair.p.is_exact and req.pair.q.is_exact
    if list(reports) != [g.name for g in req.gens]:
        return [f"report names {list(reports)!r} do not match the generators"]
    for gen in req.gens:
        rep = reports[gen.name]
        ref = exact[gen.name]
        if rep.value is None:
            problems.append(f"{gen.name}: no value ({rep.note})")
            continue
        if rational_pair and gen.name in rational \
                and not isinstance(rep.value, Fraction):
            problems.append(f"{gen.name}: rational inputs gave {type(rep.value).__name__}")
        if rational_pair and gen.name.startswith("poly:") and rep.value != ref:
            problems.append(f"{gen.name}: {rep.value} != exact {ref}")
        cap = rep.remainder_bounds[-1]
        if math.isfinite(cap):
            err = abs(float(ref) - float(rep.value))
            if not err <= cap + _float_slack(rep, ref):
                problems.append(f"{gen.name}: |exact - value| = {err:.6g} "
                                f"exceeds the certified cap {cap:.6g}")
    return problems


def deep(req, reports: dict, ref) -> list:
    problems = []
    if req.diverge:
        for name, rep in reports.items():
            if rep.verdict != "diverging":
                problems.append(f"{name}: verdict {rep.verdict} on a pair "
                                f"built to diverge")
        return problems
    if req.reference in ("alpha_aef", "alpha_discrete"):
        rep = reports["alpha:3"]
        if rep.value is None:
            return [f"alpha:3: no value ({rep.note})"]
        err = abs(float(rep.value) - float(ref))
        if not err <= ALPHA3_RTOL * abs(float(ref)):
            problems.append(f"alpha:3: {float(rep.value)!r} vs reference "
                            f"{float(ref)!r}")
    elif req.reference == "quadrature_kl":
        value, err_est = ref
        rep = reports["kl"]
        if rep.verdict == "converging":
            cap = rep.remainder_bounds[-1]
            if not math.isfinite(cap):
                cap = UNCERTIFIED_RTOL * abs(value)
            err = abs(float(rep.value) - value)
            if not err <= err_est + cap:
                problems.append(f"kl: converged to {float(rep.value)!r}, "
                                f"quadrature gives {value!r} +- {err_est:.3g}")
    elif req.reference == "reverse_kl":
        rep = reports["conj(kl)"]
        if rep.value is None:
            return [f"conj(kl): no value ({rep.note})"]
        err = abs(float(rep.value) - float(ref))
        if not err <= CONJ_RTOL * abs(float(ref)) + 1e-15:
            problems.append(f"conj(kl): {float(rep.value)!r} vs KL(q:p) "
                            f"{float(ref)!r}")
    return problems


def same(a, b) -> bool:
    """Exact equality that also requires equal types and treats NaN as equal."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(same(a[k], b[k]) for k in a)
    if is_dataclass(a):
        return all(same(getattr(a, f.name), getattr(b, f.name))
                   for f in fields(a))
    return a == b
