"""Seeded inputs for the three benchmark workloads.

Every input is drawn from ``random.Random`` keyed by the workload name and
the seed, so one seed always yields the same request list.  Sizes are
stratified (atom counts, orders and component counts step through their
ranges in a fixed pattern, with only the values drawn at random), which
keeps the work per pass nearly the same from one seed to the next.

The request lists are the only thing handed to fchi; nothing in them is
tuned to a particular seed.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import fchi

CATALOG_K = 30
DEEP_AEF_K = 64
DEEP_DISCRETE_K = 64
DEEP_CONJ_K = 20


@dataclass(frozen=True)
class Request:
    """One closed-loop request: ``batch_evaluate(pair, gens, k)`` plus a reference.

    ``conjugate`` means the request builds ``conjugate_generator(g, k)``
    for each generator itself, so conjugation is paid per request.
    ``reference`` names the ground-truth route the request also runs
    (None on catalog-sweep, whose references are computed by the checks).
    ``diverge`` marks a trunc_exp pair built past the convergence
    condition, whose basis is expected to fail.
    """

    kind: str
    pair: fchi.PairSpec
    k: int
    gens: tuple
    conjugate: bool = False
    reference: Optional[str] = None
    diverge: bool = False

    def generators(self) -> list:
        if self.conjugate:
            return [fchi.conjugate_generator(g, self.k) for g in self.gens]
        return list(self.gens)


@dataclass(frozen=True)
class CliOp:
    """One cold ``fchi`` invocation: argv after the program name."""

    argv: tuple
    subcommand: str = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "subcommand", self.argv[0])


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"fchi-bench/{workload}/{seed}")


def _rational(weights) -> list:
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


def _floats(weights) -> list:
    total = math.fsum(weights)
    return [w / total for w in weights]


def _discrete(p, q) -> fchi.PairSpec:
    return fchi.PairSpec(kind="discrete", p=fchi.DiscreteDistribution(p),
                         q=fchi.DiscreteDistribution(q))


def _aef(fam, theta_p, theta_q) -> fchi.PairSpec:
    return fchi.PairSpec(kind="aef", fam=fam, theta_p=fam.theta(theta_p),
                         theta_q=fam.theta(theta_q))


def _mixture(fam, theta_p, weights, thetas) -> fchi.PairSpec:
    mix = fchi.MixtureSpec(weights, tuple(thetas)).validated(fam)
    return fchi.PairSpec(kind="mixture", fam=fam, theta_p=fam.theta(theta_p),
                         mixture=mix)


def _unit(rng: random.Random, d: int) -> list:
    v = [rng.gauss(0.0, 1.0) for _ in range(d)]
    norm = math.sqrt(sum(x * x for x in v))
    return [x / norm for x in v]


# ---------------------------------------------------------------------------
# catalog-sweep


def catalog_generators(rng: random.Random) -> tuple:
    """G16: the six named generators, seven alphas and three polynomials."""
    named = [fchi.from_spec(n) for n in
             ("kl", "rkl", "jeffreys", "js", "harmonic", "exp")]
    alphas = [fchi.alpha_generator(a) for a in (3, 5, 7, 0.5, -0.5, 2, -3)]
    polys = []
    for degree in (2, 3, 4):
        coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 5))
                  for _ in range(degree)]
        coeffs.append(Fraction(rng.choice((-1, 1)) * rng.randint(1, 6),
                               rng.randint(1, 5)))
        polys.append(fchi.polynomial_generator(coeffs))
    return tuple(named + alphas + polys)


def catalog_sweep(seed: int, n_requests: int = 49) -> list:
    """Small discrete pairs, 2-6 atoms, alternating Fraction and float.

    Float requests run about three times faster than rational ones.  An
    odd count puts the median inside the rational cluster rather than in
    the gap between the two, where it would swing with a single request.
    """
    rng = _rng("catalog-sweep", seed)
    gens = catalog_generators(rng)
    out = []
    for idx in range(n_requests):
        atoms = 2 + (idx // 2) % 5
        wp = [rng.randint(1, 9) for _ in range(atoms)]
        wq = [rng.randint(1, 9) for _ in range(atoms)]
        if idx % 2 == 0:
            pair = _discrete(_rational(wp), _rational(wq))
        else:
            jitter = [w + rng.random() for w in wp], [w + rng.random() for w in wq]
            pair = _discrete(_floats(jitter[0]), _floats(jitter[1]))
        out.append(Request("catalog", pair, CATALOG_K, gens))
    return out


# ---------------------------------------------------------------------------
# deep-orders


def _deep_aef(rng: random.Random) -> list:
    """One pair per closed-form family, plus a trunc_exp pair built to diverge."""
    out = []

    def gauss(d):
        tp = [rng.uniform(-1.0, 1.0) for _ in range(d)]
        gap = rng.uniform(0.2, 0.7)
        u = _unit(rng, d)
        return _aef(fchi.gaussian_iso(d), tp,
                    [a + gap * b for a, b in zip(tp, u)])

    out.append(gauss(1))
    out.append(gauss(3))
    rate = rng.uniform(1.0, 5.0)
    ratio = rng.choice((rng.uniform(0.6, 0.9), rng.uniform(1.1, 1.5)))
    out.append(_aef(fchi.poisson(), [math.log(rate)], [math.log(rate * ratio)]))
    kappa = rng.uniform(0.5, 3.0)
    tp = [kappa * x for x in _unit(rng, 3)]
    gap = rng.uniform(0.2, 0.6)
    out.append(_aef(fchi.vmf(3), tp,
                    [a + gap * b for a, b in zip(tp, _unit(rng, 3))]))
    fam = fchi.trunc_exp(rng.uniform(0.0, 1.0))
    t = rng.uniform(0.5, 2.0)
    out.append(_aef(fam, [t], [t * rng.uniform(1.05, 1.6)]))
    fam = fchi.trunc_exp(0.0, rng.uniform(1.0, 3.0))
    t = rng.uniform(-1.0, 1.0)
    out.append(_aef(fam, [t], [t + rng.choice((-1, 1)) * rng.uniform(0.2, 0.6)]))
    tp = [rng.uniform(-1.0, 1.0) for _ in range(3)]
    out.append(_aef(fchi.categorical(3), tp,
                    [a + rng.uniform(-0.5, 0.5) for a in tp]))
    reqs = [Request("aef", pair, DEEP_AEF_K, _deep_gens(), reference="alpha_aef")
            for pair in out]
    # i*theta_q - (i-1)*theta_p <= 0 from order 1/(1 - theta_q/theta_p) on
    fam = fchi.trunc_exp(rng.uniform(0.0, 1.0))
    t = rng.uniform(0.5, 2.0)
    reqs.append(Request("aef", _aef(fam, [t], [t * rng.uniform(0.5, 0.85)]),
                        DEEP_AEF_K, _deep_gens(), reference="alpha_aef",
                        diverge=True))
    return reqs


def _deep_discrete(rng: random.Random, n: int) -> list:
    out = []
    for j in range(n):
        atoms = min(50, 20 + (30 * j) // max(n - 1, 1) + rng.randint(0, 2))
        wp = [rng.randint(1, 12) for _ in range(atoms)]
        wq = [rng.randint(1, 12) for _ in range(atoms)]
        out.append(Request("discrete", _discrete(_rational(wp), _rational(wq)),
                           DEEP_DISCRETE_K, _deep_gens(),
                           reference="alpha_discrete"))
    return out


def _deep_mixtures(rng: random.Random, n: int) -> list:
    out = []
    for j in range(n):
        comps = 2 + (j // 2) % 2
        k = 12 + 2 * (j % 3)
        weights = _floats([rng.uniform(0.5, 1.5) for _ in range(comps)])
        if j % 2 == 0:
            spread = rng.uniform(0.02, 0.08) if j % 4 == 0 else rng.uniform(0.2, 0.6)
            tp = rng.uniform(-0.5, 0.5)
            thetas = [[tp + rng.uniform(-spread, spread)] for _ in range(comps)]
            pair = _mixture(fchi.gaussian_iso(1), [tp], weights, thetas)
        else:
            rate = rng.uniform(1.0, 4.0)
            thetas = [[math.log(rate * rng.uniform(0.8, 1.25))]
                      for _ in range(comps)]
            pair = _mixture(fchi.poisson(), [math.log(rate)], weights, thetas)
        out.append(Request("mixture", pair, k, _deep_gens(),
                           reference="quadrature_kl"))
    return out


def _deep_conjugates(rng: random.Random, n: int) -> list:
    """Rational pairs with q/p within about 20% of 1, so every conjugate converges."""
    base = tuple(fchi.from_spec(s) for s in ("kl", "js", "exp"))
    out = []
    for j in range(n):
        atoms = 3 + j % 4
        wp = [rng.randint(20, 40) for _ in range(atoms)]
        wq = [w + rng.randint(-w // 10, w // 10) for w in wp]
        out.append(Request("conj", _discrete(_rational(wp), _rational(wq)),
                           DEEP_CONJ_K, base, conjugate=True,
                           reference="reverse_kl"))
    return out


def _deep_gens() -> tuple:
    return tuple(fchi.from_spec(s) for s in ("kl", "js", "alpha:3"))


def _interleave(*groups) -> list:
    out = []
    queues = [list(g) for g in groups]
    while any(queues):
        for q in queues:
            if q:
                out.append(q.pop(0))
    return out


def deep_orders(seed: int, smoke: bool = False) -> list:
    """High-order bases on every chi route, interleaved by route.

    A pass holds 16 aef pairs (two draws of each family, two built to
    diverge), 12 large rational discrete pairs, 12 mixtures and 8
    conjugate requests; smoke mode keeps one request per route.
    """
    rng = _rng("deep-orders", seed)
    if smoke:
        groups = (_deep_aef(rng)[:1], _deep_discrete(rng, 1),
                  _deep_mixtures(rng, 1), _deep_conjugates(rng, 1))
    else:
        groups = (_deep_aef(rng) + _deep_aef(rng), _deep_discrete(rng, 12),
                  _deep_mixtures(rng, 12), _deep_conjugates(rng, 8))
    return _interleave(*groups)


# ---------------------------------------------------------------------------
# cli-cold


def _spec_discrete(p, q) -> str:
    return json.dumps({"kind": "discrete", "p": [str(x) for x in p],
                       "q": [str(x) for x in q]})


def _spec_aef(family, theta_p, theta_q) -> str:
    return json.dumps({"kind": "aef", "family": family, "theta_p": theta_p,
                       "theta_q": theta_q})


def _spec_mixture(family, theta_p, weights, thetas) -> str:
    return json.dumps({"kind": "mixture", "family": family,
                       "theta_p": theta_p, "weights": weights,
                       "thetas": thetas})


def cli_cold(seed: int, workdir: str) -> list:
    """Six CLI commands; ``expand --basis-in`` reads the CSV written by the
    ``batch --basis-out`` right before it."""
    rng = _rng("cli-cold", seed)
    ops = []
    atoms = rng.randint(3, 6)
    p = _rational([rng.randint(1, 9) for _ in range(atoms)])
    q = _rational([rng.randint(1, 9) for _ in range(atoms)])
    ops.append(CliOp(("chi", "--spec", _spec_discrete(p, q),
                      "--orders", f"2..{rng.randint(8, 20)}", "--rational")))

    basis = f"{workdir}/basis.csv"
    if rng.random() < 0.5:
        rate = rng.uniform(1.0, 4.0)
        spec = _spec_aef("poisson", [math.log(rate)],
                         [math.log(rate * rng.uniform(0.7, 0.95))])
    else:
        tp = [rng.uniform(-1.0, 1.0) for _ in range(2)]
        spec = _spec_aef("categorical", tp,
                         [a + rng.uniform(-0.4, 0.4) for a in tp])
    ops.append(CliOp(("batch", "--spec", spec, "--generators",
                      "kl,rkl,jeffreys,js,harmonic,exp,alpha:3,alpha:0.5",
                      "-k", "20", "--basis-out", basis)))
    ops.append(CliOp(("expand", "--basis-in", basis, "--generator",
                      rng.choice(("jeffreys", "rkl", "js")), "-k", "20")))

    weights = _floats([rng.uniform(0.5, 1.5) for _ in range(2)])
    if rng.random() < 0.5:
        rate = rng.uniform(1.0, 4.0)
        mix = _spec_mixture("poisson", [math.log(rate)], weights,
                            [[math.log(rate * rng.uniform(0.8, 1.25))]
                             for _ in range(2)])
    else:
        tp = rng.uniform(-0.5, 0.5)
        mix = _spec_mixture("gaussian_iso", [tp], weights,
                            [[tp + rng.uniform(-0.3, 0.3)] for _ in range(2)])
    ops.append(CliOp(("expand", "--spec", mix, "--generator",
                      rng.choice(("kl", "exp", "harmonic")), "-k",
                      str(rng.randint(10, 12)), "--with-remainder")))

    tp = rng.uniform(-1.0, 1.0)
    ops.append(CliOp(("exact", "--spec",
                      _spec_aef("gaussian_iso", [tp],
                                [tp + rng.uniform(0.2, 1.5)]),
                      "--generator", rng.choice(("kl", "js", "rkl")),
                      "--quadrature")))
    tp = rng.uniform(-0.5, 0.5)
    mix = _spec_mixture("gaussian_iso", [tp], weights,
                        [[tp + rng.uniform(-1.0, 1.0)] for _ in range(2)])
    ops.append(CliOp(("exact", "--spec", mix, "--generator",
                      rng.choice(("kl", "js", "harmonic")), "--quadrature")))
    return ops


def build(workload: str, seed: int, smoke: bool = False, workdir: str = ""):
    if workload == "catalog-sweep":
        return catalog_sweep(seed, 5 if smoke else 49)
    if workload == "deep-orders":
        return deep_orders(seed, smoke)
    if workload == "cli-cold":
        return cli_cold(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}")
