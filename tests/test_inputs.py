"""One input policy: malformed input is refused with InputError naming
the field, and ``fchi.cli.main`` answers every argv with an exit code."""

import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fchi.cli import main
from fchi.errors import InputError
from fchi.expansion import converge
from fchi.families import (
    DiscreteDistribution,
    MixtureSpec,
    categorical,
    gaussian_iso,
    load_pair_spec,
    trunc_exp,
    vmf,
)
from fchi.generators import (
    alpha_generator,
    conjugate_coeffs,
    conjugate_generator,
    from_spec,
    generalized_binomial,
    kl,
)

WORKED = load_pair_spec(
    '{"kind": "discrete", "p": ["9/10", "1/10"], "q": ["3/10", "7/10"]}')


def _aef(**fields):
    spec = {"kind": "aef", "family": "gaussian_iso", "theta_p": [0.0],
            "theta_q": [1.0]}
    return lambda: load_pair_spec({**spec, **fields})


@pytest.mark.parametrize("call, field", [
    (lambda: conjugate_coeffs(kl(), 4.5), "k_max"),
    (lambda: conjugate_generator(kl(), 3.5), "k_max"),
    (lambda: generalized_binomial(0.5, 2.5), "order i"),
    (lambda: generalized_binomial(0.5, True), "order i"),
    (lambda: kl().deriv_sup(True, 0.5, 2.0), "deriv_sup order"),
    (lambda: alpha_generator(math.nan), "alpha"),
    (lambda: alpha_generator(math.inf), "alpha"),
    (lambda: from_spec("alpha:nan"), "alpha"),
    (lambda: converge(kl(), WORKED, 8, tol=math.nan), "tolerance"),
    (lambda: converge(kl(), WORKED, 8, tol=math.inf), "tolerance"),
    (lambda: converge(kl(), WORKED, 8, exact_value=math.nan), "exact value"),
    (lambda: trunc_exp("x"), "trunc_exp a"),
    (lambda: trunc_exp(True), "trunc_exp a"),
    (lambda: trunc_exp(0.0, "x"), "trunc_exp b"),
    (lambda: gaussian_iso(True), "gaussian_iso d"),
    (lambda: categorical(2.5), "categorical d"),
    (lambda: vmf("3"), "vmf ambient dimension d"),
    (lambda: DiscreteDistribution(5), "probabilities"),
    (lambda: MixtureSpec(5, ([0.0],)), "mixture weights"),
    (lambda: MixtureSpec([1.0], 5), "mixture component parameters"),
    (_aef(family="trunc_exp", a="x", theta_p=[2.0], theta_q=[1.5]),
     "trunc_exp a"),
    (_aef(family="trunc_exp", a=True, theta_p=[2.0], theta_q=[1.5]),
     "trunc_exp a"),
    (_aef(theta_p="abc"), "natural parameter"),
    (_aef(theta_p=[[1.0], [1.0, 2.0]]), "natural parameter"),
    (_aef(d=True), "gaussian_iso d"),
    (_aef(d=False), "gaussian_iso d"),
    (_aef(d=0), "gaussian_iso d"),
    (_aef(family="vmf", d="3", theta_p=[1.0, 0.0, 0.0],
          theta_q=[0.0, 1.0, 0.0]), "vmf ambient dimension d"),
    (_aef(family="vmf", d=2.5, theta_p=[1.0, 0.0], theta_q=[0.0, 1.0]),
     "vmf ambient dimension d"),
    (lambda: load_pair_spec({"kind": "discrete", "p": [0.5, 0.5], "q": 5}),
     "probabilities"),
])
def test_library_refuses_malformed_input(call, field):
    with pytest.raises(InputError, match=field):
        call()


# ---------------------------------------------------------------------------
# cli.main never raises

odd = st.sampled_from(["x", "", True, False, math.nan, math.inf, -math.inf,
                       None, {}, [], 0, -1, 2.5])
reals = st.one_of(st.sampled_from([0.0, 0.5, 1, -1.0, 2, 1e-3]), odd)


def _vector(entries):
    return st.one_of(st.lists(entries, min_size=1, max_size=3), odd)


probs = st.one_of(
    st.sampled_from([["1/2", "1/2"], ["9/10", "1/10"], [0.3, 0.7],
                     ["1/4", "3/4"], [1]]),
    _vector(st.one_of(st.sampled_from(["1/2", 0.5, "1/0"]), reals)),
)
thetas = st.one_of(st.sampled_from([[0.5], [1.0], [2.0], 1.5]),
                   _vector(reals))


@st.composite
def specs(draw):
    kind = draw(st.sampled_from(["discrete", "aef", "mixture", "other", 5]))
    if kind == "discrete":
        return {"kind": kind, "p": draw(probs), "q": draw(probs)}
    spec = {"kind": kind, "theta_p": draw(thetas)}
    spec["family"] = draw(st.sampled_from(
        ["gaussian_iso", "poisson", "categorical", "vmf", "trunc_exp",
         "nope", 3]))
    for key, values in (("d", st.one_of(st.integers(0, 3), odd)),
                        ("a", reals), ("b", reals)):
        if draw(st.booleans()):
            spec[key] = draw(values)
    if kind == "aef":
        spec["theta_q"] = draw(thetas)
    else:
        spec["weights"] = draw(st.one_of(
            st.sampled_from([[1.0], [0.5, 0.5]]), _vector(reals)))
        spec["thetas"] = draw(st.one_of(
            st.sampled_from([[[0.5]], [[0.5], [1.5]]]),
            _vector(thetas)))
    return spec


generators = st.sampled_from(["kl", "exp", "js", "alpha:0.5", "alpha:3",
                              "alpha:nan", "alpha:inf", "alpha:1", "nope"])
numbers = st.sampled_from(["nan", "inf", "-inf", "0", "1e-10", "1/3", "x"])


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["chi", "expand", "batch", "exact"]))
    argv = [command, "--spec", json.dumps(draw(specs()))]
    if command == "chi":
        argv += ["--orders", draw(st.sampled_from(["2", "2..4", "1", "x"])),
                 "--lam", draw(st.sampled_from(["1", "1/2", "nan", "0"]))]
    elif command == "exact":
        argv += ["--generator", draw(generators)]
    else:
        if command == "expand":
            argv += ["--generator", draw(generators)]
            if draw(st.booleans()):
                argv += ["--true", draw(numbers)]
        else:
            argv += ["--generators", ",".join(draw(
                st.lists(generators, min_size=1, max_size=2)))]
        argv += ["-k", draw(st.sampled_from(["4", "6"]))]
        if draw(st.booleans()):
            argv += ["--tol", draw(numbers)]
    return argv


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300)
@given(argvs())
def test_cli_main_never_raises(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) in (0, 2, 3, 4)
