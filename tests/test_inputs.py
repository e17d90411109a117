"""One input policy: malformed input is refused with InputError naming
the field, and ``fchi.cli.main`` answers every argv with an exit code."""

import contextlib
import io
import json
import math
import os
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fchi.chi import chi_pm, chi_pm_aef
from fchi.cli import main
from fchi.errors import InputError
from fchi.expansion import RatioBounds, converge, remainder_bound
from fchi.families import (
    DiscreteDistribution,
    MixtureSpec,
    categorical,
    gaussian_iso,
    load_pair_spec,
    poisson,
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
from fchi.reference import exact_alpha_aef

WORKED = load_pair_spec(
    '{"kind": "discrete", "p": ["9/10", "1/10"], "q": ["3/10", "7/10"]}')

# an exact integer past float range: float() of it raises OverflowError
HUGE = 10**400


def _aef(**fields):
    spec = {"kind": "aef", "family": "gaussian_iso", "theta_p": [0.0],
            "theta_q": [1.0]}
    return lambda: load_pair_spec({**spec, **fields})


def _envelope(chi_abs_k1):
    return lambda: remainder_bound(kl(), 3, RatioBounds(Fraction(1, 2), 2),
                                   chi_abs_k1=chi_abs_k1)


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
    (lambda: trunc_exp(HUGE), "trunc_exp a"),
    (lambda: DiscreteDistribution([HUGE, "1/2"]), "probabilities"),
    (lambda: DiscreteDistribution([HUGE, 0.5]), "probabilities"),
    (lambda: gaussian_iso(1).theta([HUGE]), "natural parameter"),
    (lambda: MixtureSpec([HUGE], ([0.0],)),
     "mixture weights must lie within float range"),
    (lambda: chi_pm(2, HUGE, load_pair_spec(
        {"kind": "discrete", "p": [0.5, 0.5], "q": [0.25, 0.75]})),
     "anchor lam"),
    (lambda: chi_pm_aef(2, HUGE, poisson(), [1.0], [1.5]), "anchor lam"),
    (lambda: alpha_generator(HUGE), "alpha"),
    (lambda: exact_alpha_aef(HUGE, gaussian_iso(1), [0.0], [1.0]), "alpha"),
    (_envelope(math.nan), "chi_abs_k1"),
    (_envelope(-1.0), "chi_abs_k1"),
    (_envelope(True), "chi_abs_k1"),
    (_envelope("x"), "chi_abs_k1"),
    (_envelope(-math.inf), "chi_abs_k1"),
    (_envelope(Fraction(-1, 3)), "chi_abs_k1"),
])
def test_library_refuses_malformed_input(call, field):
    with pytest.raises(InputError, match=field):
        call()


def _cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _spec(**fields):
    return json.dumps(fields)


@pytest.mark.parametrize("argv, field", [
    (("chi", "--spec", _spec(kind="aef", family="trunc_exp", a=HUGE,
                             theta_p=[2.0], theta_q=[1.5])), "trunc_exp a"),
    (("chi", "--spec", _spec(kind="discrete", p=[HUGE, "1/2"],
                             q=["1/2", "1/2"])), "probabilities"),
    (("chi", "--spec", _spec(kind="aef", family="poisson", theta_p=[HUGE],
                             theta_q=[1.5])), "natural parameter entry"),
    (("chi", "--spec", _spec(kind="mixture", family="poisson", theta_p=[1.0],
                             weights=[HUGE], thetas=[[1.5]])),
     "mixture weights"),
    (("chi", "--spec", _spec(kind="discrete", p=[0.5, 0.5], q=[0.25, 0.75]),
      "--lam", str(HUGE)), "anchor lam"),
    (("chi", "--spec", _spec(kind="aef", family="poisson", theta_p=[1.0],
                             theta_q=[1.5]), "--lam", str(HUGE)),
     "anchor lam"),
    (("exact", "--spec", _spec(kind="aef", family="gaussian_iso",
                               theta_p=[0.0], theta_q=[1.0]),
      "--generator", f"alpha:{HUGE}/1"), "alpha"),
])
def test_cli_refuses_numbers_past_float_range(argv, field):
    if argv[0] == "chi":
        argv += ("--orders", "2")
    code, _, err = _cli(*argv)
    assert code == 2
    assert f"{field} must lie within float range" in err


def test_cli_keeps_exact_values_past_float_range():
    # an exact anchor stays exact on a rational pair, and --true saturates
    spec = _spec(kind="discrete", p=["1/2", "1/2"], q=["1/4", "3/4"])
    half = Fraction(1, 2)
    assert chi_pm(2, HUGE, load_pair_spec(spec)) == \
        half * (half - HUGE) ** 2 + half * (3 * half - HUGE) ** 2
    code, out, _ = _cli("chi", "--spec", spec, "--orders", "2",
                        "--lam", str(HUGE))
    assert (code, out) == (0, "order,chi_pm,provenance\n2,inf,discrete-exact\n")
    code, _, err = _cli("expand", "--spec", spec, "--generator", "kl",
                        "-k", "6", "--true", str(HUGE))
    assert code == 0 and "verdict=" in err


# a basis file row below order 2 used to reach the coefficient streams:
# rkl and jeffreys divided by zero, kl at order 0 too, and jeffreys at
# order 0 added a term with coefficient -1
BASIS_ROWS = "2,1/4\n3,1/10\n4,1/20\n5,1/40\n6,1/80\n"
# stands in argv for the path of a basis file holding a drawn text
BASIS_IN = "<basis file>"


@pytest.mark.parametrize("rows, field", [
    ("1,1/2\n" + BASIS_ROWS, "basis order must be an integer of at least 2"),
    ("0,1\n" + BASIS_ROWS, "basis order must be an integer of at least 2"),
    ("-1,1\n" + BASIS_ROWS, "basis order must be an integer of at least 2"),
    (BASIS_ROWS + "1000000000,0.5\n", "order 7 is missing"),
    ("2,x\n", "bad basis CSV row"),
    ("2,1/0\n", "bad basis CSV row"),
    # a partial sum over this file would read chi_3 and chi_5 as 0
    ("2,1/4\n4,1/20\n6,1/80\n", "order 3 is missing"),
])
@pytest.mark.parametrize("argv", [
    ("expand", "--generator", "rkl"),
    ("expand", "--generator", "kl"),
    ("expand", "--generator", "jeffreys"),
    ("batch", "--generators", "kl,rkl,jeffreys"),
])
def test_cli_refuses_malformed_basis_files(tmp_path, rows, field, argv):
    path = tmp_path / "basis.csv"
    path.write_text("order,chi_pm\n" + rows, encoding="utf-8")
    code, out, err = _cli(*argv, "--basis-in", str(path), "-k", "5")
    assert (code, out) == (2, "")
    assert field in err


# the file runs to order 6, and -k 4 keeps its orders 2..4
@pytest.mark.parametrize("argv, rows", [
    (("expand", "--generator", "kl"), 3),
    (("batch", "--generators", "kl"), 1),
])
def test_cli_cuts_a_basis_file_at_k(tmp_path, argv, rows):
    path = tmp_path / "basis.csv"
    path.write_text("order,chi_pm\n" + BASIS_ROWS, encoding="utf-8")
    code, out, err = _cli(*argv, "--basis-in", str(path), "-k", "4",
                          "--rational")
    lines = out.splitlines()
    assert code == 0 and len(lines) == 1 + rows
    # 1/4 * 1/2 - 1/10 * 1/3 + 1/20 * 1/4
    assert lines[-1].endswith(",5/48")


# ---------------------------------------------------------------------------
# cli.main never raises

odd = st.sampled_from(["x", "", True, False, math.nan, math.inf, -math.inf,
                       None, {}, [], 0, -1, 2.5, 10**400])
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
            argv += ["--basis-in", BASIS_IN]
        if draw(st.booleans()):
            argv += ["--tol", draw(numbers)]
    return argv


basis_texts = st.sampled_from([
    "order,chi_pm\n" + BASIS_ROWS,
    "order,chi_pm\n1,1/2\n" + BASIS_ROWS,
    "order,chi_pm\n0,1\n" + BASIS_ROWS,
    "order,chi_pm\n" + BASIS_ROWS + "65,0.5\n",
    "order,chi_pm\n2,0.5\n6,inf\n",
    "order,chi_pm\n3,1\n2,1\n",
    "order,chi_pm\n2,1/0\n",
    "order,chi_pm\n",
    "chi\n",
])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300)
@given(argvs(), basis_texts)
def test_cli_main_never_raises(argv, basis_text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "basis.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(basis_text)
        argv = [path if a == BASIS_IN else a for a in argv]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 2, 3, 4)
