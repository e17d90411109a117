"""End-to-end tests of the command line front end.

All run in-process except TestNoScipy, which needs a fresh interpreter
to see which modules an invocation loads.
"""

import json
import math
import os
import subprocess
import sys
import textwrap
import time
from fractions import Fraction as Fr

import numpy as np
import pytest

import fchi
from fchi._num import format_number
from fchi.chi import chi_pm, chi_pm_discrete
from fchi.cli import main
from fchi.errors import DivergenceError, OverflowSaturationError
from fchi.families import bernoulli, load_pair_spec
from fchi.reference import exact_f_divergence_discrete
from fchi.generators import exponential, kl

WORKED_SPEC = '{"kind": "discrete", "p": ["9/10", "1/10"], "q": ["3/10", "7/10"]}'
GAUSS_SPEC = '{"kind": "aef", "family": "gaussian_iso", "theta_p": [0.0], "theta_q": [1.0]}'
POISSON_SPEC = ('{"kind": "aef", "family": "poisson", "theta_p": [0.0], '
                '"theta_q": [0.6931471805599453]}')
BAD_TRUNC_SPEC = ('{"kind": "aef", "family": "trunc_exp", "a": 0, '
                  '"theta_p": [3.0], "theta_q": [1.0]}')

GAUSS_CHI_2_10 = [
    1.718281828459045,
    13.930691437810532,
    336.3963367707387,
    20186.99437829033,
    3142544.0730946246,
    1.2963817005597024e9,
    1.4357968646042915e12,
    4.298262439031654e15,
    3.489122366600497e19,
]


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def rows_of(out):
    lines = out.strip().split("\n")
    return lines[0], [line.split(",") for line in lines[1:]]


class TestChiCommand:
    def test_gaussian_reference_column(self, capsys):
        code, out, _ = run(capsys, "chi", "--spec", GAUSS_SPEC,
                           "--orders", "2..10")
        assert code == 0
        header, rows = rows_of(out)
        assert header == "order,chi_pm,provenance"
        assert len(rows) == 9
        for row, want in zip(rows, GAUSS_CHI_2_10):
            assert float(row[1]) == pytest.approx(want, rel=1e-9)
            assert row[2] == "aef-closed-form"

    def test_single_order_and_alias(self, capsys):
        code, out, _ = run(capsys, "chi", "--spec", GAUSS_SPEC, "--order", "7")
        assert code == 0
        _, rows = rows_of(out)
        assert len(rows) == 1 and rows[0][0] == "7"

    def test_rational_output_at_shifted_anchor(self, capsys):
        code, out, _ = run(capsys, "chi", "--spec", WORKED_SPEC,
                           "--orders", "4", "--lambda", "1/2", "--rational")
        assert code == 0
        _, rows = rows_of(out)
        want = chi_pm_discrete(4, Fr(1, 2), bernoulli(Fr(9, 10)),
                               bernoulli(Fr(3, 10)))
        assert rows[0][1] == f"{want.numerator}/{want.denominator}"
        assert rows[0][2] == "discrete-exact"

    def test_identical_pair_all_zero(self, capsys):
        spec = '{"kind": "discrete", "p": ["1/3", "2/3"], "q": ["1/3", "2/3"]}'
        code, out, _ = run(capsys, "chi", "--spec", spec, "--orders", "2..8")
        assert code == 0
        _, rows = rows_of(out)
        assert len(rows) == 7
        assert all(row[1] == "0" for row in rows)

    def test_poisson_order_two_value(self, capsys):
        code, out, _ = run(capsys, "chi", "--spec", POISSON_SPEC,
                           "--orders", "2")
        assert code == 0
        _, rows = rows_of(out)
        assert float(rows[0][1]) == pytest.approx(math.e - 1.0, rel=1e-12)

    def test_float_fields_round_trip(self, capsys):
        code, out, _ = run(capsys, "chi", "--spec", GAUSS_SPEC,
                           "--orders", "2..6")
        _, rows = rows_of(out)
        from fchi.chi import chi_pm
        from fchi.families import load_pair_spec
        pair = load_pair_spec(GAUSS_SPEC)
        for row in rows:
            assert float(row[1]) == chi_pm(int(row[0]), 1, pair)

    def test_one_builder_pass(self, capsys, monkeypatch):
        fam = load_pair_spec(GAUSS_SPEC).fam
        calls = 0
        real = type(fam).log_normalizer

        def counted(self, theta):
            nonlocal calls
            calls += 1
            return real(self, theta)

        monkeypatch.setattr(type(fam), "log_normalizer", counted)
        code, out, _ = run(capsys, "chi", "--spec", GAUSS_SPEC,
                           "--orders", "2..64")
        assert code == 0
        # one moment per order, as compute_basis forms them
        assert calls <= 64 + 2
        monkeypatch.undo()
        pair = load_pair_spec(GAUSS_SPEC)
        _, rows = rows_of(out)
        assert [row[1] for row in rows] == [
            format_number(chi_pm(i, 1, pair)) for i in range(2, 65)]

    def test_divergence_names_the_first_failing_order(self, capsys):
        # 1.5 i - 2 (i - 1) > 0 holds for orders below 4 only
        spec = ('{"kind": "aef", "family": "trunc_exp", "a": 0, '
                '"theta_p": [2.0], "theta_q": [1.5]}')
        with pytest.raises(DivergenceError) as exc:
            chi_pm(4, 1, load_pair_spec(spec))
        code, out, err = run(capsys, "chi", "--spec", spec, "--orders", "2..8")
        assert (code, out) == (3, "")
        assert err == f"fchi: diverges: {exc.value}\n"

    def test_byte_determinism(self, capsys):
        a = run(capsys, "chi", "--spec", GAUSS_SPEC, "--orders", "2..10")
        b = run(capsys, "chi", "--spec", GAUSS_SPEC, "--orders", "2..10")
        assert a == b

    def test_backwards_range_rejected(self, capsys):
        code, _, err = run(capsys, "chi", "--spec", GAUSS_SPEC,
                           "--orders", "10..2")
        assert code == 2
        assert "runs backwards" in err

    def test_unparseable_orders_rejected(self, capsys):
        code, _, err = run(capsys, "chi", "--spec", GAUSS_SPEC,
                           "--orders", "abc")
        assert code == 2
        assert "orders must look like" in err

    def test_order_below_two_rejected(self, capsys):
        code, _, err = run(capsys, "chi", "--spec", GAUSS_SPEC,
                           "--orders", "1..5")
        assert code == 2

    def test_zero_anchor_rejected(self, capsys):
        code, _, err = run(capsys, "chi", "--spec", WORKED_SPEC,
                           "--orders", "3", "--lam", "0")
        assert code == 2

    def test_nan_interval_end_rejected(self, capsys):
        spec = ('{"kind": "aef", "family": "trunc_exp", "a": 0, "b": NaN, '
                '"theta_p": [2.0], "theta_q": [1.5]}')
        code, out, err = run(capsys, "chi", "--spec", spec, "--orders", "2")
        assert code == 2
        assert out == ""
        assert "b=nan" in err

    @pytest.mark.parametrize("argv", [
        ["chi", "--orders", "2..3"],
        ["exact", "--generator", "kl", "--quadrature"],
        ["batch", "--generators", "kl,js"],
    ])
    @pytest.mark.parametrize("spec", [
        '{"kind": "discrete", "p": [NaN, 1.0], "q": [0.5, 0.5]}',
        ('{"kind": "mixture", "family": "gaussian_iso", "theta_p": [0.0], '
         '"weights": [NaN, 1.0], "thetas": [[0.0], [1.0]]}'),
        ('{"kind": "mixture", "family": "gaussian_iso", "theta_p": [0.0], '
         '"weights": [true], "thetas": [[1.0]]}'),
    ])
    def test_nan_or_bool_probabilities_rejected(self, capsys, argv, spec):
        code, out, err = run(capsys, argv[0], "--spec", spec, *argv[1:])
        assert code == 2
        assert out == ""
        assert "fchi: error:" in err

    def test_over_the_composition_budget_exits_2(self, capsys):
        spec = ('{"kind": "mixture", "family": "gaussian_iso", "theta_p": '
                '[0.0], "weights": [0.2, 0.2, 0.2, 0.2, 0.2], "thetas": '
                '[[-0.4], [-0.2], [0.1], [0.3], [0.5]]}')
        t0 = time.perf_counter()
        code, out, err = run(capsys, "batch", "--spec", spec,
                             "--generators", "kl", "-k", "20")
        assert time.perf_counter() - t0 < 1.0
        assert code == 2
        assert out == ""
        assert "composition budget" in err

    def test_malformed_spec_rejected(self, capsys):
        code, _, err = run(capsys, "chi", "--spec", '{"kind": "discrete"}',
                           "--orders", "2")
        assert code == 2
        assert "error" in err

    def test_divergent_chi_exits_three(self, capsys):
        code, _, err = run(capsys, "chi", "--spec", BAD_TRUNC_SPEC,
                           "--orders", "2..4")
        assert code == 3
        assert "diverges" in err
        # the message names the violated convergence condition
        assert "theta_q" in err and "theta_p" in err

    def test_saturation_exits_four(self, capsys, monkeypatch):
        def boom(orders, lam, pair):
            raise OverflowSaturationError("sign lost beyond float range")
        monkeypatch.setattr("fchi.cli.chi_pm_orders", boom)
        code, _, err = run(capsys, "chi", "--spec", WORKED_SPEC,
                           "--orders", "2")
        assert code == 4
        assert "saturated" in err


class TestExpandCommand:
    def test_worked_example_table(self, capsys):
        code, out, err = run(capsys, "expand", "--spec", WORKED_SPEC,
                             "--divergence", "exp", "-k", "30")
        assert code == 0
        header, rows = rows_of(out)
        assert header == "k,term,partial_sum"
        assert len(rows) == 29
        assert float(rows[0][2]) == pytest.approx(5.436563656918093,
                                                  rel=1e-12)
        assert float(rows[-1][2]) == pytest.approx(108.20108519691063,
                                                   rel=1e-12)
        assert "verdict=converging" in err
        assert "settled_at=30" in err

    def test_remainder_column(self, capsys):
        code, out, _ = run(capsys, "expand", "--spec", WORKED_SPEC,
                           "--generator", "exp", "-k", "10",
                           "--with-remainder")
        assert code == 0
        header, rows = rows_of(out)
        assert header == "k,term,partial_sum,remainder_bound"
        assert all(float(row[3]) > 0 for row in rows)

    def test_true_value_column(self, capsys):
        code, out, _ = run(capsys, "expand", "--spec", WORKED_SPEC,
                           "--generator", "exp", "-k", "30",
                           "--true", "108.20108519696437")
        assert code == 0
        header, rows = rows_of(out)
        assert header == "k,term,partial_sum,abs_error"
        assert float(rows[-1][3]) < 1e-9

    def test_polynomial_partials_are_constant(self, capsys):
        code, out, _ = run(capsys, "expand", "--spec", WORKED_SPEC,
                           "--divergence", "poly:1,-2,1", "-k", "5",
                           "--rational")
        assert code == 0
        _, rows = rows_of(out)
        sums = {row[2] for row in rows}
        assert len(sums) == 1
        assert "/" in rows[0][2]

    def test_diverging_series_still_exits_zero(self, capsys):
        code, _, err = run(capsys, "expand", "--spec", GAUSS_SPEC,
                           "--divergence", "js", "-k", "20")
        assert code == 0
        assert "verdict=diverging" in err

    def test_tighter_tol_reports_inconclusive(self, capsys):
        code, _, err = run(capsys, "expand", "--spec", WORKED_SPEC,
                           "--divergence", "exp", "-k", "30",
                           "--tol", "1e-12")
        assert code == 0
        assert "verdict=inconclusive" in err

    def test_basis_round_trip_is_byte_identical(self, capsys, tmp_path):
        basis_file = str(tmp_path / "basis.csv")
        first = run(capsys, "expand", "--spec", WORKED_SPEC,
                    "--generator", "harmonic", "-k", "12", "--rational",
                    "--basis-out", basis_file)
        assert first[0] == 0
        again = run(capsys, "expand", "--basis-in", basis_file,
                    "--generator", "harmonic", "-k", "12", "--rational")
        assert again[0] == 0
        assert again[1] == first[1]
        with open(basis_file, encoding="utf-8") as fh:
            assert fh.readline().strip() == "order,chi_pm"

    def test_basis_without_pair_renders_unbounded(self, capsys, tmp_path):
        basis_file = str(tmp_path / "basis.csv")
        run(capsys, "expand", "--spec", WORKED_SPEC, "--generator", "exp",
            "-k", "8", "--basis-out", basis_file)
        code, out, _ = run(capsys, "expand", "--basis-in", basis_file,
                           "--generator", "exp", "-k", "8",
                           "--with-remainder")
        assert code == 0
        _, rows = rows_of(out)
        assert all(row[3] == "unbounded" for row in rows)

    def test_short_basis_file_rejected(self, capsys, tmp_path):
        basis_file = str(tmp_path / "basis.csv")
        run(capsys, "expand", "--spec", WORKED_SPEC, "--generator", "exp",
            "-k", "6", "--basis-out", basis_file)
        code, _, err = run(capsys, "expand", "--basis-in", basis_file,
                           "--generator", "exp", "-k", "12")
        assert code == 2
        assert "stops at order 6" in err

    def test_unknown_generator_rejected(self, capsys):
        code, _, err = run(capsys, "expand", "--spec", WORKED_SPEC,
                           "--divergence", "nope", "-k", "6")
        assert code == 2


class TestExactCommand:
    def test_discrete_kl(self, capsys):
        code, out, _ = run(capsys, "exact", "--spec", WORKED_SPEC,
                           "--divergence", "kl")
        assert code == 0
        header, rows = rows_of(out)
        assert header == "generator,value,method"
        want = exact_f_divergence_discrete(
            kl(), bernoulli(Fr(9, 10)), bernoulli(Fr(3, 10)))
        assert float(rows[0][1]) == pytest.approx(float(want), rel=1e-15)
        assert rows[0][2] == "exact-discrete"

    def test_worked_exponential_value(self, capsys):
        code, out, _ = run(capsys, "exact", "--spec", WORKED_SPEC,
                           "--divergence", "exp")
        _, rows = rows_of(out)
        assert float(rows[0][1]) == pytest.approx(108.20108519696437,
                                                  rel=1e-12)

    def test_alpha_closed_form_route(self, capsys):
        code, out, _ = run(capsys, "exact", "--spec", POISSON_SPEC,
                           "--divergence", "alpha:3")
        assert code == 0
        _, rows = rows_of(out)
        assert rows[0][2] == "closed-form-alpha"

    def test_expand_agrees_with_exact_for_alpha3(self, capsys):
        # the alpha = 3 coefficient stream stops at order 2, so the
        # truncated expansion IS the closed-form value
        _, out_exact, _ = run(capsys, "exact", "--spec", POISSON_SPEC,
                              "--divergence", "alpha:3")
        _, rows_exact = rows_of(out_exact)
        _, out_exp, _ = run(capsys, "expand", "--spec", POISSON_SPEC,
                            "--divergence", "alpha:3", "-k", "6")
        _, rows_exp = rows_of(out_exp)
        assert float(rows_exp[-1][2]) == pytest.approx(
            float(rows_exact[0][1]), rel=1e-12)

    def test_quadrature_route(self, capsys):
        code, out, _ = run(capsys, "exact", "--spec", GAUSS_SPEC,
                           "--divergence", "kl", "--quadrature")
        assert code == 0
        _, rows = rows_of(out)
        assert float(rows[0][1]) == pytest.approx(0.5, rel=1e-9)
        assert rows[0][2] == "quadrature"

    def test_quadrature_alpha_past_float_range_is_inf(self, capsys):
        code, out, _ = run(capsys, "exact", "--spec", BAD_TRUNC_SPEC,
                           "--generator", "alpha:3", "--quadrature")
        assert code == 0
        assert out == "generator,value,method\nalpha:3,inf,quadrature\n"

    def test_quadrature_over_the_atom_budget_exits_2(self, capsys):
        spec = ('{"kind": "aef", "family": "poisson", '
                f'"theta_p": [{math.log(1e9)!r}], '
                f'"theta_q": [{math.log(1e9)!r}]}}')
        t0 = time.perf_counter()
        code, out, err = run(capsys, "exact", "--spec", spec,
                             "--generator", "kl", "--quadrature")
        assert time.perf_counter() - t0 < 1.0
        assert code == 2
        assert out == ""
        assert "budget" in err

    def test_no_exact_route_suggests_quadrature(self, capsys):
        code, _, err = run(capsys, "exact", "--spec", GAUSS_SPEC,
                           "--divergence", "js")
        assert code == 2
        assert "--quadrature" in err

    def test_rational_value(self, capsys):
        import csv
        import io
        code, out, _ = run(capsys, "exact", "--spec", WORKED_SPEC,
                           "--divergence", "poly:1,-2,1", "--rational")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[1][0] == "poly:1,-2,1"
        assert rows[1][1] == "4/1"


class TestBatchCommand:
    def test_eight_generators_one_basis(self, capsys):
        gens = "kl,rkl,jeffreys,js,harmonic,exp,alpha:3,alpha:5"
        code, out, err = run(capsys, "batch", "--spec", WORKED_SPEC,
                             "--generators", gens, "-k", "12")
        assert code == 0
        header, rows = rows_of(out)
        assert header == "generator,value"
        assert [row[0] for row in rows] == gens.split(",")
        assert err.count("verdict=") == 8

    def test_matches_library_batch(self, capsys):
        from fchi.expansion import batch_evaluate
        from fchi.families import load_pair_spec
        from fchi.generators import from_spec
        names = ["kl", "js", "exp"]
        code, out, _ = run(capsys, "batch", "--spec", WORKED_SPEC,
                           "--generators", ",".join(names), "-k", "10")
        _, rows = rows_of(out)
        reports = batch_evaluate(load_pair_spec(WORKED_SPEC),
                                 [from_spec(n) for n in names], 10,
                                 derive_bounds=False)
        for row in rows:
            assert float(row[1]) == pytest.approx(
                float(reports[row[0]].value), rel=1e-15)

    def test_semicolon_separator_and_quoting(self, capsys):
        code, out, _ = run(capsys, "batch", "--spec", WORKED_SPEC,
                           "--generators", "kl;poly:1,-2,1;js", "-k", "8")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 4
        assert lines[2].startswith('"poly:1,-2,1",')

    def test_empty_generator_list(self, capsys):
        code, out, err = run(capsys, "batch", "--spec", WORKED_SPEC,
                             "--generators", "")
        assert code == 0
        assert out == "generator,value\n"

    def test_divergent_basis_exits_three(self, capsys):
        code, _, err = run(capsys, "batch", "--spec", BAD_TRUNC_SPEC,
                           "--generators", "kl,js", "-k", "6")
        assert code == 3
        assert "diverges" in err

    def test_basis_round_trip(self, capsys, tmp_path):
        basis_file = str(tmp_path / "b.csv")
        first = run(capsys, "batch", "--spec", WORKED_SPEC,
                    "--generators", "kl,harmonic", "-k", "10",
                    "--rational", "--basis-out", basis_file)
        again = run(capsys, "batch", "--basis-in", basis_file,
                    "--generators", "kl,harmonic", "-k", "10", "--rational")
        assert first[0] == again[0] == 0
        assert first[1] == again[1]

    def test_divergences_alias(self, capsys):
        code, out, _ = run(capsys, "batch", "--spec", WORKED_SPEC,
                           "--divergences", "kl", "-k", "8")
        assert code == 0


class TestBeyondFloatRange:
    # chi terms of this pair pass float range from order 56 on
    SPEC = ('{"kind": "discrete", "p": ["1/1000000", "999999/1000000"], '
            '"q": ["1/2", "1/2"]}')

    def test_chi_prints_inf_or_the_fraction(self, capsys):
        code, out, _ = run(capsys, "chi", "--spec", self.SPEC,
                           "--orders", "60")
        assert code == 0
        assert out == "order,chi_pm,provenance\n60,inf,discrete-exact\n"
        code, out, _ = run(capsys, "chi", "--spec", self.SPEC,
                           "--orders", "60", "--rational")
        assert code == 0
        pair = load_pair_spec(self.SPEC)
        want = chi_pm_discrete(60, 1, pair.p, pair.q)
        assert out.splitlines()[1] == (
            f"60,{want.numerator}/{want.denominator},discrete-exact")

    @pytest.mark.parametrize("argv, verdicts, kl_row", [
        (["expand", "--generator", "kl"], 1, -1),
        (["batch", "--generators", "kl,exp"], 2, 1),
    ])
    def test_expansions_report_diverging(self, capsys, argv, verdicts,
                                         kl_row):
        code, out, err = run(capsys, *argv, "--spec", self.SPEC, "-k", "60")
        assert code == 0
        assert err.count("verdict=diverging") == verdicts
        assert err.count("note=order-56 term is non-finite") == verdicts
        assert out.splitlines()[kl_row].endswith(",inf")
        # kl on an exact basis sums exactly; --rational prints the sum
        code, out, _ = run(capsys, *argv, "--spec", self.SPEC, "-k", "60",
                           "--rational")
        assert code == 0
        assert "/" in out.splitlines()[kl_row].rsplit(",", 1)[1]


def test_exact_discrete_budget_exits_2(capsys):
    rng = np.random.default_rng(7)
    counts = rng.integers(1, 10 ** 6, size=(2, 300))
    spec = json.dumps({"kind": "discrete", **{
        name: [f"{c}/{w.sum()}" for c in w] for name, w in zip("pq", counts)}})
    t0 = time.perf_counter()
    code, out, err = run(capsys, "batch", "--spec", spec,
                         "--generators", "kl", "-k", "64")
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert out == ""
    assert "exact discrete budget" in err


class TestOrderCap:
    def test_default_cap_is_sixty_four(self, capsys, monkeypatch):
        monkeypatch.delenv("FCHI_MAX_ORDER", raising=False)
        code, _, err = run(capsys, "chi", "--spec", WORKED_SPEC,
                           "--orders", "2..65")
        assert code == 2
        assert "order cap 64" in err
        assert "FCHI_MAX_ORDER" in err

    def test_cap_can_be_raised(self, capsys, monkeypatch):
        monkeypatch.setenv("FCHI_MAX_ORDER", "80")
        code, out, _ = run(capsys, "chi", "--spec", WORKED_SPEC,
                           "--orders", "70..70")
        assert code == 0

    def test_cap_can_be_lowered(self, capsys, monkeypatch):
        monkeypatch.setenv("FCHI_MAX_ORDER", "10")
        code, _, err = run(capsys, "expand", "--spec", WORKED_SPEC,
                           "--generator", "kl", "-k", "12")
        assert code == 2
        assert "order cap 10" in err

    @pytest.mark.parametrize("raw", ["abc", "1", "-5"])
    def test_invalid_cap_rejected(self, capsys, monkeypatch, raw):
        monkeypatch.setenv("FCHI_MAX_ORDER", raw)
        code, _, err = run(capsys, "chi", "--spec", WORKED_SPEC,
                           "--orders", "2")
        assert code == 2
        assert "FCHI_MAX_ORDER" in err


class TestOutputTarget:
    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "chi.csv"
        code, out, _ = run(capsys, "chi", "--spec", GAUSS_SPEC,
                           "--orders", "2..4", "--out", str(target))
        assert code == 0
        assert out == ""
        text = target.read_text(encoding="utf-8")
        assert text.startswith("order,chi_pm,provenance\n")
        assert len(text.strip().split("\n")) == 4

    def test_unwritable_out_rejected(self, capsys):
        code, _, err = run(capsys, "chi", "--spec", GAUSS_SPEC,
                           "--orders", "2", "--out",
                           "/nonexistent-dir/x.csv")
        assert code == 2
        assert "cannot write" in err

    def test_missing_spec_file(self, capsys):
        code, _, err = run(capsys, "chi", "--spec", "/no/such/spec.json",
                           "--orders", "2")
        assert code == 2
        assert "cannot read spec file" in err


class TestNoScipy:
    """No command loads scipy or numpy, the quadrature routes included."""

    CHILD = textwrap.dedent("""
        import contextlib, io, sys
        import fchi
        print("numpy" in sys.modules)
        from fchi.cli import main
        gauss, worked = sys.argv[1:]
        with contextlib.redirect_stdout(io.StringIO()), \\
                contextlib.redirect_stderr(io.StringIO()):
            codes = [
                main(["chi", "--spec", gauss, "--orders", "2..6"]),
                main(["batch", "--spec", worked, "--generators", "kl,js,exp",
                      "-k", "10"]),
                main(["expand", "--spec", worked, "--generator", "exp",
                      "-k", "10", "--with-remainder"]),
            ]
        print(codes, "scipy" in sys.modules, "numpy" in sys.modules)
        main(["exact", "--spec", gauss, "--generator", "kl", "--quadrature"])
        print("scipy" in sys.modules, "numpy" in sys.modules)
    """)

    def test_no_command_imports_scipy(self):
        pkg_root = os.path.dirname(os.path.dirname(fchi.__file__))
        path = [pkg_root, os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        proc = subprocess.run(
            [sys.executable, "-c", self.CHILD, GAUSS_SPEC, WORKED_SPEC],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (
            "False\n"
            "[0, 0, 0] False False\n"
            "generator,value,method\n"
            "kl,0.5,quadrature\n"
            "False False\n"
        )
