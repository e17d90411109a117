"""Command-line front end.

Four subcommands, all emitting CSV on stdout (or --out FILE) with
numbers at full float precision, so repeated runs are byte-identical:

* ``fchi chi``    chi terms of a pair over a range of orders;
* ``fchi expand`` the truncated expansion of one generator with the
  convergence table and, with --with-remainder, certified remainders;
* ``fchi exact``  a ground-truth value via the exact or quadrature routes;
* ``fchi batch``  many generators against one shared chi basis.

Exit codes: 0 on success, 2 for input problems, 3 when a requested value
provably diverges, 4 when a result saturates beyond float range without
a determinable sign.  The FCHI_MAX_ORDER environment variable (default
64) caps every order accepted on the command line.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from fractions import Fraction
from typing import Optional

from ._num import check_int, format_number
from .chi import ChiBasis, chi_pm_orders, compute_basis, provenance
from .errors import DivergenceError, InputError, OverflowSaturationError
from .expansion import (
    DEFAULT_TOL,
    RatioBounds,
    converge,
    pair_ratio_bounds,
)
from .families import load_pair_spec
from .generators import from_spec
from .reference import (
    exact_alpha_aef,
    exact_f_divergence_discrete,
    quadrature_f_divergence,
)

__all__ = ["main"]

_DEFAULT_MAX_ORDER = 64


def _order_cap() -> int:
    raw = os.environ.get("FCHI_MAX_ORDER", str(_DEFAULT_MAX_ORDER))
    try:
        cap = int(raw)
    except ValueError:
        raise InputError(
            f"FCHI_MAX_ORDER must be an integer, got {raw!r}"
        ) from None
    return check_int(cap, 2, "FCHI_MAX_ORDER")


def _check_order(value: int, label: str) -> int:
    cap = _order_cap()
    if value > cap:
        raise InputError(
            f"{label} {value} exceeds the order cap {cap} "
            f"(raise FCHI_MAX_ORDER to allow it)"
        )
    return check_int(value, 2, label)


def _parse_orders(text: str) -> tuple:
    """'7' means the single order 7; '2..10' means the inclusive range."""
    lo, sep, hi = text.partition("..")
    try:
        first = int(lo)
        last = int(hi) if sep else first
    except ValueError:
        raise InputError(
            f"orders must look like '4' or '2..10', got {text!r}"
        ) from None
    if last < first:
        raise InputError(f"order range {text!r} runs backwards")
    return first, last


def _parse_real(text: str):
    """Exact when the text looks exact: int or a/b stay rational."""
    try:
        if "/" in text:
            return Fraction(text)
        if text.lstrip("+-").isdigit():
            return int(text)
        return float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"cannot parse {text!r} as a number") from exc


def _csv_field(text: str) -> str:
    """Quote a CSV field when it contains a delimiter or quote."""
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


class _Out:
    """stdout or a file, picked once so every writer looks the same."""

    def __init__(self, path: Optional[str]):
        self.path = path

    def __enter__(self):
        if self.path is None:
            return sys.stdout
        try:
            self._fh = open(self.path, "w", encoding="utf-8")
        except OSError as exc:
            raise InputError(f"cannot write {self.path!r}: {exc}") from exc
        return self._fh

    def __exit__(self, *exc_info):
        if self.path is not None:
            self._fh.close()
        return False


def _load_pair(args):
    if args.spec is None:
        raise InputError("this command needs --spec")
    return load_pair_spec(args.spec)


def _read_basis(path: str, need_order: int) -> ChiBasis:
    """The basis file's orders 2..need_order."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            basis = ChiBasis.from_csv(fh)
    except OSError as exc:
        raise InputError(f"cannot read basis {path!r}: {exc}") from exc
    if basis.max_order < need_order:
        raise InputError(
            f"basis file stops at order {basis.max_order}, "
            f"the requested order is {need_order}"
        )
    return replace(basis, orders=basis.orders[:need_order - 1],
                   values=basis.values[:need_order - 1])


def _write_basis(path: str, basis: ChiBasis, rational: bool) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            basis.to_csv(fh, rational=rational)
    except OSError as exc:
        raise InputError(f"cannot write basis {path!r}: {exc}") from exc


def _cmd_chi(args) -> int:
    first, last = _parse_orders(args.orders)
    _check_order(first, "--orders")
    _check_order(last, "--orders")
    lam = _parse_real(args.lam)
    pair = _load_pair(args)
    orders = range(first, last + 1)
    values = chi_pm_orders(orders, lam, pair)
    label = provenance(pair)
    with _Out(args.out) as fh:
        fh.write("order,chi_pm,provenance\n")
        for i, value in zip(orders, values):
            fh.write(f"{i},{format_number(value, args.rational)},{label}\n")
    return 0


def _cmd_expand(args) -> int:
    max_order = _check_order(args.max_order, "--max-order")
    gen = from_spec(args.generator)
    pair = None
    if args.basis_in is not None:
        basis = _read_basis(args.basis_in, max_order)
        if args.spec is not None:
            pair = load_pair_spec(args.spec)
    else:
        pair = _load_pair(args)
        basis = compute_basis(pair, max_order)
    bounds = None
    if args.with_remainder:
        # without a pair there is nothing to bound the density ratio
        # with, and [0, inf] honestly renders every cap as "unbounded"
        bounds = pair_ratio_bounds(pair) if pair is not None \
            else RatioBounds(0.0, math.inf)
    exact_value = None if args.true is None else _parse_real(args.true)
    report = converge(gen, basis, tol=args.tol, bounds=bounds,
                      exact_value=exact_value)
    if args.basis_out is not None:
        _write_basis(args.basis_out, basis, args.rational)
    with _Out(args.out) as fh:
        report.to_csv(fh, rational=args.rational)
    summary = f"verdict={report.verdict}"
    if report.settled_at is not None:
        summary += f" settled_at={report.settled_at}"
    if report.value is not None:
        summary += f" value={format_number(report.value, args.rational)}"
    if report.note:
        summary += f" note={report.note}"
    print(summary, file=sys.stderr)
    return 0


def _cmd_exact(args) -> int:
    gen = from_spec(args.generator)
    pair = _load_pair(args)
    if args.quadrature:
        value, _err = quadrature_f_divergence(gen, pair)
        method = "quadrature"
    elif pair.kind == "discrete":
        value = exact_f_divergence_discrete(gen, pair.p, pair.q)
        method = "exact-discrete"
    elif pair.kind == "aef" and gen.alpha is not None:
        value = exact_alpha_aef(gen.alpha, pair.fam, pair.theta_p,
                                pair.theta_q)
        method = "closed-form-alpha"
    else:
        raise InputError(
            f"no exact route for {pair.describe()} with generator "
            f"{gen.name!r}; pass --quadrature for a numeric value"
        )
    with _Out(args.out) as fh:
        fh.write("generator,value,method\n")
        fh.write(f"{_csv_field(gen.name)},"
                 f"{format_number(value, args.rational)},{method}\n")
    return 0


def _cmd_batch(args) -> int:
    max_order = _check_order(args.max_order, "--max-order")
    # semicolons take over as the separator when present, so specs with
    # embedded commas (poly coefficients) remain expressible
    raw = args.generators
    names = [n for n in (raw.split(";") if ";" in raw else raw.split(",")) if n]
    gens = [from_spec(n) for n in names]
    basis = None
    if args.basis_in is not None:
        basis = _read_basis(args.basis_in, max_order)
    else:
        pair = _load_pair(args)
        if gens or args.basis_out is not None:
            basis = compute_basis(pair, max_order)
    reports = [(g.name, converge(g, basis, tol=args.tol)) for g in gens]
    if args.basis_out is not None and basis is not None:
        _write_basis(args.basis_out, basis, args.rational)
    with _Out(args.out) as fh:
        fh.write("generator,value\n")
        for name, rep in reports:
            value = float("nan") if rep.value is None else rep.value
            fh.write(f"{_csv_field(name)},"
                     f"{format_number(value, args.rational)}\n")
    for name, rep in reports:
        line = f"{name}: verdict={rep.verdict}"
        if rep.settled_at is not None:
            line += f" settled_at={rep.settled_at}"
        if rep.note:
            line += f" note={rep.note}"
        print(line, file=sys.stderr)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fchi",
        description="f-divergences from power chi expansions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, spec_required=True):
        p.add_argument("--spec", required=spec_required,
                       help="pair spec: a JSON file path or an inline JSON object")
        p.add_argument("--out", default=None,
                       help="write CSV here instead of stdout")
        p.add_argument("--rational", action="store_true",
                       help="print exact values as num/den instead of floats")

    p_chi = sub.add_parser("chi", help="chi terms of a pair")
    common(p_chi)
    p_chi.add_argument("--orders", "--order", required=True,
                       help="chi order or inclusive range: '4' or '2..10'")
    p_chi.add_argument("--lam", "--lambda", default="1",
                       help="anchor (default 1; int and a/b stay exact)")
    p_chi.set_defaults(func=_cmd_chi)

    p_exp = sub.add_parser("expand", help="truncated expansion of a generator")
    common(p_exp, spec_required=False)
    p_exp.add_argument("--generator", "--divergence", required=True,
                       help="kl|rkl|jeffreys|js|harmonic|exp|alpha:<a>|poly:<c0,c1,...>")
    p_exp.add_argument("--max-order", "-k", type=int, required=True,
                       help="highest chi order to include")
    p_exp.add_argument("--tol", type=float, default=DEFAULT_TOL,
                       help=f"convergence tolerance (default {DEFAULT_TOL})")
    p_exp.add_argument("--with-remainder", action="store_true",
                       help="add the certified remainder_bound column "
                            "(caps with no finite certificate print as "
                            "'unbounded')")
    p_exp.add_argument("--basis-in", default=None,
                       help="reuse a chi basis CSV instead of computing one")
    p_exp.add_argument("--basis-out", default=None,
                       help="also write the chi basis CSV here")
    p_exp.add_argument("--true", default=None,
                       help="reference value for the abs_error column")
    p_exp.set_defaults(func=_cmd_expand)

    p_ex = sub.add_parser("exact", help="ground-truth value of a pair")
    common(p_ex)
    p_ex.add_argument("--generator", "--divergence", required=True)
    p_ex.add_argument("--quadrature", action="store_true",
                      help="force the numeric integration route")
    p_ex.set_defaults(func=_cmd_exact)

    p_b = sub.add_parser("batch", help="many generators, one shared basis")
    common(p_b, spec_required=False)
    p_b.add_argument("--generators", "--divergences", required=True,
                     help="comma-separated generator specs; use ';' as the "
                          "separator when a spec itself contains commas; an "
                          "empty list emits the header only")
    p_b.add_argument("--max-order", "-k", type=int, default=20)
    p_b.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_b.add_argument("--basis-in", default=None,
                     help="reuse a chi basis CSV instead of computing one")
    p_b.add_argument("--basis-out", default=None,
                     help="also write the chi basis CSV here")
    p_b.set_defaults(func=_cmd_batch)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"fchi: error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"fchi: diverges: {exc}", file=sys.stderr)
        return 3
    except OverflowSaturationError as exc:
        print(f"fchi: saturated: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
