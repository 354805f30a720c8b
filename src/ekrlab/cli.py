"""Command-line interface: construct, spectrum, certify, matching, scan.

Exit codes: 0 success (and all certified inequalities hold), 1 a verdict
failed or a scan found a counterexample, 2 usage or domain error, 3 a
resource limit was exceeded.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .certificates import cross_certificate, ekr_certificate, simplex_witness
from .constructions import KINDS, build_construction
from .errors import ContradictionError, DomainError, FormatError, ResourceLimitError
from .families import Family, min_degree
from .io import emit_report, parse_family, rational_fields, serialize_family
from .lp import fractional_cover, fractional_matching
from .matching import find_matching_by_degree, matching_number
from .search import conjecture_scan, cross_pair_scan, ekr_degree_scan
from .spectral import eigen_mass_full, kneser_spectrum, level_masses, quadratic_form


def _read_family(path: str) -> Family:
    try:
        with open(path, "rb") as handle:
            return parse_family(handle.read())
    except OSError as exc:
        raise FormatError(f"cannot read '{path}': {exc}") from exc


def _write(data: bytes, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.buffer.write(data)
    else:
        with open(out, "wb") as handle:
            handle.write(data)


def _fmt(args: argparse.Namespace) -> str:
    if getattr(args, "json", False):
        return "json"
    if getattr(args, "csv", False):
        return "csv"
    return "text"


def cmd_construct(args: argparse.Namespace) -> int:
    family = build_construction(
        args.kind, n=args.n, k=args.k, s=args.s, i=args.i,
        center=args.center, seed=args.seed,
    )
    _write(serialize_family(family), args.out)
    return 0


def cmd_spectrum(args: argparse.Namespace) -> int:
    family = _read_family(args.family)
    spectrum = kneser_spectrum(family.n, family.k)
    fields = {"n": family.n, "k": family.k, "edges": family.edge_count}
    rows = [
        {"level": j, "eigenvalue": lam, "multiplicity": mult}
        for j, lam, mult in spectrum.levels
    ]
    if args.full:
        masses = eigen_mass_full(family)
        fields["quadratic_form"] = masses.quad_form
        for row, mass in zip(rows, masses.masses):
            row.update(rational_fields("mass", mass))
        columns = ["level", "eigenvalue", "multiplicity", "mass", "mass_decimal"]
    else:
        fields["quadratic_form"] = quadratic_form(family)
        f0, f1, residual = level_masses(family)
        fields.update(rational_fields("F0", f0))
        fields.update(rational_fields("F1", f1))
        fields.update(rational_fields("residual", residual))
        columns = ["level", "eigenvalue", "multiplicity"]
    report = {"kind": "spectrum", "fields": fields, "columns": columns, "rows": rows}
    _write(emit_report(report, _fmt(args)), args.out)
    return 0


def cmd_certify(args: argparse.Namespace) -> int:
    failed = False
    if args.certificate == "ekr":
        cert = ekr_certificate(_read_family(args.family))
        fields = {
            "n": cert.n, "k": cert.k, "edges": cert.e, "delta1": cert.delta1,
            **rational_fields("F0", cert.f0),
            **rational_fields("F1", cert.f1),
            **rational_fields("residual", cert.residual),
            **rational_fields("mass_lower_bound", cert.lower_bound_rhs),
            "mass_lower_bound_holds": cert.eq4_holds,
            "witness_vertex": cert.witness.vertex,
            **rational_fields("witness_lhs", cert.witness.lhs),
            **rational_fields("witness_rhs_squared", cert.witness.rhs_squared),
            "witness_holds": cert.witness.holds,
            "witness_equality": cert.witness.equality,
            "dichotomy": cert.dichotomy.value,
            "is_star": cert.is_star,
        }
        if cert.upper_bound_rhs is None:
            fields["mass_upper_bound"] = "not-applicable"
            fields["mass_upper_bound_holds"] = "not-applicable"
        else:
            fields.update(rational_fields("mass_upper_bound", cert.upper_bound_rhs))
            fields["mass_upper_bound_holds"] = cert.eq6_holds
        failed = not (cert.eq4_holds and cert.witness.holds and cert.eq6_holds is not False)
        report = {"kind": "ekr-certificate", "fields": fields}
    elif args.certificate == "cross":
        cert = cross_certificate(_read_family(args.left), _read_family(args.right))
        fields = {
            "n": cert.n, "k": cert.k,
            "size_b": cert.size_b, "size_c": cert.size_c,
            "delta1_b": cert.delta1_b, "delta1_c": cert.delta1_c,
            **rational_fields("B1", cert.b1),
            **rational_fields("C1", cert.c1),
            "mass_product_bound_holds": cert.ineq10_holds,
            "mass_product_bound_equality": cert.ineq10_equality,
            "degree_product": cert.delta1_b * cert.delta1_c,
            "degree_product_bound_holds": cert.product_bound_holds,
        }
        failed = not (cert.ineq10_holds and cert.product_bound_holds)
        report = {"kind": "cross-certificate", "fields": fields}
    else:
        witness = simplex_witness(_read_family(args.family))
        fields = {
            "witness_vertex": witness.vertex,
            **rational_fields("lhs", witness.lhs),
            **rational_fields("rhs_squared", witness.rhs_squared),
            "holds": witness.holds,
            "equality": witness.equality,
        }
        failed = not witness.holds
        report = {"kind": "witness-certificate", "fields": fields}
    _write(emit_report(report, _fmt(args)), args.out)
    return 1 if failed else 0


def cmd_matching(args: argparse.Namespace) -> int:
    family = _read_family(args.family)
    if args.fractional or args.cover:
        solution = fractional_cover(family) if args.cover else fractional_matching(family)
        fields = {
            "n": family.n, "k": family.k, "edges": family.edge_count,
            "kind": solution.kind,
            **rational_fields("objective", solution.objective),
        }
        key = "vertex" if solution.kind == "cover" else "edge_rank"
        rows = [
            {key: item, **rational_fields("weight", weight)}
            for item, weight in sorted(solution.weights.items())
            if weight
        ]
        fields["support_size"] = len(rows)
        report = {
            "kind": f"fractional-{solution.kind}",
            "fields": fields,
            "columns": [key, "weight", "weight_decimal"],
            "rows": rows,
        }
    elif args.construct_degree is not None:
        witness, trace = find_matching_by_degree(family, args.construct_degree, strict=False)
        fields = {
            "n": family.n, "k": family.k, "edges": family.edge_count,
            "target_size": args.construct_degree,
            "delta1": min_degree(family, 1),
            "matching": " ".join("{" + ",".join(map(str, e)) + "}" for e in witness.edges),
            "trace": " -> ".join(step["branch"] for step in trace),
        }
        report = {"kind": "degree-constructed-matching", "fields": fields}
    else:
        nu, witness = matching_number(family)
        fields = {
            "n": family.n, "k": family.k, "edges": family.edge_count,
            "matching_number": nu,
            "witness": " ".join("{" + ",".join(map(str, e)) + "}" for e in witness.edges),
        }
        report = {"kind": "matching", "fields": fields}
    _write(emit_report(report, _fmt(args)), args.out)
    return 0


def _scan_report_dict(report) -> dict:
    fields = {**report.parameters, "families_examined": report.families_examined}
    for name, value in report.best.items():
        if isinstance(value, tuple):
            fields[name] = len(value)
        elif isinstance(value, (list, dict)):
            fields[name] = str(value)
        else:
            fields[name] = value
    for name, value in report.notes.items():
        fields[name] = value if not isinstance(value, tuple) else len(value)
    fields["violations"] = len(report.violations)
    return fields


def cmd_scan(args: argparse.Namespace) -> int:
    if args.scan == "ekr":
        report = ekr_degree_scan(args.n, args.k)
        columns = ["index", "edges", "delta1", "is_star"]
        rows = [{"index": i, **rec} for i, rec in enumerate(report.records)]
    elif args.scan == "cross":
        report = cross_pair_scan(args.n, args.k)
        columns = ["left_index", "right_index", "left_star_center", "right_star_center"]
        rows = list(report.best["maximizers"])
    else:
        report = conjecture_scan(args.n, args.k, args.s, args.budget, args.seed)
        columns = ["delta1", "nu", "edges"]
        rows = [
            {"delta1": rec["delta1"], "nu": rec["nu"], "edges": str(rec["edges"])}
            for rec in (list(report.violations) + list(report.notes.get("over_bound_examples", ())))
        ]
    payload = {
        "kind": report.kind,
        "fields": _scan_report_dict(report),
        "columns": columns,
        "rows": rows,
    }
    if _fmt(args) == "json":
        payload["violations"] = [
            {key: str(value) if key == "edges" else value for key, value in v.items()}
            for v in report.violations
        ]
    _write(emit_report(payload, _fmt(args)), args.out)
    return 1 if report.violations else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ekrlab",
        description="Exact certificates, matchings, and extremal scans for "
                    "k-uniform intersecting families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="emit a named family as JSON")
    p.add_argument("kind", choices=KINDS)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--i", type=int)
    p.add_argument("--center", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("spectrum", help="eigenvalues and eigenspace masses")
    p.add_argument("family")
    p.add_argument("--full", action="store_true", help="solve all masses F_0..F_k")
    p.add_argument("--json", action="store_true")
    p.add_argument("--csv", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("certify", help="evaluate an inequality-chain certificate")
    csub = p.add_subparsers(dest="certificate", required=True)
    for name in ("ekr", "witness"):
        cp = csub.add_parser(name)
        cp.add_argument("family")
        cp.add_argument("--json", action="store_true")
        cp.add_argument("--csv", action="store_true")
        cp.add_argument("--out", default=None)
        cp.set_defaults(func=cmd_certify)
    cp = csub.add_parser("cross")
    cp.add_argument("left")
    cp.add_argument("right")
    cp.add_argument("--json", action="store_true")
    cp.add_argument("--csv", action="store_true")
    cp.add_argument("--out", default=None)
    cp.set_defaults(func=cmd_certify)

    p = sub.add_parser("matching", help="exact and fractional matchings")
    p.add_argument("family")
    p.add_argument("--fractional", action="store_true")
    p.add_argument("--cover", action="store_true")
    p.add_argument("--construct-degree", type=int, default=None, metavar="S")
    p.add_argument("--json", action="store_true")
    p.add_argument("--csv", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_matching)

    p = sub.add_parser("scan", help="exhaustive and heuristic extremal scans")
    ssub = p.add_subparsers(dest="scan", required=True)
    for name in ("ekr", "cross"):
        sp = ssub.add_parser(name)
        sp.add_argument("--n", type=int, required=True)
        sp.add_argument("--k", type=int, required=True)
        sp.add_argument("--json", action="store_true")
        sp.add_argument("--csv", action="store_true")
        sp.add_argument("--out", default=None)
        sp.set_defaults(func=cmd_scan)
    sp = ssub.add_parser("conjecture")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--budget", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--csv", action="store_true")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_scan)

    return parser


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (DomainError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except ContradictionError as exc:
        print(f"contradiction: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))
