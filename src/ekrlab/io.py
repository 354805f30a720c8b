"""Family file parsing/serialization and deterministic report emission.

The family interchange format is JSON: ``{"n": int, "k": int, "edges":
[[int, ...], ...]}`` with 1-based vertices.  Serialization is canonical
(each edge ascending, edges sorted lexicographically, keys sorted), so
equal families produce byte-identical files.

Reports are plain dicts of the shape ``{"kind", "fields", "columns",
"rows"}``; exact rationals appear as ``"p/q"`` strings next to an advisory
``*_decimal`` field rounded to 10 significant digits.  Emission is
byte-deterministic for all three formats.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import DomainError, FormatError
from .families import Family


def parse_family(data: bytes | str) -> Family:
    """Parse and validate a family file; canonical order is not required."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"family file is not UTF-8: {exc}") from exc
    try:
        payload = json.loads(data)
    except json.JSONDecodeError as exc:
        raise FormatError(f"malformed JSON: {exc}") from exc
    except RecursionError:
        raise FormatError("malformed JSON: nested too deeply") from None
    if not isinstance(payload, dict):
        raise FormatError("family file must be a JSON object")
    for key in ("n", "k", "edges"):
        if key not in payload:
            raise FormatError(f"family file is missing '{key}'")
    n, k, edges = payload["n"], payload["k"], payload["edges"]
    # exact type checks: json reads true and false as bool, a subclass of int
    if type(n) is not int or type(k) is not int:
        raise FormatError("'n' and 'k' must be integers")
    if not isinstance(edges, list) or not all(isinstance(e, list) for e in edges):
        raise FormatError("'edges' must be a list of vertex lists")
    for e in edges:
        if not all(type(v) is int for v in e):
            raise FormatError(f"edge {e} contains a non-integer vertex")
    try:
        return Family.from_edges(n, k, edges)
    except DomainError as exc:
        raise FormatError(str(exc)) from exc


def serialize_family(family: Family) -> bytes:
    """Canonical JSON bytes for a family (stable under parse/serialize)."""
    payload = {
        "n": family.n,
        "k": family.k,
        "edges": [list(e) for e in sorted(family.edge_tuples())],
    }
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


def format_rational(value: Fraction | int) -> str:
    """Exact string form: "p/q", or just "p" for integers."""
    f = Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def rational_decimal(value: Fraction | int) -> float:
    """Advisory decimal approximation with 10 significant digits."""
    return float(f"{float(Fraction(value)):.10g}")


def rational_fields(name: str, value: Fraction | int) -> dict:
    """A rational rendered as the exact string plus its decimal twin."""
    return {name: format_rational(value), f"{name}_decimal": rational_decimal(value)}


def _text_value(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    return str(value)


def emit_report(report: dict, fmt: str = "text") -> bytes:
    """Render a report deterministically as text, JSON, or CSV.

    JSON output sorts keys; CSV uses the report's fixed ``columns`` order
    (falling back to the field names for row-less reports).
    """
    kind = report.get("kind", "report")
    fields = report.get("fields", {})
    columns = report.get("columns")
    rows = report.get("rows")

    if fmt == "json":
        return (json.dumps(report, sort_keys=True, indent=2, default=str) + "\n").encode("utf-8")

    if fmt == "csv":
        lines = []
        if rows is not None and columns:
            lines.append(",".join(columns))
            for row in rows:
                lines.append(",".join(_text_value(row.get(c, "")) for c in columns))
        else:
            names = list(fields)
            lines.append(",".join(names))
            lines.append(",".join(_text_value(fields[c]) for c in names))
        return ("\n".join(lines) + "\n").encode("utf-8")

    if fmt == "text":
        lines = [f"[{kind}]"]
        width = max((len(str(name)) for name in fields), default=0)
        for name, value in fields.items():
            lines.append(f"  {str(name).ljust(width)}  {_text_value(value)}")
        if rows is not None and columns:
            lines.append(f"  rows: {len(rows)} (use --json or --csv for the full table)")
        return ("\n".join(lines) + "\n").encode("utf-8")

    raise DomainError(f"unknown report format '{fmt}'")
