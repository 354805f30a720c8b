"""File format, report determinism, CLI dispatch and exit codes."""

import json
import subprocess
import sys
from fractions import Fraction

import pytest

from ekrlab.cli import dispatch
from ekrlab.errors import FormatError
from ekrlab.io import (
    emit_report,
    format_rational,
    parse_family,
    rational_decimal,
    serialize_family,
)
from ekrlab.constructions import remark_family, star


def test_round_trip_canonicalizes():
    raw = '{"n": 6, "k": 3, "edges": [[3, 2, 1], [2, 4, 6]]}'
    fam = parse_family(raw)
    canonical = serialize_family(fam)
    assert json.loads(canonical) == {"n": 6, "k": 3, "edges": [[1, 2, 3], [2, 4, 6]]}
    assert serialize_family(parse_family(canonical)) == canonical


def test_parse_errors():
    with pytest.raises(FormatError):
        parse_family(b"not json")
    with pytest.raises(FormatError):
        parse_family('{"n": 6, "k": 3}')
    with pytest.raises(FormatError):
        parse_family('{"n": 6, "k": 3, "edges": [[1, 2, 3], [1, 2, 3]]}')
    with pytest.raises(FormatError):
        parse_family('{"n": 6, "k": 3, "edges": [[1, 2]]}')
    with pytest.raises(FormatError):
        parse_family('{"n": 6, "k": 3, "edges": [[1, 2, 9]]}')
    with pytest.raises(FormatError):
        parse_family('{"n": "6", "k": 3, "edges": []}')
    with pytest.raises(FormatError):
        parse_family('{"n": 6, "k": 3, "edges": [[1, 2, 3.5]]}')


def test_rational_rendering():
    assert format_rational(Fraction(60, 7)) == "60/7"
    assert rational_decimal(Fraction(60, 7)) == 8.571428571
    assert format_rational(Fraction(15)) == "15"
    assert format_rational(Fraction(-10, 7)) == "-10/7"


def test_emit_report_deterministic():
    report = {
        "kind": "demo",
        "fields": {"a": 1, "b": "60/7"},
        "columns": ["x", "y"],
        "rows": [{"x": 1, "y": 2}, {"x": 3, "y": 4}],
    }
    for fmt in ("text", "json", "csv"):
        assert emit_report(report, fmt) == emit_report(report, fmt)
    csv = emit_report(report, "csv").decode()
    assert csv.splitlines()[0] == "x,y"
    assert csv.splitlines()[1] == "1,2"


def write_family(tmp_path, name, family):
    path = tmp_path / name
    path.write_bytes(serialize_family(family))
    return str(path)


def test_cli_construct_and_certify(tmp_path, capsys):
    out = str(tmp_path / "star.json")
    assert dispatch(["construct", "star", "--n", "7", "--k", "3", "--out", out]) == 0
    assert dispatch(["certify", "ekr", out]) == 0
    capsys.readouterr()
    # byte-identical reruns
    out2 = str(tmp_path / "star2.json")
    dispatch(["construct", "star", "--n", "7", "--k", "3", "--out", out2])
    assert open(out).read() == open(out2).read()


def test_cli_exit_codes(tmp_path, capsys):
    star_path = write_family(tmp_path, "star.json", star(7, 3, 1))
    remark_path = write_family(tmp_path, "remark.json", remark_family())
    assert dispatch(["certify", "ekr", star_path]) == 0
    assert dispatch(["certify", "ekr", remark_path]) == 2  # n = 2k rejected
    assert dispatch(["spectrum", str(tmp_path / "missing.json")]) == 2
    assert dispatch(["scan", "ekr", "--n", "6", "--k", "3"]) == 2  # n = 2k
    assert dispatch(["scan", "ekr", "--n", "9", "--k", "4"]) == 3  # C(9,4) > 64
    assert dispatch(["scan", "ekr", "--n", "5", "--k", "2"]) == 0
    capsys.readouterr()


def test_cli_spectrum_json(tmp_path, capsys):
    star_path = write_family(tmp_path, "star.json", star(7, 3, 1))
    assert dispatch(["spectrum", star_path, "--full", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    masses = {row["level"]: row["mass"] for row in payload["rows"]}
    assert masses == {0: "45/7", 1: "60/7", 2: "0", 3: "0"}
    eigenvalues = [row["eigenvalue"] for row in payload["rows"]]
    assert eigenvalues == [4, -3, 2, -1]


def test_cli_certify_cross_and_witness(tmp_path, capsys):
    star_path = write_family(tmp_path, "star.json", star(7, 3, 1))
    assert dispatch(["certify", "cross", star_path, star_path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["fields"]["degree_product"] == 25
    assert payload["fields"]["mass_product_bound_equality"] is True
    assert dispatch(["certify", "witness", star_path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["fields"]["lhs"] == "-10/7"
    assert payload["fields"]["equality"] is True


def test_cli_matching_modes(tmp_path, capsys):
    star_path = write_family(tmp_path, "star.json", star(7, 3, 1))
    assert dispatch(["matching", star_path, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["fields"]["matching_number"] == 1
    assert dispatch(["matching", star_path, "--fractional", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["fields"]["objective"] == "1"
    assert dispatch(["matching", star_path, "--cover", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["fields"]["objective"] == "1"
    assert payload["rows"] == [{"vertex": 1, "weight": "1", "weight_decimal": 1.0}]


def test_cli_construct_degree(tmp_path, capsys):
    out = str(tmp_path / "c.json")
    dispatch(["construct", "complete", "--n", "12", "--k", "2", "--out", out])
    assert dispatch(["matching", out, "--construct-degree", "3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["fields"]["trace"].startswith("outside-guarantee")
    capsys.readouterr()


def test_cli_scan_conjecture_deterministic(capsys):
    args = ["scan", "conjecture", "--n", "7", "--k", "3", "--s", "2",
            "--budget", "150", "--seed", "8", "--json"]
    assert dispatch(args) == 0
    first = capsys.readouterr().out
    assert dispatch(args) == 0
    assert capsys.readouterr().out == first
    assert json.loads(first)["fields"]["delta1"] == 5


def test_cli_scan_csv(capsys):
    assert dispatch(["scan", "ekr", "--n", "5", "--k", "2", "--csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "index,edges,delta1,is_star"
    assert len(lines) == 16  # header + 15 families


def test_bad_limit_env_is_a_domain_error(tmp_path, monkeypatch, capsys):
    star_path = write_family(tmp_path, "star.json", star(7, 3, 1))
    monkeypatch.setenv("EKRLAB_LIMIT", "abc")
    assert dispatch(["spectrum", star_path, "--full"]) == 2
    assert "EKRLAB_LIMIT" in capsys.readouterr().err


def test_exit_code_1_on_contradiction(monkeypatch, capsys):
    # a falsification surfaces as exit 1; stage one since real inputs cannot
    from ekrlab import cli
    from ekrlab.errors import ContradictionError

    def boom(n, k, limit=None):
        raise ContradictionError("staged")

    monkeypatch.setattr(cli, "ekr_degree_scan", boom)
    assert dispatch(["scan", "ekr", "--n", "7", "--k", "3"]) == 1
    capsys.readouterr()


def test_console_entry_point(tmp_path):
    out = tmp_path / "fano.json"
    result = subprocess.run(
        [sys.executable, "-m", "ekrlab", "construct", "fano", "--out", str(out)],
        capture_output=True,
    )
    assert result.returncode == 0
    assert json.loads(out.read_text())["n"] == 7
    result = subprocess.run(
        [sys.executable, "-m", "ekrlab", "matching", str(out), "--fractional"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert "7/3" in result.stdout