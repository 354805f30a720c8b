"""File format, report determinism, CLI dispatch and exit codes."""

import json
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ekrlab.cli import dispatch
from ekrlab.errors import FormatError, ResourceLimitError
from ekrlab.families import Family, binomial
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


def test_cli_rejects_negative_conjecture_budget(capsys):
    argv = ["scan", "conjecture", "--n", "9", "--k", "2", "--s", "3", "--budget"]
    assert dispatch(argv + ["-5"]) == 2
    assert "budget" in capsys.readouterr().err
    assert dispatch(argv + ["0"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("text", [
    '{"n": 4, "k": 2, "edges": [[true, 2], [3, 4]]}',
    '{"n": true, "k": 1, "edges": []}',
    '{"n": 4, "k": false, "edges": []}',
])
def test_cli_rejects_json_booleans(tmp_path, capsys, text):
    # Python reads JSON true/false as ints; a file that uses them is malformed
    path = tmp_path / "bool.json"
    path.write_text(text)
    with pytest.raises(FormatError):
        parse_family(text)
    assert dispatch(["matching", str(path)]) == 2
    assert "integer" in capsys.readouterr().err


def test_cli_rejects_deeply_nested_json(tmp_path, capsys):
    # json.loads raises RecursionError here; that must be exit 2, not a traceback
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert dispatch(["matching", str(path)]) == 2
    assert "nested too deeply" in capsys.readouterr().err


def test_cli_construct_degree_rejects_negative_size(tmp_path, capsys):
    path = write_family(tmp_path, "star.json", star(9, 2, 1))
    assert dispatch(["matching", path, "--construct-degree", "-2"]) == 2
    assert "nonnegative" in capsys.readouterr().err
    assert dispatch(["matching", path, "--construct-degree", "0"]) == 0
    assert "empty" in capsys.readouterr().out


@st.composite
def any_families(draw):
    n = draw(st.integers(min_value=0, max_value=12))
    k = draw(st.integers(min_value=0, max_value=min(n, 4)))
    ranks = draw(st.sets(st.integers(min_value=0, max_value=binomial(n, k) - 1), max_size=20))
    return Family.from_ranks(n, k, sum(1 << r for r in ranks))


@settings(max_examples=100, deadline=None)
@given(any_families())
def test_parse_serialize_round_trip_property(fam):
    data = serialize_family(fam)
    back = parse_family(data)
    assert back == fam
    assert serialize_family(back) == data


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


@pytest.mark.parametrize("flags", [
    ["--fractional", "--cover"],
    ["--fractional", "--construct-degree", "2"],
    ["--cover", "--construct-degree", "2"],
])
def test_cli_conflicting_matching_modes_are_usage_errors(tmp_path, capsys, flags):
    star_path = write_family(tmp_path, "star.json", star(7, 3, 1))
    with pytest.raises(SystemExit) as exc:
        dispatch(["matching", star_path, *flags])
    assert exc.value.code == 2
    assert "not allowed with" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["spectrum", "{f}"],
    ["certify", "ekr", "{f}"],
    ["matching", "{f}"],
    ["certify", "cross", "{f}", "{f}"],
    ["scan", "conjecture", "--n", "7", "--k", "3", "--s", "2"],
])
def test_cli_json_and_csv_together_are_a_usage_error(tmp_path, capsys, command):
    star_path = write_family(tmp_path, "star.json", star(7, 3, 1))
    argv = [arg.format(f=star_path) for arg in command]
    with pytest.raises(SystemExit) as exc:
        dispatch(argv + ["--json", "--csv"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


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


def test_out_of_memory_input_exits_3(tmp_path, capsys):
    # the one edge {31..60} has colex rank C(60,30) - 1, so its bitset
    # could not be allocated; the C(n,k) gate refuses it before any shift
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": 60, "k": 30, "edges": [list(range(31, 61))]}))
    assert dispatch(["spectrum", str(path)]) == 3
    assert capsys.readouterr().err == (
        "resource limit: C(n,k) = C(60,30) = 118264581564861424 k-sets exceed "
        "FAMILY_KSET_LIMIT = 16777216\n"
    )


def test_one_edge_file_above_the_kset_limit_exits_3(tmp_path, monkeypatch, capsys):
    # C(30,15) = 155117520 k-sets: a 19 MB bitset without the gate; the
    # EKRLAB_LIMIT override does not reach the gate
    monkeypatch.setenv("EKRLAB_LIMIT", str(10 ** 12))
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"n": 30, "k": 15, "edges": [list(range(16, 31))]}))
    assert dispatch(["spectrum", str(path)]) == 3
    assert "FAMILY_KSET_LIMIT" in capsys.readouterr().err
    with pytest.raises(ResourceLimitError):
        Family.from_edges(30, 15, [])


def test_memory_error_exits_3(monkeypatch, capsys):
    # stage the allocation failure; real inputs that big now meet the gate
    from ekrlab import cli

    def boom(n, k, limit=None):
        raise MemoryError

    monkeypatch.setattr(cli, "ekr_degree_scan", boom)
    assert dispatch(["scan", "ekr", "--n", "7", "--k", "3"]) == 3
    assert capsys.readouterr().err == "resource limit: out of memory\n"


def test_spectral_self_check_is_a_contradiction(tmp_path, monkeypatch, capsys):
    # a negative eigenspace mass surfaces as exit 1, not a traceback
    from ekrlab import spectral

    original = spectral._masses

    def negative(n, k, sums):
        return [Fraction(-1)] + original(n, k, sums)[1:]

    monkeypatch.setattr(spectral, "_masses", negative)
    star_path = write_family(tmp_path, "star.json", star(7, 3, 1))
    assert dispatch(["spectrum", star_path, "--full"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("contradiction: negative eigenspace mass")
    assert "Traceback" not in err


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


def test_import_does_not_load_numpy():
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, ekrlab; assert 'numpy' not in sys.modules, 'numpy loaded'"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr


def test_library_source_imports_no_numpy_or_scipy():
    # numpy and scipy serve the test oracles only; the library stays exact
    import ast
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src" / "ekrlab"
    files = sorted(src.glob("*.py"))
    assert files
    found = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            found += [(path.name, name) for name in names
                      if name.split(".")[0] in ("numpy", "scipy")]
    assert not found
