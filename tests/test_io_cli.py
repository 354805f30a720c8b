"""File format, report determinism, CLI dispatch and exit codes."""

import contextlib
import csv
import io
import json
import resource
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from ekrlab import limits
from ekrlab.cli import dispatch
from ekrlab.errors import DomainError, FormatError, ResourceLimitError
from ekrlab.families import Family, binomial, kset_count
from ekrlab.io import (
    emit_report,
    format_rational,
    parse_family,
    rational_decimal,
    serialize_family,
)
from ekrlab.constructions import KINDS, complete, erdos_extremal, hilton_milner, remark_family, star

from conftest import small_families


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


@pytest.mark.parametrize("report", [
    {"kind": "demo", "fields": {"n": 1, "note": 'a, "b"\nc'}},
    {"kind": "demo", "fields": {}, "columns": ["n", "note"],
     "rows": [{"n": 1, "note": 'a, "b"\nc'}]},
], ids=["fields", "rows"])
def test_emit_report_csv_quotes_commas_quotes_and_newlines(report):
    text = emit_report(report, "csv").decode()
    assert list(csv.DictReader(io.StringIO(text, newline=""))) == [{"n": "1", "note": 'a, "b"\nc'}]


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


def test_cli_certify_ekr_upper_bound_not_applicable(tmp_path, capsys):
    # delta1(HM(11,4)) = 26 < C(9,2) = 36: the mass upper bound does not apply
    path = write_family(tmp_path, "hm.json", hilton_milner(11, 4))
    assert dispatch(["certify", "ekr", path]) == 0
    text = dict(line.split() for line in capsys.readouterr().out.splitlines()[1:])
    assert dispatch(["certify", "ekr", path, "--json"]) == 0
    fields = json.loads(capsys.readouterr().out)["fields"]
    assert dispatch(["certify", "ekr", path, "--csv"]) == 0
    (row,) = csv.DictReader(io.StringIO(capsys.readouterr().out))
    for report in (text, fields, row):
        assert report["delta1"] in (26, "26")
        assert report["mass_upper_bound"] == report["mass_upper_bound_holds"] == "not-applicable"


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


@pytest.mark.parametrize("command", [
    ["construct", "star", "--n", "5", "--k", "2"],
    ["spectrum", "{s}"],
    ["certify", "ekr", "{s}"],
    ["matching", "{s}"],
    ["scan", "ekr", "--n", "5", "--k", "2"],
])
@pytest.mark.parametrize("target", ["dir", "missing/dir/x"])
def test_cli_out_to_an_unwritable_path_is_a_usage_error(tmp_path, capsys, command, target):
    (tmp_path / "dir").mkdir()
    path = write_family(tmp_path, "star.json", star(7, 3, 1))
    out = str(tmp_path / target)
    assert dispatch([arg.format(s=path) for arg in command] + ["--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write '{out}': ")


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


@st.composite
def cli_argvs(draw, directory):
    """argv of construct and scan, and of spectrum, certify and matching on
    small random files."""
    command = draw(st.sampled_from(["construct", "scan", "spectrum", "certify", "matching"]))
    if command == "construct":
        argv = ["construct", draw(st.sampled_from(KINDS))]
        for flag in ("--n", "--k", "--s", "--i", "--center"):
            value = draw(st.none() | st.integers(min_value=-2, max_value=9))
            if value is not None:
                argv += [flag, str(value)]
        return argv + ["--seed", str(draw(st.integers(0, 3)))]
    if command == "scan":
        kind = draw(st.sampled_from(["ekr", "cross", "conjecture"]))
        if kind != "conjecture":
            return ["scan", kind, "--n", str(draw(st.integers(-1, 7))),
                    "--k", str(draw(st.integers(-1, 3)))]
        return ["scan", kind, "--n", str(draw(st.integers(-1, 8))),
                *(arg for flag in ("--k", "--s") for arg in (flag, str(draw(st.integers(-1, 3))))),
                "--budget", str(draw(st.integers(-1, 30))), "--seed", str(draw(st.integers(0, 3)))]

    def family_file(name):
        k = draw(st.integers(min_value=0, max_value=3))
        fam = draw(small_families(n=draw(st.integers(min_value=k, max_value=8)), k=k))
        path = directory / name
        path.write_bytes(serialize_family(fam))
        return str(path)

    if command == "spectrum":
        return ["spectrum", family_file("a.json"), *draw(st.sampled_from([[], ["--full"]]))]
    if command == "certify":
        kind = draw(st.sampled_from(["ekr", "witness", "cross"]))
        files = [family_file("a.json")] + ([family_file("b.json")] if kind == "cross" else [])
        return ["certify", kind, *files]
    mode = draw(st.sampled_from([[], ["--fractional"], ["--cover"], ["--construct-degree"]]))
    if mode == ["--construct-degree"]:
        mode.append(str(draw(st.integers(min_value=-2, max_value=9))))
    return ["matching", family_file("a.json"), *mode]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_cli_exit_code_contract(tmp_path_factory, data):
    # 0 success, 1 a failed verdict, 2 a bad input, 3 a limit: never a traceback
    directory = tmp_path_factory.mktemp("argv")
    argv = data.draw(cli_argvs(directory)) + ["--out", str(directory / "out")]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = dispatch(argv)
    assert code in (0, 1, 2, 3), argv
    if code == 1 and argv[0] != "certify":
        assert err.getvalue().startswith("contradiction:"), (argv, err.getvalue())


@st.composite
def huge_shapes(draw):
    """(n, k) with C(n,k) > 2^24 and n up to 10^12: k near 0, near n/2 or anywhere."""
    n = draw(st.integers(min_value=25, max_value=10 ** 12))
    k = draw(st.integers(1, 40) | st.integers(0, n) | st.just(n // 2))
    count = kset_count(n, k)
    assume(count is None or count > 1 << 24)
    return n, k


@st.composite
def file_byte_argvs(draw, directory):
    """argv of every command on random bytes, huge shapes and over-long integers."""
    big = "9" * draw(st.integers(min_value=4301, max_value=6000))
    shape = draw(huge_shapes())
    source = draw(st.sampled_from(["bytes", "file", "digits", "construct", "scan"]))
    if source in ("construct", "scan"):
        n, k = draw(st.sampled_from([[str(v) for v in shape], [big, "3"], ["9", big]]))
        if source == "construct":
            kind = draw(st.sampled_from(KINDS))
            return ["construct", kind, "--n", n, "--k", k, "--s", "2", "--i", "1"]
        scan = draw(st.sampled_from(["ekr", "cross", "conjecture"]))
        extra = ["--s", "1", "--budget", "1"] if scan == "conjecture" else []
        return ["scan", scan, "--n", n, "--k", k, *extra]
    if source == "bytes":
        data = draw(st.binary(max_size=64))
    elif source == "file":
        data = json.dumps({"n": shape[0], "k": shape[1], "edges": [[1, 2]]}).encode()
    else:
        data = draw(st.sampled_from([f'{{"n": {big}, "k": 3, "edges": []}}',
                                     f'{{"n": 9, "k": 3, "edges": [[1, 2, {big}]]}}'])).encode()
    path = directory / "f.json"
    path.write_bytes(data)
    return draw(st.sampled_from([["spectrum", str(path)], ["spectrum", str(path), "--full"],
                                 ["certify", "ekr", str(path)], ["certify", "witness", str(path)],
                                 ["certify", "cross", str(path), str(path)], ["matching", str(path)],
                                 ["matching", str(path), "--cover"]]))


@settings(max_examples=200, deadline=2000)
@given(st.data())
def test_cli_file_bytes_exit_code_contract(tmp_path_factory, data):
    # bad bytes exit 2 and oversized shapes exit 3, each within the 2 s deadline
    directory = tmp_path_factory.mktemp("bytes")
    argv = data.draw(file_byte_argvs(directory))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = dispatch(argv + ["--out", str(directory / "out")])
        except SystemExit as exc:  # argparse refuses an over-long --n with exit 2
            code = exc.code
    assert code in (0, 1, 2, 3), argv
    if code == 1:
        assert err.getvalue().startswith("contradiction:"), (argv, err.getvalue())


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


def test_cli_construct_degree_rejects_more_edges_than_fit(tmp_path, capsys):
    out = str(tmp_path / "c.json")
    dispatch(["construct", "complete", "--n", "12", "--k", "2", "--out", out])
    capsys.readouterr()
    assert dispatch(["matching", out, "--construct-degree", "100"]) == 2
    assert capsys.readouterr().err == (
        "error: no 100 disjoint 2-sets fit on n = 12 vertices: ks = 200 > n\n"
    )


def test_cli_construct_degree_rejects_a_second_empty_edge(tmp_path, capsys):
    path = tmp_path / "k0.json"
    path.write_text(json.dumps({"n": 3, "k": 0, "edges": [[]]}))
    assert dispatch(["matching", str(path), "--construct-degree", "5"]) == 2
    assert capsys.readouterr().err == (
        "error: no 5 disjoint 0-sets fit on n = 3 vertices: "
        "a 0-uniform family has at most one edge\n"
    )


def test_cli_matching_takes_the_empty_edge_at_k0(tmp_path, capsys):
    path = tmp_path / "k0.json"
    path.write_text(json.dumps({"n": 3, "k": 0, "edges": [[]]}))
    assert dispatch(["matching", str(path), "--json"]) == 0
    fields = json.loads(capsys.readouterr().out)["fields"]
    assert (fields["matching_number"], fields["witness"]) == (1, "{}")
    assert dispatch(["matching", str(path), "--construct-degree", "1", "--json"]) == 0
    fields = json.loads(capsys.readouterr().out)["fields"]
    assert (fields["matching"], fields["trace"]) == ("{}", "outside-guarantee")


def test_cli_construct_degree_takes_k1(tmp_path, capsys):
    path = tmp_path / "k1.json"
    path.write_text(json.dumps({"n": 5, "k": 1, "edges": [[1], [2]]}))
    assert dispatch(["matching", str(path), "--construct-degree", "1", "--json"]) == 0
    fields = json.loads(capsys.readouterr().out)["fields"]
    assert (fields["delta1"], fields["matching"], fields["trace"]) == (0, "{1}", "outside-guarantee")


def test_cli_construct_degree_rejects_an_empty_ground_set(tmp_path, capsys):
    path = tmp_path / "n0.json"
    path.write_text(json.dumps({"n": 0, "k": 0, "edges": []}))
    assert dispatch(["matching", str(path), "--construct-degree", "1"]) == 2
    assert capsys.readouterr().err == (
        "error: the degree hypothesis needs a nonempty ground set, got n = 0\n"
    )


def test_cli_scan_conjecture_deterministic(capsys):
    args = ["scan", "conjecture", "--n", "7", "--k", "3", "--s", "2",
            "--budget", "150", "--seed", "8", "--json"]
    assert dispatch(args) == 0
    first = capsys.readouterr().out
    assert dispatch(args) == 0
    assert capsys.readouterr().out == first
    assert json.loads(first)["fields"]["delta1"] == 5


@pytest.mark.parametrize("flags, cell", [
    ([], "witness"),
    (["--construct-degree", "2"], "matching"),
])
def test_cli_matching_csv_quotes_the_witness(tmp_path, capsys, flags, cell):
    # the witness "{1,3,4} {2,5,6}" holds commas: one cell, not five
    path = write_family(tmp_path, "h1.json", erdos_extremal(12, 3, 3, 1))
    assert dispatch(["matching", path, *flags, "--json"]) == 0
    expected = json.loads(capsys.readouterr().out)["fields"][cell]
    assert dispatch(["matching", path, *flags, "--csv"]) == 0
    header, *rows = csv.reader(io.StringIO(capsys.readouterr().out))
    assert len(rows) == 1 and len(rows[0]) == len(header)
    assert dict(zip(header, rows[0]))[cell] == expected == "{1,3,4} {2,5,6}"


@pytest.mark.parametrize("command", [
    ["spectrum", "{h}"],
    ["spectrum", "{h}", "--full"],
    ["certify", "ekr", "{s}"],
    ["certify", "witness", "{s}"],
    ["certify", "cross", "{s}", "{s}"],
    ["matching", "{h}"],
    ["matching", "{h}", "--fractional"],
    ["matching", "{h}", "--cover"],
    ["matching", "{h}", "--construct-degree", "2"],
    ["scan", "ekr", "--n", "5", "--k", "2"],
    ["scan", "cross", "--n", "5", "--k", "2"],
    ["scan", "conjecture", "--n", "7", "--k", "2", "--s", "2", "--budget", "50"],
])
def test_every_csv_report_reads_back_into_rows_of_the_header_width(tmp_path, capsys, command):
    paths = {"h": write_family(tmp_path, "h1.json", erdos_extremal(12, 3, 3, 1)),
             "s": write_family(tmp_path, "star.json", star(7, 3, 1))}
    assert dispatch([arg.format(**paths) for arg in command] + ["--csv"]) == 0
    # a conjecture scan that finds no counterexample writes the header alone
    header, *rows = csv.reader(io.StringIO(capsys.readouterr().out))
    assert all(len(row) == len(header) for row in rows)


def test_cli_scan_csv(capsys):
    assert dispatch(["scan", "ekr", "--n", "5", "--k", "2", "--csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "index,edges,delta1,is_star"
    assert len(lines) == 16  # header + 15 families


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
    # C(30,15) = 155117520 k-sets: a 19 MB bitset without the gate, which
    # refuses any C(n,k) above FAMILY_KSET_LIMIT
    monkeypatch.setattr(limits, "FAMILY_KSET_LIMIT", binomial(30, 15) - 1)
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"n": 30, "k": 15, "edges": [list(range(16, 31))]}))
    assert dispatch(["spectrum", str(path)]) == 3
    assert "FAMILY_KSET_LIMIT" in capsys.readouterr().err
    with pytest.raises(ResourceLimitError):
        Family.from_edges(30, 15, [])
    monkeypatch.setattr(limits, "FAMILY_KSET_LIMIT", binomial(30, 15))
    assert Family.from_edges(30, 15, []).edge_count == 0


def test_memory_error_exits_3(monkeypatch, capsys):
    # stage the allocation failure; real inputs that big now meet the gate
    from ekrlab import search

    def boom(n, k):
        raise MemoryError

    monkeypatch.setattr(search, "ekr_degree_scan", boom)
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
    from ekrlab import search
    from ekrlab.errors import ContradictionError

    def boom(n, k):
        raise ContradictionError("staged")

    monkeypatch.setattr(search, "ekr_degree_scan", boom)
    assert dispatch(["scan", "ekr", "--n", "7", "--k", "3"]) == 1
    capsys.readouterr()


def test_any_other_exception_exits_4_on_one_line(monkeypatch, capsys):
    # a bug surfaces as exit 4, never as 1 (a failed verdict) or a traceback
    from ekrlab import search

    def boom(n, k):
        raise RuntimeError("staged")

    monkeypatch.setattr(search, "ekr_degree_scan", boom)
    assert dispatch(["scan", "ekr", "--n", "7", "--k", "3"]) == 4
    captured = capsys.readouterr()
    assert captured.err == "internal error: RuntimeError: staged\n"
    assert captured.out == ""


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


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("args", [
    ["star", "--n", "60", "--k", "30"],
    ["hilton-milner", "--n", "60", "--k", "30"],
    ["erdos-extremal", "--n", "60", "--k", "30", "--s", "2", "--i", "1"],
    ["random-halved", "--k", "30"],
], ids=lambda args: args[0])
def test_oversized_construct_exits_3_at_once(args):
    # the C(60,30) gate fires before any edge is built, as for `complete`
    result = subprocess.run(
        [sys.executable, "-m", "ekrlab", "construct", *args],
        capture_output=True, text=True, timeout=10, preexec_fn=_cap_address_space,
    )
    assert result.returncode == 3
    assert result.stderr == (
        "resource limit: C(n,k) = C(60,30) = 118264581564861424 k-sets exceed "
        "FAMILY_KSET_LIMIT = 16777216\n"
    )


@pytest.mark.parametrize("n", [300_000_000, 10**12])
def test_complete_k0_builds_no_ground_set(n):
    # one empty edge: the rank bitset is written directly, with no n-tuple of vertices
    result = subprocess.run(
        [sys.executable, "-m", "ekrlab", "construct", "complete", "--n", str(n), "--k", "0"],
        capture_output=True, text=True, timeout=10, preexec_fn=_cap_address_space,
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == f'{{"edges": [[]], "k": 0, "n": {n}}}\n'


def _cap_address_space_512():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))


@pytest.mark.parametrize("args, edge", [
    (["star", "--n", "16000000", "--k", "1"], 1),
    (["hilton-milner", "--n", "16000000", "--k", "1"], 2),
    (["erdos-extremal", "--n", "16000000", "--k", "1", "--s", "2", "--i", "1"], 1),
], ids=["star", "hilton-milner", "erdos-extremal"])
def test_k1_constructions_build_no_ground_set(args, edge):
    # C(n,1) = n passes the 2^24 k-set gate; the one edge is built without a list of [n]
    result = subprocess.run(
        [sys.executable, "-m", "ekrlab", "construct", *args],
        capture_output=True, text=True, timeout=10, preexec_fn=_cap_address_space_512,
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == f'{{"edges": [[{edge}]], "k": 1, "n": 16000000}}\n'


@pytest.mark.parametrize("mode, n", [
    ("--fractional", 20000), ("--cover", 20000),
    ("--fractional", 16_000_000), ("--cover", 16_000_000),
], ids=["--fractional", "--cover", "--fractional-16000000", "--cover-16000000"])
def test_packing_lp_on_a_wide_ground_set_fits_in_512_mib(tmp_path, mode, n):
    # the LP has a row per vertex on some edge, not per vertex of [n]: an
    # n x n tableau at n = 20000 would not fit; the solve, the certificate,
    # the kept solve and the cover's weights hold nothing per vertex of [n]
    # either, so both modes fit at n = 1.6 * 10^7
    path = tmp_path / "k1-wide.json"
    path.write_text(f'{{"n": {n}, "k": 1, "edges": [[1], [5], [777], [12345], [{n}]]}}')
    result = subprocess.run(
        [sys.executable, "-m", "ekrlab", "matching", str(path), mode, "--json"],
        capture_output=True, text=True, timeout=60, preexec_fn=_cap_address_space_512,
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert json.loads(result.stdout)["fields"]["objective"] == "5"


@pytest.mark.parametrize("command, extra, fields", [
    ("matching", [], {"matching_number": 5, "witness": "{1} {5} {777} {12345} {16000000}"}),
    ("matching", ["--construct-degree", "2"], {"matching": "{1} {5}", "trace": "outside-guarantee"}),
    ("spectrum", [], {"edges": 5, "quadratic_form": 20, "residual": "0"}),
], ids=["exact", "--construct-degree-2", "spectrum"])
def test_exact_matching_on_a_wide_ground_set_fits_in_512_mib(tmp_path, command, extra, fields):
    # each search node counts degrees on the rows nonzero at its root, not
    # on all n rows: n-entry degree lists and heaps at every node did not fit;
    # degrees and rows are kept per vertex on some edge, not per vertex of [n]
    path = tmp_path / "k1-wider.json"
    path.write_text('{"n": 16000000, "k": 1, "edges": [[1], [5], [777], [12345], [16000000]]}')
    result = subprocess.run(
        [sys.executable, "-m", "ekrlab", command, str(path), *extra, "--json"],
        capture_output=True, text=True, timeout=60, preexec_fn=_cap_address_space_512,
    )
    assert (result.returncode, result.stderr) == (0, "")
    report = json.loads(result.stdout)["fields"]
    assert {name: report[name] for name in fields} == fields


@pytest.fixture(scope="module")
def complete_81_3(tmp_path_factory):
    path = tmp_path_factory.mktemp("c81") / "complete-81-3.json"
    path.write_bytes(serialize_family(complete(81, 3)))
    return str(path)


@pytest.mark.parametrize("command, code, stderr", [
    (["certify", "ekr", "{0}"], 2, "error: ekr_certificate requires an intersecting family\n"),
    (["certify", "cross", "{0}", "{0}"], 2, "error: families are not cross-intersecting\n"),
    (["spectrum", "{0}", "--json"], 0, ""),
], ids=["certify-ekr", "certify-cross", "spectrum"])
def test_meet_questions_on_85320_edges_fit_in_512_mib(complete_81_3, command, code, stderr):
    # the meet rows stream one edge at a time; all e rows of e bits at once
    # would take about 0.9 GB for complete(81,3)
    result = subprocess.run(
        [sys.executable, "-m", "ekrlab", *(arg.format(complete_81_3) for arg in command)],
        capture_output=True, text=True, timeout=120, preexec_fn=_cap_address_space_512,
    )
    assert (result.returncode, result.stderr) == (code, stderr)
    if code == 0:
        fields = json.loads(result.stdout)["fields"]
        assert fields["quadratic_form"] == binomial(81, 3) * binomial(78, 3) == 6490804320


@pytest.mark.parametrize("command", [
    ["certify", "ekr", "{0}"], ["certify", "cross", "{0}", "{0}"], ["spectrum", "{0}"],
], ids=["certify-ekr", "certify-cross", "spectrum"])
def test_two_edges_on_12497500_ranks_fit_in_512_mib(tmp_path, command):
    # n C(n,k) is far past 64 k e: the degrees and the meet check decode the
    # two edges, where a star table of (5000,2) would take 7.8 GB
    path = tmp_path / "two-edges.json"
    path.write_text('{"n": 5000, "k": 2, "edges": [[1, 2], [1, 5000]]}')
    result = subprocess.run(
        [sys.executable, "-m", "ekrlab", *(arg.format(path) for arg in command)],
        capture_output=True, text=True, timeout=60, preexec_fn=_cap_address_space_512,
    )
    assert (result.returncode, result.stderr) == (0, "")


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


@pytest.mark.parametrize("call, error, message", [
    (lambda: parse_family("[1, 2]"), FormatError, "family file must be a JSON object"),
    (lambda: parse_family('{"n": 3, "k": 1, "edges": [1]}'), FormatError,
     "'edges' must be a list of vertex lists"),
    (lambda: parse_family('{"n": 3, "k": 1, "edges": {}}'), FormatError,
     "'edges' must be a list of vertex lists"),
    (lambda: emit_report({"kind": "matching", "fields": {}}, "xml"), DomainError,
     "unknown report format 'xml'"),
], ids=["not-an-object", "edge-not-a-list", "edges-not-a-list", "unknown-format"])
def test_io_refusals_name_what_is_wrong(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error and str(raised.value) == message
