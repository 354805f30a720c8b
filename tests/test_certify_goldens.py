"""Byte-for-byte goldens of the certify and spectrum commands.

``golden/certify_cli.json`` holds the stdout and exit code of
``certify ekr``, ``certify witness``, ``certify cross f f``, ``spectrum``
and ``spectrum --full``, each as text, ``--json`` and ``--csv``, on four
families in ``golden/families``: star(9,4), where both mass bounds and the
witness reach equality; Hilton-Milner(11,4); the first 21 edges of
star(9,3), which sit exactly on e = (n/k) C(n-2,k-2); and a random
intersecting subfamily of Hilton-Milner(14,5).  They were captured from
``python -m ekrlab`` while the certificate chain still ran on ``Fraction``
arithmetic, so they pin that the integer decisions print the same bytes.
"""

import json
from pathlib import Path

import pytest

from ekrlab.cli import dispatch

GOLDEN = Path(__file__).resolve().parent / "golden"
RUNS = json.loads((GOLDEN / "certify_cli.json").read_text())


def test_goldens_cover_every_command_format_and_family():
    assert len(RUNS) == 5 * 3 * 4
    assert {run["exit"] for run in RUNS} == {0}


@pytest.mark.parametrize("run", RUNS, ids=[run["args"] for run in RUNS])
def test_certify_and_spectrum_print_their_goldens(run, tmp_path):
    args = [str(GOLDEN / "families" / a) if a.endswith(".json") else a for a in run["args"].split()]
    out = tmp_path / "out"
    assert dispatch([*args, "--out", str(out)]) == run["exit"]
    assert out.read_bytes() == run["stdout"].encode("ascii")
