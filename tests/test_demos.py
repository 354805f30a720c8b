"""Smoke test: the quick demos run to completion; demos 03, 04 and 05
print exactly their golden output under tests/golden/."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"
GOLDEN = Path(__file__).resolve().parent / "golden"

QUICK = ["01_constructions_tour.py", "02_spectral_masses.py",
         "03_certificates.py", "04_matchings_and_lp.py", "05_search_scans.py"]

# Demo 05 prints one wall-clock time; that line is left out of the comparison.
WALL_TIME = re.compile(r".*families enumerated in [0-9.]+s\n")


@pytest.mark.parametrize("name", QUICK)
def test_demo_runs(name):
    result = subprocess.run(
        [sys.executable, str(DEMOS / name)],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout
    golden = GOLDEN / name.replace(".py", ".out")
    if golden.exists():
        assert WALL_TIME.sub("", result.stdout) == golden.read_text()
