"""Smoke test: the quick demos run to completion."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"

QUICK = ["01_constructions_tour.py", "02_spectral_masses.py",
         "03_certificates.py", "04_matchings_and_lp.py", "05_search_scans.py"]


@pytest.mark.parametrize("name", QUICK)
def test_demo_runs(name):
    result = subprocess.run(
        [sys.executable, str(DEMOS / name)],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout
