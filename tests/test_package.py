"""The package surface and what a cold process imports.

``import ekrlab`` loads the substrate (errors, families with limits,
constructions); every other public name loads its module on first access,
and each CLI command imports only the layers it runs.  The module-set
guards run fresh interpreters with ``PYTHONDONTWRITEBYTECODE=1``, as a
cold ``ekrlab`` command runs, and assert which ``ekrlab.*`` modules are
loaded, never how long that took.
"""

import json
import os
import subprocess
import sys
from importlib import import_module

import pytest

import ekrlab
from ekrlab.constructions import hilton_milner, star
from ekrlab.io import serialize_family

# Every public name of the package, by the module that defines it.
PUBLIC = {
    "certificates": (
        "CrossCertificate", "Dichotomy", "EkrCertificate", "WitnessReport",
        "cross_certificate", "ekr_certificate", "simplex_min_index", "simplex_witness",
        "sqrt_product_inequality_check", "star_frame_checks",
    ),
    "constructions": (
        "build_construction", "complete", "erdos_extremal", "fano", "hilton_milner",
        "random_halved", "remark_family", "star",
    ),
    "errors": (
        "ContradictionError", "DomainError", "EkrLabError", "FormatError",
        "ResourceLimitError",
    ),
    "families": (
        "DegreeProfile", "Family", "KSubset", "are_cross_intersecting", "binomial",
        "degree", "degree_profile", "is_intersecting", "link", "min_degree",
        "rank_colex", "unrank_colex", "vertex_degrees",
    ),
    "io": ("emit_report", "format_rational", "parse_family", "rational_decimal",
           "serialize_family"),
    "lp": ("FractionalSolution", "fractional_cover", "fractional_matching",
           "fractional_pair", "verify_duality"),
    "matching": (
        "Matching", "ThresholdReport", "corollary33_check", "find_matching_by_degree",
        "matching_number", "rainbow_extension", "reduce_cover", "threshold_report",
    ),
    "search": ("ScanReport", "conjecture_scan", "cross_pair_scan", "ekr_degree_scan",
               "greedy_complete", "maximal_intersecting"),
    "spectral": ("KneserSpectrum", "SpectralMass", "disjoint_pairs", "eigen_mass_full",
                 "kneser_spectrum", "level_masses", "quadratic_form"),
}
NAMES = sorted(name for names in PUBLIC.values() for name in names)


def test_all_lists_every_public_name_once():
    assert len(NAMES) == 67
    assert sorted(ekrlab.__all__) == NAMES


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_each_name_is_its_modules_object(module):
    defining = import_module(f"ekrlab.{module}")
    for name in PUBLIC[module]:
        assert getattr(ekrlab, name) is getattr(defining, name), name


def test_star_import_and_dir_list_the_public_names():
    namespace: dict = {}
    exec("from ekrlab import *", namespace)
    assert sorted(n for n in namespace if n != "__builtins__") == NAMES
    for name in NAMES:
        assert namespace[name] is getattr(ekrlab, name)
    assert dir(ekrlab) == NAMES


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        ekrlab.no_such_name
    assert not hasattr(ekrlab, "fractional_packing")


def test_submodules_still_import_from_the_package():
    from ekrlab import limits, search

    assert search is sys.modules["ekrlab.search"]
    assert limits is sys.modules["ekrlab.limits"]
    assert search.ekr_degree_scan is ekrlab.ekr_degree_scan


# A fresh interpreter: the ekrlab.* modules after `import ekrlab`, after
# `import ekrlab.cli` and after dispatching argv; the report goes to
# stdout first, the three sets as one JSON line last.
_PROBE = """
import json, sys
loaded = lambda: sorted(m[7:] for m in sys.modules if m.startswith("ekrlab."))
import ekrlab
package = loaded()
import ekrlab.cli
cli = loaded()
code = ekrlab.cli.dispatch(sys.argv[1:]) if len(sys.argv) > 1 else None
sys.stdout.flush()
print(json.dumps([package, cli, loaded(), code]))
"""

SUBSTRATE = ["constructions", "errors", "families", "limits"]


def _probe(*argv: str) -> tuple[list, list, list, int | None]:
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    result = subprocess.run([sys.executable, "-c", _PROBE, *argv], capture_output=True,
                            text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    return tuple(json.loads(result.stdout.splitlines()[-1]))


def test_importing_the_package_loads_only_the_substrate():
    package, cli, after, code = _probe()
    assert package == SUBSTRATE
    assert cli == sorted(SUBSTRATE + ["cli", "io"])
    assert after == cli and code is None


@pytest.fixture(scope="module")
def family_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("families")
    paths = {}
    for name, family in (("star", star(9, 4, 1)), ("hm", hilton_milner(9, 4))):
        paths[name] = root / f"{name}.json"
        paths[name].write_bytes(serialize_family(family))
    return {name: str(path) for name, path in paths.items()}


COMMANDS = [
    (["construct", "fano"], []),
    (["spectrum", "{star}"], ["spectral"]),
    (["spectrum", "{star}", "--full"], ["spectral"]),
    (["certify", "ekr", "{star}"], ["certificates", "spectral"]),
    (["certify", "cross", "{star}", "{star}"], ["certificates", "spectral"]),
    (["certify", "witness", "{hm}"], ["certificates", "spectral"]),
    (["matching", "{hm}"], ["lp", "matching"]),
    (["matching", "{hm}", "--fractional"], ["lp", "matching"]),
    (["matching", "{hm}", "--cover"], ["lp", "matching"]),
    (["matching", "{hm}", "--construct-degree", "1"], ["lp", "matching"]),
    (["scan", "ekr", "--n", "5", "--k", "2"], ["lp", "matching", "search"]),
    (["scan", "cross", "--n", "5", "--k", "2"], ["lp", "matching", "search"]),
    (["scan", "conjecture", "--n", "6", "--k", "2", "--s", "2", "--budget", "20"],
     ["lp", "matching", "search"]),
]


@pytest.mark.parametrize("argv, layers", COMMANDS, ids=[" ".join(a) for a, _ in COMMANDS])
def test_each_command_loads_only_its_layers(argv, layers, family_files):
    package, cli, after, code = _probe(*(a.format(**family_files) for a in argv))
    assert package == SUBSTRATE
    assert cli == sorted(SUBSTRATE + ["cli", "io"])
    assert code == 0
    assert after == sorted(cli + layers)
