"""ekrlab: exact machinery for degree-extremal intersecting k-uniform families.

Families on [n] with exact big-integer/rational arithmetic end to end:
constructions of the named extremal families, Kneser-spectrum eigenspace
masses, machine-checked inequality-chain certificates, exact matching
numbers and fractional matching/cover LPs with verified duality, and
exhaustive or annealed extremal scans at desk scale.

``import ekrlab`` loads the substrate every command needs: ``errors``,
``families`` (with ``limits``) and ``constructions``.  Every other public
name loads its module on first use (PEP 562), so a process pays only for
the layers it runs.
"""

from importlib import import_module

from .constructions import (
    build_construction,
    complete,
    erdos_extremal,
    fano,
    hilton_milner,
    random_halved,
    remark_family,
    star,
)
from .errors import (
    ContradictionError,
    DomainError,
    EkrLabError,
    FormatError,
    ResourceLimitError,
)
from .families import (
    DegreeProfile,
    Family,
    KSubset,
    are_cross_intersecting,
    binomial,
    degree,
    degree_profile,
    is_intersecting,
    link,
    min_degree,
    rank_colex,
    unrank_colex,
    vertex_degrees,
)

# public name -> the submodule that defines it, imported on first access
_LAZY = {
    name: module
    for module, names in (
        ("certificates", (
            "CrossCertificate", "Dichotomy", "EkrCertificate", "WitnessReport",
            "cross_certificate", "ekr_certificate", "simplex_min_index",
            "simplex_witness", "sqrt_product_inequality_check", "star_frame_checks",
        )),
        ("io", (
            "emit_report", "format_rational", "parse_family", "rational_decimal",
            "serialize_family",
        )),
        ("lp", (
            "FractionalSolution", "fractional_cover", "fractional_matching",
            "fractional_pair", "verify_duality",
        )),
        ("matching", (
            "Matching", "ThresholdReport", "corollary33_check", "find_matching_by_degree",
            "matching_number", "rainbow_extension", "reduce_cover", "threshold_report",
        )),
        ("search", (
            "ScanReport", "conjecture_scan", "cross_pair_scan", "ekr_degree_scan",
            "greedy_complete", "maximal_intersecting",
        )),
        ("spectral", (
            "KneserSpectrum", "SpectralMass", "disjoint_pairs", "eigen_mass_full",
            "kneser_spectrum", "level_masses", "quadratic_form",
        )),
    )
    for name in names
}

__all__ = [
    "build_construction", "complete", "erdos_extremal", "fano", "hilton_milner",
    "random_halved", "remark_family", "star",
    "ContradictionError", "DomainError", "EkrLabError", "FormatError", "ResourceLimitError",
    "DegreeProfile", "Family", "KSubset", "are_cross_intersecting", "binomial", "degree",
    "degree_profile", "is_intersecting", "link", "min_degree", "rank_colex",
    "unrank_colex", "vertex_degrees",
    *_LAZY,
]

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return list(__all__)
