"""ekrlab: exact machinery for degree-extremal intersecting k-uniform families.

Families on [n] with exact big-integer/rational arithmetic end to end:
constructions of the named extremal families, Kneser-spectrum eigenspace
masses, machine-checked inequality-chain certificates, exact matching
numbers and fractional matching/cover LPs with verified duality, and
exhaustive or annealed extremal scans at desk scale.
"""

from .certificates import (
    CrossCertificate,
    Dichotomy,
    EkrCertificate,
    WitnessReport,
    cross_certificate,
    ekr_certificate,
    simplex_min_index,
    simplex_witness,
    sqrt_product_inequality_check,
    star_frame_checks,
)
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
from .io import emit_report, format_rational, parse_family, rational_decimal, serialize_family
from .lp import FractionalSolution, fractional_cover, fractional_matching, fractional_pair, verify_duality
from .matching import (
    Matching,
    ThresholdReport,
    corollary33_check,
    find_matching_by_degree,
    matching_number,
    rainbow_extension,
    reduce_cover,
    threshold_report,
)
from .search import (
    ScanReport,
    conjecture_scan,
    cross_pair_scan,
    ekr_degree_scan,
    greedy_complete,
    maximal_intersecting,
)
from .spectral import (
    KneserSpectrum,
    SpectralMass,
    disjoint_pairs,
    eigen_mass_full,
    kneser_spectrum,
    level_masses,
    quadratic_form,
)

__version__ = "0.1.0"
