"""Zero-divisor graph laboratory for finite commutative rings.

Builds finite commutative rings from a small spec language, enumerates
their ideals, constructs plain and ideal-based zero-divisor graphs,
decides the complemented / uniquely-complemented graph properties, and
verifies the classification facts connecting them over ring catalogues.
"""

__version__ = "0.1.0"

from .errors import (
    CapExceededError,
    CatalogueError,
    ImproperIdealError,
    InvalidElementError,
    InvalidModulusError,
    InvalidOrderError,
    InvalidPolynomialError,
    RingConsistencyError,
    SpecParseError,
    ZdglabError,
)
from .rings import (
    DEFAULT_MAX_ORDER,
    FiniteRing,
    build_poly_quotient,
    build_zn,
    direct_product,
    is_reduced,
    is_von_neumann_regular,
    nilpotents,
    total_quotient_ring,
    validate_ring_axioms,
    zero_divisors,
)
from .ideals import (
    DEFAULT_IDEAL_ENUMERATION_CAP,
    Ideal,
    all_ideals,
    generate_ideal,
    is_prime,
    is_radical,
    quotient_ring,
    radical,
)
from .graphs import SimpleGraph, gamma, gamma_ideal
from .specs import build_ring, format_spec, parse_catalogue_line, parse_generators, parse_ring_spec
from .verifier import (
    CHECK_NAMES,
    CatalogueEntry,
    CheckResult,
    PairAnalysis,
    PropertyVerdict,
    VerificationReport,
    analyze_pair,
    default_catalogue,
    parse_catalogue_text,
    run_catalogue,
)

__all__ = [
    "__version__",
    "ZdglabError",
    "InvalidOrderError",
    "InvalidModulusError",
    "InvalidPolynomialError",
    "InvalidElementError",
    "CapExceededError",
    "ImproperIdealError",
    "RingConsistencyError",
    "SpecParseError",
    "CatalogueError",
    "FiniteRing",
    "build_zn",
    "build_poly_quotient",
    "direct_product",
    "zero_divisors",
    "nilpotents",
    "is_reduced",
    "is_von_neumann_regular",
    "total_quotient_ring",
    "validate_ring_axioms",
    "DEFAULT_MAX_ORDER",
    "Ideal",
    "generate_ideal",
    "all_ideals",
    "radical",
    "is_radical",
    "is_prime",
    "quotient_ring",
    "DEFAULT_IDEAL_ENUMERATION_CAP",
    "SimpleGraph",
    "gamma",
    "gamma_ideal",
    "parse_ring_spec",
    "parse_generators",
    "parse_catalogue_line",
    "format_spec",
    "build_ring",
    "PropertyVerdict",
    "PairAnalysis",
    "CheckResult",
    "VerificationReport",
    "CatalogueEntry",
    "CHECK_NAMES",
    "analyze_pair",
    "run_catalogue",
    "default_catalogue",
    "parse_catalogue_text",
]
