"""Exact arithmetic for polynomial automorphisms of affine space.

Iterate verified automorphism pairs over the rationals, compute Weil and
canonical heights with extrapolated tail bounds, batch-verify the
two-sided height inequality, and validate divisor-coefficient ledgers for
resolutions of the projective extensions.

One kernel evaluates every map: ``affdyn.kernel`` writes each map as a
straight-line Python function over integers, built from integer literals
and fixed names only, so no text from a map file reaches ``exec``.
"""

from .divisors import (
    CombinedResolution,
    DatumError,
    DivisorClass,
    PicBasis,
    PushforwardMap,
    ResolutionDatum,
    check_effective,
    check_pushpull_identity,
    combine_resolutions,
    compute_D,
    find_essential,
    load_datum,
    validate_resolution,
)
from .dynamics import (
    DEFAULT_BIT_BUDGET,
    AffineAutomorphism,
    InverseVerificationError,
    OrbitResult,
    RegularityResult,
    is_regular,
)
from .heights import (
    CanonicalHeight,
    CanonicalHeightEstimate,
    canonical,
    canonical_estimate,
    height_growth_constant,
    weil_height_integer,
)
from .inequality import (
    BoxSampler,
    CompositeSampler,
    DeltaReport,
    OrbitSampler,
    RandomRationalSampler,
    RationalBoxSampler,
    batch_verify,
)
from .parsing import (
    MapSyntaxError,
    format_polynomial,
    load_map_file,
    parse_map_file,
    parse_point,
    parse_polynomial,
)
from .polyring import Polynomial, ZeroPolynomialError

__version__ = "0.1.0"

__all__ = [
    "AffineAutomorphism",
    "BoxSampler",
    "CanonicalHeight",
    "CanonicalHeightEstimate",
    "CombinedResolution",
    "CompositeSampler",
    "DEFAULT_BIT_BUDGET",
    "DatumError",
    "DeltaReport",
    "DivisorClass",
    "InverseVerificationError",
    "MapSyntaxError",
    "OrbitResult",
    "OrbitSampler",
    "PicBasis",
    "Polynomial",
    "PushforwardMap",
    "RandomRationalSampler",
    "RationalBoxSampler",
    "RegularityResult",
    "ResolutionDatum",
    "ZeroPolynomialError",
    "batch_verify",
    "canonical",
    "canonical_estimate",
    "check_effective",
    "check_pushpull_identity",
    "combine_resolutions",
    "compute_D",
    "find_essential",
    "format_polynomial",
    "height_growth_constant",
    "is_regular",
    "load_datum",
    "load_map_file",
    "parse_map_file",
    "parse_point",
    "parse_polynomial",
    "validate_resolution",
    "weil_height_integer",
]
