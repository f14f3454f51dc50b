"""Exact arithmetic for polynomial automorphisms of affine space.

Iterate verified automorphism pairs over the rationals, compute Weil and
canonical heights with convergence certificates, batch-verify the
two-sided height inequality, and validate divisor-coefficient ledgers for
resolutions of the projective extensions.

The hot evaluation kernel has a compiled (Cython) and a pure-Python
implementation; the compiled one is used whenever it was built and
imports.  ``affdyn.kernel.BACKEND`` names the active one.
"""

from .divisors import (
    CombinedResolution,
    DatumError,
    DivisorClass,
    PicBasis,
    PushforwardMap,
    ResolutionDatum,
    bundled_dataset,
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
    ProjectivePoint,
    canonical,
    canonical_minus,
    canonical_plus,
    functional_equation_residual,
    height_growth_constant,
    is_periodic_by_height,
    weil_height,
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
    delta_statistic,
)
from .kernel import BACKEND
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
    "BACKEND",
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
    "ProjectivePoint",
    "PushforwardMap",
    "RandomRationalSampler",
    "RationalBoxSampler",
    "RegularityResult",
    "ResolutionDatum",
    "ZeroPolynomialError",
    "batch_verify",
    "bundled_dataset",
    "canonical",
    "canonical_minus",
    "canonical_plus",
    "check_effective",
    "check_pushpull_identity",
    "combine_resolutions",
    "compute_D",
    "delta_statistic",
    "find_essential",
    "format_polynomial",
    "functional_equation_residual",
    "height_growth_constant",
    "is_periodic_by_height",
    "is_regular",
    "load_datum",
    "load_map_file",
    "parse_map_file",
    "parse_point",
    "parse_polynomial",
    "validate_resolution",
    "weil_height",
    "weil_height_integer",
]
