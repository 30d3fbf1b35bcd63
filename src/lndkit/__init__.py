"""Exact computer algebra for locally nilpotent derivations of polynomial rings."""

from .context import VarContext
from .derivation import (
    DEFAULT_NILPOTENCY_BOUND,
    Derivation,
    NilpotencyVerdict,
    divergence,
    is_fixed_point_free,
    is_irreducible,
    is_triangular,
    iterates,
    nilpotency_verdict,
)
from .errors import (
    ContextMismatchError,
    DomainError,
    FailsUpToCapError,
    InvariantError,
    JobParseError,
    LndkitError,
    PolyParseError,
    UnknownVariableError,
    UnsupportedSizeError,
)
from .groebner import GroebnerBasis, buchberger, ideal_member, normal_form
from .linalg import RowSpace
from .ordering import MonomialOrder
from .parse import parse_polynomial
from .polygcd import divides, exact_divide, gcd
from .polynomial import Polynomial
from .slices import (
    ComplementaryLnd,
    CoordinateSystem,
    CoordinateWitness,
    IncompleteReexpression,
    ProportionalityResult,
    RetractionDerivation,
    RetractionSpec,
    SliceCertificate,
    TranscendenceResult,
    complementary_lnd,
    coordinate_context,
    coordinate_system,
    dixmier,
    find_slice,
    kernel_generators,
    lnd_from_retraction,
    proportionality_check,
    transcendence_check,
    verify_slice_theorem,
)
from .subalgebra import (
    GeneratorSpan,
    MembershipWitness,
    RestrictedDerivation,
    RestrictionFailure,
    Subalgebra,
    generator_products,
    kernel_up_to_degree,
    restrict_derivation,
    restriction_of,
    subalgebra_fpf,
    subalgebra_member,
    symbol_context,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
