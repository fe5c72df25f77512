"""Exact-arithmetic toolkit for compatible Lie algebras.

Represents pairs of Lie brackets by rational structure constants, verifies
the compatibility axioms through the Nijenhuis-Richardson bracket, computes
the two-bracket cohomology (adjoint, arbitrary and reduced coefficients),
and classifies infinitesimal deformations and abelian/nonabelian extensions.
"""

from .cohomology import (
    CochainTuple,
    c0_basis,
    coboundary_matrix,
    cohomology_dim,
    cohomology_dims,
    derivation_spaces,
    reduced_cohomology_dims,
    reduced_slice,
    staircase_coboundary,
)
from .core import (
    CompatiblePair,
    InternalCheckError,
    LieBracket,
    RepPair,
    Verdict,
    Witness,
    adjoint_rep,
    pencil,
    validate_bracket,
    validate_pair,
    validate_rep,
)
from .deformation import (
    DeformationDatum,
    deformations_equivalent,
    deformed_pair,
    is_infinitesimal_deformation,
    is_nijenhuis,
    nijenhuis_torsion,
    trivial_deformation_from_nijenhuis,
)
from .document import AlgebraDocument, ParseError, parse, render
from .extension import (
    ExtensionDatum,
    Section,
    build_extension,
    cocycles_cohomologous,
    extensions_isomorphic_under,
    extract_datum,
    gauge_transform,
    maurer_cartan_verdict,
    validate_extension_datum,
)
from .linalg import Matrix, SubspaceBasis, in_span
from .multilinear import Cochain, ce_coboundary, nr_bracket, nr_compose
from .poisson import PolyBasis, lie_poisson_rep, reduced_bihamiltonian_dims

__all__ = [
    "AlgebraDocument",
    "Cochain",
    "CochainTuple",
    "CompatiblePair",
    "DeformationDatum",
    "ExtensionDatum",
    "InternalCheckError",
    "LieBracket",
    "Matrix",
    "ParseError",
    "PolyBasis",
    "RepPair",
    "Section",
    "SubspaceBasis",
    "Verdict",
    "Witness",
    "adjoint_rep",
    "build_extension",
    "c0_basis",
    "ce_coboundary",
    "coboundary_matrix",
    "cocycles_cohomologous",
    "cohomology_dim",
    "cohomology_dims",
    "deformations_equivalent",
    "deformed_pair",
    "derivation_spaces",
    "extensions_isomorphic_under",
    "extract_datum",
    "gauge_transform",
    "in_span",
    "is_infinitesimal_deformation",
    "is_nijenhuis",
    "lie_poisson_rep",
    "maurer_cartan_verdict",
    "nijenhuis_torsion",
    "nr_bracket",
    "nr_compose",
    "parse",
    "pencil",
    "reduced_bihamiltonian_dims",
    "reduced_cohomology_dims",
    "reduced_slice",
    "render",
    "staircase_coboundary",
    "trivial_deformation_from_nijenhuis",
    "validate_bracket",
    "validate_extension_datum",
    "validate_pair",
    "validate_rep",
]

__version__ = "0.1.0"
