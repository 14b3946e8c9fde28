"""Exact representations, R-matrices, and wedge modules for the
two-parameter quantum group on sl_n."""

from .scalars import (BiPoly, DenominatorVanishes, DivisionByZero,
                      GenericityError, RatFunc, SampledField, SymbolicField,
                      genericity_check, specialize_jimbo)
from .linalg import (Matrix, QuotientData, SingularInput, Subspace, invert,
                     kernel_image_rank, tensor_index, tensor_tuple)
from .uqrs import (CheckItem, CheckReport, InvalidPower, InvalidRank,
                   NonDiagonalAction, Representation, Weight,
                   check_defining_relations, highest_weight_vectors,
                   hopf_antipode_check, natural_rep, tensor_action,
                   tensor_power_rep, weight_char, weight_spaces)
from .rmatrix import (InternalMismatch, SpectralRMatrix, build_r,
                      build_r_inverse, build_r_z, check_braid_constant,
                      check_min_poly, check_module_morphism,
                      check_ybe_spectral, jimbo_compare, yang_baxterize)
from .wedge import (QuotientModule, WellDefinednessFailure, alt2,
                    build_wedge_module, spectral_projector_check, straighten,
                    sym2, verify_fundamental, wedge_dimension)

__version__ = "0.1.0"

__all__ = [
    "BiPoly", "CheckItem", "CheckReport", "DenominatorVanishes",
    "DivisionByZero", "GenericityError", "InternalMismatch",
    "InvalidPower", "InvalidRank", "Matrix", "NonDiagonalAction",
    "QuotientData", "QuotientModule", "RatFunc", "Representation",
    "SampledField", "SingularInput", "SpectralRMatrix", "Subspace",
    "SymbolicField", "Weight", "WellDefinednessFailure", "alt2", "build_r",
    "build_r_inverse", "build_r_z", "build_wedge_module",
    "check_braid_constant", "check_defining_relations", "check_min_poly",
    "check_module_morphism", "check_ybe_spectral", "genericity_check",
    "highest_weight_vectors", "hopf_antipode_check", "invert",
    "jimbo_compare", "kernel_image_rank", "natural_rep",
    "spectral_projector_check", "specialize_jimbo", "straighten", "sym2",
    "tensor_action", "tensor_index", "tensor_power_rep", "tensor_tuple",
    "verify_fundamental", "weight_char", "weight_spaces",
    "wedge_dimension", "yang_baxterize",
]
