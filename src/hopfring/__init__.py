"""Exact computer algebra for a family of pointed Hopf algebras of rank two.

The package constructs the tensor product of two Taft algebras and its two
cocycle deformations on exact cyclotomic scalars, builds their simple and
projective modules, and verifies the fusion rules and ring presentations of
their projective class rings by independent symbolic and matrix computations.
"""

from .algebra import Algebra, AlgebraSpec, AlgElt, build_algebra
from .cyclo import CycloField, CycloNum, cyclo_field, q_factorial
from .green import (
    FusionTable,
    class_algebra_radical,
    closed_form_fusion,
    fusion_table,
    identity_suite_H1,
    quiver_check_H0,
    verify_presentation,
)
from .hopf import HopfMaps, hopf_maps, skew_pairing_tau, tensor_iso_check, verify_hopf_axioms
from .labels import Label, basis_labels, parse_label
from .linalg import Mat, Subspace, kernel_basis, kronecker
from .repn import (
    DecompVector,
    Module,
    decompose,
    hom_dim,
    module_catalog,
    projective_P,
    radical_filtration,
    regular_representation,
    simple_S,
    tensor_module,
    weight_decomposition,
)
from .structure import (
    blocks_isomorphic_H0,
    center_and_blocks,
    integrals_and_symmetry,
    jacobson_radical,
    loewy_length,
)

__version__ = "0.1.0"
