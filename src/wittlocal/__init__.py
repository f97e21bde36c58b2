"""Exact-arithmetic kernel for Witt-type Lie algebras.

Four algebras over the rationals (the doubly-infinite Witt algebra, its
positive part, the positive part with e_0 adjoined, and the thin algebra),
their derivations as finite tables, and 2-local derivation machinery:
witness construction and verification on the thin algebra, forced-image
rigidity on the other two.
"""

from .algebras import (
    Algebra,
    Element,
    JacobiResult,
    bracket,
    format_element,
    jacobi_check,
    parse_element,
)
from .derivations import (
    DerivationSpace,
    InconsistentExtension,
    LeibnizResult,
    LinearMapTable,
    ThinDerivationParams,
    derivation_space_basis,
    extend_from_generators,
    leibniz_check,
    recover_inner_witt,
    recover_inner_wplus,
    table_from_json,
    table_to_json,
    thin_derivation,
)
from .errors import (
    IndexOutOfDomain,
    MixedAlgebras,
    NotADerivation,
    ParseError,
    TruncationTooSmall,
    WindowTooSmall,
    WittlocalError,
)
from .linalg import (
    Rational,
    SparseVector,
    Subspace,
    Window,
    format_rational,
    kernel_basis,
    parse_rational,
    subspace_intersection,
)
from .twolocal import (
    AdditivityResult,
    PairVerification,
    RigidityTrace,
    WitnessCertificate,
    additivity_violation,
    centralizer,
    forced_image_space,
    rigidity_check,
    thin_delta,
    thin_witness,
    verify_pair,
)

__version__ = "0.1.0"
