"""Exact structure theory of matrix subalgebras over the rationals.

Everything is computed exactly over Q: inside on integers over one common
denominator (a matrix and a subspace are stored that way), with
`fractions.Fraction`s made only where values are read out.  Subspaces
have canonical reduced bases, radicals and block decompositions are
certified, and nil subspaces are decided symbolically rather than
numerically.

The package splits into exact linear algebra (`exactlin`), subalgebra
structure (`algebra`), nil subspaces and simultaneous triangularization
(`nilpotent`), the matrix coalgebra and coideals (`coalgebra`), and
document I/O plus verification suites behind the `matalg` command
(`cli`).
"""

from .exactlin import (
    Matrix,
    SpanBuilder,
    Subspace,
    Vector,
    as_scalar,
    as_vector,
    full_space,
    null_space,
    random_invertible,
    random_matrix,
    random_subspace,
    rref_basis,
    subspace_contains,
    subspace_intersect,
    subspace_sum,
    zero_space,
)
from .algebra import (
    Composition,
    Flag,
    MatrixAlgebra,
    WedderburnData,
    absorption_probe,
    algebra_from_basis,
    closure,
    compositions,
    conjugate,
    conjugate_space,
    flag_stabilizer,
    invariant_flag,
    is_parabolic,
    optimal_composition,
    parabolic_dimension,
    parabolic_subalgebra,
    radical,
    schur_commutative_check,
    semisimple_blocks,
)
from .nilpotent import (
    ALL_NILPOTENT,
    DEFAULT_TERM_BUDGET,
    UNDETERMINED,
    WITNESS_FOUND,
    NilCertificate,
    PowerReport,
    is_nil_subspace,
    nil_bound,
    strictly_upper_space,
    triangularize_nil,
)
from .coalgebra import (
    CoalgebraElement,
    Coideal,
    CoidealRejection,
    comultiply,
    counit,
    is_coideal,
    parabolic_coideal,
    perp,
)

__version__ = "0.1.0"

__all__ = [
    "Vector",
    "as_scalar",
    "as_vector",
    "Matrix",
    "Subspace",
    "SpanBuilder",
    "rref_basis",
    "zero_space",
    "full_space",
    "subspace_sum",
    "subspace_intersect",
    "subspace_contains",
    "null_space",
    "random_matrix",
    "random_invertible",
    "random_subspace",
    "Composition",
    "compositions",
    "parabolic_dimension",
    "MatrixAlgebra",
    "algebra_from_basis",
    "closure",
    "conjugate",
    "conjugate_space",
    "radical",
    "WedderburnData",
    "semisimple_blocks",
    "parabolic_subalgebra",
    "Flag",
    "invariant_flag",
    "flag_stabilizer",
    "is_parabolic",
    "absorption_probe",
    "optimal_composition",
    "schur_commutative_check",
    "ALL_NILPOTENT",
    "WITNESS_FOUND",
    "UNDETERMINED",
    "DEFAULT_TERM_BUDGET",
    "PowerReport",
    "NilCertificate",
    "is_nil_subspace",
    "triangularize_nil",
    "strictly_upper_space",
    "nil_bound",
    "CoalgebraElement",
    "comultiply",
    "counit",
    "Coideal",
    "CoidealRejection",
    "is_coideal",
    "perp",
    "parabolic_coideal",
    "__version__",
]
