"""The public names of `matalg` stay as listed, in order."""

import matalg

PUBLIC_NAMES = [
    # exactlin
    "Vector", "as_scalar", "as_vector", "Matrix", "Subspace", "SpanBuilder",
    "rref_basis", "zero_space", "full_space", "subspace_sum", "subspace_intersect",
    "subspace_contains", "null_space", "random_matrix",
    "random_invertible", "random_subspace",
    # algebra
    "Composition", "compositions", "parabolic_dimension", "MatrixAlgebra",
    "algebra_from_basis", "closure", "conjugate", "conjugate_space",
    "radical", "WedderburnData", "semisimple_blocks", "parabolic_subalgebra",
    "Flag", "invariant_flag", "flag_stabilizer",
    "is_parabolic", "absorption_probe", "optimal_composition", "schur_commutative_check",
    # nilpotent
    "ALL_NILPOTENT", "WITNESS_FOUND", "UNDETERMINED", "DEFAULT_TERM_BUDGET",
    "PowerReport", "NilCertificate", "is_nil_subspace", "triangularize_nil",
    "strictly_upper_space", "nil_bound",
    # coalgebra
    "CoalgebraElement", "comultiply", "counit", "Coideal", "CoidealRejection",
    "is_coideal", "perp", "parabolic_coideal",
    "__version__",
]


def test_all_is_the_pinned_list():
    assert len(PUBLIC_NAMES) == 54
    assert matalg.__all__ == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in PUBLIC_NAMES:
        assert hasattr(matalg, name), name
