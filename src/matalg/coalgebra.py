"""The matrix coalgebra: comultiplication, coideals, and duality.

The coordinate space of n x n matrices carries a coalgebra structure
dual to matrix multiplication: on the basis of matrix units,

    comultiply(e_{i,j}) = sum_k e_{i,k} (x) e_{k,j}
    counit(e_{i,j})     = 1 if i == j else 0.

A subspace X is a coideal when the counit vanishes on X and
comultiply(X) lies in X (x) C + C (x) X (C the whole coordinate space).
`is_coideal` checks both axioms directly.  The second one is decided in
the quotient: X (x) C + C (x) X is the kernel of pi (x) pi, where
pi : C -> C/X reduces modulo X, so comultiply(x) must vanish under
pi (x) pi.  The check deliberately does not route through duality, so
the classical bijection "X is a coideal iff its annihilator is a
subalgebra" stays an independently testable statement.

Tensor coordinates: e_{a,b} (x) e_{c,d} sits at flat index
(a*n + b) * n^2 + (c*n + d).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactlin import (
    Matrix,
    Subspace,
    Vector,
    _matrix_side,
    full_space,
    null_space,
    rref_basis,
)
from .algebra import Composition

__all__ = [
    "CoalgebraElement",
    "Coideal",
    "CoidealRejection",
    "comultiply",
    "counit",
    "is_coideal",
    "perp",
    "parabolic_coideal",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class CoalgebraElement:
    """An element of the matrix coalgebra: n plus the coefficient vector
    over the matrix-unit basis (row-major, length n^2)."""

    n: int
    coefficients: Vector

    def __post_init__(self) -> None:
        if len(self.coefficients) != self.n * self.n:
            raise ValueError(
                f"expected {self.n * self.n} coefficients, got {len(self.coefficients)}"
            )

    @classmethod
    def from_matrix(cls, m: Matrix) -> "CoalgebraElement":
        if m.rows != m.cols:
            raise ValueError("coalgebra elements come from square matrices")
        return cls(n=m.rows, coefficients=m.flatten())

    def to_matrix(self) -> Matrix:
        return Matrix.from_flat(self.coefficients, self.n)


def comultiply(x: CoalgebraElement) -> tuple[Vector, Fraction]:
    """The pair (comultiplication of x, counit of x).

    The comultiplication is returned as a flat vector in the n^4 tensor
    coordinates; the counit is the trace of the coefficient matrix.
    """
    n = x.n
    n2 = n * n
    tensor = [_ZERO] * (n2 * n2)
    coeffs = x.coefficients
    for i in range(n):
        for j in range(n):
            c = coeffs[i * n + j]
            if not c:
                continue
            for k in range(n):
                tensor[(i * n + k) * n2 + (k * n + j)] += c
    return tuple(tensor), counit(x)


def counit(x: CoalgebraElement) -> Fraction:
    return sum((x.coefficients[i * x.n + i] for i in range(x.n)), _ZERO)


@dataclass(frozen=True)
class Coideal:
    """A certified coideal: counit zero on the space and comultiplication
    mapping it into X (x) C + C (x) X."""

    n: int
    space: Subspace
    certified: bool = True

    @property
    def dimension(self) -> int:
        return self.space.dimension


@dataclass(frozen=True)
class CoidealRejection:
    """Certificate of failure: which axiom broke, and a basis element
    witnessing the failure.

    For a comultiplication failure, `component` is the lexicographically
    smallest pair (p, q) of non-pivot coordinates of the space at which
    (pi (x) pi)(comultiply(element)) has a nonzero e_p (x) e_q
    coefficient; that coefficient is a functional vanishing on
    X (x) C + C (x) X but not on the comultiplied element.  It is None
    for a counit failure.
    """

    n: int
    space: Subspace
    axiom: str
    element: Vector
    certified: bool = False
    component: tuple[int, int] | None = None


def _quotient_component(
    tensor: Vector, images: list[list[tuple[int, Fraction]]]
) -> tuple[int, int] | None:
    """The lexicographically smallest (p, q) at which (pi (x) pi)(tensor)
    is nonzero, or None when the tensor lies in X (x) C + C (x) X.
    `images[a]` is pi(e_a) as sparse (coordinate, coefficient) pairs."""
    n2 = len(images)
    image: dict[tuple[int, int], Fraction] = {}
    for a in range(n2):
        right: dict[int, Fraction] = {}
        for b, c in enumerate(tensor[a * n2 : (a + 1) * n2]):
            if c:
                for q, v in images[b]:
                    right[q] = right.get(q, _ZERO) + c * v
        for p, u in images[a]:
            for q, w in right.items():
                image[p, q] = image.get((p, q), _ZERO) + u * w
    return min((key for key, c in image.items() if c), default=None)


def is_coideal(s: Subspace) -> Coideal | CoidealRejection:
    """Certify the two coideal axioms for a subspace of the coalgebra.

    Checks counit vanishing on every basis element, then, in basis
    order, applies pi (x) pi to each comultiplied basis element, pi being
    the reduction modulo s read off its RREF basis; the element lies in
    s (x) C + C (x) s exactly when that image is zero.  No n^4-dimensional
    span is built, and nothing goes through `perp`.  Returns a `Coideal`
    on success; on failure a `CoidealRejection` naming the broken axiom
    ("counit" or "comultiplication"), the first failing basis element
    and, for comultiplication, the failing component.
    """
    n = _matrix_side(s)
    for row in s.basis:
        if counit(CoalgebraElement(n=n, coefficients=row)):
            return CoidealRejection(n=n, space=s, axiom="counit", element=row)
    # pi(e_f) = e_f for a non-pivot f; pi(e_p) = -(basis row of pivot p),
    # which is 1 at p and 0 at every other pivot
    images = [[(a, _ONE)] for a in range(s.ambient_dim)]
    for row, p in zip(s.basis, s.pivots):
        images[p] = [(f, -c) for f, c in enumerate(row) if c and f != p]
    for row in s.basis:
        tensor, _ = comultiply(CoalgebraElement(n=n, coefficients=row))
        component = _quotient_component(tensor, images)
        if component is not None:
            return CoidealRejection(
                n=n,
                space=s,
                axiom="comultiplication",
                element=row,
                component=component,
            )
    return Coideal(n=n, space=s)


def perp(s: Subspace) -> Subspace:
    """Annihilator under the dual-basis pairing.

    In matrix-unit coordinates the pairing of A and B is the plain dot
    product of their flattenings, equivalently Tr(A B^T).  The annihilator
    of a d-dimensional subspace has dimension n^2 - d, and perp(perp(s))
    equals s.
    """
    if s.dimension == 0:
        return full_space(s.ambient_dim)
    return null_space(Matrix(s.basis))


def parabolic_coideal(comp: Composition) -> Coideal:
    """The span of the units e_{i,j} with block(i) > block(j): the
    annihilator of the block upper-triangular algebra of the same type,
    certified here through `is_coideal`.  Dimension (n^2 - sum n_i^2)/2;
    for the type (1, n-1) this is the minimal value n - 1."""
    n = comp.n
    blocks = [comp.block_of(i) for i in range(n)]
    vectors = []
    for i in range(n):
        for j in range(n):
            if blocks[i] > blocks[j]:
                vectors.append(Matrix.unit(n, i, j).flatten())
    space = rref_basis(vectors, n * n)
    result = is_coideal(space)
    if isinstance(result, CoidealRejection):
        raise RuntimeError("block-lower pattern failed coideal certification")
    return result
