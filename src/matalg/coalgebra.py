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

`is_coideal` runs over the integers, on the stored form of X: its RREF
basis rows times their least common denominator D.  D pi(e_a) is an
integer vector, and for an integer row r = D x the sum over i, j, k of
r_ij D pi(e_ik) (x) D pi(e_kj) is D^3 (pi (x) pi)(comultiply(x)): the
same zero set and the same nonzero components.  It is formed by
grouping the terms by (i, k), with no n^4 tensor.  `comultiply` stays as
the definition, dense in the tensor coordinates: e_{a,b} (x) e_{c,d}
sits at flat index (a*n + b) * n^2 + (c*n + d).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exactlin import (
    Matrix,
    Subspace,
    Vector,
    _coset_images,
    _fraction_row,
    _kernel,
    _matrix_side,
)
from .algebra import Composition, parabolic_subalgebra

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


def _comultiplied_component(
    row: Sequence[int], images: list[list[tuple[int, int]]], n: int
) -> tuple[int, int] | None:
    """The lexicographically smallest (p, q) at which
    (D pi (x) D pi)(comultiply(row)) is nonzero, or None when the integer
    `row` comultiplies into X (x) C + C (x) X.  `images[a]` is D pi(e_a)
    as sparse (coordinate, coefficient) pairs (`exactlin._coset_images`).

    comultiply(row) is the sum of row_ij e_ik (x) e_kj, so the image is
    the sum over (i, k) of D pi(e_ik) (x) (sum_j row_ij D pi(e_kj)); no
    n^4 tensor is formed.  The terms are collected by p, and the rows of
    the image are summed in increasing p up to the first nonzero one.
    """
    terms: dict[int, list[tuple[int, list[tuple[int, int]]]]] = {}
    for i in range(n):
        coeffs = [(j, c) for j, c in enumerate(row[i * n : (i + 1) * n]) if c]
        if not coeffs:
            continue
        for k in range(n):
            left = images[i * n + k]
            if not left:
                continue
            right: dict[int, int] = {}
            for j, c in coeffs:
                for q, w in images[k * n + j]:
                    right[q] = right.get(q, 0) + c * w
            right_items = [(q, w) for q, w in right.items() if w]
            if right_items:
                for p, u in left:
                    terms.setdefault(p, []).append((u, right_items))
    for p in sorted(terms):
        image: dict[int, int] = {}
        for u, right_items in terms[p]:
            for q, w in right_items:
                image[q] = image.get(q, 0) + u * w
        nonzero = [q for q, c in image.items() if c]
        if nonzero:
            return p, min(nonzero)
    return None


def is_coideal(s: Subspace) -> Coideal | CoidealRejection:
    """Certify the two coideal axioms for a subspace of the coalgebra.

    Works on the stored integer form of s: its RREF basis rows times
    their least common denominator D.  Checks that the trace (the counit)
    of every row vanishes, then, in basis order, applies D pi (x) D pi to
    each comultiplied row, pi being the reduction modulo s; that is D^3
    times (pi (x) pi) of the comultiplied basis element, which lies in
    s (x) C + C (x) s exactly when the image is zero.  No n^4-dimensional
    tensor or span is built, no `Fraction` is formed on success, and
    nothing goes through `perp`.  Returns a `Coideal` on success; on
    failure a `CoidealRejection` naming the broken axiom ("counit" or
    "comultiplication"), the first failing basis element and, for
    comultiplication, the failing component.
    """
    n = _matrix_side(s)
    den, rows = s._integer_form()
    if not rows:
        # the zero space is a coideal; no n^2 coset images for it
        return Coideal(n=n, space=s)
    for _, row in rows:
        if sum(row[:: n + 1]):
            element = _fraction_row(den, row)
            return CoidealRejection(n=n, space=s, axiom="counit", element=element)
    images = _coset_images(s)
    for _, row in rows:
        component = _comultiplied_component(row, images, n)
        if component is not None:
            return CoidealRejection(
                n=n,
                space=s,
                axiom="comultiplication",
                element=_fraction_row(den, row),
                component=component,
            )
    return Coideal(n=n, space=s)


def perp(s: Subspace) -> Subspace:
    """Annihilator under the dual-basis pairing.

    In matrix-unit coordinates the pairing of A and B is the plain dot
    product of their flattenings, equivalently Tr(A B^T).  The annihilator
    of a d-dimensional subspace has dimension n^2 - d, and perp(perp(s))
    equals s.  The stored rows of s, reduced already, go to `_kernel` as
    they are, so the cost is the n^2 - d adjoins that put the kernel
    vectors in canonical form.
    """
    return _kernel(*s._integer_form(), s.ambient_dim)


def parabolic_coideal(comp: Composition) -> Coideal:
    """The annihilator of the block upper-triangular algebra of the given
    type, certified here through `is_coideal`: the span of the units
    e_{i,j} with block(i) > block(j).  Dimension (n^2 - sum n_i^2)/2;
    for the type (1, n-1) this is the minimal value n - 1."""
    result = is_coideal(perp(parabolic_subalgebra(comp).space))
    if isinstance(result, CoidealRejection):
        raise RuntimeError("block-lower pattern failed coideal certification")
    return result
