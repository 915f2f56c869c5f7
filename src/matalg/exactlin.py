"""Exact linear algebra over the rationals.

Every scalar in this package is an arbitrary-precision rational
(`fractions.Fraction`), so all computations here are exact: no floating
point, no rounding, no tolerances.  Equality questions (membership,
subspace equality, nilpotency, ...) are therefore decided, not estimated.

Conventions used throughout the package:

* Vectors are tuples of rationals; matrices are immutable dense grids.
* The space of n x n matrices is identified with coordinate space of
  dimension n*n by row-major flattening: entry (i, j) lives at coordinate
  i*n + j (0-based).
* A `Subspace` is stored canonically as a reduced row-echelon basis with
  strictly increasing pivot columns.  Two subspaces are equal as sets if
  and only if their representations compare equal, so `==` on `Subspace`
  is set equality.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

__all__ = [
    "QQ",
    "Vector",
    "Matrix",
    "Subspace",
    "SpanBuilder",
    "as_scalar",
    "as_vector",
    "rref_basis",
    "zero_space",
    "full_space",
    "subspace_sum",
    "subspace_intersect",
    "subspace_contains",
    "solve_linear",
    "null_space",
    "random_matrix",
    "random_invertible",
    "random_subspace",
]

QQ = Fraction

Vector = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def as_scalar(value: int | str | Fraction) -> Fraction:
    """Coerce `value` to an exact rational.

    Accepts integers, `Fraction` instances and strings like "2", "-1/3".
    Floats are rejected on purpose: admitting binary floating point would
    silently break exactness.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):  # bool is an int, but means nothing here
        raise TypeError("booleans are not scalars")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not an exact scalar: {value!r}")


def as_vector(values: Iterable[int | str | Fraction], ambient_dim: int | None = None) -> Vector:
    """Coerce an iterable of scalars to a vector, optionally checking length."""
    vec = tuple(as_scalar(v) for v in values)
    if ambient_dim is not None and len(vec) != ambient_dim:
        raise ValueError(f"expected vector of length {ambient_dim}, got {len(vec)}")
    return vec


class Matrix:
    """Immutable dense matrix with exact rational entries.

    Supports the usual ring operations plus transpose, trace, powers and
    exact inversion.  Instances hash and compare by entries, so matrices
    can be used as dictionary keys and set members.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: Sequence[Sequence[int | str | Fraction]]):
        grid = tuple(tuple(as_scalar(e) for e in row) for row in rows)
        if not grid or not grid[0]:
            raise ValueError("matrix needs at least one row and one column")
        width = len(grid[0])
        if any(len(row) != width for row in grid):
            raise ValueError("rows have inconsistent lengths")
        self.entries: tuple[tuple[Fraction, ...], ...] = grid
        self.rows: int = len(grid)
        self.cols: int = width

    @classmethod
    def _make(cls, grid: tuple[tuple[Fraction, ...], ...]) -> "Matrix":
        # Internal fast path: trusts that `grid` is a rectangular tuple grid
        # of Fractions.
        m = object.__new__(cls)
        m.entries = grid
        m.rows = len(grid)
        m.cols = len(grid[0])
        return m

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._make(
            tuple(tuple(_ONE if i == j else _ZERO for j in range(n)) for i in range(n))
        )

    @classmethod
    def zeros(cls, rows: int, cols: int | None = None) -> "Matrix":
        cols = rows if cols is None else cols
        return cls._make(tuple((_ZERO,) * cols for _ in range(rows)))

    @classmethod
    def unit(cls, n: int, i: int, j: int) -> "Matrix":
        """Matrix unit e_{i,j}: a single 1 at row i, column j (0-based)."""
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"unit position ({i}, {j}) out of range for n={n}")
        return cls._make(
            tuple(
                tuple(_ONE if (r, c) == (i, j) else _ZERO for c in range(n))
                for r in range(n)
            )
        )

    @classmethod
    def from_flat(cls, vec: Sequence[int | str | Fraction], n: int) -> "Matrix":
        """Rebuild an n x n matrix from its row-major flattening."""
        if len(vec) != n * n:
            raise ValueError(f"expected {n * n} coordinates, got {len(vec)}")
        flat = tuple(as_scalar(v) for v in vec)
        return cls._make(tuple(flat[r * n : (r + 1) * n] for r in range(n)))

    def flatten(self) -> Vector:
        """Row-major flattening: entry (i, j) goes to coordinate i*cols + j."""
        return tuple(e for row in self.entries for e in row)

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        return self.entries[i][j]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Matrix) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix._make(
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            )
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix._make(
            tuple(
                tuple(a - b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            )
        )

    def __neg__(self) -> "Matrix":
        return Matrix._make(tuple(tuple(-a for a in row) for row in self.entries))

    def __mul__(self, other: "Matrix | int | Fraction") -> "Matrix":
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise ValueError(
                    f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
                )
            cols = tuple(zip(*other.entries))
            return Matrix._make(
                tuple(
                    tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                    for row in self.entries
                )
            )
        scale = as_scalar(other)
        return Matrix._make(tuple(tuple(scale * a for a in row) for row in self.entries))

    def __rmul__(self, other: int | Fraction) -> "Matrix":
        return self.__mul__(other)

    def __pow__(self, k: int) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("powers need a square matrix")
        if k < 0:
            raise ValueError("negative powers are not supported; invert explicitly")
        result = Matrix.identity(self.rows)
        for _ in range(k):
            result = result * self
        return result

    def transpose(self) -> "Matrix":
        return Matrix._make(tuple(zip(*self.entries)))

    def trace(self) -> Fraction:
        if self.rows != self.cols:
            raise ValueError("trace needs a square matrix")
        return sum((self.entries[i][i] for i in range(self.rows)), _ZERO)

    def is_zero(self) -> bool:
        return all(not e for row in self.entries for e in row)

    def inverse(self) -> "Matrix":
        """Exact inverse: the reduced echelon form of [M | I] is [I | M^-1];
        raises ValueError when singular."""
        if self.rows != self.cols:
            raise ValueError("only square matrices can be inverted")
        n = self.rows
        rows = _echelon(
            row + tuple(_ONE if i == j else _ZERO for j in range(n))
            for i, row in enumerate(self.entries)
        )
        # [M | I] has rank n, so a singular M leaves a pivot in the I block
        if max(rows) >= n:
            raise ValueError("matrix is singular")
        return Matrix._make(tuple(tuple(rows[p][n:]) for p in range(n)))

    def _check_same_shape(self, other: "Matrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def __repr__(self) -> str:
        body = ", ".join("[" + ", ".join(str(e) for e in row) + "]" for row in self.entries)
        return f"Matrix([{body}])"


def _reduce(
    vec: Sequence[Fraction], pivot_rows: Iterable[tuple[int, Sequence[Fraction]]]
) -> list[Fraction]:
    """Residual of `vec` modulo fully reduced `(pivot, row)` pairs.

    Each row is 1 at its own pivot and 0 at every other pivot, so one pass
    in any order is complete.  The result is zero exactly when `vec` lies
    in the span of the rows, and it is zero at each of their pivots.
    """
    r = list(vec)
    for p, row in pivot_rows:
        f = r[p]
        if f:
            r = [a - f * b if b else a for a, b in zip(r, row)]
    return r


def _adjoin(rows: dict[int, list[Fraction]], residual: list[Fraction]) -> None:
    """Insert a nonzero residual of `_reduce` into fully reduced `rows`
    keyed by pivot.

    The residual is scaled to 1 at its first nonzero coordinate, and that
    column is cleared from the other rows, so the rows stay fully reduced
    and, sorted by pivot, are the reduced row-echelon form of their span.
    """
    p = next(i for i, e in enumerate(residual) if e)
    f = residual[p]
    if f != 1:
        # multiply by the exact inverse; plain / would go float on ints
        inv = _ONE / f
        residual = [e * inv if e else e for e in residual]
    for q, row in rows.items():
        g = row[p]
        if g:
            rows[q] = [a - g * b if b else a for a, b in zip(row, residual)]
    rows[p] = residual


def _echelon(vectors: Iterable[Sequence[Fraction]]) -> dict[int, list[Fraction]]:
    """Fully reduced rows spanning `vectors`, keyed by pivot."""
    rows: dict[int, list[Fraction]] = {}
    for vec in vectors:
        residual = _reduce(vec, rows.items())
        if any(residual):
            _adjoin(rows, residual)
    return rows


def _canonical(ambient_dim: int, rows: dict[int, list[Fraction]]) -> Subspace:
    """The `Subspace` of fully reduced rows keyed by pivot."""
    pivots = tuple(sorted(rows))
    return Subspace(
        ambient_dim=ambient_dim,
        basis=tuple(tuple(rows[p]) for p in pivots),
        pivots=pivots,
    )


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of coordinate space, in canonical form.

    The basis is a reduced row-echelon basis with strictly increasing
    pivots, so equal subspaces have identical representations.  Build
    instances through `rref_basis` (or the helpers below), never by hand.
    """

    ambient_dim: int
    basis: tuple[Vector, ...]
    pivots: tuple[int, ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def contains(self, vec: Sequence[Fraction]) -> bool:
        return subspace_contains(self, vec)

    def basis_matrices(self, n: int) -> list[Matrix]:
        """Interpret the basis vectors as n x n matrices (ambient must be n*n)."""
        if self.ambient_dim != n * n:
            raise ValueError(f"ambient dimension {self.ambient_dim} is not {n}*{n}")
        return [Matrix.from_flat(v, n) for v in self.basis]

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dimension}, ambient={self.ambient_dim})"


def rref_basis(vectors: Iterable[Sequence[int | str | Fraction]], ambient_dim: int) -> Subspace:
    """Canonical subspace spanned by `vectors` inside Q^ambient_dim."""
    return _canonical(ambient_dim, _echelon(as_vector(vec, ambient_dim) for vec in vectors))


def zero_space(ambient_dim: int) -> Subspace:
    return Subspace(ambient_dim=ambient_dim, basis=(), pivots=())


def full_space(ambient_dim: int) -> Subspace:
    basis = tuple(
        tuple(_ONE if i == j else _ZERO for j in range(ambient_dim))
        for i in range(ambient_dim)
    )
    return Subspace(ambient_dim=ambient_dim, basis=basis, pivots=tuple(range(ambient_dim)))


def _check_same_ambient(a: Subspace, b: Subspace) -> None:
    if a.ambient_dim != b.ambient_dim:
        raise ValueError(
            f"ambient dimension mismatch: {a.ambient_dim} vs {b.ambient_dim}"
        )


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    """Canonical basis of a + b."""
    _check_same_ambient(a, b)
    return rref_basis(list(a.basis) + list(b.basis), a.ambient_dim)


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    """Canonical basis of the intersection, by the Zassenhaus block trick.

    Row-reduce [v | v] for v in basis(a) stacked over [w | 0] for w in
    basis(b); rows whose left half vanishes carry a spanning set of the
    intersection in their right half.
    """
    _check_same_ambient(a, b)
    n = a.ambient_dim
    if a.dimension == 0 or b.dimension == 0:
        return zero_space(n)
    zero_tail = (_ZERO,) * n
    rows = _echelon([v + v for v in a.basis] + [w + zero_tail for w in b.basis])
    carriers = [row[n:] for p, row in rows.items() if p >= n]
    return rref_basis(carriers, n)


def _matrix_side(space: Subspace) -> int:
    """The n for which `space` lives in the flattened n x n matrices."""
    n = math.isqrt(space.ambient_dim)
    if n * n != space.ambient_dim:
        raise ValueError(f"ambient dimension {space.ambient_dim} is not a square")
    return n


def _combination(
    coeffs: Sequence[int | Fraction], vectors: Sequence[Sequence[Fraction]], length: int
) -> list[Fraction]:
    """The vector sum of c * v over paired coefficients and vectors of the
    given length; zero coefficients are skipped."""
    acc = [_ZERO] * length
    for c, v in zip(coeffs, vectors):
        if c:
            acc = [u + c * x for u, x in zip(acc, v)]
    return acc


def subspace_contains(space: Subspace, vec: Sequence[int | str | Fraction]) -> bool:
    v = as_vector(vec, space.ambient_dim)
    return not any(_reduce(v, zip(space.pivots, space.basis)))


class Quotient:
    """Coordinates on Q^m / sub for a subspace `sub` of Q^m.

    The coset basis is the set of standard basis vectors at the non-pivot
    coordinates of `sub`, which completes its reduced echelon basis; a
    vector's coordinates are its residual modulo `sub` read there.
    """

    def __init__(self, sub: Subspace):
        self.sub = sub
        pivot_set = set(sub.pivots)
        self.coset_coords = [c for c in range(sub.ambient_dim) if c not in pivot_set]
        self.dim = len(self.coset_coords)

    def project(self, vec: Sequence[Fraction]) -> list[Fraction]:
        r = _reduce(vec, zip(self.sub.pivots, self.sub.basis))
        return [r[c] for c in self.coset_coords]

    def lift(self, coords: Sequence[Fraction]) -> list[Fraction]:
        vec = [_ZERO] * self.sub.ambient_dim
        for x, c in zip(coords, self.coset_coords):
            vec[c] = x
        return vec

    def images(self) -> list[list[tuple[int, Fraction]]]:
        """The residual of each standard basis vector e_a as sparse (coordinate,
        coefficient) pairs: e_a off the pivots, e_p - (basis row of p) at a pivot p."""
        images = [[(a, _ONE)] for a in range(self.sub.ambient_dim)]
        for row, p in zip(self.sub.basis, self.sub.pivots):
            images[p] = [(f, -c) for f, c in enumerate(row) if c and f != p]
        return images


def solve_linear(m: Matrix, rhs: Sequence[int | str | Fraction]) -> Vector | None:
    """One exact solution of m @ x = rhs, or None when inconsistent.

    Free variables are fixed at zero, so the answer is deterministic.
    """
    b = as_vector(rhs, m.rows)
    ncols = m.cols
    rows = _echelon(row + (val,) for row, val in zip(m.entries, b))
    if ncols in rows:
        return None  # pivot in the constant column: 0 = 1
    solution = [_ZERO] * ncols
    for p, row in rows.items():
        solution[p] = row[ncols]
    return tuple(solution)


def null_space(m: Matrix) -> Subspace:
    """Canonical basis of {x : m @ x = 0} inside Q^cols."""
    rows = _echelon(m.entries)
    ncols = m.cols
    free = [c for c in range(ncols) if c not in rows]
    basis = []
    for f in free:
        vec = [_ZERO] * ncols
        vec[f] = _ONE
        for p, row in rows.items():
            coeff = row[f]
            if coeff:
                vec[p] = -coeff
        basis.append(vec)
    return rref_basis(basis, ncols)


def _joint_kernel(mats: Sequence[Matrix], n: int) -> Subspace:
    """Canonical basis of {v in Q^n : m v = 0 for every m in mats}: one
    null space of the matrices stacked row-wise.  `mats` must be nonempty."""
    return null_space(Matrix._make(tuple(row for m in mats for row in m.entries)))


class SpanBuilder:
    """Incremental span accumulator for rank and membership queries.

    Keeps fully reduced rows keyed by pivot, so adding a vector or testing
    membership costs one reduction, and `to_subspace` only sorts the rows.
    Useful inside closure loops where a subspace grows vector by vector.
    """

    def __init__(self, ambient_dim: int):
        self.ambient_dim = ambient_dim
        self._rows: dict[int, list[Fraction]] = {}

    @property
    def dimension(self) -> int:
        return len(self._rows)

    def add(self, vec: Sequence[int | str | Fraction]) -> bool:
        """Adjoin a vector; returns True when the span grew."""
        residual = _reduce(as_vector(vec, self.ambient_dim), self._rows.items())
        if not any(residual):
            return False
        _adjoin(self._rows, residual)
        return True

    def contains(self, vec: Sequence[int | str | Fraction]) -> bool:
        return not any(_reduce(as_vector(vec, self.ambient_dim), self._rows.items()))

    def to_subspace(self) -> Subspace:
        return _canonical(self.ambient_dim, self._rows)


def random_matrix(
    rng: random.Random, rows: int, cols: int | None = None, *, lo: int = -3, hi: int = 3
) -> Matrix:
    """Random integer matrix with entries drawn uniformly from [lo, hi]."""
    cols = rows if cols is None else cols
    return Matrix._make(
        tuple(
            tuple(Fraction(rng.randint(lo, hi)) for _ in range(cols))
            for _ in range(rows)
        )
    )


# Draw limit of the rejection samplers below.  Once a range passes the
# checks, a draw is rejected with probability about 2/3 at worst: a
# {0, 1} matrix is singular 338 times in 512 at side 3, 0.656 at side 4,
# 0.627 at side 5, and less for wider ranges.  1000 rejections in a row
# then have probability below 1e-170.
_DRAW_LIMIT = 1000


def random_invertible(rng: random.Random, n: int, *, lo: int = -3, hi: int = 3) -> Matrix:
    """Random invertible n x n integer matrix (rejection sampling).

    Raises ValueError when no matrix with entries in [lo, hi] is
    invertible: an empty range, or a single value unless n == 1 and the
    value is nonzero.
    """
    if lo > hi:
        raise ValueError(f"empty entry range [{lo}, {hi}]")
    if lo == hi and not (n == 1 and lo != 0):
        raise ValueError(f"no invertible {n}x{n} matrix has every entry equal to {lo}")
    for _ in range(_DRAW_LIMIT):
        m = random_matrix(rng, n, lo=lo, hi=hi)
        try:
            m.inverse()
        except ValueError:
            continue
        return m
    raise RuntimeError(f"no invertible matrix in {_DRAW_LIMIT} draws")


def random_subspace(
    rng: random.Random, ambient_dim: int, dim: int, *, lo: int = -3, hi: int = 3
) -> Subspace:
    """Random subspace of exactly the requested dimension (rejection sampling).

    Raises ValueError when vectors with entries in [lo, hi] cannot span
    `dim` dimensions: an empty range, the single value 0 with dim >= 1,
    or any single value with dim >= 2.
    """
    if not 0 <= dim <= ambient_dim:
        raise ValueError(f"dimension {dim} out of range for ambient {ambient_dim}")
    if lo > hi:
        raise ValueError(f"empty entry range [{lo}, {hi}]")
    if lo == hi and dim >= (1 if lo == 0 else 2):
        raise ValueError(f"vectors with every entry equal to {lo} span less than {dim} dimensions")
    for _ in range(_DRAW_LIMIT):
        vectors = [
            [Fraction(rng.randint(lo, hi)) for _ in range(ambient_dim)] for _ in range(dim)
        ]
        space = rref_basis(vectors, ambient_dim)
        if space.dimension == dim:
            return space
    raise RuntimeError(f"no {dim}-dimensional subspace in {_DRAW_LIMIT} draws")
