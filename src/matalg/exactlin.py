"""Exact linear algebra over the rationals.

Every scalar this package hands out is an arbitrary-precision rational
(`fractions.Fraction`) in lowest terms, so all computations here are
exact: no floating point, no rounding, no tolerances.  Equality questions
(membership, subspace equality, nilpotency, ...) are therefore decided,
not estimated.

Inside, the arithmetic is over the integers, and `Fraction`s are made only
at the edges: when the basis of a `Subspace` or the entries of a matrix
are read out.  Rational input is read in once, by `_integer_entries`,
which clears the denominators of the entries of a matrix or a vector;
the helpers inside (`_primitive`, `_reduce`, `_adjoin`) take integers
only.  A matrix is stored as its entries times their
least common denominator, so a product is one integer product over
the product of two denominators: `_rows_times_columns`, the one
sum-of-products expression of the package, which forms the entries at
given (row, column) cells, all of them for a full product.  A square
product of small integers can also be one big-integer dot product of that
expression (`_packed_product`), its entries packed in 64-bit fields and
read back in one decode.  `_product`, the one full square product, picks
between the two for its operands (`_Factor`s).  Row reduction
is one fraction-free kernel (`_reduce`, `_adjoin`): rows fully reduced
over one common pivot value, which is the reduced row-echelon form times
its least common denominator, and integer vectors reduced against them
in one pass, all in a `SpanBuilder`.  A `Subspace` stores those rows.

Conventions used throughout the package:

* Vectors are tuples of rationals; matrices are immutable, dense, and
  stored row-major as integers over one positive denominator.
* The space of n x n matrices is identified with coordinate space of
  dimension n*n by row-major flattening: entry (i, j) lives at coordinate
  i*n + j (0-based).
* A `Subspace` is stored canonically as its reduced row-echelon basis
  times the least common denominator, keyed by the strictly increasing
  pivot columns, with that denominator.  Two subspaces are equal as sets
  if and only if their stored forms compare equal, so `==` on `Subspace`
  is set equality.
"""

from __future__ import annotations

import math
import operator
import random
import sys
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Container, Iterable, Sequence

__all__ = [
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
    "null_space",
    "random_matrix",
    "random_invertible",
    "random_subspace",
]

Vector = tuple[Fraction, ...]

_ZERO = Fraction(0)


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

    A matrix is stored in one canonical form: its row-major entries times
    their least common denominator, as a tuple of ints, and that positive
    denominator; the two have gcd 1, so equal matrices store the same
    form.  Products, inversion and the solvers read the integers
    directly; `entries`, `flatten()`, indexing and `trace()` make
    `Fraction`s on each call, so code that loops over matrices reads the
    integer form (`_integer_form`) instead.
    """

    __slots__ = ("rows", "cols", "_den", "_flat")

    def __init__(self, rows: Sequence[Sequence[int | str | Fraction]]):
        grid = tuple(tuple(row) for row in rows)
        den, flat = _integer_entries([e for row in grid for e in row])
        width = len(grid[0]) if grid else 0
        if width and any(len(row) != width for row in grid):
            raise ValueError("rows have inconsistent lengths")
        self._store(len(grid), width, den, flat)

    @classmethod
    def _make(cls, rows: int, cols: int, den: int, flat: tuple[int, ...]) -> "Matrix":
        """The rows x cols matrix with row-major entries flat / den, for a
        tuple of ints and a positive int."""
        m = object.__new__(cls)
        m._store(rows, cols, den, flat)
        return m

    def _store(self, rows: int, cols: int, den: int, flat: tuple[int, ...]) -> None:
        # the one constructor: every route ends here and divides out the gcd
        if rows < 1 or cols < 1:
            raise ValueError("matrix needs at least one row and one column")
        self.rows: int = rows
        self.cols: int = cols
        self._den, self._flat = _lowest_terms(den, flat)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._make(n, n, 1, tuple(int(i == j) for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int | None = None) -> "Matrix":
        cols = rows if cols is None else cols
        return cls._make(rows, cols, 1, (0,) * (rows * cols))

    @classmethod
    def unit(cls, n: int, i: int, j: int) -> "Matrix":
        """Matrix unit e_{i,j}: a single 1 at row i, column j (0-based)."""
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"unit position ({i}, {j}) out of range for n={n}")
        return cls._make(n, n, 1, tuple(int(c == i * n + j) for c in range(n * n)))

    @classmethod
    def from_flat(cls, vec: Sequence[int | str | Fraction], n: int) -> "Matrix":
        """Rebuild an n x n matrix from its row-major flattening."""
        if len(vec) != n * n:
            raise ValueError(f"expected {n * n} coordinates, got {len(vec)}")
        return cls._make(n, n, *_integer_entries(vec))

    def _integer_form(self) -> tuple[int, tuple[int, ...]]:
        """The least common denominator d of the entries, and the row-major
        entries times d, as integers with gcd 1 together with d."""
        return self._den, self._flat

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """The rows of `Fraction` entries."""
        return tuple(_split_rows(self.flatten(), self.cols))

    def flatten(self) -> Vector:
        """Row-major flattening: entry (i, j) goes to coordinate i*cols + j."""
        den = self._den
        if den == 1:
            return tuple(map(Fraction, self._flat))
        return tuple(Fraction(e, den) for e in self._flat)

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        # range indexing checks each index and counts negative ones from the end
        at = range(self.rows)[i] * self.cols + range(self.cols)[j]
        return Fraction(self._flat[at], self._den)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Matrix)
            and self.cols == other.cols
            and self._den == other._den
            and self._flat == other._flat
        )

    def __hash__(self) -> int:
        return hash((self.cols, self._den, self._flat))

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, operator.add)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, operator.sub)

    def _combine(self, other: "Matrix", op) -> "Matrix":
        self._check_same_shape(other)
        den = math.lcm(self._den, other._den)
        a, b = den // self._den, den // other._den
        flat = tuple(op(a * x, b * y) for x, y in zip(self._flat, other._flat))
        return Matrix._make(self.rows, self.cols, den, flat)

    def __neg__(self) -> "Matrix":
        return Matrix._make(self.rows, self.cols, self._den, tuple(-e for e in self._flat))

    def __mul__(self, other: "Matrix | int | Fraction") -> "Matrix":
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise ValueError(
                    f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
                )
            cols = other.cols
            flat = _rows_times_columns(
                _split_rows(self._flat, self.cols),
                _split_columns(other._flat, cols),
                product(range(self.rows), range(cols)),
            )
            return Matrix._make(self.rows, other.cols, self._den * other._den, flat)
        scale = as_scalar(other)
        flat = tuple(scale.numerator * e for e in self._flat)
        return Matrix._make(self.rows, self.cols, self._den * scale.denominator, flat)

    def __rmul__(self, other: int | Fraction) -> "Matrix":
        return self.__mul__(other)

    def __pow__(self, k: int) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("powers need a square matrix")
        if k < 0:
            raise ValueError("negative powers are not supported; invert explicitly")
        if k == 0:
            return Matrix.identity(self.rows)
        result = self
        for _ in range(k - 1):
            result = result * self
        return result

    def transpose(self) -> "Matrix":
        flat, c = self._flat, self.cols
        return Matrix._make(c, self.rows, self._den, tuple(e for j in range(c) for e in flat[j::c]))

    def trace(self) -> Fraction:
        if self.rows != self.cols:
            raise ValueError("trace needs a square matrix")
        return Fraction(sum(self._flat[:: self.cols + 1]), self._den)

    def is_zero(self) -> bool:
        return not any(self._flat)

    def inverse(self) -> "Matrix":
        """Exact inverse: the reduced echelon form of [M | I] is [I | M^-1];
        raises ValueError when singular."""
        if self.rows != self.cols:
            raise ValueError("only square matrices can be inverted")
        n, d = self.rows, self._den
        # row i of [M | I] times the common denominator d of M
        identity = [tuple(d if i == j else 0 for j in range(n)) for i in range(n)]
        span = SpanBuilder._spanning(2 * n, map(operator.add, _split_rows(self._flat, n), identity))
        den, rows = span._den, span._rows
        # [M | I] has rank n, so a singular M leaves a pivot in the I block
        if max(rows) >= n:
            raise ValueError("matrix is singular")
        return Matrix._make(n, n, den, tuple(e for p in range(n) for e in rows[p][n:]))

    def _check_same_shape(self, other: "Matrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def __repr__(self) -> str:
        body = ", ".join("[" + ", ".join(str(e) for e in row) + "]" for row in self.entries)
        return f"Matrix([{body}])"


def _integer_entries(values: Sequence[int | str | Fraction]) -> tuple[int, tuple[int, ...]]:
    """The least common denominator d of the scalars, after the coercion
    of `as_scalar`, and the scalars times d, as integers: the values
    themselves when they are all ints, and no coercion when they are all
    Fractions."""
    if all(type(x) is int for x in values):
        return 1, tuple(values)
    if not all(type(x) is Fraction for x in values):
        values = as_vector(values)
    parts = [x.as_integer_ratio() for x in values]
    den = math.lcm(*(d for _, d in parts))
    return den, tuple(p * (den // d) for p, d in parts)


def _lowest_terms(den: int, ints: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """The rational vector ints / den, for a positive den, as a positive
    denominator and a tuple of ints that have gcd 1 together."""
    if den != 1:
        g = math.gcd(den, *ints)
        if g != 1:
            return den // g, tuple(e // g for e in ints)
    return den, tuple(ints)


def _split_rows(flat: Sequence, width: int) -> list[Sequence]:
    """The rows of a row-major flattening with `width` columns."""
    return [flat[i : i + width] for i in range(0, len(flat), width)]


def _split_columns(flat: Sequence, width: int) -> list[Sequence]:
    """The columns of a row-major flattening with `width` columns."""
    return [flat[j::width] for j in range(width)]


def _rows_times_columns(
    rows: Sequence[Sequence[int]],
    columns: Sequence[Sequence[int]],
    cells: Iterable[tuple[int, int]],
) -> tuple[int, ...]:
    """The entries at `cells`, in their order, of the product of the integer
    matrix with `rows` and the one with `columns`: row i times column j at
    the cell (i, j).  Every cell in row-major order gives the product
    flattened row-major."""
    return tuple([sum(map(operator.mul, rows[i], columns[j])) for i, j in cells])


# Kronecker substitution: an n x n integer matrix product as one big-integer
# dot product, its n^2 entries held in signed 64-bit fields of the result.
_FIELD_BITS = 64
# the top bit of one field, little-endian: n^2 copies give the offset that
# `_packed_product` adds to make every field nonnegative
_SIGN_BITS = bytes(_FIELD_BITS // 8 - 1) + b"\x80"
# that offset for n^2 fields, by n^2, made the first time a size is packed
_SIGN_OFFSETS: dict[int, int] = {}


def _packed_budget(n: int) -> int:
    """The largest bits(max|u|) + bits(max|v|), bits the bit length, for
    which `_packed_product` of n x n integer matrices u and v is exact: an
    entry of u v is a sum of n products, so it is below
    2^(bits(max|u|) + bits(max|v|) + bits(n)) in absolute value, and a
    64-bit field holds it when that is at most 2^63."""
    return _FIELD_BITS - 1 - n.bit_length()


def _packed_right(v: Sequence[int], n: int) -> list[int]:
    """The flattened n x n integer matrix v as the right factor of
    `_packed_product`: row k of v as one integer, the sum of v[k, j] times
    2^(64 j), shifted by 64 n i bits at place i n + k, for every i and k."""
    rows = [
        sum(e << (_FIELD_BITS * j) for j, e in enumerate(v[k * n : (k + 1) * n])) for k in range(n)
    ]
    return [row << (_FIELD_BITS * n * i) for i in range(n) for row in rows]


def _packed_product(u: Sequence[int], packed: Sequence[int], size: int) -> tuple[int, ...]:
    """The product u v of flattened n x n integer matrices, row-major, for
    `packed` the `_packed_right` of v and size = n^2; exact within
    `_packed_budget`.

    The dot product of u with `packed` is one integer F whose field
    n i + j, of 64 bits, holds the entry (i, j) of u v: one row times one
    column of `_rows_times_columns`.  With every entry c strictly between
    -2^63 and 2^63, F + off for off = sum over s of 2^(64 s + 63) has the
    digit c + 2^63 in field s, and the xor with off leaves c as a signed
    64-bit field, so the bytes read back as an `array` of n^2 entries."""
    (f,) = _rows_times_columns([u], [packed], [(0, 0)])
    off = _SIGN_OFFSETS.get(size)
    if off is None:
        off = _SIGN_OFFSETS[size] = int.from_bytes(_SIGN_BITS * size, "little")
    fields = array("q", ((f + off) ^ off).to_bytes(size * _FIELD_BITS // 8, "little"))
    if sys.byteorder != "little":
        fields.byteswap()
    return tuple(fields)


class _Factor:
    """A flattened n x n integer matrix as an operand of `_product` and of
    `_rows_times_columns`: its integers and the bit length of its largest
    absolute entry, with its packed form (`_packed_right`), rows and
    columns made the first time a product reads them.

    Its row mask has bit i set when row i may be nonzero, and its column
    mask bit j when column j may be: x y is zero when x's column mask and
    y's row mask share no bit, so a caller can skip forming it.  The masks
    are read off the integers the first time they are read, or taken from
    the factors of a product (`_of_product`)."""

    __slots__ = ("flat", "bits", "n", "_packed", "_rows", "_columns", "_row_mask", "_column_mask")

    def __init__(self, flat: Sequence[int], n: int):
        self.flat = flat
        self.bits = max(map(abs, flat)).bit_length()
        self.n = n
        self._packed = self._rows = self._columns = self._row_mask = self._column_mask = None

    @classmethod
    def _of_product(cls, flat: Sequence[int], x: "_Factor", y: "_Factor") -> "_Factor":
        """The product flat = x y as a `_Factor`.  Its nonzero rows lie among
        x's and its nonzero columns among y's, so it takes x's row mask and
        y's column mask, and its integers are not scanned for them."""
        factor = cls(flat, x.n)
        factor._row_mask, factor._column_mask = x.row_mask, y.column_mask
        return factor

    @property
    def row_mask(self) -> int:
        if self._row_mask is None:
            flat, n = self.flat, self.n
            self._row_mask = sum(1 << i for i in range(n) if any(flat[i * n : (i + 1) * n]))
        return self._row_mask

    @property
    def column_mask(self) -> int:
        if self._column_mask is None:
            flat, n = self.flat, self.n
            self._column_mask = sum(1 << j for j in range(n) if any(flat[j::n]))
        return self._column_mask

    @property
    def packed(self) -> list[int]:
        if self._packed is None:
            self._packed = _packed_right(self.flat, self.n)
        return self._packed

    @property
    def rows(self) -> list[Sequence[int]]:
        if self._rows is None:
            self._rows = _split_rows(self.flat, self.n)
        return self._rows

    @property
    def columns(self) -> list[Sequence[int]]:
        if self._columns is None:
            self._columns = _split_columns(self.flat, self.n)
        return self._columns


def _product(x: _Factor, y: _Factor) -> tuple[int, ...]:
    """The product x y of two n x n `_Factor`s, flattened row-major: x's
    integers times y's rows packed in 64-bit fields (`_packed_product`),
    exact while bits(max|x|) + bits(max|y|) + bits(n) <= 63
    (`_packed_budget`), and row by column (`_rows_times_columns`) past it.
    Only the right factor is packed, once, so a spin that multiplies many
    words by few images (`algebra._spin_matrices`) packs only the images."""
    n = x.n
    if x.bits + y.bits <= _packed_budget(n):
        return _packed_product(x.flat, y.packed, n * n)
    return _rows_times_columns(x.rows, y.columns, product(range(n), range(n)))


def _reduce(
    vec: Sequence[int], pivot_rows: Iterable[tuple[int, Sequence[int]]], den: int = 1
) -> list[int]:
    """Residual of the integer vector `vec` modulo `(pivot, row)` pairs
    fully reduced over the common pivot value `den`.

    Each row is `den` at its own pivot and 0 at every other pivot, so the
    residual is den * vec - sum of vec[p] * row over the pivots p, one
    pass in any order.  It is den times the rational residual: zero
    exactly when `vec` lies in the span of the rows, and zero at each of
    their pivots.
    """
    r = list(vec) if den == 1 else [den * a for a in vec]
    for p, row in pivot_rows:
        f = vec[p]
        if f:
            r = [a - f * b if b else a for a, b in zip(r, row)]
    return r


def _adjoin(rows: dict[int, list[int]], residual: list[int], den: int = 1) -> int:
    """Insert a nonzero residual of `_reduce` into `rows` keyed by pivot,
    fully reduced over the common pivot value `den`, and return the new
    common pivot value.

    The residual's first nonzero coordinate p becomes a pivot and the
    column p is cleared from the other rows.  Over the integers the
    residual is made primitive with a positive entry f at p, and the rows
    with an entry c at p become f * row - c * residual: with den times the
    residual, all rows are then over den * f.  Everything is divided by
    the gcd g of that value and all entries, so the rows over the new
    value den * f / g are the reduced row-echelon form of their span times
    its least common denominator.  The rows without an entry at p are only
    scaled by f / g, which leaves them as they are when f == g: a least
    common denominator that does not grow, in 59-98% of the adjoins of the
    benchmark's workloads (`BENCH_36.json`).
    """
    p = next(i for i, e in enumerate(residual) if e)
    content = math.gcd(*residual)
    if residual[p] < 0:
        content = -content
    if content != 1:
        residual = [e // content for e in residual]
    f = residual[p]
    # the rows with an entry c at p, cleared there: f * row - c * residual,
    # over the pivot value den * f like the other rows times f
    cleared = {}
    for q, row in rows.items():
        c = row[p]
        if c:
            cleared[q] = (
                [a - c * b if b else a for a, b in zip(row, residual)]
                if f == 1
                else [f * a - c * b for a, b in zip(row, residual)]
            )
    # the gcd g of den * f and every entry divides den, because den times
    # the primitive residual is the new row
    g = den
    for q, row in rows.items():
        if g == 1:
            break
        if q in cleared:
            g = math.gcd(g, *cleared[q])
        else:
            g = math.gcd(g, f * math.gcd(*row))
    k = math.gcd(f, g)
    up, down = f // k, g // k
    for q, row in rows.items():
        if q in cleared:
            rows[q] = cleared[q] if g == 1 else [e // g for e in cleared[q]]
        elif up != down:  # coprime, so equal only when both are 1
            rows[q] = [e * up // down for e in row]
    rows[p] = [den // g * e for e in residual]
    return den // g * f


def _integer_vector(vec: Iterable[int | str | Fraction], ambient_dim: int) -> Sequence[int]:
    """A positive multiple of the vector with integer entries, after the
    length check and the coercion of `as_vector`: the vector itself when
    it holds only ints, and no coercion when it holds only Fractions."""
    vec = tuple(vec)
    if len(vec) != ambient_dim:
        raise ValueError(f"expected vector of length {ambient_dim}, got {len(vec)}")
    return _integer_entries(vec)[1]


@dataclass(init=False)
class Subspace:
    """A linear subspace of coordinate space, in canonical form.

    A subspace is stored in one form: the (pivot, row) pairs of its
    reduced row-echelon basis times the least common denominator, in
    increasing pivot order, and that positive denominator, which has gcd 1
    with the entries; equal subspaces store the same form, and equality
    and hashing compare it.  Reductions read it (`_integer_form`); `basis`
    and `pivots` are built on each call, and `basis` makes `Fraction`s, so
    code that loops reads it once.  The package builds instances from that
    form (`_make`); `Subspace(ambient_dim, basis, pivots)`, and so
    `dataclasses.replace(space, basis=..., pivots=...)`, takes a reduced
    row-echelon basis with its pivots.
    """

    ambient_dim: int
    _den: int = field(init=False)
    _rows: tuple[tuple[int, tuple[int, ...]], ...] = field(init=False)

    def __init__(self, ambient_dim: int, basis: Iterable[Vector], pivots: Sequence[int]):
        basis = [as_vector(row) for row in basis]
        span = rref_basis(basis, ambient_dim)
        # the canonical rows of a span are its only reduced row-echelon basis
        if span.pivots != tuple(pivots) or span.basis != tuple(basis):
            raise ValueError(f"basis is no reduced row-echelon basis with pivots {tuple(pivots)}")
        self.ambient_dim, self._den, self._rows = ambient_dim, span._den, span._rows

    @classmethod
    def _make(cls, ambient_dim: int, den: int, rows: tuple) -> "Subspace":
        """The subspace with the stored form (den, rows), which must be canonical."""
        space = object.__new__(cls)
        space.ambient_dim, space._den, space._rows = ambient_dim, den, rows
        return space

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self._den, self._rows))

    @property
    def basis(self) -> tuple[Vector, ...]:
        """The reduced row-echelon basis, as `Fraction`s."""
        return tuple(_fraction_row(self._den, row) for _, row in self._rows)

    @property
    def pivots(self) -> tuple[int, ...]:
        """The pivot columns of the basis, strictly increasing."""
        return tuple(p for p, _ in self._rows)

    @property
    def dimension(self) -> int:
        return len(self._rows)

    def contains(self, vec: Sequence[Fraction]) -> bool:
        return subspace_contains(self, vec)

    def _integer_form(self) -> tuple[int, tuple[tuple[int, tuple[int, ...]], ...]]:
        """The least common denominator d of the basis, and the (pivot,
        basis row times d) pairs: rows fully reduced over the pivot value d."""
        return self._den, self._rows

    def basis_matrices(self, n: int) -> list[Matrix]:
        """Interpret the basis vectors as n x n matrices (ambient must be n*n)."""
        if self.ambient_dim != n * n:
            raise ValueError(f"ambient dimension {self.ambient_dim} is not {n}*{n}")
        return [Matrix._make(n, n, self._den, row) for _, row in self._rows]

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dimension}, ambient={self.ambient_dim})"


def _fraction_row(den: int, row: Sequence[int]) -> Vector:
    """The integer row over the positive value `den`, as `Fraction`s."""
    return tuple(Fraction(e, den) if e else _ZERO for e in row)


def rref_basis(vectors: Iterable[Sequence[int | str | Fraction]], ambient_dim: int) -> Subspace:
    """Canonical subspace spanned by `vectors` inside Q^ambient_dim."""
    return SpanBuilder._spanning(ambient_dim, (_integer_vector(v, ambient_dim) for v in vectors)).to_subspace()


def _coordinate_span(ambient_dim: int, coords: Iterable[int]) -> Subspace:
    """Canonical span of the standard basis vectors at the distinct
    `coords`: sorted unit rows are a reduced echelon basis already."""
    return Subspace._make(
        ambient_dim,
        1,
        tuple((p, tuple(int(c == p) for c in range(ambient_dim))) for p in sorted(coords)),
    )


def _unit_span(n: int, positions: Iterable[tuple[int, int]]) -> Subspace:
    """Canonical span of the matrix units e_{i,j} at `positions` (in any
    order, repeats allowed) inside the flattened n x n matrices."""
    coords = set()
    for i, j in positions:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"unit position ({i}, {j}) out of range for n={n}")
        coords.add(i * n + j)
    return _coordinate_span(n * n, coords)


def zero_space(ambient_dim: int) -> Subspace:
    _check_ambient_dim(ambient_dim)
    return Subspace._make(ambient_dim, 1, ())


def full_space(ambient_dim: int) -> Subspace:
    _check_ambient_dim(ambient_dim)
    return _coordinate_span(ambient_dim, range(ambient_dim))


def _check_ambient_dim(ambient_dim: int) -> None:
    """Reject a negative ambient dimension; 0 is a valid one."""
    if ambient_dim < 0:
        raise ValueError(f"negative ambient dimension {ambient_dim}")


def _check_same_ambient(a: Subspace, b: Subspace) -> None:
    if a.ambient_dim != b.ambient_dim:
        raise ValueError(
            f"ambient dimension mismatch: {a.ambient_dim} vs {b.ambient_dim}"
        )


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    """Canonical basis of a + b."""
    _check_same_ambient(a, b)
    rows = a._integer_form()[1] + b._integer_form()[1]
    return SpanBuilder._spanning(a.ambient_dim, (row for _, row in rows)).to_subspace()


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
    zero_tail = (0,) * n
    blocks = SpanBuilder._spanning(
        2 * n, [v + v for _, v in a._integer_form()[1]] + [w + zero_tail for _, w in b._integer_form()[1]]
    )
    return SpanBuilder._spanning(n, (row[n:] for p, row in blocks._integer_form()[1] if p >= n)).to_subspace()


def _matrix_side(space: Subspace) -> int:
    """The n for which `space` lives in the flattened n x n matrices."""
    n = math.isqrt(space.ambient_dim)
    if n * n != space.ambient_dim:
        raise ValueError(f"ambient dimension {space.ambient_dim} is not a square")
    return n


def _primitive(vec: Sequence[int]) -> list[int]:
    """The nonzero integer vector divided by the gcd of its entries: the
    primitive integer vector (entries with gcd 1) on its positive ray."""
    g = math.gcd(*vec)
    return [v // g for v in vec]


def _combination(coeffs: Sequence[int], vectors: Sequence[Sequence[int]], length: int) -> list[int]:
    """The integer vector sum of c * v over paired integer coefficients and
    vectors of the given length; zero coefficients are skipped."""
    acc = [0] * length
    for c, v in zip(coeffs, vectors):
        if c:
            acc = [u + c * x for u, x in zip(acc, v)]
    return acc


def subspace_contains(space: Subspace, vec: Sequence[int | str | Fraction]) -> bool:
    den, rows = space._integer_form()
    return not any(_reduce(_integer_vector(vec, space.ambient_dim), rows, den))


def _coset_images(sub: Subspace) -> list[list[tuple[int, int]]]:
    """D times the coset of each standard basis vector e_a modulo `sub`,
    D the pivot value of its integer form, as sparse (coordinate,
    coefficient) pairs of integers: D e_a off the pivots of `sub`, and
    minus the integer row of p off p at a pivot p (D e_p minus that row)."""
    den, rows = sub._integer_form()
    images = [[(a, den)] for a in range(sub.ambient_dim)]
    for p, row in rows:
        images[p] = [(f, -c) for f, c in enumerate(row) if c and f != p]
    return images


def null_space(m: Matrix) -> Subspace:
    """Canonical basis of {x : m @ x = 0} inside Q^cols: the rows of m
    reduced once (`SpanBuilder._spanning`), then `_kernel` on those rows."""
    return _kernel(*SpanBuilder._spanning(m.cols, _split_rows(m._flat, m.cols))._integer_form(), m.cols)


def _kernel(
    den: int, pivot_rows: Iterable[tuple[int, Sequence[int]]], ncols: int
) -> Subspace:
    """Canonical basis of the x in Q^ncols orthogonal to the `(pivot, row)`
    pairs fully reduced over the common pivot value `den`: the stored form
    of a `Subspace` or of a `SpanBuilder` (`_integer_form` of either).

    The rows are read as they are, not reduced again: their ncols - d
    free-column vectors (`_free_column_vectors`), d the number of rows,
    are put in canonical form by one `SpanBuilder._spanning`, at ncols - d
    adjoins.
    """
    return SpanBuilder._spanning(ncols, _free_column_vectors(den, pivot_rows, ncols)).to_subspace()


def _free_column_vectors(
    den: int, pivot_rows: Iterable[tuple[int, Sequence[int]]], ncols: int, skip: Container[int] = ()
) -> list[list[int]]:
    """The kernel vectors read off `(pivot, row)` pairs fully reduced over
    the common pivot value `den`, one for each free column f not in `skip`,
    in increasing f: den e_f minus the column f of the rows, placed at their
    pivots.  The vector at f is zero at every other free column, so the
    vectors at all free columns are a basis of the kernel."""
    rows = dict(pivot_rows)
    basis = []
    for f in range(ncols):
        if f in rows or f in skip:
            continue
        vec = [0] * ncols
        vec[f] = den
        for p, row in rows.items():
            vec[p] = -row[f]
        basis.append(vec)
    return basis


class SpanBuilder:
    """The package's one echelon form: a span grown vector by vector.

    Keeps integer rows keyed by pivot, fully reduced over one common pivot
    value (see `_adjoin`), so adding a vector or testing membership costs
    one reduction, and `to_subspace` only sorts the rows: they are the
    stored form of the span.  A vector of ints is reduced as it is; any
    other is first scaled to integers.  Every echelon form the package grows
    by reduction grows here, in `_add_integers`, the only caller of `_adjoin`.
    """

    def __init__(self, ambient_dim: int):
        _check_ambient_dim(ambient_dim)
        self.ambient_dim = ambient_dim
        self._rows: dict[int, list[int]] = {}
        self._den = 1

    @classmethod
    def _of(cls, space: Subspace) -> "SpanBuilder":
        """A builder holding the stored rows of `space`, not reduced again."""
        builder = cls(space.ambient_dim)
        builder._den, builder._rows = space._den, dict(space._rows)
        return builder

    @classmethod
    def _spanning(cls, ambient_dim: int, vectors: Iterable[Sequence[int]]) -> "SpanBuilder":
        """The span of integer `vectors` of the ambient length, not checked."""
        builder = cls(ambient_dim)
        for vec in vectors:
            builder._add_integers(vec)
        return builder

    @property
    def dimension(self) -> int:
        return len(self._rows)

    def add(self, vec: Sequence[int | str | Fraction]) -> bool:
        """Adjoin a vector; returns True when the span grew."""
        return self._add_integers(_integer_vector(vec, self.ambient_dim)) is not None

    def _add_integers(self, vec: Sequence[int]) -> list[int] | None:
        """`add` for a vector of ints of the ambient length, which is not
        checked again.  Returns the residual it adjoined, `_reduce`'s (the old
        pivot value times the rational residual, in the sign of `vec`, not the
        primitive row `_adjoin` stores), or None when the span holds `vec`:
        at once for a zero vector, which is not reduced."""
        if not any(vec):
            return None
        residual = _reduce(vec, self._rows.items(), self._den)
        if not any(residual):
            return None
        self._den = _adjoin(self._rows, residual, self._den)
        return residual

    def contains(self, vec: Sequence[int | str | Fraction]) -> bool:
        vec = _integer_vector(vec, self.ambient_dim)
        return not any(_reduce(vec, self._rows.items(), self._den))

    def _integer_form(self) -> tuple[int, Iterable[tuple[int, list[int]]]]:
        """`Subspace._integer_form` of the span, its pairs in adjoin order."""
        return self._den, self._rows.items()

    def to_subspace(self) -> Subspace:
        rows = self._rows
        return Subspace._make(self.ambient_dim, self._den, tuple((p, tuple(rows[p])) for p in sorted(rows)))


def random_matrix(rng: random.Random, n: int) -> Matrix:
    """Random n x n integer matrix with entries drawn uniformly from [-3, 3]."""
    return Matrix._make(n, n, 1, tuple(rng.randint(-3, 3) for _ in range(n * n)))


# Draw limit of the rejection samplers below.  A draw is rejected with
# probability at most 1/7, for a 1 x 1 matrix or a line in Q^1 (entry 0):
# 289 of the 2401 2 x 2 matrices are singular (0.120), about 0.070 of the
# 3 x 3 ones, and dependent vectors are rarer still in wider ambient
# spaces.  1000 rejections in a row then have probability below 1e-845.
_DRAW_LIMIT = 1000


def random_invertible(rng: random.Random, n: int) -> Matrix:
    """Random invertible n x n integer matrix with entries in [-3, 3]
    (rejection sampling)."""
    for _ in range(_DRAW_LIMIT):
        m = random_matrix(rng, n)
        try:
            m.inverse()
        except ValueError:
            continue
        return m
    raise RuntimeError(f"no invertible matrix in {_DRAW_LIMIT} draws")


def random_subspace(rng: random.Random, ambient_dim: int, dim: int) -> Subspace:
    """Random subspace of exactly the requested dimension, spanned by
    vectors with entries in [-3, 3] (rejection sampling)."""
    if not 0 <= dim <= ambient_dim:
        raise ValueError(f"dimension {dim} out of range for ambient {ambient_dim}")
    for _ in range(_DRAW_LIMIT):
        vectors = [[rng.randint(-3, 3) for _ in range(ambient_dim)] for _ in range(dim)]
        space = rref_basis(vectors, ambient_dim)
        if space.dimension == dim:
            return space
    raise RuntimeError(f"no {dim}-dimensional subspace in {_DRAW_LIMIT} draws")
