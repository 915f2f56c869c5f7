"""Unital subalgebras of the n x n matrix algebra over Q.

The central objects are spans of matrices that are closed under the
matrix product and contain the identity.  This module builds them
(multiplicative closure, block upper-triangular patterns), analyses their
structure (radical, semisimple block sizes, invariant flags) and decides
whether a given algebra is conjugate to a block upper-triangular one.

Block conventions.  A `Composition` (n_1, ..., n_s) of n partitions the
coordinates 0..n-1 into consecutive blocks; the block upper-triangular
algebra of that type is the span of the matrix units e_{i,j} with
block(i) <= block(j).  Its dimension is (n^2 + sum n_i^2) / 2.

Everything is exact and deterministic: nothing in this module draws
random numbers.  The blocks of the semisimple quotient come from a
deterministic split of its center.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .exactlin import (
    Matrix,
    SpanBuilder,
    Subspace,
    _combination,
    _Factor,
    _free_column_vectors,
    _kernel,
    _lowest_terms,
    _primitive,
    _product,
    _reduce,
    _rows_times_columns,
    _split_columns,
    _split_rows,
    _unit_span,
    null_space,
    rref_basis,
    subspace_contains,
)

__all__ = [
    "Composition",
    "MatrixAlgebra",
    "Flag",
    "WedderburnData",
    "compositions",
    "parabolic_dimension",
    "algebra_from_basis",
    "closure",
    "conjugate",
    "conjugate_space",
    "radical",
    "semisimple_blocks",
    "parabolic_subalgebra",
    "invariant_flag",
    "flag_stabilizer",
    "is_parabolic",
    "absorption_probe",
    "optimal_composition",
    "schur_commutative_check",
]

_Element = tuple[int, tuple[int, ...]]  # the quotient coordinates ints / den


@dataclass(frozen=True)
class Composition:
    """An ordered tuple of positive parts; the block sizes of a partition
    of the coordinates 0..n-1 into consecutive intervals."""

    parts: tuple[int, ...]

    def __init__(self, parts: Iterable[int]):
        parts = tuple(parts)
        # bool is an int, but means nothing here; operator.index rejects
        # floats and strings, which int() would truncate or parse
        if any(isinstance(p, bool) for p in parts):
            raise TypeError(f"parts must be integers, not booleans: {parts}")
        object.__setattr__(self, "parts", tuple(operator.index(p) for p in parts))
        if not self.parts:
            raise ValueError("a composition needs at least one part")
        if any(p < 1 for p in self.parts):
            raise ValueError(f"parts must be positive: {self.parts}")

    @property
    def n(self) -> int:
        return sum(self.parts)

    def block_of(self, index: int) -> int:
        """Block number (0-based) of coordinate `index`."""
        if not 0 <= index < self.n:
            raise ValueError(f"index {index} out of range for n={self.n}")
        upper = 0
        for b, p in enumerate(self.parts):
            upper += p
            if index < upper:
                return b
        raise AssertionError("unreachable")

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __repr__(self) -> str:
        return f"Composition({self.parts})"


def compositions(n: int, *, min_parts: int = 1) -> Iterator[Composition]:
    """All ordered compositions of n, by choosing cut points."""
    if n < 1:
        raise ValueError("n must be positive")
    for k in range(n):
        for cuts in combinations(range(1, n), k):
            bounds = (0,) + cuts + (n,)
            parts = tuple(b - a for a, b in zip(bounds, bounds[1:]))
            if len(parts) >= min_parts:
                yield Composition(parts)


def parabolic_dimension(comp: Composition) -> int:
    """Dimension of the block upper-triangular algebra of the given type:
    (n^2 + sum n_i^2) / 2, always an integer."""
    n = comp.n
    total = n * n + sum(p * p for p in comp.parts)
    return total // 2


@dataclass(frozen=True)
class MatrixAlgebra:
    """A unital subalgebra of M_n(Q), stored as a canonical subspace of
    the flattened matrix space.

    The span must contain the identity and be closed under products; on
    first use `_generating_set` raises ValueError for any other span, the
    zero span among them.  The generating set and the certified radical
    are each found once per algebra object, on first use, and kept with
    it; a ValueError or RuntimeError keeps nothing, so the next use raises
    again.  Equality is subspace equality: neither is compared nor hashed,
    and `dataclasses.replace` does not copy them.
    """

    n: int
    space: Subspace

    @property
    def dimension(self) -> int:
        return self.space.dimension

    def basis_matrices(self) -> list[Matrix]:
        return self.space.basis_matrices(self.n)

    def contains(self, m: Matrix) -> bool:
        _check_square(m, self.n)
        return subspace_contains(self.space, m._integer_form()[1])

    @cached_property
    def _generating_set(self) -> list[_Factor]:
        """Basis rows that generate the algebra as a unital algebra
        (`_spin_generators`), as `_Factor`s, each packed and split once for
        all its products."""
        return _spin_generators(self.n, self.space)

    @cached_property
    def _radical(self) -> tuple[Subspace, Subspace, tuple[Matrix, tuple[int, ...]], Matrix]:
        """The radical with its certificate, as `_certified_radical` returns
        them."""
        return _certified_radical(self)

    def __repr__(self) -> str:
        return f"MatrixAlgebra(n={self.n}, dim={self.dimension})"


def _check_square(m: Matrix, n: int) -> None:
    if m.rows != n or m.cols != n:
        raise ValueError(f"expected a {n}x{n} matrix, got {m.rows}x{m.cols}")


def algebra_from_basis(n: int, matrices: Sequence[Matrix]) -> MatrixAlgebra:
    """Wrap a spanning set as a `MatrixAlgebra`, checked at once to be a
    unital algebra (`_spin_generators`): ValueError if it is not."""
    for m in matrices:
        _check_square(m, n)
    algebra = MatrixAlgebra(n=n, space=rref_basis([m._integer_form()[1] for m in matrices], n * n))
    algebra._generating_set  # spun now, and kept
    return algebra


def _spin_generators(n: int, space: Subspace) -> list[_Factor]:
    """Basis rows of `space` that generate it as a unital algebra, or
    ValueError when the span does not contain the identity or is not closed
    under products.  The zero span fails the first check before anything
    of size n^2 is built.

    Closedness is proved by spinning (Parker's Meat-Axe, `_spin_matrices`)
    the span W of the identity under the d stored basis rows in pivot
    order; the rows that grow W are the generators.  W ends as the algebra
    that the rows generate, which holds every row, so the span is closed
    exactly when W has dimension d.  A W past d cannot be the span, so the
    spin stops at d + 1, after at most d^2 products (`exactlin._product`).
    """
    if not space.dimension or not subspace_contains(
        space, identity := Matrix.identity(n)._integer_form()[1]
    ):
        raise ValueError("span does not contain the identity matrix")
    rows = [x for _, x in space._integer_form()[1]]
    builder = SpanBuilder(n * n)
    builder._add_integers(identity)
    generators: list[_Factor] = []
    _spin_matrices(builder, [], generators, rows, n, min(len(rows) + 1, n * n))
    if builder.dimension != len(rows):
        raise ValueError("span is not closed under multiplication")
    return generators


def closure(n: int, generators: Sequence[Matrix]) -> MatrixAlgebra:
    """Smallest unital subalgebra of M_n containing the generators: the span
    of the identity spun (`_spin_matrices`) under the generators scaled to
    primitive integer matrices, which generate the same unital algebra."""
    for g in generators:
        _check_square(g, n)
    builder = SpanBuilder(n * n)
    builder.add(Matrix.identity(n)._integer_form()[1])
    _spin_matrices(builder, [], [], _integral_generators(generators), n, n * n)
    return MatrixAlgebra(n=n, space=builder.to_subspace())


def _integral_generators(generators: Sequence[Matrix]) -> list[tuple[int, ...]]:
    """The nonzero generators flattened and scaled to primitive integers."""
    return [tuple(_primitive(g._integer_form()[1])) for g in generators if not g.is_zero()]


def _spin_matrices(
    builder: SpanBuilder, words: list[_Factor], images: list[_Factor], generators: Iterable, n: int, stop: int
) -> None:
    """Spin the span W in `builder`, spanned by 1 and the `words` and closed
    under right multiplication by the `images`, under the flattened integer
    `generators` in their order until it is closed under them or reaches
    dimension `stop`.  A generator in W is skipped, since W is the algebra
    the images generate; one that grows W becomes an image and a word, and
    so does each product that grows W.  The words already listed take the
    newest image only, and each new word takes every image.  At most `stop`
    words each meet each image once, so the k images cost at most stop * k
    products (`exactlin._product`), and only images are packed.

    A pair whose supports do not meet, w's column mask and y's row mask
    (`exactlin._Factor`) sharing no bit, is neither multiplied nor reduced:
    w y is zero, and W holds it.  A word w y takes w's row mask and y's
    column mask, so it is not scanned for them.  W, the words and the
    images are those of the spin that forms every pair."""
    for g in generators:
        if builder.dimension == stop or not builder._add_integers(g):
            continue
        old = len(words)
        words.append(_Factor(g, n))
        images.append(words[-1])
        for k, w in enumerate(words):
            columns = w.column_mask
            for y in images if k >= old else images[-1:]:
                if builder.dimension == stop:
                    return
                if columns & y.row_mask:
                    p = _product(w, y)
                    if builder._add_integers(p):
                        words.append(_Factor._of_product(p, w, y))


def conjugate(a: MatrixAlgebra, c: Matrix) -> MatrixAlgebra:
    """The algebra {c b c^-1 : b in a}; raises ValueError when c is singular."""
    _check_square(c, a.n)
    return MatrixAlgebra(n=a.n, space=conjugate_space(a.space, c))


def conjugate_space(space: Subspace, c: Matrix) -> Subspace:
    """Conjugate a subspace of flattened n x n matrices by c."""
    n = c.rows
    if space.ambient_dim != n * n:
        raise ValueError("subspace ambient does not match the conjugating matrix")
    cinv = c.inverse()
    vecs = [(c * m * cinv)._integer_form()[1] for m in space.basis_matrices(n)]
    return rref_basis(vecs, n * n)


def radical(a: MatrixAlgebra) -> Subspace:
    """The set of x in a with Tr(x b) = 0 for every basis element b.

    Over Q this trace-form kernel is exactly the maximal nilpotent ideal,
    and the result is certified as such before being returned, both
    inclusions through its kernel flag (`_certified_radical`): the flag is
    stabilized by `a`, so the kernel lies in the radical, and the trace
    form is nondegenerate on the section of the quotient, so the radical
    lies in the kernel.  A failure raises RuntimeError (it would mean the
    arithmetic is wrong, not the input).  A span that is not a unital
    algebra, the zero span among them, raises ValueError.  The kernel is
    found in the coordinates of `a`; this is its span of flattened
    matrices, certified once per algebra object (`MatrixAlgebra._radical`).
    """
    return a._radical[0]


def _kernel_flag(rows: Sequence[Sequence[int]], n: int) -> tuple[Matrix, tuple[int, ...]] | None:
    """The kernel flag ker N < ker N^2 < ... < Q^n of the (non-unital)
    algebra N generated by the n x n matrices with flattened integer
    `rows`, as a basis adapted to it with the dimensions of its members
    (`_flag_basis`), or None when N is not nilpotent.

    The row-space chain: words of length j span N^j, so V_j = ker N^j is
    the annihilator of the row space U_j of those words.  U_1 is one
    `SpanBuilder._spanning` of the rows of the matrices and U_{j+1} one of
    the products u m, u an echelon row of U_j (`_rows_times_columns`).
    U_{j+1} <= U_j, so the chain ends at U_j = 0, or with None when dim U_j
    does not drop (U_1 = Q^n among them): at most n steps.  The basis is
    read off the echelon rows of the steps, which are not reduced again.
    """
    columns = [_split_columns(m, n) for m in rows]
    chain = SpanBuilder._spanning(n, (row for m in rows for row in _split_rows(m, n)))
    forms, dim = [], n
    while chain.dimension < dim:
        dim = chain.dimension
        forms.append(chain._integer_form())
        if not dim:
            return _flag_basis(forms, n)
        # the words one letter longer: u m for the rows u of U_j
        u, cells = [row for _, row in chain._integer_form()[1]], [(i, j) for i in range(dim) for j in range(n)]
        words = (_rows_times_columns(u, m, cells) for m in columns)
        chain = SpanBuilder._spanning(n, (row for w in words for row in _split_rows(w, n)))
    return None


def _flag_basis(
    chain: Iterable[tuple[int, Iterable[tuple[int, Sequence[int]]]]], n: int
) -> tuple[Matrix, tuple[int, ...]]:
    """A basis of Q^n adapted to the annihilators V_1 < ... < V_k = Q^n of
    a chain U_1 > ... > U_k = 0 of echelon forms ((pivot, row) pairs fully
    reduced over one pivot value, as `_integer_form` gives them): the n x n
    integer matrix whose first dim V_j columns span V_j, and the tuple of
    those dimensions.

    The pivots of U_{j+1} lie among those of U_j, so the free columns only
    grow along the chain.  The columns for V_j are the free-column vectors
    of U_j (`exactlin._free_column_vectors`) at the columns that were not
    free in U_{j-1}, each made primitive.  They vanish at the free columns
    of U_{j-1}, where a nonzero vector of V_{j-1} does not, so they extend
    the basis of V_{j-1} to one of V_j: no reduction is made.
    """
    columns: list[list[int]] = []
    dims, free = [], set()
    for den, pairs in chain:
        rows = dict(pairs)
        columns += map(_primitive, _free_column_vectors(den, rows.items(), n, free))
        free = set(range(n)).difference(rows)
        dims.append(len(columns))
    return Matrix._make(n, n, 1, tuple(e for row in zip(*columns) for e in row)), tuple(dims)


def _certified_radical(
    a: MatrixAlgebra,
) -> tuple[Subspace, Subspace, tuple[Matrix, tuple[int, ...]], Matrix]:
    """The radical R of `a` (see `radical`), R in the coordinates of `a`
    (`_trace_form_kernel`), its kernel flag V_1 < ... < V_s = Q^n as a
    basis B adapted to the flag with the dimensions of its members, and
    the checked inverse c of B.  (B, dims) and the section places S of R
    in the coordinates of `a` are the certificate of R = rad A.  It is
    found once per algebra object, by `MatrixAlgebra._radical`.

    The flag is the row-space chain of `_kernel_flag` on the stored rows
    of R; that it reaches Q^n proves the algebra N that R generates
    nilpotent.  Two checks then prove R = rad A (Dickson's criterion over
    Q; Cohen, Ivanyos and Wales, J. Pure Appl. Algebra 117-118, 1997):

    (i) R <= rad A.  c g c^-1 must be block upper triangular of type
    gaps(dims) for every g in the generating set of `a`
    (`MatrixAlgebra._generating_set`, which raises ValueError when `a` is
    not a unital algebra; `_flag_conjugator` checks the pattern): every
    flag member is then g-invariant, so a-invariant.  So the x in `a`
    with x V_j <= V_(j-1) for all j form a two-sided ideal I of `a` with
    I^s = 0, and R <= N <= I <= rad A.  A nilpotent two-sided ideal
    generates itself and its flag is a-invariant, so a failure means R is
    not a two-sided ideal.

    (ii) rad A <= R.  The section places S are the coordinates of `a` off
    the pivots of R's coordinate rows.  An x in rad A is r + s for r in R
    and s on the section rows, and s = x - r lies in rad A by (i), so
    Tr(s y) = 0 for every y in `a`.  So G[S, S] s = 0 for the trace Gram
    matrix G that `_trace_form_kernel` forms, and s = 0 when that block is
    nonsingular: one `null_space`.

    When R = 0 both are skipped: the flag is Q^n alone, and G[S, S] is G,
    whose kernel the one elimination has just found zero.  No product of
    `a` with R is formed.

    R's n^2 rows are the combinations of the rows of `a`, its reduced
    echelon basis times den_A, by the coordinate rows of R, R's reduced
    echelon basis in Q^d times den_K: each is den_A den_K at the pivot of
    `a` where its coordinate row has its pivot, and 0 at the pivots of the
    other rows.  So they are R's reduced echelon basis times den_A den_K,
    and dividing them and that value by their gcd gives R's stored form
    with no reduction."""
    n = a.n
    # integer multiples of the generators and of the basis rows of R, which
    # have the same pattern under c and the same kernel flag
    generators = a._generating_set
    den_a, pairs = a.space._integer_form()
    pivots, basis = zip(*pairs)
    coords, gram = _trace_form_kernel(a)
    den, kernel = coords._integer_form()
    combinations = [(pivots[k], _combination(c, basis, n * n)) for k, c in kernel]
    common = math.gcd(den_a * den, *(math.gcd(*row) for _, row in combinations))
    rad = Subspace._make(
        n * n, den_a * den // common, tuple((p, tuple(e // common for e in row)) for p, row in combinations)
    )
    flag = _kernel_flag([r for _, r in rad._integer_form()[1]], n)
    if flag is None:
        raise RuntimeError("radical candidate is not nilpotent")
    if not kernel:
        # R = 0: the flag is Q^n alone, its adapted basis the identity
        return rad, coords, flag, Matrix.identity(n)
    flag_basis, dims = flag
    pattern = _block_upper_positions(Composition(_gaps(dims)))
    try:
        c = _flag_conjugator(flag_basis, [g.flat for g in generators], n, pattern)
    except RuntimeError as error:
        raise RuntimeError(f"radical candidate is not a two-sided ideal: {error}") from None
    d, places = len(pivots), {k for k, _ in kernel}
    section = [k for k in range(d) if k not in places]
    block = tuple(gram[i * d + j] for i in section for j in section)
    if null_space(Matrix._make(len(section), len(section), 1, block)).dimension:
        raise RuntimeError("radical candidate misses part of the radical: its section Gram block is singular")
    return rad, coords, flag, c


def _trace_form_kernel(a: MatrixAlgebra) -> tuple[Subspace, list[int]]:
    """The x in `a` with Tr(x b) = 0 for every b in `a`, the candidate that
    `_certified_radical` checks, in the coordinates of `a`: the canonical
    kernel in Q^d of the trace Gram matrix of the d integer basis rows,
    with that d x d matrix flattened, from which the check reads its
    section block.

    The stored rows of `a` are its reduced echelon basis times one common
    value, so an element of `a` read at the pivots of `a` is that value
    times its coordinates, and the map from coordinates to flattened
    matrices keeps reduced echelon form.  So these rows are those of the
    radical's flattened span read at the pivots of `a`."""
    n = a.n
    # on the integer basis rows (one common multiple of the basis) the Gram
    # matrix is an integer one, with the kernel of the basis one
    basis = [x for _, x in a.space._integer_form()[1]]
    d = len(basis)
    upper = _trace_gram(basis, n)
    gram = [upper[min(i, j), max(i, j)] for i in range(d) for j in range(d)]
    return null_space(Matrix._make(d, d, 1, gram)), gram


def _trace_gram(rows: Sequence[Sequence[int]], n: int) -> dict[tuple[int, int], int]:
    """Tr(b_i b_j) at (i, j) for i <= j, b_i the n x n integer matrices with
    flattened `rows`: the upper triangle of the trace Gram matrix, which is
    symmetric.  Tr(x y) is the dot product of x with the flattened
    transpose of y (`_rows_times_columns`)."""
    d = len(rows)
    flip = [b * n + a for a in range(n) for b in range(n)]
    transposes = [[x[k] for k in flip] for x in rows]
    cells = [(i, j) for i in range(d) for j in range(i, d)]
    return dict(zip(cells, _rows_times_columns(rows, transposes, cells)))


# ---------------------------------------------------------------------------
# Quotient by the radical: products on demand, center, block extraction.
# ---------------------------------------------------------------------------


class _QuotientAlgebra:
    """A/R in coordinates, for R the radical inside the algebra A, given in
    the coordinates of A (`_trace_form_kernel`).

    The section rows are the canonical basis rows of A at the places that
    are not pivots of R's coordinate rows (the unit coordinates off the
    pivots of a subspace span a complement of it), and their cosets are
    the coset basis.  An element is a pair (den, ints) in lowest terms
    (`exactlin._lowest_terms`), so equal elements are equal pairs.  No
    table of products is kept: each product is formed when it is asked
    for, on the lifts of its factors along the section rows (`lift`), over
    the integers.  The integer form of A is its basis times one common d,
    so the integer residual modulo R (see `exactlin._reduce`) of the
    product of two integer combinations of its rows is d^2 times the pivot
    value of R times the residual of the product of the rational
    combinations.

    A vector of A is fixed by its entries at the pivots of A, and read
    there it is its coordinates times that common value, so the whole
    reduction is made at those places: R by its coordinate rows as they
    are, and each product formed only at the d pivot cells
    (`_rows_times_columns`), or at fewer when fewer coordinates are read.
    The section rows are `_Factor`s, split once however often they
    multiply.
    """

    def __init__(self, algebra: MatrixAlgebra, coords: Subspace):
        n = self.n = algebra.n
        self._section_den, rows = algebra.space._integer_form()
        # the d cells that fix a vector of A, and R's rows at those places
        pivots = [p for p, _ in rows]
        self._cells = [divmod(p, n) for p in pivots]
        self._rad_den, self._rad_rows = coords._integer_form()
        rad_places = {k for k, _ in self._rad_rows}
        self._section_places = [k for k in range(len(rows)) if k not in rad_places]
        self._section = [_Factor(rows[k][1], n) for k in self._section_places]
        self.dim = len(self._section)
        # a product of two lifts, reduced, holds coordinates times this
        self._den = self._rad_den * self._section_den**2
        identity = Matrix.identity(n)._integer_form()[1]
        self.one = _lowest_terms(self._rad_den, self._reduced([identity[p] for p in pivots]))
        self._algebra = algebra

    def _reduced(self, entries: Sequence[int]) -> tuple[int, ...]:
        """The coset coordinates, times the pivot value of R, of the vector of
        A with `entries` at the pivots of A: its residual modulo R read at the
        section places."""
        r = _reduce(entries, self._rad_rows, self._rad_den)
        return tuple(r[k] for k in self._section_places)

    def lift(self, u: _Element) -> list[int]:
        """The lift of u along the section rows, sum u_i x_i, as a flattened
        integer matrix: den * d times the rational lift, for u = (den, ints)."""
        return _combination(u[1], [x.flat for x in self._section], self.n * self.n)

    def _right_factor(self, v: _Element) -> tuple[int, list[Sequence[int]]]:
        """The denominator of v and the columns of its lift: the right
        factor of `_times`, lifted once however often it multiplies."""
        return v[0], _split_columns(self.lift(v), self.n)

    def _times(self, u: _Element, right: tuple[int, list[Sequence[int]]]) -> _Element:
        """The product u v, for `right` the `_right_factor` of v: the lifts of
        u and v multiplied at the d pivot cells of A, and reduced modulo R."""
        den, columns = right
        product = _rows_times_columns(_split_rows(self.lift(u), self.n), columns, self._cells)
        return _lowest_terms(u[0] * den * self._den, self._reduced(product))

    def left_trace(self, u: _Element) -> Fraction:
        """Trace of the left multiplication x -> ux: the sum over k of the
        coordinate k of u x_k, for x_k the section rows.  That coordinate is
        read off the entries at the pivot cells of x_k's place and of R's
        places (the residual of `exactlin._reduce` at one place), so u x_k is
        formed at those cells only."""
        rows = _split_rows(self.lift(u), self.n)
        rad_cells = [self._cells[p] for p, _ in self._rad_rows]
        total = 0
        for k, x in zip(self._section_places, self._section):
            at_k, *at_rad = _rows_times_columns(rows, x.columns, [self._cells[k], *rad_cells])
            total += self._rad_den * at_k - sum(c * row[k] for c, (_, row) in zip(at_rad, self._rad_rows))
        return Fraction(total, u[0] * self._den)

    def lift_trace(self, e: _Element) -> int:
        """The trace of the lift of the idempotent e, an integer: the lift
        differs from an idempotent lift by an element of R, which is
        nilpotent and so has trace 0, and an idempotent has its rank as its
        trace.  RuntimeError when it is not an integer."""
        trace, rest = divmod(sum(self.lift(e)[:: self.n + 1]), e[0] * self._section_den)
        if rest:
            raise RuntimeError("the lift of a central idempotent has a trace that is not an integer")
        return trace

    def center(self) -> list[_Element]:
        """Basis of the center of the quotient: the kernel of the commutators
        with a generating set of it (the cosets of A's
        `MatrixAlgebra._generating_set`), since an element that commutes
        with a generating set commutes with everything.  Row (g, k) holds
        the coordinate k of x_i g - g x_i over the section rows x_i; the two
        products are formed at the d pivot cells of A and subtracted before
        the one reduction.  The scale of each row keeps the kernel."""
        m, cells = self.dim, self._cells
        # a zero row keeps the kernel and gives the matrix a row when there
        # is no generator: A = Q I, whose quotient is its own center
        flat = [0] * m
        for g in self._algebra._generating_set:
            commutators = []
            for x in self._section:
                xg = _rows_times_columns(x.rows, g.columns, cells)
                gx = _rows_times_columns(g.rows, x.columns, cells)
                commutators.append(self._reduced([a - b for a, b in zip(xg, gx)]))
            for row in zip(*commutators):
                flat += row
        den, kernel = null_space(Matrix._make(len(flat) // m, m, 1, tuple(flat)))._integer_form()
        return [_lowest_terms(den, row) for _, row in kernel]

    def min_poly(self, z: _Element, one: _Element) -> tuple[list[int], list[_Element]]:
        """A positive multiple of the minimal polynomial of z in the
        subalgebra with identity the idempotent `one` (z = one z), low-degree
        coefficients first, and the powers z^0..z^(d-1) for d <= `dim` its
        degree.  One Krylov elimination in a `SpanBuilder`: z^k, as ints
        over d_k, is tagged with d_k at coordinate dim + k, so every row
        [v | t] has v = sum t_j z^j, and the first residual the builder
        adjoins that vanishes on the first dim coordinates leaves a tag t
        with sum t_j z^j = 0 and t_k > 0 (the residual is in the sign of
        the tagged power, whose tag d_k no earlier row reaches).  z is
        lifted once, as the right factor of every power (`_right_factor`)."""
        m = self.dim
        krylov = SpanBuilder(2 * m + 1)
        powers = []
        current = one
        right = self._right_factor(z)
        for k in range(m + 1):
            tag = [0] * (m + 1)
            tag[k] = current[0]
            residual = krylov._add_integers((*current[1], *tag))
            if not any(residual[:m]):
                return residual[m : m + k + 1], powers
            powers.append(current)
            current = self._times(current, right)
        raise RuntimeError("minimal polynomial degree exceeds the quotient dimension")


def _value(q: Sequence[int], a: int, b: int) -> int:
    """b^e q(a / b) for the integer polynomial q of degree e (low-degree
    coefficients first), by Horner's rule over the integers: the sum of
    q_k a^k b^(e - k).  For b > 0 it has the sign of q(a / b)."""
    acc, scale = 0, 1
    for c in reversed(q):
        acc = acc * a + c * scale
        scale *= b
    return acc


def _deflate(f: Sequence[int], a: int, b: int) -> list[int]:
    """The integer polynomial g with f = (b t - a) g, for an integer
    polynomial f (low-degree coefficients first) with the root a / b in
    lowest terms.  b t - a is primitive, so g has integer coefficients
    (Gauss's lemma) and each step of the division from the top divides
    exactly by b."""
    g = [0]
    for c in reversed(f[1:]):
        g.append((c + a * g[-1]) // b)
    return g[:0:-1]


def _poly_rem(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """A positive multiple of the remainder of a modulo b (integer
    polynomials, low-degree coefficients first, b with a nonzero leading
    coefficient), without trailing zeros: the pseudo-remainder in which
    each step scales by |lead b|."""
    r = list(a)
    lead = b[-1]
    scale = abs(lead)
    # each pass lowers deg r: deg a - deg b + 1 passes, then the remainder
    for _ in range(max(len(a) - len(b), -1) + 2):
        while r and not r[-1]:
            r.pop()
        if len(r) < len(b):
            return r
        f = r[-1] if lead > 0 else -r[-1]
        shift = len(r) - len(b)
        r = [scale * c for c in r]
        for i, c in enumerate(b):
            r[shift + i] -= f * c
    raise RuntimeError("pseudo-remainder degree did not fall at each pass")


def _integer_roots(g: Sequence[int]) -> list[int]:
    """The distinct integer roots of a monic integer polynomial of degree
    at least 1 (low-degree coefficients first), in increasing order.

    Every root lies in [-B, B] for B = max |g_k| over k < deg g (Cauchy).
    The Sturm chain g, g', -rem, ... (each member scaled by a positive
    rational to integers) counts the distinct real roots between two
    points that are not roots.  Half-integers never are: the rational
    roots of a monic integer polynomial are integers.  Bisection at
    half-integers keeps only the integer ranges that hold a real root, at
    most deg g of them on each of at most log2(2B + 1) + 1 levels, and a
    range holding a single integer k holds a root exactly when g(k) = 0.
    So the work is polynomial in the degree and the coefficient size.
    The chain is built by pseudo-remainders and every sign is read over
    the integers (`_value`), from 2^e q(k + 1/2) and from g(k).
    """
    chain = [list(g), _primitive([k * c for k, c in enumerate(g)][1:])]
    # the degrees fall along the chain, so there are at most deg g remainders
    while rem := _poly_rem(chain[-2], chain[-1]):
        chain.append(_primitive([-c for c in rem]))

    def variations(k: int) -> int:
        """Sign changes along the chain at k + 1/2."""
        signs = [v > 0 for v in (_value(q, 2 * k + 1, 2) for q in chain) if v]
        return sum(u != v for u, v in zip(signs, signs[1:]))

    bound = max(abs(c) for c in g[:-1])
    roots = []
    # (lo, hi, variations(lo - 1), variations(hi)): the integers lo..hi,
    # which hold a real root when the two counts differ
    ranges = [(-bound, bound, variations(-bound - 1), variations(bound))]
    while ranges:
        lo, hi, v_lo, v_hi = ranges.pop()
        if v_lo == v_hi:
            continue
        if lo == hi:
            if not _value(g, lo, 1):
                roots.append(lo)
            continue
        mid = (lo + hi) // 2
        v_mid = variations(mid)
        ranges += [(lo, mid, v_lo, v_mid), (mid + 1, hi, v_mid, v_hi)]
    return sorted(roots)


def _rational_roots(coeffs: Sequence[int]) -> tuple[list[tuple[int, int]], int]:
    """All rational roots of the integer polynomial (low-degree
    coefficients first), with multiplicity, each as the integer pair
    (r, s) of r / s in lowest terms with s > 0, plus the degree of the
    rational-root-free factor that remains.

    For f primitive over the integers with positive leading coefficient a
    and degree d, t is a root exactly when a t is an integer root of the
    monic integer polynomial a^(d-1) f(y / a); `_integer_roots` finds
    those, 0 among them.  Each root y / a, in lowest terms, is then tested
    and divided out over the integers (`_value`, `_deflate`) as often as
    it divides f.
    """
    work = list(coeffs)
    while len(work) > 1 and not work[-1]:
        work.pop()
    if len(work) == 1:
        return [], 0
    f = _primitive(work if work[-1] > 0 else [-c for c in work])
    degree, lead = len(f) - 1, f[-1]
    monic = [c * lead ** (degree - 1 - k) for k, c in enumerate(f[:-1])] + [1]
    roots = []
    for y in _integer_roots(monic):
        g = math.gcd(y, lead)
        r, s = y // g, lead // g
        while len(f) > 1 and not _value(f, r, s):
            roots.append((r, s))
            f = _deflate(f, r, s)
    return roots, len(f) - 1


@dataclass(frozen=True)
class WedderburnData:
    """Radical plus semisimple block structure of a unital algebra.

    `block_sizes` lists in ascending order the t with t^2 the dimension of
    each simple block of the semisimple quotient, or is None exactly when
    the center of the quotient is not split (it contains a field extension
    of Q).  Each block is then central simple, M_s(D) for a division
    algebra D with center Q and dim D = delta^2, and t = s delta.
    `lift_traces`, aligned with `block_sizes` and None with it, holds for
    each block the trace of a lift to the algebra of its central
    idempotent: t mu delta, for mu the multiplicity of the block's simple
    module in Q^n.  delta divides t and the trace over t, so a block is
    certified M_t(Q) when those two are coprime (when t = 1 or the trace
    is t, among others), and `split` is true exactly when every block is
    certified.  An uncertified block may still be M_t(Q): the quaternions
    (-1, -1)_Q and M_2(Q) embedded twice in M_4 both give t = 2 with trace 4.
    """

    radical_space: Subspace
    radical_dim: int
    semisimple_dim: int
    block_sizes: tuple[int, ...] | None
    lift_traces: tuple[int, ...] | None

    @property
    def split(self) -> bool:
        return self.block_sizes is not None and all(
            math.gcd(t, trace // t) == 1 for t, trace in zip(self.block_sizes, self.lift_traces)
        )


def _central_idempotents(quotient: _QuotientAlgebra) -> list[_Element] | None:
    """The primitive idempotents of the center Z of a semisimple quotient,
    or None when Z is not split.

    Deterministic walk over the center basis z_1..z_m (Friedl and Ronyai,
    STOC 1985; Ronyai, J. Symb. Comp. 1990), starting from the identity.
    At each z_i, every idempotent e found so far is split by Lagrange
    interpolation over the rational roots of the minimal polynomial f of
    w = e z_i in eZ, which is squarefree since Z is semisimple: the
    idempotent of a root l = r / s is g(w) / g(l) for the integer
    g = f / (s t - r), one integer combination of the powers of w.  Each
    g divides f itself, not what the deflation of `_rational_roots` leaves
    of it after the roots before, so it is one more `_deflate`.  An
    irreducible factor of degree at least 2 proves that Z contains a
    field extension of Q.  Afterwards
    every e z_i is a multiple of e, so there are dim Z idempotents.

    The walk stops as soon as it holds dim Z idempotents: k orthogonal
    nonzero idempotents summing to 1 in a commutative Z of dimension k cut
    it into k lines eZ = Qe, so they are primitive, and the rest of the
    walk would only return each of them unchanged.
    """
    center = quotient.center()
    idempotents = [quotient.one]
    for z in center:
        if len(idempotents) == len(center):
            break
        refined = []
        right = quotient._right_factor(z)
        for e in idempotents:
            f, powers = quotient.min_poly(quotient._times(e, right), e)
            roots, leftover_degree = _rational_roots(f)
            if leftover_degree > 0:
                return None
            if len(set(roots)) != len(roots):
                raise RuntimeError("minimal polynomial of a central element not squarefree")
            common = math.lcm(*(d for d, _ in powers))
            vectors = [x for _, x in powers]
            for r, s in roots:
                g = _deflate(f, r, s)
                # g(r / s) = v / s^e for v = _value(g, r, s), e = deg g, so the
                # power ints_j / d_j of w takes the coefficient g_j s^e / v
                v = _value(g, r, s)
                scale = s ** (len(g) - 1) * (1 if v > 0 else -1)
                coeffs = [scale * c * (common // d) for c, (d, _) in zip(g, powers)]
                idem = _combination(coeffs, vectors, quotient.dim)
                refined.append(_lowest_terms(abs(v) * common, idem))
        idempotents = refined
    if len(idempotents) != len(center):
        raise RuntimeError("central idempotents do not match the center dimension")
    return idempotents


def semisimple_blocks(a: MatrixAlgebra) -> WedderburnData:
    """Radical dimension and the block sizes of the semisimple quotient.

    The quotient Q = A/rad A is cut by the primitive idempotents e of its
    center into the blocks eQ.  Each has dimension Tr(x -> ex), the rank
    of that idempotent map, and is central simple, so the dimension is a
    perfect square.  Each block's lift trace (`WedderburnData`) is the
    trace of the lift of e along the section rows of the quotient.  The
    radical is the one certified for `a` (`MatrixAlgebra._radical`), and
    the quotient takes it in the coordinates of A, in which it was found.
    """
    rad, coords, _, _ = a._radical
    quotient = _QuotientAlgebra(a, coords)
    idempotents = _central_idempotents(quotient)
    sizes = traces = None
    if idempotents is not None:
        dims = [quotient.left_trace(e) for e in idempotents]
        if any(d < 1 or math.isqrt(int(d)) ** 2 != d for d in dims):
            raise RuntimeError("a block dimension of the semisimple quotient is not a positive square")
        if sum(dims) != quotient.dim:
            raise RuntimeError("block dimensions do not add up to the quotient")
        blocks = sorted((math.isqrt(int(d)), quotient.lift_trace(e)) for d, e in zip(dims, idempotents))
        if any(trace < t or trace % t for t, trace in blocks):
            raise RuntimeError("a lift trace is not a positive multiple of its block size")
        sizes, traces = zip(*blocks)
    return WedderburnData(
        radical_space=rad,
        radical_dim=rad.dimension,
        semisimple_dim=quotient.dim,
        block_sizes=sizes,
        lift_traces=traces,
    )


# ---------------------------------------------------------------------------
# Block upper-triangular algebras and flag machinery.
# ---------------------------------------------------------------------------


def parabolic_subalgebra(comp: Composition) -> MatrixAlgebra:
    """Block upper-triangular algebra of the given type: the span of the
    units e_{i,j} with block(i) <= block(j).  Closed by transitivity of
    the block order, so no closure check is needed."""
    return MatrixAlgebra(n=comp.n, space=_unit_span(comp.n, _block_upper_positions(comp)))


def _block_upper_positions(comp: Composition) -> list[tuple[int, int]]:
    """The cells (i, j) with block(i) <= block(j): the pattern of the block
    upper-triangular algebra of type `comp`."""
    n = comp.n
    blocks = [comp.block_of(i) for i in range(n)]
    return [(i, j) for i in range(n) for j in range(n) if blocks[i] <= blocks[j]]


@dataclass(frozen=True)
class Flag:
    """A strictly increasing chain of nonzero subspaces of Q^n ending at
    the full space.  The zero subspace is left implicit."""

    n: int
    subspaces: tuple[Subspace, ...]

    def __post_init__(self) -> None:
        if not self.subspaces:
            raise ValueError("a flag needs at least the full space")
        previous: Subspace | None = None
        for v in self.subspaces:
            if v.ambient_dim != self.n:
                raise ValueError("flag member has wrong ambient dimension")
            if v.dimension == 0:
                raise ValueError("flag members must be nonzero")
            if previous is not None:
                if v.dimension <= previous.dimension:
                    raise ValueError("flag dimensions must strictly increase")
                if not all(subspace_contains(v, row) for _, row in previous._integer_form()[1]):
                    raise ValueError("flag members must be nested")
            previous = v
        if self.subspaces[-1].dimension != self.n:
            raise ValueError("a flag must end at the full space")

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(v.dimension for v in self.subspaces)

    @property
    def gaps(self) -> tuple[int, ...]:
        """Successive dimension jumps; a composition of n."""
        return _gaps(self.dims)


def _gaps(dims: tuple[int, ...]) -> tuple[int, ...]:
    """The jumps of increasing dimensions, from 0."""
    return tuple(b - a for a, b in zip((0,) + dims, dims))


def invariant_flag(a: MatrixAlgebra) -> Flag:
    """The kernel flag ker R < ker R^2 < ... < Q^n of the radical R of `a`.

    Each member is a-invariant: `_certified_radical` checks it for each
    generator of `a`, as part of its proof that R lies in the radical.
    Member j+1 is the preimage of the joint kernel of the radical of the
    induced action on Q^n / (member j): that radical is the image of R.
    It is read along the row-space chain of `_kernel_flag`, and each
    member is the canonical span of a prefix of the adapted basis: one
    `SpanBuilder` takes its n columns in order and is read out at each
    member's dimension.  For a block upper-triangular algebra this
    recovers exactly the standard coordinate flag of its type.
    """
    basis, dims = a._radical[2]
    builder = SpanBuilder(a.n)
    members = []
    for column in _split_columns(basis._integer_form()[1], a.n):
        builder._add_integers(column)
        if builder.dimension in dims:
            members.append(builder.to_subspace())
    return Flag(n=a.n, subspaces=tuple(members))


def _flag_conjugator(
    cinv: Matrix, rows: Iterable[Sequence[int]], n: int, pattern: Iterable[tuple[int, int]]
) -> Matrix:
    """The inverse c of a flag's adapted basis `cinv`, checked for
    `_certified_radical` and `triangularize_nil`: c x c^-1 must be zero
    off the (row, column) cells of `pattern` for each n x n matrix x with
    flattened integer `rows`, else RuntimeError.  On the integer forms:
    x c^-1 by columns, then c (x c^-1) at the off cells."""
    c = cinv.inverse()
    c_rows = _split_rows(c._integer_form()[1], n)
    cinv_columns = _split_columns(cinv._integer_form()[1], n)
    by_column = [(i, j) for j in range(n) for i in range(n)]
    pattern = set(pattern)
    off = [cell for cell in by_column if cell not in pattern]
    for x in rows:
        columns = _split_rows(_rows_times_columns(_split_rows(x, n), cinv_columns, by_column), n)
        if any(_rows_times_columns(c_rows, columns, off)):
            raise RuntimeError("the adapted basis does not carry the matrices into its pattern")
    return c


def flag_stabilizer(f: Flag) -> MatrixAlgebra:
    """All matrices x with x V <= V for every member V of the flag.

    The adapted basis B carries the standard coordinate flag of type
    `f.gaps` onto `f`, so the stabilizer is B P B^-1 for P the block
    upper-triangular algebra of that type, whichever adapted basis B is:
    here `_flag_basis` of the annihilators of the members (`_kernel`).
    """
    annihilators = (_kernel(*v._integer_form(), f.n)._integer_form() for v in f.subspaces)
    return conjugate(parabolic_subalgebra(Composition(f.gaps)), _flag_basis(annihilators, f.n)[0])


def is_parabolic(
    a: MatrixAlgebra,
) -> tuple[bool, Composition | None, Matrix | None]:
    """Decide whether `a` is conjugate to a block upper-triangular algebra.

    `a` lies in the stabilizer of its invariant flag, a conjugate of the
    block upper-triangular algebra of the flag's type, and equals it
    exactly when the dimensions agree.  On success returns (True, type, c)
    where the flag gaps give the type and `c b c^-1` maps `a` onto the
    standard algebra of that type: c is the inverse of the basis adapted
    to the flag that `_certified_radical` hands over (the identity for a
    coordinate flag), whose check (i) has already shown that it maps each
    generator of `a`, so all of `a`, into that algebra; with equal
    dimensions, into is onto.  Otherwise, when the dimension of `a` falls
    short of that type's, (False, None, None).
    """
    _, _, (_, dims), c = a._radical
    comp = Composition(_gaps(dims))
    if a.dimension != parabolic_dimension(comp):
        return False, None, None
    return True, comp, c


def absorption_probe(a: MatrixAlgebra, x: Matrix) -> MatrixAlgebra:
    """The unital algebra generated by `a` and x: M_n for a maximal proper
    `a` and any x outside it, `a` for x inside.  W starts as a's stored rows,
    its first words and images, and is spun (`_spin_matrices`) under x alone,
    so no product of two rows is formed.  W lies in the algebra `a` and x
    generate, so a W that fills M_n is the answer whatever `a` is; any other
    W is when `a` is closed, which `a._generating_set` checks (ValueError)."""
    n = a.n
    _check_square(x, n)
    rows = [_Factor(row, n) for _, row in a.space._integer_form()[1]]
    builder = SpanBuilder._of(a.space)
    _spin_matrices(builder, rows, list(rows), _integral_generators([x]), n, n * n)
    if builder.dimension < n * n:
        a._generating_set  # ValueError unless `a` is an algebra
    return MatrixAlgebra(n=n, space=builder.to_subspace())


def optimal_composition(n: int) -> tuple[frozenset[Composition], int]:
    """Among proper block types (at least two parts), the set of types of
    maximal dimension together with that dimension.

    The maximum is n^2 - n + 1, attained exactly by (1, n-1) and
    (n-1, 1); for n = 2 the two coincide.
    """
    if n < 2:
        raise ValueError("need n >= 2 for a proper block type")
    best = -1
    argmax: list[Composition] = []
    for comp in compositions(n, min_parts=2):
        dim = parabolic_dimension(comp)
        if dim > best:
            best = dim
            argmax = [comp]
        elif dim == best:
            argmax.append(comp)
    return frozenset(argmax), best


def schur_commutative_check(a: MatrixAlgebra) -> tuple[bool, bool | None]:
    """(is commutative, bound holds) where the bound is the maximal
    commutative dimension floor(n^2/4) + 1; the second slot is None when
    the algebra is not commutative (bound not applicable).  The integer
    basis rows commute exactly when the basis does."""
    basis = [_Factor(x, a.n) for _, x in a.space._integer_form()[1]]
    for i, x in enumerate(basis):
        for y in basis[i + 1 :]:
            if _product(x, y) != _product(y, x):
                return False, None
    bound = (a.n * a.n) // 4 + 1
    return True, a.dimension <= bound
