"""Exact linear algebra: matrices, canonical subspaces, solvers."""

import dataclasses
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import matalg.algebra as algebra_module
import matalg.exactlin as exactlin
from matalg.algebra import closure
from matalg.coalgebra import is_coideal, perp
from matalg.exactlin import (
    Matrix,
    SpanBuilder,
    Subspace,
    _coset_images,
    _Factor,
    _integer_entries,
    _packed_budget,
    _packed_product,
    _packed_right,
    _primitive,
    _product,
    _reduce,
    _unit_span,
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
from matalg.nilpotent import is_nil_subspace

scalars = st.fractions(
    min_value=Fraction(-9), max_value=Fraction(9), max_denominator=7
)


def vectors(dim):
    return st.lists(scalars, min_size=dim, max_size=dim).map(tuple)


def matrices(rows, cols):
    return st.lists(vectors(cols), min_size=rows, max_size=rows).map(Matrix)


@st.composite
def kernel_families(draw):
    """1-6 rational n x n matrices, n in 1..5.  Each is either free or
    A_i P for one shared P of rank r < n, so joint kernels of every
    dimension occur, not only the zero one."""
    n = draw(st.integers(1, 5))
    r = draw(st.integers(0, n - 1))
    shared = draw(matrices(r, n)) if r else Matrix.zeros(1, n)
    family = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            family.append(draw(matrices(n, n)))
        else:
            family.append(draw(matrices(n, shared.rows)) * shared)
    return n, family


# Mostly non-integer rationals, with zero entries frequent enough that
# sparse rows occur.
rationals = st.one_of(
    st.just(Fraction(0)), st.builds(Fraction, st.integers(-12, 12), st.integers(1, 9))
)


@st.composite
def row_lists(draw, cols=None, count=None):
    """`count` (default 1..5) rational rows of length `cols` (default
    1..5): each row is free, zero, or a combination of the rows before
    it, so zero and dependent rows both occur."""
    cols = cols or draw(st.integers(1, 5))
    rows = []
    for _ in range(count or draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(("free", "zero", "dependent")))
        if kind == "zero":
            rows.append((Fraction(0),) * cols)
        elif kind == "dependent" and rows:
            row = [Fraction(0)] * cols
            for earlier in rows:
                c = draw(rationals)
                row = [x + c * y for x, y in zip(row, earlier)]
            rows.append(tuple(row))
        else:
            rows.append(tuple(draw(st.lists(rationals, min_size=cols, max_size=cols))))
    return rows


def sympy_matrix(rows):
    sympy = pytest.importorskip("sympy")
    return sympy.Matrix([[sympy.Rational(e.numerator, e.denominator) for e in row] for row in rows])


def from_sympy(x):
    return Fraction(int(x.p), int(x.q))


def sympy_rref(rows):
    """The nonzero rows and the pivots of sympy's reduced echelon form."""
    reduced, pivots = sympy_matrix(rows).rref()
    basis = tuple(tuple(from_sympy(x) for x in reduced.row(i)) for i in range(len(pivots)))
    return basis, tuple(pivots)


def sympy_rank(rows):
    return sympy_matrix(rows).rank()


def spaces(dim, max_vectors=4):
    return st.lists(vectors(dim), min_size=0, max_size=max_vectors).map(
        lambda vs: rref_basis(vs, dim)
    )


@st.composite
def quotient_cases(draw):
    """A rational subspace of Q^m, m in 1..9, and a vector of Q^m that is
    a combination of its basis, half of the time plus a free vector, so
    members and non-members both occur."""
    m = draw(st.integers(1, 9))
    sub = draw(spaces(m, max_vectors=m))
    vec = [Fraction(0)] * m
    for row in sub.basis:
        c = draw(scalars)
        vec = [x + c * y for x, y in zip(vec, row)]
    if draw(st.booleans()):
        vec = [x + y for x, y in zip(vec, draw(vectors(m)))]
    return sub, tuple(vec)


def reference_product(a, b):
    """The product as a sum of Fraction products, entry by entry, over the
    pairs of nonzero factors."""
    cols = list(zip(*b.entries))
    return tuple(
        tuple(sum((x * y for x, y in zip(row, col) if x and y), Fraction(0)) for col in cols)
        for row in a.entries
    )


# Small rationals, zeros, and numerators and denominators far beyond a
# machine word, mixed in one matrix so that row denominators differ.
product_entries = st.one_of(
    rationals,
    st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**20)),
)


def reference_reduce(vec, pivot_rows):
    """Residual of a rational vector modulo `(pivot, row)` pairs of
    Fraction rows, each 1 at its own pivot and 0 at the other pivots: the
    Fraction elimination that the integer kernel replaced, kept as its
    reference."""
    r = [Fraction(x) for x in vec]
    for p, row in pivot_rows:
        f = r[p]
        if f:
            r = [a - f * b for a, b in zip(r, row)]
    return r


def reference_adjoin(rows, residual):
    """Insert a nonzero residual of `reference_reduce` into the Fraction
    rows keyed by pivot: scaled to 1 at its first nonzero coordinate, and
    that column cleared from the other rows."""
    p = next(i for i, e in enumerate(residual) if e)
    residual = [e / residual[p] for e in residual]
    for q, row in rows.items():
        g = row[p]
        if g:
            rows[q] = [a - g * b for a, b in zip(row, residual)]
    rows[p] = residual


def coset_coords(sub):
    """The coordinates off the pivots of `sub`: the standard basis vectors
    there complete its reduced echelon basis, so they carry Q^m / sub."""
    pivots = set(sub.pivots)
    return [c for c in range(sub.ambient_dim) if c not in pivots]


def reference_project(sub, vec):
    """The coordinates of the coset of a rational vector in Q^m / sub: its
    integer residual modulo the stored form of `sub`, read at
    `coset_coords(sub)` over both denominators.  The quotient map that the
    package dropped, kept for the references built on it."""
    den, ints = _integer_entries(vec)
    sub_den, rows = sub._integer_form()
    r = _reduce(ints, rows, sub_den)
    return [Fraction(r[c], den * sub_den) for c in coset_coords(sub)]


def reference_echelon(vectors):
    """The reduced row-echelon form of the span of rational vectors, as
    Fraction rows keyed by pivot."""
    rows = {}
    for vec in vectors:
        residual = reference_reduce(vec, rows.items())
        if any(residual):
            reference_adjoin(rows, residual)
    return rows


def reference_basis(vectors):
    """(basis, pivots) of the canonical form of the span of `vectors`."""
    rows = reference_echelon(vectors)
    pivots = tuple(sorted(rows))
    return tuple(tuple(rows[p]) for p in pivots), pivots


def reference_null_space(rows, ncols):
    reduced = reference_echelon(rows)
    basis = []
    for f in range(ncols):
        if f not in reduced:
            vec = [Fraction(0)] * ncols
            vec[f] = Fraction(1)
            for p, row in reduced.items():
                vec[p] = -row[f]
            basis.append(vec)
    return reference_basis(basis)


def solve_linear(m, rhs):
    """One exact solution of m @ x = rhs, or None when inconsistent; free
    variables are fixed at zero.  The package's solver, which nothing but
    the tests called, rebuilt on the Fraction `reference_echelon`."""
    augmented = [row + (Fraction(b),) for row, b in zip(m.entries, rhs, strict=True)]
    reduced = reference_echelon(augmented)
    if m.cols in reduced:
        return None  # pivot in the constant column: 0 = 1
    solution = [Fraction(0)] * m.cols
    for p, row in reduced.items():
        solution[p] = row[m.cols]
    return tuple(solution)


# Wide rationals: zeros, small rationals, and numerators up to 10^30 over
# denominators up to 10^20, so that rows mix denominators of every size.
wide = st.one_of(st.just(Fraction(0)), rationals, product_entries)


@st.composite
def wide_rows(draw, cols=None, count=None):
    """`count` (default 1..8) rows of wide rationals of length `cols`
    (default 1..25), each free, zero, or a wide combination of the rows
    before it."""
    cols = cols or draw(st.integers(1, 25))
    rows = []
    for _ in range(count or draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(("free", "zero", "dependent")))
        if kind == "zero":
            rows.append((Fraction(0),) * cols)
        elif kind == "dependent" and rows:
            row = [Fraction(0)] * cols
            for earlier in rows:
                c = draw(wide)
                row = [x + c * y for x, y in zip(row, earlier)]
            rows.append(tuple(row))
        else:
            rows.append(tuple(draw(st.lists(wide, min_size=cols, max_size=cols))))
    return rows


def reference_subspace(ambient_dim, basis, pivots):
    """The `Subspace` whose stored form is the reference (basis, pivots)
    times the least common denominator of the basis."""
    den = math.lcm(1, *(x.denominator for v in basis for x in v))
    rows = tuple((p, tuple(int(x * den) for x in v)) for p, v in zip(pivots, basis))
    return Subspace._make(ambient_dim, den, rows)


def reference_closure(n, generators):
    """The closure as (basis, pivots) by the frontier loop over `Matrix`
    products, reduced by the Fraction elimination `reference_echelon`
    keeps: the reference for the integer exact pass of `closure`."""
    rows = {}

    def add(m):
        residual = reference_reduce(m.flatten(), rows.items())
        if any(residual):
            reference_adjoin(rows, residual)
        return any(residual)

    add(Matrix.identity(n))
    older, frontier = [], [g for g in generators if add(g)]
    while frontier:
        fresh = []
        for k, x in enumerate(frontier):
            for y in older + frontier[k:]:
                fresh += [p for p in (x * y, y * x) if add(p)]
        older += frontier
        frontier = fresh
    pivots = tuple(sorted(rows))
    return tuple(tuple(rows[p]) for p in pivots), pivots


@st.composite
def product_pairs(draw):
    """Two rational matrices of shapes r x k and k x c, each side in 1..5,
    with whole rows of the left factor and whole columns of the right one
    zero at times."""
    r, k, c = (draw(st.integers(1, 5)) for _ in range(3))

    def grid(rows, cols):
        return [
            [Fraction(0)] * cols
            if draw(st.integers(0, 4)) == 0
            else draw(st.lists(product_entries, min_size=cols, max_size=cols))
            for _ in range(rows)
        ]

    left = Matrix(grid(r, k))
    right = Matrix(grid(c, k)).transpose()
    return left, right


@st.composite
def square_cases(draw):
    """Two n x n grids of rationals, n in 1..4, singular at times, a
    rational scalar (zero at times) and an exponent in 0..3."""
    n = draw(st.integers(1, 4))
    grid = st.lists(st.lists(product_entries, min_size=n, max_size=n), min_size=n, max_size=n)
    return draw(grid), draw(grid), draw(rationals), draw(st.integers(0, 3))


def entrywise(op, *matrices):
    """op applied to the Fraction entries of the matrices, position by
    position."""
    return [list(map(op, *rows)) for rows in zip(*(m.entries for m in matrices))]


def reference_power(x, k):
    """x^k as k Fraction products, starting from the identity."""
    power = Matrix.identity(x.rows).entries
    for _ in range(k):
        power = reference_product(Matrix(power), x)
    return power


class TestScalars:
    def test_accepts_int_str_fraction(self):
        assert as_scalar(3) == Fraction(3)
        assert as_scalar("2/4") == Fraction(1, 2)
        assert as_scalar(Fraction(-1, 3)) == Fraction(-1, 3)

    def test_rejects_floats_and_bools(self):
        with pytest.raises(TypeError):
            as_scalar(0.5)
        with pytest.raises(TypeError):
            as_scalar(True)

    def test_vector_coercion(self):
        assert as_vector([1, "1/2"]) == (Fraction(1), Fraction(1, 2))


class TestPrimitive:
    # every caller passes integers: stored rows, integer residuals and
    # integer polynomial coefficients, some far beyond a machine word
    @given(
        st.lists(st.integers(-12, 12) | st.integers(-(10**30), 10**30), min_size=1, max_size=8).filter(any)
    )
    @example([4, -6, 0, 10])
    @example((-3, 0))
    def test_positive_multiple_with_gcd_one(self, vec):
        ints = _primitive(vec)
        assert all(type(v) is int for v in ints)
        assert math.gcd(*ints) == 1
        pivot = next(i for i, x in enumerate(vec) if x)
        scale = Fraction(ints[pivot], vec[pivot])
        assert scale > 0
        assert [scale * x for x in vec] == ints


class TestMatrix:
    def test_identity_multiplication(self):
        m = Matrix([[1, 2], [3, 4]])
        assert Matrix.identity(2) * m == m
        assert m * Matrix.identity(2) == m

    def test_known_product(self):
        a = Matrix([[1, 2], [3, 4]])
        b = Matrix([[0, 1], [1, 0]])
        assert a * b == Matrix([[2, 1], [4, 3]])

    def test_unit_product_rule(self):
        # e_{0,1} e_{1,0} = e_{0,0}, e_{1,0} e_{0,1} = e_{1,1}
        e01, e10 = Matrix.unit(2, 0, 1), Matrix.unit(2, 1, 0)
        assert e01 * e10 == Matrix.unit(2, 0, 0)
        assert e10 * e01 == Matrix.unit(2, 1, 1)
        assert e01 * e01 == Matrix.zeros(2, 2)

    def test_flatten_row_major(self):
        m = Matrix([[1, 2], [3, 4]])
        assert m.flatten() == (1, 2, 3, 4)
        assert Matrix.from_flat(m.flatten(), 2) == m
        assert Matrix.unit(3, 1, 2).flatten()[1 * 3 + 2] == 1

    def test_power_and_trace(self):
        n = Matrix([[0, 1], [0, 0]])
        assert n**2 == Matrix.zeros(2, 2)
        assert (Matrix([[2, 0], [0, 3]]) ** 3).trace() == 8 + 27

    def test_power_makes_k_minus_one_products(self, monkeypatch):
        x = Matrix([[1, 2], [3, 4]])
        fourth = x * x * x * x
        products = []
        multiply = Matrix.__mul__

        def counting(self, other):
            products.append(other)
            return multiply(self, other)

        monkeypatch.setattr(Matrix, "__mul__", counting)
        assert x**4 == fourth
        assert len(products) == 3
        assert x**1 == x and x**0 == Matrix.identity(2)
        assert len(products) == 3
        with pytest.raises(ValueError, match="square"):
            Matrix([[1, 2]]) ** 2
        with pytest.raises(ValueError, match="negative"):
            x ** -1

    @given(product_pairs())
    @settings(max_examples=150, deadline=None)
    @example(
        (Matrix([[Fraction(-3, 4), 0, Fraction(5, 6)]]), Matrix([[Fraction(2, 3)], [7], [-1]]))
    )
    @example((Matrix([[0, 0], [1, Fraction(-1, 2)]]), Matrix([[0, 3], [0, Fraction(1, 5)]])))
    def test_product_matches_fraction_sums(self, pair):
        a, b = pair
        product = a * b
        assert product.entries == reference_product(a, b)
        assert (product.rows, product.cols) == (a.rows, b.cols)
        assert all(type(e) is Fraction for row in product.entries for e in row)

    @given(product_pairs())
    @settings(max_examples=60, deadline=None)
    def test_product_matches_sympy(self, pair):
        a, b = pair
        expected = sympy_matrix(a.entries) * sympy_matrix(b.entries)
        assert (a * b).entries == tuple(
            tuple(from_sympy(expected[i, j]) for j in range(b.cols)) for i in range(a.rows)
        )

    @given(product_pairs(), square_cases())
    @settings(max_examples=60, deadline=None)
    def test_every_route_builds_the_canonical_form(self, pair, case):
        a, b = pair
        gx, gy, c, k = case
        n = len(gx)
        x, y = Matrix(gx), Matrix(gy)
        numerators = [[e.numerator for e in row] for row in gx]
        built = [
            (x, gx),
            (Matrix([[str(e) for e in row] for row in gx]), gx),
            (Matrix(numerators), numerators),
            (Matrix.from_flat([e for row in gx for e in row], n), gx),
            (a * b, reference_product(a, b)),
            (x + y, entrywise(operator.add, x, y)),
            (x - y, entrywise(operator.sub, x, y)),
            (x - x, [[0] * n] * n),
            (-x, entrywise(operator.neg, x)),
            (c * x, entrywise(lambda u: c * u, x)),
            (x * c.numerator, entrywise(lambda u: c.numerator * u, x)),
            (x**k, reference_power(x, k)),
            (a.transpose(), list(zip(*a.entries))),
        ]
        try:
            inverse = x.inverse()
        except ValueError:
            assert sympy_matrix(gx).det() == 0
        else:
            assert reference_product(x, inverse) == Matrix.identity(n).entries
            built.append((inverse, inverse.entries))
        space = rref_basis([x.flatten(), y.flatten()], n * n)
        for v, m in zip(space.basis, space.basis_matrices(n)):
            built.append((m, [v[i : i + n] for i in range(0, n * n, n)]))
        for m, expected in built:
            assert m.entries == tuple(map(tuple, expected))
            assert all(type(e) is Fraction for row in m.entries for e in row)
            assert m == Matrix(m.entries) and hash(m) == hash(Matrix(m.entries))
            den, flat = m._integer_form()
            assert den > 0 and math.gcd(den, *flat) == 1

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Matrix([]),
            lambda: Matrix([[]]),
            lambda: Matrix.identity(0),
            lambda: Matrix.zeros(0),
            lambda: Matrix.zeros(2, 0),
            lambda: Matrix.zeros(0, 2),
            lambda: Matrix.from_flat([], 0),
            lambda: random_matrix(random.Random(0), 0),
            lambda: random_invertible(random.Random(0), 0),
        ],
        ids=["rows", "row", "identity", "zeros", "zeros-2x0", "zeros-0x2", "from-flat",
             "random", "random-invertible"],
    )
    def test_empty_shapes_are_refused(self, build):
        with pytest.raises(ValueError, match="at least one row and one column"):
            build()

    def test_constructors_validate_entries(self):
        for bad in (0.5, True):
            with pytest.raises(TypeError):
                Matrix([[1, bad]])
            with pytest.raises(TypeError):
                Matrix.from_flat([1, 2, 3, bad], 2)
        with pytest.raises(ValueError, match="inconsistent"):
            Matrix([[1, 2], [3]])

    @given(
        st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)).flatmap(
            lambda shape: st.tuples(
                st.just(shape),
                *(
                    st.lists(st.integers(-(2**70), 2**70), min_size=a * b, max_size=a * b)
                    for a, b in (shape[:2], shape[1:])
                ),
            )
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_flat_product_is_the_integer_product(self, case):
        # integer matrices of any shapes that multiply: the product is formed
        # at every cell, in row-major order
        (rows, inner, cols), x, y = case
        a = Matrix._make(rows, inner, 1, tuple(x))
        b = Matrix._make(inner, cols, 1, tuple(y))
        product = a * b
        expected = reference_product(a, b)
        assert (product.rows, product.cols) == (rows, cols)
        assert product.entries == expected

    def test_inverse_roundtrip(self):
        m = Matrix([[1, 2], [3, 4]])
        assert m * m.inverse() == Matrix.identity(2)

    def test_singular_inverse_raises(self):
        with pytest.raises(ValueError):
            Matrix([[1, 2], [2, 4]]).inverse()

    def test_entry_access_and_transpose(self):
        m = Matrix([[1, 2], [3, 4]])
        assert m[0, 1] == 2
        assert m.transpose()[1, 0] == 2


class TestSubspace:
    def test_rref_canonical_form(self):
        # {(1,2), (2,4), (0,1)} reduces to the standard basis of Q^2
        s = rref_basis([(1, 2), (2, 4), (0, 1)], 2)
        assert s.basis == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
        assert s.pivots == (0, 1)

    def test_representation_independence(self):
        a = rref_basis([(1, 1, 0), (0, 1, 1)], 3)
        b = rref_basis([(1, 2, 1), (2, 3, 1)], 3)
        assert a == b

    def test_zero_and_full(self):
        assert zero_space(3).dimension == 0
        assert full_space(3).dimension == 3
        assert subspace_contains(full_space(3), (1, 2, 3))

    def test_zero_space_rejects_a_negative_dimension(self):
        assert zero_space(0).ambient_dim == 0
        with pytest.raises(ValueError, match="^negative ambient dimension -2$"):
            zero_space(-2)

    def test_full_space_rejects_a_negative_dimension(self):
        assert full_space(0).dimension == 0
        with pytest.raises(ValueError, match="^negative ambient dimension -2$"):
            full_space(-2)

    def test_rref_basis_rejects_a_negative_dimension(self):
        # an empty vector list has no length to check the dimension against
        assert rref_basis([], 0).ambient_dim == 0
        with pytest.raises(ValueError, match="^negative ambient dimension -1$"):
            rref_basis([], -1)

    def test_span_builder_rejects_a_negative_dimension(self):
        assert SpanBuilder(0).to_subspace().ambient_dim == 0
        with pytest.raises(ValueError, match="^negative ambient dimension -2$"):
            SpanBuilder(-2)

    def test_contains(self):
        s = rref_basis([(1, 0, 1)], 3)
        assert s.contains((2, 0, 2))
        assert not s.contains((1, 0, 0))

    def test_sum_and_intersection_example(self):
        xz = rref_basis([(1, 0, 0), (0, 0, 1)], 3)
        diag = rref_basis([(1, 1, 0), (0, 0, 1)], 3)
        both = subspace_sum(xz, diag)
        assert both.dimension == 3
        meet = subspace_intersect(xz, diag)
        assert meet == rref_basis([(0, 0, 1)], 3)

    @given(spaces(4), spaces(4))
    @settings(max_examples=60, deadline=None)
    def test_dimension_formula(self, a, b):
        # dim(A + B) + dim(A meet B) = dim A + dim B
        total = subspace_sum(a, b).dimension + subspace_intersect(a, b).dimension
        assert total == a.dimension + b.dimension

    @given(spaces(4), spaces(4))
    @settings(max_examples=40, deadline=None)
    def test_intersection_is_lower_bound(self, a, b):
        meet = subspace_intersect(a, b)
        for v in meet.basis:
            assert a.contains(v) and b.contains(v)

    @given(spaces(5))
    @settings(max_examples=40, deadline=None)
    def test_rref_idempotent(self, s):
        assert rref_basis(s.basis, 5) == s


class TestSubspaceForm:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_every_route_builds_the_canonical_form(self, data):
        n = data.draw(st.integers(1, 3))
        d = n * n
        rows_a, rows_b = data.draw(wide_rows(cols=d)), data.draw(wide_rows(cols=d))
        index = st.integers(0, n - 1)
        positions = data.draw(st.lists(st.tuples(index, index), max_size=2 * d))
        generators = data.draw(st.lists(matrices(n, n), min_size=1, max_size=2))
        a, b = rref_basis(rows_a, d), rref_basis(rows_b, d)
        builder = SpanBuilder(d)
        for vec in rows_a:
            builder.add(vec)
        basis_a, basis_b = reference_basis(rows_a)[0], reference_basis(rows_b)[0]
        zero = (Fraction(0),) * d
        stacked = [v + v for v in basis_a] + [w + zero for w in basis_b]
        carriers = [row[d:] for p, row in reference_echelon(stacked).items() if p >= d]
        units = [tuple(Fraction(int(c == p)) for c in range(d)) for p in range(d)]
        built = [
            (a, reference_basis(rows_a)),
            (_unit_span(n, positions), reference_basis([units[i * n + j] for i, j in positions])),
            (zero_space(d), reference_basis([])),
            (full_space(d), reference_basis(units)),
            (subspace_sum(a, b), reference_basis(rows_a + rows_b)),
            (subspace_intersect(a, b), reference_basis(carriers)),
            (null_space(Matrix(rows_a)), reference_null_space(rows_a, d)),
            (builder.to_subspace(), reference_basis(rows_a)),
            (perp(a), reference_null_space(basis_a, d)),
            (closure(n, generators).space, reference_closure(n, generators)),
        ]
        for space, (basis, pivots) in built:
            expected = reference_subspace(d, basis, pivots)
            assert space == expected and hash(space) == hash(expected)
            assert (space.basis, space.pivots) == (basis, pivots)
            assert all(type(e) is Fraction for v in space.basis for e in v)
            den, rows = space._integer_form()
            assert den == math.lcm(1, *(x.denominator for v in basis for x in v))
            assert den > 0 and math.gcd(den, *(e for _, row in rows for e in row)) == 1

    @given(wide_rows())
    @settings(max_examples=60, deadline=None)
    def test_constructor_takes_a_reduced_basis_with_its_pivots(self, rows):
        # every leading part of a reduced echelon basis is one, so
        # `dataclasses.replace` with a shorter basis builds its span; a
        # basis that does not match the pivots is refused
        d = len(rows[0])
        space = rref_basis(rows, d)
        assert Subspace(d, space.basis, space.pivots) == space
        for k in range(space.dimension):
            short = dataclasses.replace(space, basis=space.basis[:k], pivots=space.pivots[:k])
            expected = reference_subspace(d, *reference_basis(space.basis[:k]))
            assert short == expected and hash(short) == hash(expected)
            with pytest.raises(ValueError, match="pivots"):
                dataclasses.replace(space, basis=space.basis[:k], pivots=space.pivots[: k + 1])
        if space.dimension:
            with pytest.raises(ValueError, match="pivots"):
                Subspace(d, space.basis * 2, space.pivots * 2)

    @pytest.mark.parametrize(
        "basis, pivots",
        [([(2, 0)], (0,)), ([(1, 1), (0, 1)], (0, 1))],
        ids=["pivot-entry-not-one", "not-cleared-above-a-pivot"],
    )
    def test_constructor_refuses_a_basis_that_is_not_reduced(self, basis, pivots):
        # the span has these pivots, but the rows are not its reduced basis
        assert rref_basis(basis, 2).pivots == pivots
        with pytest.raises(ValueError, match="pivots"):
            Subspace(2, basis, pivots)


class TestSolvers:
    def test_solve_unique(self):
        m = Matrix([[1, 1], [1, -1]])
        assert solve_linear(m, (1, 0)) == (Fraction(1, 2), Fraction(1, 2))

    def test_solve_inconsistent(self):
        m = Matrix([[1, 1], [2, 2]])
        assert solve_linear(m, (0, 1)) is None

    def test_solve_underdetermined_sets_free_vars_to_zero(self):
        m = Matrix([[1, 1]])
        assert solve_linear(m, (5,)) == (Fraction(5), Fraction(0))

    def test_null_space_example(self):
        m = Matrix([[1, 2, 3]])
        ker = null_space(m)
        assert ker.dimension == 2
        for v in ker.basis:
            assert sum(c * x for c, x in zip(m.entries[0], v)) == 0

    def test_null_space_invertible_is_zero(self):
        assert null_space(Matrix([[1, 2], [3, 4]])).dimension == 0

    @given(st.lists(vectors(3), min_size=1, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_rank_nullity(self, rows):
        m = Matrix(rows)
        assert null_space(m).dimension + rref_basis(rows, 3).dimension == 3


class TestJointKernel:
    @given(kernel_families())
    @settings(max_examples=80, deadline=None)
    def test_matches_intersection_of_null_spaces(self, case):
        n, family = case
        reference = full_space(n)
        for m in family:
            reference = subspace_intersect(reference, null_space(m))
        assert joint_kernel(family, n) == reference


def joint_kernel(mats, n):
    """The v in Q^n with m v = 0 for every m in the nonempty `mats`: the
    null space of the matrices stacked row-wise.  Kept as the reference
    joint kernel of the kernel-flag tests; `null_space` is public."""
    return null_space(Matrix([row for m in mats for row in m.entries]))


class TestSamplers:
    def test_rejection_loops_stop_at_the_draw_limit(self):
        class Zeros(random.Random):
            def randint(self, lo, hi):
                return 0

        with pytest.raises(RuntimeError):
            random_invertible(Zeros(), 1)
        with pytest.raises(RuntimeError):
            random_subspace(Zeros(), 2, 1)


def packed(u, v, n):
    """u v for flattened n x n integer matrices, by the packed product."""
    return _packed_product(u, _packed_right(v, n), n * n)


def flat_reference_product(u, v, n):
    """u v for flattened n x n integer matrices, by `reference_product`."""
    product = reference_product(Matrix.from_flat(u, n), Matrix.from_flat(v, n))
    return tuple(int(e) for row in product for e in row)


@st.composite
def packed_operands(draw):
    """n in 1..8 and two flattened n x n integer matrices u, v whose bit
    lengths a and b of the largest absolute entry are drawn with
    a + b = `_packed_budget(n)`: entries at most 2^a - 1 and 2^b - 1 in
    absolute value, those extremes often, and zero matrices at times."""
    n = draw(st.integers(1, 8))
    a = draw(st.integers(0, _packed_budget(n)))

    def side(bits):
        top = 2**bits - 1
        if draw(st.integers(0, 5)) == 0:
            return (0,) * (n * n)
        entry = st.one_of(st.sampled_from([top, -top, 0]), st.integers(-top, top))
        return tuple(draw(st.lists(entry, min_size=n * n, max_size=n * n)))

    return n, side(a), side(_packed_budget(n) - a)


def extremes(n, bits, sign=1):
    """The flattened n x n matrix with every entry sign * (2^bits - 1)."""
    return (sign * (2**bits - 1),) * (n * n)


def at_the_budget(n, sign=1):
    """(n, u, v) with every entry of u at 2^a - 1 and every entry of v at
    sign (2^b - 1), for a + b = `_packed_budget(n)` split evenly."""
    a = _packed_budget(n) // 2
    return n, extremes(n, a), extremes(n, _packed_budget(n) - a, sign)


class TestPackedProduct:
    """The packed product (`_packed_product` of `_packed_right`) against the
    Fraction product, at and past its bound."""

    @given(packed_operands())
    @settings(max_examples=150, deadline=None)
    # every entry 7 (2^a - 1)(2^b - 1) with a + b the budget, 60 at n = 7:
    # about 2^63 - 2^34, the nearest to the field's range that the bound
    # lets in, with both signs
    @example(at_the_budget(7))
    @example(at_the_budget(7, -1))
    @example((8, extremes(8, 58), extremes(8, 1, -1)))
    @example((1, extremes(1, 61), extremes(1, 1, -1)))
    @example((5, (0,) * 25, extremes(5, 60)))
    def test_matches_the_fraction_product(self, case):
        n, u, v = case
        assert packed(u, v, n) == flat_reference_product(u, v, n)

    def test_budget_is_63_bits_less_the_bits_of_n(self):
        # n products of |entries| below 2^a and 2^b stay below 2^63
        assert [_packed_budget(n) for n in range(1, 9)] == [62, 61, 61, 60, 60, 60, 60, 59]

    @pytest.mark.parametrize("n", [3, 7])
    def test_one_bit_past_the_budget_overflows(self, n):
        # for n = 2^k - 1, k > 1, an entry of n (2^a - 1)(2^b - 1) with
        # a + b = budget + 1 lies past 2^63, so the bound has no slack bit
        a = _packed_budget(n) // 2
        b = _packed_budget(n) + 1 - a
        for sign in (1, -1):
            u, v = extremes(n, a), extremes(n, b, sign)
            expected = flat_reference_product(u, v, n)
            assert abs(expected[0]) >= 2**63
            try:
                assert packed(u, v, n) != expected
            except OverflowError:
                pass  # the last field carried past the n^2 fields

    def test_packs_each_row_into_shifted_fields(self):
        # row k of v in fields 0..n-1, shifted by n i fields at place i n + k
        v = (1, -2, 3, 4)
        rows = [1 - (2 << 64), 3 + (4 << 64)]
        assert _packed_right(v, 2) == rows + [r << 128 for r in rows]

    def test_sign_offset_is_made_once_per_size(self, monkeypatch):
        offsets = {}
        monkeypatch.setattr(exactlin, "_SIGN_OFFSETS", offsets)
        for n in (2, 3, 2, 3):
            u, v = extremes(n, 30), extremes(n, 29, -1)
            assert packed(u, v, n) == flat_reference_product(u, v, n)
        # the top bit of each of the n^2 fields
        assert offsets == {size: sum(1 << (64 * s + 63) for s in range(size)) for size in (4, 9)}


def true_masks(flat, n):
    """The bits of the nonzero rows and of the nonzero columns of the
    flattened n x n matrix."""
    rows = sum(1 << i for i in range(n) if any(flat[i * n + j] for j in range(n)))
    columns = sum(1 << j for j in range(n) if any(flat[i * n + j] for i in range(n)))
    return rows, columns


@st.composite
def sparse_pairs(draw):
    """(n, x, y): flattened n x n integer matrices, n <= 5, mostly zero."""
    n = draw(st.integers(1, 5))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2])
    x, y = (tuple(draw(st.lists(entry, min_size=n * n, max_size=n * n))) for _ in range(2))
    return n, x, y


class TestFactorMasks:
    """The row and column masks of `_Factor`, which `algebra._spin_matrices`
    reads to skip the products that are zero."""

    @given(sparse_pairs())
    @settings(max_examples=100, deadline=None)
    def test_masks_are_the_nonzero_rows_and_columns(self, case):
        n, x, _ = case
        factor = _Factor(x, n)
        assert (factor.row_mask, factor.column_mask) == true_masks(x, n)

    @given(sparse_pairs())
    @settings(max_examples=100, deadline=None)
    def test_supports_that_do_not_meet_give_the_zero_product(self, case):
        n, x, y = case
        fx, fy = _Factor(x, n), _Factor(y, n)
        p = _product(fx, fy)
        if not fx.column_mask & fy.row_mask:
            assert not any(p)
        # a product takes its left factor's rows and its right factor's
        # columns, which cover its own
        word = _Factor._of_product(p, fx, fy)
        assert (word.row_mask, word.column_mask) == (fx.row_mask, fy.column_mask)
        rows, columns = true_masks(p, n)
        assert rows & ~word.row_mask == 0 and columns & ~word.column_mask == 0

    def test_a_product_is_not_scanned_for_its_masks(self):
        # (1 1; 0 0) (1 0; -1 0) = 0: the product's masks are its factors'
        # rows and columns, wider than its own, which are empty
        x, y = _Factor((1, 1, 0, 0), 2), _Factor((1, 0, -1, 0), 2)
        word = _Factor._of_product(_product(x, y), x, y)
        assert word.flat == (0, 0, 0, 0)
        assert (word.row_mask, word.column_mask) == (0b01, 0b01)
        assert true_masks(word.flat, 2) == (0, 0)


def record_paths(monkeypatch):
    """The path of each `exactlin._product` from now on, in order:
    "packed" when it called `_packed_product`, "row" when it did not."""
    paths = []
    multiply_packed = exactlin._packed_product
    multiply = exactlin._product

    def packed_product(u, right, size):
        paths[-1] = "packed"
        return multiply_packed(u, right, size)

    def full_product(x, y):
        paths.append("row")
        return multiply(x, y)

    monkeypatch.setattr(exactlin, "_packed_product", packed_product)
    monkeypatch.setattr(exactlin, "_product", full_product)
    return paths


class TestProductAtTheBudget:
    """`_product` against the Fraction product on both sides of
    `_packed_budget`: packed at the bound, row by column one bit past it,
    where a packed product can overflow (at n = 3 and 7,
    `TestPackedProduct`)."""

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8])
    @pytest.mark.parametrize("past", [0, 1])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_matches_the_fraction_product(self, n, past, sign, monkeypatch):
        a = _packed_budget(n) // 2
        u, v = extremes(n, a), extremes(n, _packed_budget(n) + past - a, sign)
        x, y = _Factor(u, n), _Factor(v, n)
        paths = record_paths(monkeypatch)
        assert exactlin._product(x, y) == flat_reference_product(u, v, n)
        assert paths == ["row" if past else "packed"]

    @given(packed_operands(), st.integers(0, 2))
    @settings(max_examples=60, deadline=None)
    def test_random_operands_near_the_budget(self, case, extra):
        # shifting v left by `extra` bits puts the pair up to two bits past
        n, u, v = case
        v = tuple(e << extra for e in v)
        assert _product(_Factor(u, n), _Factor(v, n)) == flat_reference_product(u, v, n)

    def test_a_factor_is_packed_and_split_once(self, monkeypatch):
        # the right factor is packed on its first packed product, and the
        # rows of the left and the columns of the right are split once
        small, large = (1, 2, 3, 4), (2**40, 1, 1, 2**40)
        x, y, z = _Factor(small, 2), _Factor(small, 2), _Factor(large, 2)
        packings = []
        pack = exactlin._packed_right
        monkeypatch.setattr(exactlin, "_packed_right", lambda v, n: packings.append(v) or pack(v, n))
        for _ in range(2):
            assert _product(x, y) == flat_reference_product(small, small, 2)
            assert _product(z, z) == flat_reference_product(large, large, 2)
        assert packings == [small]
        assert z.rows is z.rows and z.columns is z.columns
        assert [tuple(r) for r in z.rows] == [(2**40, 1), (1, 2**40)]
        assert [tuple(c) for c in z.columns] == [(2**40, 1), (1, 2**40)]


def dense_integer_generator(seed, n, bits):
    """A seeded dense n x n integer matrix, entries in [-2^bits, 2^bits]."""
    rng = random.Random(seed)
    return Matrix([[rng.randint(-(2**bits), 2**bits) for _ in range(n)] for _ in range(n)])


def record_closure_products(monkeypatch):
    """Record what `closure` and `absorption_probe` multiply from now on:
    (path, x, y, x y) for each product that `matalg.algebra` forms through
    `exactlin._product` or `_rows_times_columns`, with x, y and x y
    flattened and path "packed" when the product went through
    `_packed_product`, "row" when it did not, and each matrix that
    `_packed_right` packs, in order."""
    products, packings, packed_calls = [], [], []
    pack = exactlin._packed_right
    multiply_packed = exactlin._packed_product
    multiply = algebra_module._product
    multiply_at_cells = algebra_module._rows_times_columns

    def packing(v, n):
        packings.append(tuple(v))
        return pack(v, n)

    def packed_product(u, right, size):
        packed_calls.append(tuple(u))
        return multiply_packed(u, right, size)

    def full_product(x, y):
        before = len(packed_calls)
        result = multiply(x, y)
        path = "packed" if packed_calls[before:] == [tuple(x.flat)] else "row"
        products.append((path, tuple(x.flat), tuple(y.flat), result))
        return result

    def row_product(rows, columns, cells):
        result = multiply_at_cells(rows, columns, cells)
        x = tuple(e for row in rows for e in row)
        y = tuple(e for row in zip(*columns) for e in row)
        products.append(("row", x, y, result))
        return result

    monkeypatch.setattr(exactlin, "_packed_right", packing)
    monkeypatch.setattr(exactlin, "_packed_product", packed_product)
    monkeypatch.setattr(algebra_module, "_product", full_product)
    monkeypatch.setattr(algebra_module, "_rows_times_columns", row_product)
    return products, packings


class TestClosureAcrossTheBound:
    """`closure` at n = 6, where the products' entries outgrow the packed
    product's bound partway through the loop, so that both products run.
    One generator g spins the words g, ..., g^5, each times g; on these
    seeds g^5 g lies past the bound of 60 bits from 10 bits on, and at 6 to
    9 bits every product is packed."""

    @pytest.mark.parametrize("seed, bits", [(0, 12), (1, 12), (2, 14), (3, 10), (4, 10)])
    def test_matches_the_fraction_reference(self, seed, bits, monkeypatch):
        generator = dense_integer_generator(seed, 6, bits)
        products, _ = record_closure_products(monkeypatch)
        space = closure(6, [generator]).space
        assert (space.basis, space.pivots) == reference_closure(6, [generator])
        assert {path for path, *_ in products} == {"packed", "row"}

    def test_every_product_matches_the_fraction_product(self, monkeypatch):
        generators = [dense_integer_generator(seed, 6, 12) for seed in (5, 6)]
        products, _ = record_closure_products(monkeypatch)
        assert closure(6, generators).dimension == 36
        assert {path for path, *_ in products} == {"packed", "row"}
        for _, x, y, product in products:
            assert product == flat_reference_product(x, y, 6)


class TestSpanBuilder:
    def test_matches_rref(self):
        vecs = [(1, 2, 3), (2, 4, 6), (0, 1, 1), (1, 0, 0)]
        builder = SpanBuilder(3)
        added = [builder.add(v) for v in vecs]
        assert added == [True, False, True, True]
        space = builder.to_subspace()
        assert space == rref_basis(vecs, 3)
        assert (space.basis, space.pivots) == sympy_rref(vecs)

    def test_coerces_and_checks_length(self):
        builder = SpanBuilder(3)
        with pytest.raises(ValueError):
            builder.add((1, 2))
        with pytest.raises(ValueError):
            builder.contains((1, 2, 3, 4))
        assert builder.dimension == 0
        assert builder.add((1, 0, 2))
        assert builder.contains((2, 0, 4))
        basis = builder.to_subspace().basis
        assert basis == ((1, 0, 2),)
        assert all(type(e) is Fraction for e in basis[0])

    def test_public_add_still_coerces_and_checks_length(self):
        # `add` validates, then takes the integer path of `_add_integers`
        builder = SpanBuilder(3)
        assert builder.add((Fraction(1, 2), "1/3", 1))
        assert builder.add(("0", 1, Fraction(-2, 5)))
        assert not builder.add(("3", Fraction(7), 4))
        with pytest.raises(ValueError):
            builder.add((Fraction(1, 2), "1"))
        with pytest.raises(ValueError):
            builder.add((1, 2, 3, 4))
        with pytest.raises(TypeError):
            builder.add((1.0, 2, 3))
        assert builder.dimension == 2
        integers = SpanBuilder(3)
        assert integers._add_integers((3, 2, 6))
        assert integers._add_integers((0, 5, -2))
        assert integers.to_subspace() == builder.to_subspace()

    def test_add_integers_returns_the_residual_it_adjoined(self):
        builder = SpanBuilder(3)
        # at pivot value 1 the residual is the vector itself, not made primitive
        assert builder._add_integers((3, 2, 6)) == [3, 2, 6]
        # over the pivot value 3 the residual of (0, -5, 2) is 3 (0, -5, 2),
        # in the caller's sign: the stored row is the primitive (0, 5, -2)
        assert builder._add_integers((0, -5, 2)) == [0, -15, 6]
        den, pairs = builder._integer_form()
        assert (den, dict(pairs)) == (15, {0: [15, 0, 34], 1: [0, 15, -6]})
        # (-6, 1, 0) + 6 (1, 0, 34/15) - (0, 1, -2/5) = (0, 0, 14), times 15
        assert builder._add_integers((-6, 1, 0)) == [0, 0, 210]
        assert builder._add_integers((1, 1, 1)) is None
        assert builder._add_integers((-4, 0, 9)) is None
        assert builder.dimension == 3
        # `add` still answers with a bool
        line = SpanBuilder(2)
        assert line.add((-2, 4)) is True and line.add((1, -2)) is False

    @given(st.lists(st.lists(st.integers(-4, 4), min_size=4, max_size=4), max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_add_integers_residual_is_den_times_the_rational_residual(self, vecs):
        builder = SpanBuilder(4)
        for vec in vecs:
            den, pairs = builder._integer_form()
            basis = [(p, [Fraction(e, den) for e in row]) for p, row in pairs]
            rational = [Fraction(e) for e in vec]
            for p, row in basis:
                rational = [a - vec[p] * b for a, b in zip(rational, row)]
            residual = builder._add_integers(vec)
            if any(rational):
                assert residual == [den * a for a in rational]
            else:
                assert residual is None
        assert builder.to_subspace() == rref_basis(vecs, 4)

    def test_a_zero_vector_is_not_reduced(self, monkeypatch):
        builder = SpanBuilder(3)
        builder._add_integers((1, 2, 0))
        form = (builder._den, {p: list(row) for p, row in builder._rows.items()})
        monkeypatch.setattr(exactlin, "_reduce", lambda *args: pytest.fail("a zero vector was reduced"))
        assert builder._add_integers((0, 0, 0)) is None
        assert builder.add((0, "0", Fraction(0))) is False
        assert (builder._den, builder._rows) == form

    def test_contains_tracks_membership(self):
        builder = SpanBuilder(2)
        builder.add((1, 1))
        assert builder.contains((2, 2))
        assert not builder.contains((1, 0))

    @given(st.lists(vectors(4), min_size=0, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_rref_basis(self, vecs):
        builder = SpanBuilder(4)
        for v in vecs:
            builder.add(v)
        space = builder.to_subspace()
        assert space == rref_basis(vecs, 4)
        assert builder.dimension == space.dimension
        assert (space.basis, space.pivots) == sympy_rref(vecs)


class TestAgainstSympy:
    """The elimination kernel against sympy's, an independent reference."""

    @given(row_lists())
    @settings(max_examples=80, deadline=None)
    def test_rref_basis(self, rows):
        space = rref_basis(rows, len(rows[0]))
        assert (space.basis, space.pivots) == sympy_rref(rows)
        assert all(type(e) is Fraction for v in space.basis for e in v)

    @given(row_lists())
    @settings(max_examples=80, deadline=None)
    def test_null_space(self, rows):
        kernel = null_space(Matrix(rows))
        vectors = sympy_matrix(rows).nullspace()
        if not vectors:
            assert kernel.dimension == 0
            return
        reduced = sympy_rref([[from_sympy(x) for x in v] for v in vectors])
        assert (kernel.basis, kernel.pivots) == reduced

    @given(st.integers(1, 4).flatmap(lambda n: row_lists(cols=n, count=n)))
    @settings(max_examples=80, deadline=None)
    def test_inverse(self, rows):
        reference = sympy_matrix(rows)
        if reference.det() == 0:
            with pytest.raises(ValueError, match="singular"):
                Matrix(rows).inverse()
            return
        inverse = Matrix(rows).inverse()
        assert inverse.entries == tuple(
            tuple(from_sympy(x) for x in reference.inv().row(i)) for i in range(len(rows))
        )
        assert all(type(e) is Fraction for row in inverse.entries for e in row)

    @given(row_lists(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_solve_linear(self, rows, data):
        m = Matrix(rows)
        if data.draw(st.booleans()):
            x = data.draw(st.lists(rationals, min_size=m.cols, max_size=m.cols))
            rhs = [sum(a * b for a, b in zip(row, x)) for row in rows]
        else:
            rhs = data.draw(st.lists(rationals, min_size=m.rows, max_size=m.rows))
        augmented = [row + (b,) for row, b in zip(rows, rhs)]
        solution = solve_linear(m, rhs)
        inconsistent = sympy_rank(augmented) > sympy_rank(rows)
        assert (solution is None) == inconsistent
        if solution is not None:
            assert [sum(a * b for a, b in zip(row, solution)) for row in rows] == rhs

    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(row_lists(cols=n), row_lists(cols=n))))
    @settings(max_examples=80, deadline=None)
    def test_subspace_intersect(self, pair):
        rows_a, rows_b = pair
        n = len(rows_a[0])
        meet = subspace_intersect(rref_basis(rows_a, n), rref_basis(rows_b, n))
        rank_a, rank_b = sympy_rank(rows_a), sympy_rank(rows_b)
        assert meet.dimension == rank_a + rank_b - sympy_rank(rows_a + rows_b)
        for v in meet.basis:
            assert sympy_rank(rows_a + [v]) == rank_a
            assert sympy_rank(rows_b + [v]) == rank_b


class TestAgainstFractionReference:
    """The integer elimination kernel against the Fraction elimination it
    replaced (`reference_echelon`), on wide rationals."""

    @given(wide_rows())
    @settings(max_examples=80, deadline=None)
    def test_rref_basis(self, rows):
        space = rref_basis(rows, len(rows[0]))
        assert (space.basis, space.pivots) == reference_basis(rows)
        assert all(type(e) is Fraction for v in space.basis for e in v)

    @given(wide_rows())
    @settings(max_examples=80, deadline=None)
    def test_null_space(self, rows):
        kernel = null_space(Matrix(rows))
        assert (kernel.basis, kernel.pivots) == reference_null_space(rows, len(rows[0]))

    @given(st.integers(1, 6).flatmap(lambda n: wide_rows(cols=n, count=n)))
    @settings(max_examples=80, deadline=None)
    def test_inverse(self, rows):
        n = len(rows)
        unit = [tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)]
        reduced = reference_echelon([row + e for row, e in zip(rows, unit)])
        if max(reduced) >= n:
            with pytest.raises(ValueError, match="singular"):
                Matrix(rows).inverse()
            return
        inverse = Matrix(rows).inverse()
        assert inverse.entries == tuple(tuple(reduced[p][n:]) for p in range(n))
        assert all(type(e) is Fraction for row in inverse.entries for e in row)

    @given(wide_rows(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_solve_linear(self, rows, data):
        m = Matrix(rows)
        if data.draw(st.booleans()):
            x = data.draw(st.lists(wide, min_size=m.cols, max_size=m.cols))
            rhs = [sum((a * b for a, b in zip(row, x)), Fraction(0)) for row in rows]
        else:
            rhs = data.draw(st.lists(wide, min_size=m.rows, max_size=m.rows))
        reduced = reference_echelon([row + (b,) for row, b in zip(rows, rhs)])
        solution = solve_linear(m, rhs)
        if m.cols in reduced:
            assert solution is None
            return
        expected = [Fraction(0)] * m.cols
        for p, row in reduced.items():
            expected[p] = row[m.cols]
        assert solution == tuple(expected)

    @given(st.integers(1, 25).flatmap(lambda n: st.tuples(wide_rows(cols=n), wide_rows(cols=n))))
    @settings(max_examples=60, deadline=None)
    def test_subspace_intersect(self, pair):
        rows_a, rows_b = pair
        n = len(rows_a[0])
        zero = (Fraction(0),) * n
        stacked = [v + v for v in reference_basis(rows_a)[0]]
        stacked += [w + zero for w in reference_basis(rows_b)[0]]
        carriers = [row[n:] for p, row in reference_echelon(stacked).items() if p >= n]
        meet = subspace_intersect(rref_basis(rows_a, n), rref_basis(rows_b, n))
        assert (meet.basis, meet.pivots) == reference_basis(carriers)

    @given(wide_rows(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_quotient_project_and_contains(self, rows, data):
        n = len(rows[0])
        sub = rref_basis(rows, n)
        vec = [Fraction(0)] * n
        for row in sub.basis:
            c = data.draw(wide)
            vec = [x + c * y for x, y in zip(vec, row)]
        if data.draw(st.booleans()):
            vec = [x + y for x, y in zip(vec, data.draw(st.lists(wide, min_size=n, max_size=n)))]
        residual = reference_reduce(vec, zip(sub.pivots, sub.basis))
        assert reference_project(sub, vec) == [residual[c] for c in coset_coords(sub)]
        assert subspace_contains(sub, vec) == (not any(residual))

    @given(wide_rows())
    @settings(max_examples=80, deadline=None)
    def test_span_builder(self, rows):
        # after every add the integer rows over the common pivot value are
        # the reference rows, and that value and the rows share no factor,
        # which bounds the growth of the integers
        builder = SpanBuilder(len(rows[0]))
        reference = {}
        for vec in rows:
            residual = reference_reduce(vec, reference.items())
            assert builder.contains(vec) == (not any(residual))
            assert builder.add(vec) == any(residual)
            if any(residual):
                reference_adjoin(reference, residual)
            den = builder._den
            assert math.gcd(den, *(e for row in builder._rows.values() for e in row)) == 1
            assert den == math.lcm(1, *(x.denominator for row in reference.values() for x in row))
            scaled = {p: [Fraction(e, den) for e in row] for p, row in builder._rows.items()}
            assert scaled == reference
        space = builder.to_subspace()
        assert (space.basis, space.pivots) == reference_basis(rows)


class TestQuotient:
    @given(quotient_cases())
    @settings(max_examples=100, deadline=None)
    def test_project_vanishes_exactly_on_the_subspace(self, case):
        sub, vec = case
        assert len(coset_coords(sub)) == sub.ambient_dim - sub.dimension
        assert (not any(reference_project(sub, vec))) == subspace_contains(sub, vec)

    @given(quotient_cases())
    @settings(max_examples=100, deadline=None)
    def test_lift_is_a_section_of_project(self, case):
        # the lift of coordinates is the vector carrying them at the coset
        # coordinates and zero elsewhere
        sub, vec = case
        coords_at = coset_coords(sub)

        def lift(coords):
            dense = [Fraction(0)] * sub.ambient_dim
            for x, c in zip(coords, coords_at):
                dense[c] = x
            return dense

        lifted = lift(reference_project(sub, vec))
        assert subspace_contains(sub, [x - y for x, y in zip(vec, lifted)])
        coords = vec[: len(coords_at)]
        assert reference_project(sub, lift(coords)) == list(coords)

    @given(quotient_cases())
    @settings(max_examples=100, deadline=None)
    def test_sparse_images_are_projected_unit_vectors(self, case):
        # the images are the projected unit vectors times the pivot value
        # D of the stored form, as integers
        sub, _ = case
        m = sub.ambient_dim
        den = sub._integer_form()[0]
        for a, image in enumerate(_coset_images(sub)):
            unit = [Fraction(int(a == k)) for k in range(m)]
            dense = [Fraction(0)] * m
            for x, c in zip(reference_project(sub, unit), coset_coords(sub)):
                dense[c] = den * x
            assert all(type(c) is int for _, c in image)
            assert dict(image) == {f: c for f, c in enumerate(dense) if c}


@st.composite
def unit_positions(draw):
    """n in 1..4 and a list of positions in any order, with repeats,
    possibly empty."""
    n = draw(st.integers(1, 4))
    index = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(index, index), max_size=2 * n * n))


class TestUnitSpan:
    @given(unit_positions())
    @example((3, []))
    @settings(max_examples=150, deadline=None)
    def test_matches_rref_of_unit_vectors(self, case):
        n, positions = case
        units = [Matrix.unit(n, i, j).flatten() for i, j in positions]
        assert _unit_span(n, positions) == rref_basis(units, n * n)

    def test_rejects_out_of_range_positions(self):
        with pytest.raises(ValueError):
            _unit_span(2, [(0, 2)])


_WIDE = Matrix([[1, 2, 3], [4, 5, 6]])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: as_vector([1, 2], 3), "expected vector of length 3, got 2"),
        (lambda: Matrix.unit(2, 2, 0), "unit position (2, 0) out of range for n=2"),
        (lambda: Matrix.from_flat([1, 2, 3], 2), "expected 4 coordinates, got 3"),
        (lambda: _WIDE * _WIDE, "cannot multiply 2x3 by 2x3"),
        (lambda: Matrix([[1, 2]]) + Matrix([[1], [2]]), "shape mismatch: 1x2 vs 2x1"),
        (lambda: Matrix([[1, 2]]) - Matrix([[1], [2]]), "shape mismatch: 1x2 vs 2x1"),
        (lambda: _WIDE.trace(), "trace needs a square matrix"),
        (lambda: _WIDE.inverse(), "only square matrices can be inverted"),
        (lambda: full_space(4).basis_matrices(3), "ambient dimension 4 is not 3*3"),
        (lambda: subspace_sum(full_space(4), full_space(9)), "ambient dimension mismatch: 4 vs 9"),
        (lambda: subspace_intersect(full_space(4), zero_space(9)), "ambient dimension mismatch: 4 vs 9"),
        (lambda: is_coideal(full_space(3)), "ambient dimension 3 is not a square"),
        (lambda: is_nil_subspace(zero_space(3)), "ambient dimension 3 is not a square"),
        (lambda: random_subspace(random.Random(0), 3, 4), "dimension 4 out of range for ambient 3"),
    ],
    ids=[
        "as_vector", "unit", "from_flat", "product", "sum-shape", "difference-shape", "trace",
        "inverse", "basis_matrices", "sum", "intersect", "is_coideal", "is_nil_subspace",
        "random_subspace",
    ],
)
def test_input_checks_raise(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
