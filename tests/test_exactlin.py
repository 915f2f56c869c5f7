"""Exact linear algebra: matrices, canonical subspaces, solvers."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matalg.exactlin import (
    Matrix,
    Quotient,
    SpanBuilder,
    _joint_kernel,
    as_scalar,
    as_vector,
    full_space,
    null_space,
    random_invertible,
    random_subspace,
    rref_basis,
    solve_linear,
    subspace_contains,
    subspace_intersect,
    subspace_sum,
    zero_space,
)

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
        assert _joint_kernel(family, n) == reference


class TestSamplers:
    @pytest.mark.parametrize(
        "n, lo, hi",
        [(2, 1, 0), (1, 0, 0), (2, 1, 1), (3, -2, -2)],
    )
    def test_invertible_rejects_hopeless_ranges(self, n, lo, hi):
        with pytest.raises(ValueError):
            random_invertible(random.Random(0), n, lo=lo, hi=hi)

    def test_invertible_single_nonzero_value_at_side_one(self):
        assert random_invertible(random.Random(0), 1, lo=2, hi=2) == Matrix([[2]])

    @pytest.mark.parametrize(
        "ambient, dim, lo, hi",
        [(3, 1, 2, 1), (3, 1, 0, 0), (3, 2, 1, 1), (4, 3, -1, -1)],
    )
    def test_subspace_rejects_hopeless_ranges(self, ambient, dim, lo, hi):
        with pytest.raises(ValueError):
            random_subspace(random.Random(0), ambient, dim, lo=lo, hi=hi)

    def test_subspace_single_value_spans_a_line(self):
        line = random_subspace(random.Random(0), 3, 1, lo=1, hi=1)
        assert line == rref_basis([(1, 1, 1)], 3)
        assert random_subspace(random.Random(0), 3, 0, lo=0, hi=0).dimension == 0

    def test_rejection_loops_stop_at_the_draw_limit(self):
        class Zeros(random.Random):
            def randint(self, lo, hi):
                return 0

        with pytest.raises(RuntimeError):
            random_invertible(Zeros(), 1, lo=0, hi=1)
        with pytest.raises(RuntimeError):
            random_subspace(Zeros(), 2, 1, lo=0, hi=1)


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


class TestQuotient:
    @given(quotient_cases())
    @settings(max_examples=100, deadline=None)
    def test_project_vanishes_exactly_on_the_subspace(self, case):
        sub, vec = case
        quotient = Quotient(sub)
        assert quotient.dim == sub.ambient_dim - sub.dimension
        assert (not any(quotient.project(vec))) == subspace_contains(sub, vec)

    @given(quotient_cases())
    @settings(max_examples=100, deadline=None)
    def test_lift_is_a_section_of_project(self, case):
        sub, vec = case
        quotient = Quotient(sub)
        lifted = quotient.lift(quotient.project(vec))
        assert subspace_contains(sub, [x - y for x, y in zip(vec, lifted)])
        coords = vec[: quotient.dim]
        assert quotient.project(quotient.lift(coords)) == list(coords)

    @given(quotient_cases())
    @settings(max_examples=100, deadline=None)
    def test_sparse_images_are_projected_unit_vectors(self, case):
        sub, _ = case
        quotient = Quotient(sub)
        m = sub.ambient_dim
        for a, image in enumerate(quotient.images()):
            unit = [Fraction(int(a == k)) for k in range(m)]
            dense = quotient.lift(quotient.project(unit))
            assert dict(image) == {f: c for f, c in enumerate(dense) if c}
