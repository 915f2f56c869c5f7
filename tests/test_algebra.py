"""Subalgebra structure: closures, radicals, blocks, flags, block types."""

import dataclasses
import math
import operator
import random
import sys
import time
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import matalg.algebra as algebra_module
import matalg.exactlin as exactlin
from matalg.algebra import (
    Composition,
    Flag,
    MatrixAlgebra,
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
    _QuotientAlgebra,
    _central_idempotents,
    _certified_radical,
    _deflate,
    _integer_roots,
    _kernel_flag,
    _poly_rem,
    _rational_roots,
    _value,
)
from matalg.cli.suites import corpus_algebras
from test_exactlin import (
    coset_coords,
    joint_kernel,
    record_closure_products,
    reference_closure,
    reference_echelon,
    reference_product,
    reference_project,
    solve_linear,
    sympy_rank,
)
from matalg.exactlin import (
    Matrix,
    SpanBuilder,
    _packed_budget,
    _primitive,
    _unit_span,
    full_space,
    null_space,
    random_invertible,
    random_matrix,
    rref_basis,
    subspace_contains,
    zero_space,
)


def full_algebra(n):
    units = [Matrix.unit(n, i, j) for i in range(n) for j in range(n)]
    return algebra_from_basis(n, units)


def diagonal_algebra(n):
    return algebra_from_basis(n, [Matrix.unit(n, i, i) for i in range(n)])


def block_diagonal(*blocks):
    n = sum(b.rows for b in blocks)
    rows = [[0] * n for _ in range(n)]
    offset = 0
    for b in blocks:
        for i in range(b.rows):
            for j in range(b.cols):
                rows[offset + i][offset + j] = b[i, j]
        offset += b.rows
    return Matrix(rows)


def rational_invertible(rng, n):
    """A seeded invertible n x n matrix with entries of denominators up to 5."""
    for _ in range(100):
        entries = [[Fraction(rng.randint(-3, 3), rng.randint(1, 5)) for _ in range(n)] for _ in range(n)]
        c = Matrix(entries)
        if null_space(c).dimension == 0:
            return c
    raise AssertionError("no invertible matrix in 100 draws")


def parabolic_units(comp):
    """The matrix units e_{i,j} spanning the block upper-triangular algebra."""
    n = comp.n
    blocks = [comp.block_of(i) for i in range(n)]
    positions = [(i, j) for i in range(n) for j in range(n) if blocks[i] <= blocks[j]]
    return {(i, j): Matrix.unit(n, i, j) for i, j in positions}


SQRT2 = Matrix([[0, 2], [1, 0]])  # companion of t^2 - 2
SQRT3 = Matrix([[0, 3], [1, 0]])  # companion of t^2 - 3
ZERO1 = Matrix([[0]])
ZERO2 = Matrix([[0, 0], [0, 0]])
# left multiplication by i and j on the basis 1, i, j, k of (-1,-1)_Q
LEFT_I = Matrix([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
LEFT_J = Matrix([[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]])


class TestComposition:
    def test_parts_and_blocks(self):
        comp = Composition((1, 2))
        assert comp.n == 3
        assert [comp.block_of(i) for i in range(3)] == [0, 1, 1]
        assert list(comp) == [1, 2] and len(comp) == 2

    def test_rejects_nonpositive_parts(self):
        with pytest.raises(ValueError):
            Composition((1, 0))
        with pytest.raises(ValueError):
            Composition(())

    @pytest.mark.parametrize("parts", [(1.5, 2), (True, 2), (2.0, 1), ("1", 2)])
    def test_rejects_non_integer_parts(self, parts):
        # int() would truncate 1.5 and turn True into 1 without a word
        with pytest.raises(TypeError):
            Composition(parts)

    def test_enumeration_count(self):
        # compositions of n are in bijection with subsets of n-1 cut points
        for n in range(1, 7):
            assert len(list(compositions(n))) == 2 ** (n - 1)

    def test_enumeration_proper_only(self):
        assert all(len(c.parts) >= 2 for c in compositions(4, min_parts=2))
        assert len(list(compositions(4, min_parts=2))) == 7

    def test_dimension_formula_value(self):
        assert parabolic_dimension(Composition((1, 2))) == 7
        assert parabolic_dimension(Composition((2, 2))) == 12
        assert parabolic_dimension(Composition((1, 1, 1))) == 6
        assert parabolic_dimension(Composition((4,))) == 16


class TestClosure:
    def test_single_nilpotent_generator(self):
        # closure of e_{0,1} is span{I, e_{0,1}}
        a = closure(2, [Matrix.unit(2, 0, 1)])
        assert a.dimension == 2
        assert a.contains(Matrix.identity(2))
        assert a.contains(Matrix.unit(2, 0, 1))

    def test_two_units_generate_everything(self):
        a = closure(2, [Matrix.unit(2, 0, 1), Matrix.unit(2, 1, 0)])
        assert a.dimension == 4

    def test_rotation_generator(self):
        # J with J^2 = -I generates a 2-dimensional commutative algebra
        j = Matrix([[0, -1], [1, 0]])
        a = closure(2, [j])
        assert a.dimension == 2
        assert schur_commutative_check(a)[0] is True

    def test_closure_is_idempotent(self):
        rng = random.Random(11)
        gens = [random_matrix(rng, 3) for _ in range(2)]
        a = closure(3, gens)
        again = closure(3, a.basis_matrices())
        assert again.space == a.space

    def test_closure_contains_products(self):
        rng = random.Random(5)
        x, y = random_matrix(rng, 3), random_matrix(rng, 3)
        a = closure(3, [x, y])
        assert a.contains(x * y * x)
        assert a.contains(y * y)

    def test_algebra_from_basis_rejects_open_span(self):
        # span{I, e_{0,1}, e_{1,0}} misses the diagonal products
        with pytest.raises(ValueError):
            algebra_from_basis(
                2, [Matrix.identity(2), Matrix.unit(2, 0, 1), Matrix.unit(2, 1, 0)]
            )

    @pytest.mark.parametrize(
        "parts, dropped", [((1, 3), (0, 1)), ((2, 2), (0, 2)), ((1, 2, 1), (0, 3))]
    )
    def test_algebra_from_basis_rejects_conjugated_parabolic_missing_a_unit(self, parts, dropped):
        # e_{i,k} e_{k,j} = e_{i,j} for a k of the pattern, so the span of
        # the other units holds the identity but is not closed
        comp = Composition(parts)
        c = rational_invertible(random.Random(sum(parts) * 7 + len(parts)), comp.n)
        cinv = c.inverse()
        units = parabolic_units(comp)
        moved = {pos: c * u * cinv for pos, u in units.items()}
        a = algebra_from_basis(comp.n, list(moved.values()))
        assert a == conjugate(parabolic_subalgebra(comp), c)
        with pytest.raises(ValueError, match="not closed"):
            algebra_from_basis(comp.n, [m for pos, m in moved.items() if pos != dropped])

    def test_algebra_from_basis_requires_identity(self):
        with pytest.raises(ValueError):
            algebra_from_basis(2, [Matrix.unit(2, 0, 1)])

    @pytest.mark.parametrize("matrices", [[], [ZERO2], [ZERO2, ZERO2]])
    def test_algebra_from_basis_rejects_the_zero_span(self, matrices):
        with pytest.raises(ValueError, match="span does not contain the identity matrix"):
            algebra_from_basis(2, matrices)


class TestConjugation:
    def test_swap_turns_upper_into_lower(self):
        swap = Matrix([[0, 1], [1, 0]])
        upper = parabolic_subalgebra(Composition((1, 1)))
        moved = conjugate(upper, swap)
        lower = algebra_from_basis(
            2, [Matrix.unit(2, 0, 0), Matrix.unit(2, 1, 1), Matrix.unit(2, 1, 0)]
        )
        assert moved.space == lower.space

    def test_conjugation_preserves_dimension(self):
        rng = random.Random(3)
        a = parabolic_subalgebra(Composition((2, 1)))
        c = random_invertible(rng, 3)
        assert conjugate(a, c).dimension == a.dimension

    def test_conjugate_space_roundtrip(self):
        rng = random.Random(4)
        a = parabolic_subalgebra(Composition((1, 1, 1)))
        c = random_invertible(rng, 3)
        moved = conjugate_space(a.space, c)
        assert conjugate_space(moved, c.inverse()) == a.space


class TestRadical:
    def test_full_algebra_has_zero_radical(self):
        for n in (2, 3):
            assert radical(full_algebra(n)).dimension == 0

    def test_upper_triangular_radical_is_strict_part(self):
        r = radical(parabolic_subalgebra(Composition((1, 1))))
        assert r == rref_basis([Matrix.unit(2, 0, 1).flatten()], 4)

    def test_parabolic_radical_is_off_block_part(self):
        r = radical(parabolic_subalgebra(Composition((1, 2))))
        expected = rref_basis(
            [Matrix.unit(3, 0, 1).flatten(), Matrix.unit(3, 0, 2).flatten()], 9
        )
        assert r == expected

    def test_diagonal_is_semisimple(self):
        assert radical(diagonal_algebra(3)).dimension == 0

    def test_radical_is_conjugation_invariant(self):
        rng = random.Random(9)
        a = parabolic_subalgebra(Composition((1, 2)))
        c = random_invertible(rng, 3)
        moved = conjugate(a, c)
        assert radical(moved) == conjugate_space(radical(a), c)


def at_pivots(a, space):
    """The subspace `space` of `a` read at the pivots of `a`: its
    coordinates over the reduced echelon basis of `a`, the form in which
    `_trace_form_kernel` gives the radical."""
    pivots = a.space.pivots
    assert all(a.space.contains(row) for row in space.basis)
    return rref_basis([[row[p] for p in pivots] for row in space.basis], len(pivots))


def plant(patch, coords):
    """Make `_trace_form_kernel` return the subspace `coords` of the
    coordinates of its algebra as the radical candidate, with the true
    trace Gram matrix, which the check reads its section block from."""
    kernel = algebra_module._trace_form_kernel
    patch.setattr(algebra_module, "_trace_form_kernel", lambda algebra: (coords, kernel(algebra)[1]))


# The messages of the checks of `_certified_radical`: (i) the flag is
# stabilized, (ii) the section Gram block is nonsingular, and the flag
# reaches Q^n.
NO_IDEAL = "not a two-sided ideal"
MISSES = "misses part of the radical"
NOT_NILPOTENT = "not nilpotent"


class TestRadicalCertificate:
    def test_trace_form_kernel_that_is_no_ideal_is_rejected(self):
        # not an algebra: the span lacks the identity, so the spin of its
        # generating set rejects it before its trace-form kernel
        # span{e_01, e_12}, which is no ideal (e_01 e_12 = e_02), is formed
        a = MatrixAlgebra(n=3, space=_unit_span(3, [(0, 0), (0, 1), (1, 2)]))
        with pytest.raises(ValueError, match="identity"):
            radical(a)

    def test_tampered_candidate_is_rejected(self, monkeypatch):
        # a plane in the radical of a conjugated P(1, 3): nilpotent, but no
        # ideal, since the right action of the 3 x 3 block moves it, and
        # so its kernel flag
        comp = Composition((1, 3))
        a = conjugate(parabolic_subalgebra(comp), rational_invertible(random.Random(13), 4))
        rad = radical(a)
        assert rad.dimension == 3
        plant(monkeypatch, at_pivots(a, rref_basis(rad.basis[:-1], 16)))
        # `a` keeps its radical: a fresh equal algebra certifies the planted one
        with pytest.raises(RuntimeError, match=NO_IDEAL):
            radical(dataclasses.replace(a))

    @pytest.mark.parametrize(
        "unit, left_ideal, right_ideal, message",
        [
            # E01 b = b11 E01 but E01 E12 = E02; E12 moves ker E01 = <e0, e2>
            ((0, 1), True, False, NO_IDEAL),
            # b E12 = b01 E02 + b11 E12, but E12 b = b22 E12; its flag
            # <e0, e1> < Q^3 is stabilized, and E02 lies on the section
            ((1, 2), False, True, MISSES),
        ],
        ids=["unit0-True-False", "unit1-False-True"],
    )
    def test_one_sided_ideal_is_rejected(self, monkeypatch, unit, left_ideal, right_ideal, message):
        # a nilpotent candidate closed on one side only, in the radical of
        # P(1, 1, 1): (i) rejects one and (ii) the other
        a = parabolic_subalgebra(Composition((1, 1, 1)))
        candidate = _unit_span(3, [unit])
        basis = a.basis_matrices()
        members = candidate.basis_matrices(3)
        assert all(candidate.contains((b * m).flatten()) for b in basis for m in members) == left_ideal
        assert all(candidate.contains((m * b).flatten()) for b in basis for m in members) == right_ideal
        plant(monkeypatch, at_pivots(a, candidate))
        with pytest.raises(RuntimeError, match=message):
            radical(a)

    def test_kernel_flag_failure_is_rejected(self, monkeypatch):
        monkeypatch.setattr(algebra_module, "_kernel_flag", lambda mats, n: None)
        with pytest.raises(RuntimeError, match=NOT_NILPOTENT):
            radical(parabolic_subalgebra(Composition((1, 1, 1))))

    def test_nilpotent_candidate_off_the_radical_is_rejected_by_the_flag(self, monkeypatch):
        # x = [[1, 1], [-1, -1]] in M_2, whose radical is 0: x^2 = 0, and the
        # Gram block on the section E01, E10, E11 is nonsingular, so only
        # (i) rejects span{x}: E10 moves ker x = <(1, -1)>
        a = full_algebra(2)
        x = Matrix([[1, 1], [-1, -1]])
        assert x * x == Matrix.zeros(2)
        plant(monkeypatch, at_pivots(a, rref_basis([x.flatten()], 4)))
        with pytest.raises(RuntimeError, match=NO_IDEAL):
            radical(a)

    # The cases above on algebras spun at once by `algebra_from_basis`: the
    # flag is checked over a generating set smaller than the basis.

    def test_tampered_candidate_is_rejected_over_generators(self, monkeypatch):
        c = rational_invertible(random.Random(13), 4)
        built = conjugate(parabolic_subalgebra(Composition((1, 3))), c)
        a = algebra_from_basis(4, built.basis_matrices())
        assert a == built and 0 < len(a._generating_set) < a.dimension
        # an equal algebra finds the radical, so `a` has kept none
        rad = radical(built)
        plant(monkeypatch, at_pivots(a, rref_basis(rad.basis[:-1], 16)))
        with pytest.raises(RuntimeError, match=NO_IDEAL):
            radical(a)

    @pytest.mark.parametrize(
        "units, message",
        [([(0, 1)], NO_IDEAL), ([(1, 2)], MISSES), ([(0, 1), (1, 2)], MISSES)],
        ids=["units0", "units1", "units2"],
    )
    def test_one_sided_or_no_ideal_is_rejected_over_generators(self, monkeypatch, units, message):
        # span{E01} is a left ideal only, span{E12} a right ideal only, and
        # span{E01, E12} neither, since E01 E12 = E02; the last two lie in
        # the radical, and E02 on their section
        upper = parabolic_subalgebra(Composition((1, 1, 1)))
        a = algebra_from_basis(3, upper.basis_matrices())
        assert a == upper and 0 < len(a._generating_set) < a.dimension
        plant(monkeypatch, at_pivots(a, _unit_span(3, units)))
        with pytest.raises(RuntimeError, match=message):
            radical(a)


STRUCTURE_QUESTIONS = [radical, semisimple_blocks, invariant_flag, is_parabolic]


class TestNonAlgebrasAreRejected:
    """A span given straight to `MatrixAlgebra` that lacks the identity or
    is not closed is no algebra: each structural question raises
    ValueError when it asks for the generating set.  The zero span lacks
    the identity too."""

    @pytest.mark.parametrize("function", STRUCTURE_QUESTIONS)
    @pytest.mark.parametrize(
        "matrices, message",
        [
            ([], "identity"),
            ([[[0, 1], [0, 0]]], "identity"),
            ([[[1, 0], [0, 0]]], "identity"),
            # E01 E10 = E00 is not in span{I, E01, E10}
            ([[[1, 0], [0, 1]], [[0, 1], [0, 0]], [[0, 0], [1, 0]]], "not closed"),
        ],
        ids=["zero", "E01", "E00", "I-E01-E10"],
    )
    def test_raises(self, function, matrices, message):
        a = MatrixAlgebra(n=2, space=rref_basis([Matrix(m).flatten() for m in matrices], 4))
        with pytest.raises(ValueError, match=message):
            function(a)


def count_certifications(patch):
    """Count the calls of `_spin_generators` and `_certified_radical` from
    now on, as {name: calls}."""
    calls = {"_spin_generators": 0, "_certified_radical": 0}
    for name in calls:
        original = getattr(algebra_module, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        patch.setattr(algebra_module, name, counted)
    return calls


class TestOneCertificationPerAlgebra:
    """An algebra object spins its generating set once and certifies its
    radical once, whichever of the four structural questions it is asked
    and in whatever order; a copy finds both again, and a failure keeps
    nothing."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: MatrixAlgebra(n=3, space=rref_basis([Matrix.identity(3).flatten()], 9)),
            lambda: full_algebra(2),
            lambda: diagonal_algebra(3),
            lambda: parabolic_subalgebra(Composition((1, 2))),
            lambda: conjugate(parabolic_subalgebra(Composition((1, 1, 2))), rational_invertible(random.Random(9), 4)),
            lambda: algebra_from_basis(3, parabolic_subalgebra(Composition((2, 1))).basis_matrices()),
        ],
        ids=["QI", "M2", "diagonal-3", "P-1-2", "conjugated-P-1-1-2", "from-basis-P-2-1"],
    )
    def test_one_of_each_in_every_order(self, build, monkeypatch):
        expected = [f(build()) for f in STRUCTURE_QUESTIONS]
        calls = count_certifications(monkeypatch)
        for order in permutations(range(len(STRUCTURE_QUESTIONS))):
            calls.update(dict.fromkeys(calls, 0))
            a = build()
            answers = {k: STRUCTURE_QUESTIONS[k](a) for k in order}
            assert [answers[k] for k in range(len(STRUCTURE_QUESTIONS))] == expected
            assert calls == {"_spin_generators": 1, "_certified_radical": 1}

    def test_a_copy_certifies_again(self, monkeypatch):
        a = conjugate(parabolic_subalgebra(Composition((1, 2))), rational_invertible(random.Random(3), 3))
        calls = count_certifications(monkeypatch)
        first = [f(a) for f in STRUCTURE_QUESTIONS]
        copy = dataclasses.replace(a)
        assert copy == a and hash(copy) == hash(a)
        assert [f(copy) for f in STRUCTURE_QUESTIONS] == first
        assert [f(a) for f in STRUCTURE_QUESTIONS] == first
        assert calls == {"_spin_generators": 2, "_certified_radical": 2}

    @pytest.mark.parametrize("function", STRUCTURE_QUESTIONS)
    def test_a_span_that_is_not_closed_raises_on_each_call(self, function, monkeypatch):
        # E01 E10 = E00 is not in span{I, E01, E10}
        matrices = [Matrix.identity(2), Matrix.unit(2, 0, 1), Matrix.unit(2, 1, 0)]
        a = MatrixAlgebra(n=2, space=rref_basis([m.flatten() for m in matrices], 4))
        calls = count_certifications(monkeypatch)
        for _ in range(2):
            with pytest.raises(ValueError, match="not closed"):
                function(a)
        assert calls == {"_spin_generators": 2, "_certified_radical": 2}

    @pytest.mark.parametrize("function", STRUCTURE_QUESTIONS)
    def test_a_failed_certificate_raises_on_each_call(self, function, monkeypatch):
        a = parabolic_subalgebra(Composition((1, 1, 1)))
        calls = count_certifications(monkeypatch)
        monkeypatch.setattr(algebra_module, "_kernel_flag", lambda rows, n: None)
        for _ in range(2):
            with pytest.raises(RuntimeError, match=NOT_NILPOTENT):
                function(a)
        # the generating set was found, and is kept
        assert calls == {"_spin_generators": 1, "_certified_radical": 2}


def reference_radical(a):
    """The trace-form kernel with the Gram matrix read off d^2 matrix
    products, the reference for the dot-product Gram matrix of `radical`."""
    n = a.n
    basis = a.basis_matrices()
    gram = Matrix([[(x * y).trace() for x in basis] for y in basis])
    kernel = [
        sum((c * b for c, b in zip(coeffs, basis)), Matrix.zeros(n)).flatten()
        for coeffs in null_space(gram).basis
    ]
    return rref_basis(kernel, n * n)


@st.composite
def small_closures(draw):
    """Closures of 1-2 sparse rational generators at n <= 4; half of them
    upper triangular, so that nonzero radicals occur."""
    n = draw(st.integers(1, 4))
    upper = draw(st.booleans())
    entry = st.one_of(
        st.just(Fraction(0)),
        st.fractions(min_value=Fraction(-5), max_value=Fraction(5), max_denominator=4),
    )
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        rows = [[draw(entry) if j >= i or not upper else 0 for j in range(n)] for i in range(n)]
        gens.append(Matrix(rows))
    return closure(n, gens)


@st.composite
def _repeated_blocks(draw):
    """(algebra, [(t, mu), ...]): the direct sum of the blocks M_t(Q), each
    on mu diagonal copies, t, mu <= 2, of total side at most 6, conjugated
    by a seeded rational matrix."""
    blocks = []
    while not blocks or (draw(st.booleans()) and sum(t * mu for t, mu in blocks) <= 2):
        blocks.append((draw(st.integers(1, 2)), draw(st.integers(1, 2))))
    n = sum(t * mu for t, mu in blocks)
    generators = []
    offset = 0
    for t, mu in blocks:
        for i in range(t):
            for j in range(t):
                rows = [[0] * n for _ in range(n)]
                for copy in range(mu):
                    rows[offset + copy * t + i][offset + copy * t + j] = 1
                generators.append(Matrix(rows))
        offset += t * mu
    c = rational_invertible(random.Random(draw(st.integers(0, 10**6))), n)
    return closure(n, [c * g * c.inverse() for g in generators]), blocks


class TestRadicalReference:
    @given(small_closures())
    @settings(max_examples=40, deadline=None)
    def test_matches_product_gram_reference(self, a):
        assert radical(a) == reference_radical(a)


def as_element(coords):
    """Rational coordinates as a quotient element (den, ints): a positive
    denominator and integers, with gcd 1 together."""
    den = math.lcm(1, *(c.denominator for c in coords))
    ints = [c.numerator * (den // c.denominator) for c in coords]
    g = math.gcd(den, *ints)
    return den // g, tuple(x // g for x in ints)


def quotient_product(quotient, u, v):
    """The product u v of two elements of a `_QuotientAlgebra`."""
    return quotient._times(u, quotient._right_factor(v))


def as_fractions(element):
    den, ints = element
    return tuple(Fraction(x, den) for x in ints)


class TestQuotientTable:
    """The integer products of A/rad A, formed on demand, against products
    of lifts: rad A is an ideal, so the coset of x y depends only on the
    cosets of x and y."""

    @given(small_closures(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_mult_and_left_trace_match_lifted_products(self, a, data):
        rad = radical(a)
        quotient = _QuotientAlgebra(a, _certified_radical(a))
        section = [
            Matrix.from_flat(row, a.n)
            for row, p in zip(a.space.basis, a.space.pivots)
            if p not in rad.pivots
        ]
        assert len(section) == quotient.dim

        def lift(w):
            return sum((c * x for c, x in zip(as_fractions(w), section)), Matrix.zeros(a.n))

        coords = st.lists(
            st.fractions(min_value=-4, max_value=4, max_denominator=5),
            min_size=quotient.dim,
            max_size=quotient.dim,
        )
        # coset coordinates come from the independent `Fraction` reference
        reference = ReferenceQuotientAlgebra(a, rad)
        u, v = as_element(data.draw(coords)), as_element(data.draw(coords))
        product = quotient_product(quotient, u, v)
        assert as_fractions(product) == reference.coords((lift(u) * lift(v)).flatten())
        den, ints = product
        assert den > 0 and math.gcd(den, *ints) == 1
        assert all(type(c) is int for c in ints)
        trace = sum(reference.coords((lift(u) * x).flatten())[k] for k, x in enumerate(section))
        assert quotient.left_trace(u) == trace
        assert quotient_product(quotient, quotient.one, u) == u == quotient_product(quotient, u, quotient.one)


class TestSemisimpleBlocks:
    def test_full_algebra_single_block(self):
        data = semisimple_blocks(full_algebra(3))
        assert data.split and data.block_sizes == (3,)
        assert data.radical_dim == 0 and data.semisimple_dim == 9

    def test_diagonal_blocks(self):
        assert semisimple_blocks(diagonal_algebra(3)).block_sizes == (1, 1, 1)

    def test_parabolic_blocks_match_type(self):
        data = semisimple_blocks(parabolic_subalgebra(Composition((1, 2))))
        assert data.block_sizes == (1, 2)
        assert data.radical_dim == 2

    def test_upper_triangular_blocks(self):
        data = semisimple_blocks(parabolic_subalgebra(Composition((1, 1))))
        assert data.block_sizes == (1, 1)
        assert data.radical_dim == 1

    @pytest.mark.parametrize(
        "method, value, message",
        [
            ("left_trace", 2, "not a positive square"),
            ("left_trace", Fraction(1, 2), "not a positive square"),
            ("left_trace", Fraction(9, 4), "not a positive square"),
            ("left_trace", 0, "not a positive square"),
            ("left_trace", -1, "not a positive square"),
            ("left_trace", 1, "do not add up to the quotient"),
            ("lift_trace", 1, "not a positive multiple of its block size"),
        ],
        ids=["not-a-square", "below-one", "not-an-integer", "zero", "negative", "short-sum", "lift-trace"],
    )
    def test_a_wrong_block_measure_raises(self, monkeypatch, method, value, message):
        # P(1, 2): blocks of dimension 1 and 4 in a quotient of dimension 5,
        # with lift traces 1 and 2; each guard sees one measure replaced
        a = parabolic_subalgebra(Composition((1, 2)))
        assert semisimple_blocks(a).block_sizes == (1, 2)
        monkeypatch.setattr(_QuotientAlgebra, method, lambda self, e: value)
        with pytest.raises(RuntimeError, match=message):
            semisimple_blocks(a)

    def test_wedderburn_dimension_identity(self):
        for comp in compositions(4):
            a = parabolic_subalgebra(comp)
            data = semisimple_blocks(a)
            assert data.radical_dim + sum(s * s for s in data.block_sizes) == a.dimension

    def test_rotation_algebra_does_not_split(self):
        data = semisimple_blocks(closure(2, [Matrix([[0, -1], [1, 0]])]))
        assert data.split is False
        assert data.block_sizes is None
        assert data.semisimple_dim == 2

    def test_blocks_are_conjugation_invariant(self):
        rng = random.Random(21)
        a = parabolic_subalgebra(Composition((2, 1, 1)))
        c = random_invertible(rng, 4)
        assert semisimple_blocks(conjugate(a, c)).block_sizes == (1, 1, 2)

    @pytest.mark.parametrize("n", [8, 9, 10])
    def test_large_diagonal_algebras_split(self, n):
        assert semisimple_blocks(diagonal_algebra(n)).block_sizes == (1,) * n

    @pytest.mark.parametrize("seed", [0, 3])
    def test_conjugated_diagonal_algebra_splits(self, seed):
        a = conjugate(diagonal_algebra(8), random_invertible(random.Random(seed), 8))
        assert semisimple_blocks(a).block_sizes == (1,) * 8

    @pytest.mark.parametrize(
        "generators",
        [
            [block_diagonal(SQRT2, ZERO1)],  # Q(sqrt 2) x Q
            [block_diagonal(ZERO1, SQRT2)],  # Q x Q(sqrt 2)
            [block_diagonal(SQRT2, ZERO2), block_diagonal(ZERO2, SQRT3)],
            [
                block_diagonal(SQRT2, ZERO2),
                block_diagonal(ZERO2, Matrix.unit(2, 0, 1)),
                block_diagonal(ZERO2, Matrix.unit(2, 1, 0)),
            ],  # Q(sqrt 2) x M_2
        ],
        ids=["sqrt2-Q", "Q-sqrt2", "sqrt2-sqrt3", "sqrt2-M2"],
    )
    def test_mixed_center_does_not_split(self, generators):
        a = closure(generators[0].rows, generators)
        data = semisimple_blocks(a)
        assert data.block_sizes is None
        assert data.radical_dim == 0 and data.semisimple_dim == a.dimension

    def test_quaternion_division_algebra_is_not_split(self):
        # the quaternions: center Q, one block of size 2 whose lift trace 4
        # certifies nothing
        a = closure(4, [LEFT_I, LEFT_J])
        assert a.dimension == 4
        data = semisimple_blocks(a)
        assert (data.block_sizes, data.lift_traces) == ((2,), (4,))
        assert not data.split

    @pytest.mark.parametrize(
        "copies, split", [(2, False), (3, True)], ids=["twice-in-M4", "three-times-in-M6"]
    )
    def test_repeated_m2_is_certified_by_a_coprime_lift_trace(self, copies, split):
        # M_2 on `copies` diagonal blocks at once: one block of size 2 with
        # lift trace 2 * copies; the gcd of 2 and `copies` decides the
        # certificate, though both algebras are split
        c = rational_invertible(random.Random(copies), 2 * copies)
        units = [block_diagonal(*[Matrix.unit(2, i, j)] * copies) for i in range(2) for j in range(2)]
        a = algebra_from_basis(2 * copies, [c * x * c.inverse() for x in units])
        data = semisimple_blocks(a)
        assert (data.block_sizes, data.lift_traces) == ((2,), (2 * copies,))
        assert data.split is split

    @given(st.one_of(_repeated_blocks(), small_closures().map(lambda a: (a, None))))
    @settings(max_examples=40, deadline=None)
    def test_lift_traces_add_up_to_n(self, case):
        a, expected = case
        data = semisimple_blocks(a)
        if data.block_sizes is None:
            assert data.lift_traces is None and not data.split
            return
        assert len(data.lift_traces) == len(data.block_sizes)
        assert sum(data.lift_traces) == a.n
        assert all(trace >= t for t, trace in zip(data.block_sizes, data.lift_traces))
        if expected is not None:
            # M_t(Q) on mu diagonal copies has lift trace t mu
            assert sorted(zip(data.block_sizes, data.lift_traces)) == sorted((t, t * mu) for t, mu in expected)
            assert data.split is all(math.gcd(t, mu) == 1 for t, mu in expected)


def _jordan(size, value):
    return Matrix(
        [[value if i == j else int(j == i + 1) for j in range(size)] for i in range(size)]
    )


# Jordan block of SQRT2: minimal polynomial (t^2 - 2)^2
SQRT2_JORDAN = Matrix([[0, 2, 1, 0], [1, 0, 0, 1], [0, 0, 0, 2], [0, 0, 1, 0]])
ROOT_OF_MINUS_ONE = Matrix([[0, -1], [1, 0]])  # companion of t^2 + 1


def _oracle_pieces(seed):
    """Up to four diagonal blocks of total side at most 6, each a Jordan
    block or built from the companions of t^2 - 2 and t^2 + 1, together
    with whether all of them are Jordan blocks."""
    rng = random.Random(seed)
    pieces = []
    for _ in range(4):
        kind = rng.choice(["jordan", "jordan", "sqrt2", "sqrt2-jordan", "i"])
        if kind == "jordan":
            piece = _jordan(rng.randint(1, 3), rng.randint(-2, 2))
        else:
            piece = {"sqrt2": SQRT2, "sqrt2-jordan": SQRT2_JORDAN, "i": ROOT_OF_MINUS_ONE}[kind]
        if pieces and sum(p.rows for p, _ in pieces) + piece.rows > 6:
            break
        pieces.append((piece, kind == "jordan"))
        if rng.random() < 0.3:
            break
    return [p for p, _ in pieces], all(jordan for _, jordan in pieces)


def _oracle_generator(seed):
    """The block-diagonal matrix of `_oracle_pieces(seed)`, conjugated by a
    seeded invertible matrix."""
    b = block_diagonal(*_oracle_pieces(seed)[0])
    g = random_invertible(random.Random(1000 + seed), b.rows)
    return g * b * g.inverse()


ORACLE_SEEDS = range(24)


class TestSemisimpleBlocksOracle:
    """Cyclic closures Q[x] against sympy's factorization of the
    characteristic polynomial: with p_i its distinct irreducible factors,
    Q[x] = Q[t]/(minimal polynomial), so the radical has dimension
    dim - sum deg p_i, the algebra is split exactly when every p_i is
    linear, and then it has one block of size 1 per p_i."""

    def test_cases_cover_both_verdicts(self):
        assert {_oracle_pieces(s)[1] for s in ORACLE_SEEDS} == {True, False}

    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    def test_matches_sympy_factorization(self, seed):
        sympy = pytest.importorskip("sympy")
        _, all_jordan = _oracle_pieces(seed)
        x = _oracle_generator(seed)
        n = x.rows
        a = closure(n, [x])
        t = sympy.Symbol("t")
        sx = sympy.Matrix(
            n, n, [sympy.Rational(v.numerator, v.denominator) for row in x.entries for v in row]
        )
        _, factors = sympy.factor_list(sx.charpoly(t).as_expr(), t)
        degrees = [sympy.degree(f, t) for f, _ in factors]
        data = semisimple_blocks(a)
        assert data.radical_dim == a.dimension - sum(degrees)
        if all(d == 1 for d in degrees):
            assert all_jordan
            assert data.block_sizes == (1,) * len(degrees)
        else:
            assert data.block_sizes is None


class ReferenceQuotientAlgebra:
    """The quotient A/rad A on `Fraction` coordinate tuples that the
    integer `_QuotientAlgebra` replaced, kept as its reference: the
    structure table holds the cosets (`reference_project`) of the
    `Fraction` products (`reference_product`) of all n^2 entries of the
    section basis matrices, `mult` sums `Fraction` multiples of its cells,
    and `min_poly` spans the powers with a `SpanBuilder` and solves for the
    relation with `solve_linear`."""

    def __init__(self, algebra, rad):
        self.n = algebra.n
        self._rad = rad
        position = {c: i for i, c in enumerate(coset_coords(rad))}
        pairs = zip(algebra.space.pivots, algebra.basis_matrices())
        section = [(p, x) for p, x in pairs if p in position]
        self._coset_index = [position[p] for p, _ in section]
        self.dim = len(section)
        self._table = [
            [self.coords([e for row in reference_product(x, y) for e in row]) for _, y in section]
            for _, x in section
        ]
        self.one = self.coords(Matrix.identity(self.n).flatten())

    def coords(self, flat):
        r = reference_project(self._rad, flat)
        return tuple(r[i] for i in self._coset_index)

    def mult(self, u, v):
        acc = [Fraction(0)] * self.dim
        for ui, row in zip(u, self._table):
            if not ui:
                continue
            for vj, cell in zip(v, row):
                if vj:
                    f = ui * vj
                    acc = [a + f * c if c else a for a, c in zip(acc, cell)]
        return tuple(acc)

    def left_trace(self, u):
        m = self.dim
        table = self._table
        return sum((u[i] * table[i][k][k] for i in range(m) if u[i] for k in range(m)), Fraction(0))

    def center(self):
        m = self.dim
        rows = []
        for j in range(m):
            for k in range(m):
                rows.append([self._table[i][j][k] - self._table[j][i][k] for i in range(m)])
        return [tuple(v) for v in null_space(Matrix(rows)).basis]

    def min_poly(self, z, one):
        m = self.dim
        powers = [one]
        builder = SpanBuilder(m)
        builder.add(one)
        current = one
        for _ in range(m):
            current = self.mult(current, z)
            if not builder.add(current):
                break
            powers.append(current)
        else:
            raise RuntimeError("minimal polynomial degree exceeds the quotient dimension")
        solution = solve_linear(Matrix(zip(*powers)), current)
        assert solution is not None
        return [-c for c in solution] + [Fraction(1)]


def reference_central_idempotents(quotient):
    """The center split of `_central_idempotents` on the reference
    quotient: each Lagrange idempotent as a product of mult calls."""
    center = quotient.center()
    idempotents = [quotient.one]
    for z in center:
        refined = []
        for e in idempotents:
            w = quotient.mult(e, z)
            roots, leftover_degree = rational_roots(quotient.min_poly(w, e))
            if leftover_degree > 0:
                return None
            assert len(set(roots)) == len(roots)
            for lam in roots:
                idem = e
                for mu in roots:
                    if mu != lam:
                        factor = [(x - mu * y) / (lam - mu) for x, y in zip(w, e)]
                        idem = quotient.mult(idem, factor)
                refined.append(idem)
        idempotents = refined
    assert len(idempotents) == len(center)
    return idempotents


def assert_same_idempotents(a):
    """The integer center split of `a` gives the reference's idempotents,
    in the same order, with the same block dimensions."""
    rad = radical(a)
    quotient = _QuotientAlgebra(a, _certified_radical(a))
    reference = ReferenceQuotientAlgebra(a, rad)
    assert as_fractions(quotient.one) == reference.one
    idempotents = _central_idempotents(quotient)
    expected = reference_central_idempotents(reference)
    if expected is None:
        assert idempotents is None
        return
    assert [as_fractions(e) for e in idempotents] == expected
    assert [quotient.left_trace(e) for e in idempotents] == [
        reference.left_trace(e) for e in expected
    ]


def block_diagonal_algebra(comp):
    """The span of the units e_{i,j} with i and j in the same block."""
    n = comp.n
    blocks = [comp.block_of(i) for i in range(n)]
    units = [(i, j) for i in range(n) for j in range(n) if blocks[i] == blocks[j]]
    return MatrixAlgebra(n=n, space=_unit_span(n, units))


class TestCentralIdempotentsReference:
    """`_QuotientAlgebra` and `_central_idempotents` on integer elements
    against the Fraction quotient they replaced."""

    @given(small_closures())
    @settings(max_examples=40, deadline=None)
    def test_small_closures(self, a):
        assert_same_idempotents(a)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_conjugated_parabolic_and_block_diagonal(self, n):
        for k, comp in enumerate(compositions(n)):
            c = rational_invertible(random.Random(100 * n + k), n)
            assert_same_idempotents(conjugate(parabolic_subalgebra(comp), c))
            assert_same_idempotents(conjugate(block_diagonal_algebra(comp), c))

    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    def test_oracle_closures(self, seed):
        x = _oracle_generator(seed)
        assert_same_idempotents(closure(x.rows, [x]))


class TestCentralIdempotentWalk:
    """The walk stops once it holds dim Z idempotents; the idempotents are
    those of the full walk of the reference."""

    @pytest.mark.parametrize(
        "a, expected_calls",
        [
            # 10 central directions, one new idempotent at each of the first
            # 9: 1 + 2 + ... + 9 calls, where the full walk made 55
            (block_diagonal_algebra(Composition((1,) * 10)), 45),
            # the first center vector splits nothing, the second all three:
            # 1 + 1 calls, where the full walk made 1 + 1 + 3
            (
                conjugate(block_diagonal_algebra(Composition((1, 1, 2))), rational_invertible(random.Random(6), 4)),
                2,
            ),
        ],
        ids=["diagonal-10", "conjugated-1-1-2"],
    )
    def test_stops_at_the_center_dimension(self, a, expected_calls, monkeypatch):
        rad = radical(a)
        calls = []
        min_poly = _QuotientAlgebra.min_poly
        monkeypatch.setattr(_QuotientAlgebra, "min_poly", lambda *args: calls.append(args) or min_poly(*args))
        quotient = _QuotientAlgebra(a, _certified_radical(a))
        idempotents = _central_idempotents(quotient)
        assert len(calls) == expected_calls
        assert len(idempotents) == len(quotient.center())
        expected = reference_central_idempotents(ReferenceQuotientAlgebra(a, rad))
        assert [as_fractions(e) for e in idempotents] == expected


    def test_min_poly_lifts_its_element_once(self, monkeypatch):
        a = block_diagonal_algebra(Composition((1,) * 10))
        rad = radical(a)
        quotient = _QuotientAlgebra(a, _certified_radical(a))
        lifts = []
        lift = _QuotientAlgebra.lift
        monkeypatch.setattr(_QuotientAlgebra, "lift", lambda self, u: lifts.append(u) or lift(self, u))
        # (lift calls during one min_poly call, its number of powers)
        calls = []
        min_poly = _QuotientAlgebra.min_poly

        def counting(self, z, one):
            before = len(lifts)
            f, powers = min_poly(self, z, one)
            calls.append((len(lifts) - before, len(powers)))
            return f, powers

        monkeypatch.setattr(_QuotientAlgebra, "min_poly", counting)
        idempotents = _central_idempotents(quotient)
        # z once, and each power z^0..z^(d-1) once, as the left factor of
        # the next: d + 1 lifts, where lifting z for every product made 2d
        assert len(calls) == 45
        assert max(powers for _, powers in calls) == 2
        assert all(lifted == powers + 1 for lifted, powers in calls)
        # and each e z_i of the walk lifts e once, and z_i once for all e:
        # the walk reads 9 of the 10 center vectors before it stops
        assert len(lifts) == sum(lifted for lifted, _ in calls) + len(calls) + 9
        expected = reference_central_idempotents(ReferenceQuotientAlgebra(a, rad))
        assert [as_fractions(e) for e in idempotents] == expected


def _permutation_matrix(rng, n):
    order = list(range(n))
    rng.shuffle(order)
    return Matrix([[int(j == order[i]) for j in range(n)] for i in range(n)])


def _pivot_cases():
    """(id, algebra) at n <= 4: unit patterns as they stand and with their
    coordinates permuted, whose pivots are scattered cells, and their
    rational conjugates."""
    for n in range(1, 5):
        for k, comp in enumerate(compositions(n)):
            rng = random.Random(10 * n + k)
            p = _permutation_matrix(rng, n)
            c = rational_invertible(rng, n)
            for name, standard in (("block-diagonal", block_diagonal_algebra), ("parabolic", parabolic_subalgebra)):
                a = standard(comp)
                label = f"{name}-{'-'.join(map(str, comp.parts))}"
                yield label, a
                yield f"{label}-permuted", conjugate(a, p)
                yield f"{label}-conjugated", conjugate(a, c)


PIVOT_CASES = list(_pivot_cases())


def reduced_lengths(monkeypatch):
    """The length of every vector that `matalg.algebra` hands to `_reduce`
    from now on."""
    lengths = []
    reduce = algebra_module._reduce
    monkeypatch.setattr(algebra_module, "_reduce", lambda vec, rows, den=1: lengths.append(len(vec)) or reduce(vec, rows, den))
    return lengths


def _conjugated_parabolic_cases():
    """Conjugated block upper-triangular algebras at n <= 4 given by their
    bases, so their generating sets are smaller than the bases."""
    for n, parts in ((3, (1, 1, 1)), (4, (1, 3)), (4, (2, 2)), (4, (1, 2, 1))):
        c = rational_invertible(random.Random(n + len(parts)), n)
        yield algebra_from_basis(n, conjugate(parabolic_subalgebra(Composition(parts)), c).basis_matrices())


class TestRadicalCertificateRecord:
    """The record that `_certified_radical` builds: its section places are
    the places of A off the pivots of R's coordinate rows, and the
    quotient reads that tuple as it is; R = 0 skips both checks and builds
    the same record, with every place, the identity conjugator and the
    flag Q^n alone."""

    @pytest.mark.parametrize("a", [a for _, a in PIVOT_CASES], ids=[label for label, _ in PIVOT_CASES])
    def test_section_is_the_places_off_the_radical_pivots(self, a):
        certificate = a._radical
        rad_pivots = set(certificate.coords.pivots)
        assert certificate.section == tuple(k for k in range(a.dimension) if k not in rad_pivots)
        assert len(certificate.section) == a.dimension - certificate.span.dimension
        assert _QuotientAlgebra(a, certificate)._section_places is certificate.section

    @pytest.mark.parametrize(
        "a",
        [closure(3, []), parabolic_subalgebra(Composition((3,))), block_diagonal_algebra(Composition((1, 1, 1)))],
        ids=["QI", "M3", "diagonal"],
    )
    def test_zero_radical_builds_the_same_record(self, a, monkeypatch):
        monkeypatch.setattr(algebra_module, "_flag_conjugator", lambda *args: pytest.fail("check (i) ran on R = 0"))
        certificate = _certified_radical(a)
        assert certificate.span == zero_space(9) and certificate.coords == zero_space(a.dimension)
        assert certificate.section == tuple(range(a.dimension))
        assert certificate.flag_basis == certificate.conjugator == Matrix.identity(3)
        assert certificate.flag_type == Composition((3,))


class TestQuotientAtPivots:
    """The quotient forms its products only at the pivots of A; `mult`,
    `left_trace` and `center` agree with the `Fraction` reference, which
    reads every entry of each section product, on algebras whose pivots
    are not their leading coordinates."""

    def test_cases_have_scattered_pivots(self):
        scattered = [a for _, a in PIVOT_CASES if a.space.pivots != tuple(range(a.dimension))]
        assert len(scattered) > len(PIVOT_CASES) // 2

    @pytest.mark.parametrize("a", [a for _, a in PIVOT_CASES], ids=[label for label, _ in PIVOT_CASES])
    def test_matches_the_reference(self, a):
        rad = radical(a)
        quotient = _QuotientAlgebra(a, _certified_radical(a))
        reference = ReferenceQuotientAlgebra(a, rad)
        m = quotient.dim
        assert m == reference.dim
        assert as_fractions(quotient.one) == reference.one
        units = [tuple(Fraction(int(i == j)) for j in range(m)) for i in range(m)]
        rng = random.Random(m)
        dense = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(m))
        for u in units + [dense]:
            assert quotient.left_trace(as_element(u)) == reference.left_trace(u)
            for v in units + [dense]:
                assert as_fractions(quotient_product(quotient, as_element(u), as_element(v))) == reference.mult(u, v)
        assert [as_fractions(z) for z in quotient.center()] == reference.center()

    @pytest.mark.parametrize("a", list(_conjugated_parabolic_cases()), ids=["P-1-1-1", "P-1-3", "P-2-2", "P-1-2-1"])
    def test_blocks_find_the_radical_once_and_build_one_quotient(self, a, monkeypatch):
        lengths = reduced_lengths(monkeypatch)
        kernels, quotients = [], []
        kernel, build = algebra_module._trace_form_kernel, _QuotientAlgebra.__init__
        monkeypatch.setattr(algebra_module, "_trace_form_kernel", lambda b: kernels.append(b) or kernel(b))
        monkeypatch.setattr(_QuotientAlgebra, "__init__", lambda self, b, certificate: quotients.append(certificate) or build(self, b, certificate))
        data = semisimple_blocks(a)
        assert kernels == [a] and quotients == [a._radical]
        coords = quotients[0].coords
        assert coords.ambient_dim == a.dimension and coords.dimension == data.radical_dim
        assert set(lengths) == {a.dimension}



class TestSharedBasisProducts:
    """The basis products that `algebra_from_basis` and `_QuotientAlgebra`
    form: the spin forms each product of a word and a generator once
    (`assert_spin_products`), and the quotient forms none when it is built
    and two for each pair of a section row and a generator when it finds
    its center, at the d pivots of A only, after the spin when A has not
    been spun before."""

    @pytest.mark.parametrize("n", range(1, 6))
    def test_same_radical_and_blocks_as_conjugate_and_closure(self, n):
        for k, comp in enumerate(compositions(n)):
            c = rational_invertible(random.Random(300 * n + k), n)
            for standard in (parabolic_subalgebra(comp), block_diagonal_algebra(comp)):
                built = conjugate(standard, c)
                given = algebra_from_basis(n, built.basis_matrices())
                closed = closure(n, built.basis_matrices())
                # the recorded generators are neither compared nor hashed
                assert given == built == closed and hash(given) == hash(built)
                expected = semisimple_blocks(built)
                assert semisimple_blocks(given) == expected == semisimple_blocks(closed)
                assert radical(given) == expected.radical_space == radical(closed)

    def test_spin_forms_each_word_generator_pair_once(self, monkeypatch):
        c = rational_invertible(random.Random(3), 5)
        built = conjugate(parabolic_subalgebra(Composition((2, 1, 2))), c)
        products = _count_row_products(monkeypatch)
        a = algebra_from_basis(5, built.basis_matrices())
        generators = [g.flat for g in a._generating_set]
        assert 0 < len(generators) < a.dimension
        assert_spin_products(products, a)

    def test_quotient_forms_its_products_on_demand(self, monkeypatch):
        c = rational_invertible(random.Random(4), 5)
        comp = Composition((2, 1, 2))
        # 2^2 + 1^2 + 2^2 section rows; they are the whole basis of the
        # block-diagonal algebra
        cases = []
        for standard in (parabolic_subalgebra(comp), block_diagonal_algebra(comp)):
            built = conjugate(standard, c)
            rad = radical(built)
            rad_pivots = set(rad.pivots)
            section = [x for p, x in built.space._integer_form()[1] if p not in rad_pivots]
            # `radical` spun the first, `algebra_from_basis` the second; the
            # closure is spun when its quotient finds its center
            algebras = [
                (built, False),
                (algebra_from_basis(5, built.basis_matrices()), False),
                (closure(5, built.basis_matrices()), True),
            ]
            # the three share one space, so one radical in its coordinates,
            # found before the products are counted
            cases.append((_certified_radical(built), section, algebras))
        products = _count_row_products(monkeypatch)
        for certificate, section, algebras in cases:
            for a, spins in algebras:
                del products[:]
                quotient = _QuotientAlgebra(a, certificate)
                assert quotient.dim == len(section) == 9
                assert products == []
                quotient.center()
                generators = [g.flat for g in a._generating_set]
                assert 0 < len(generators) < 9
                # the spin, when A has not been spun before, then x g and g x
                # for each section row x and each generator g, at the d pivots
                d = a.dimension
                assert d < 25
                commutators = [pair for g in generators for x in section for pair in ((x, g, d), (g, x, d))]
                spin = products[: len(products) - len(commutators)]
                assert products == spin + commutators
                if spins:
                    assert_spin_products(spin, a)
                else:
                    assert spin == []

    @pytest.mark.parametrize("comp", [(1, 7), (4, 4)], ids=["P-1-7", "P-4-4"])
    def test_large_quotient_forms_fewer_than_m_squared_products(self, comp, monkeypatch):
        c = rational_invertible(random.Random(8), 8)
        a = algebra_from_basis(8, conjugate(parabolic_subalgebra(Composition(comp)), c).basis_matrices())
        certificate = _certified_radical(a)
        products = _count_row_products(monkeypatch)
        quotient = _QuotientAlgebra(a, certificate)
        idempotents = _central_idempotents(quotient)
        sizes = sorted(math.isqrt(int(quotient.left_trace(e))) for e in idempotents)
        assert tuple(sizes) == comp
        assert 0 < len(products) < quotient.dim**2
        data = semisimple_blocks(a)
        assert data.split and data.block_sizes == data.lift_traces == comp

    def test_left_trace_splits_each_section_row_once(self, monkeypatch):
        # the section rows are kept as `_Factor`s, so the columns of each
        # are split on the first block trace and never again
        c = rational_invertible(random.Random(5), 5)
        a = algebra_from_basis(5, conjugate(parabolic_subalgebra(Composition((2, 1, 2))), c).basis_matrices())
        rad = radical(a)
        rad_pivots = set(rad.pivots)
        section = [x for p, x in a.space._integer_form()[1] if p not in rad_pivots]
        quotient = _QuotientAlgebra(a, _certified_radical(a))
        splits = []
        split = exactlin._split_columns
        monkeypatch.setattr(
            exactlin, "_split_columns", lambda flat, width: splits.append(tuple(flat)) or split(flat, width)
        )
        assert [quotient.left_trace(quotient.one) for _ in range(3)] == [len(section)] * 3
        assert splits == section

    def test_conjugate_is_spun_not_checked_over_its_basis(self, monkeypatch):
        # `conjugate` records no generators: the spin finds them, and the
        # center runs over them, not over the m = 50 section rows (2 m^2)
        c = rational_invertible(random.Random(8), 8)
        a = conjugate(parabolic_subalgebra(Composition((1, 7))), c)
        products = _count_row_products(monkeypatch)
        data = semisimple_blocks(a)
        assert data.semisimple_dim == 50 and data.block_sizes == (1, 7)
        assert len(products) < 2 * 50**2


def assert_spin_products(products, a):
    """`products`, recorded by `_count_row_products`, are those of the spin
    that proved `a` closed, for `a` short of M_n: full products of a word
    and a generator, each pair once.  The generators are the basis rows
    that grew the span, in pivot order, and the only right factors.  The
    words are the d - 1 matrices that grew it from span{1}, each a
    generator or a product formed before its first use, and each meets
    every generator."""
    n, d = a.n, a.dimension
    assert d < n * n
    rows = [x for _, x in a.space._integer_form()[1]]
    generators = [g.flat for g in a._generating_set]
    assert generators == [x for x in rows if x in generators]
    assert all(entries == n * n for _, _, entries in products)
    pairs = [(x, y) for x, y, _ in products]
    words = list(dict.fromkeys(x for x, _ in pairs))
    assert len(words) == d - 1 and len(pairs) == len(set(pairs))
    assert set(pairs) == {(w, g) for w in words for g in generators}
    formed = set()
    for x, y in pairs:
        assert x in generators or x in formed
        formed.add(sum(reference_product(Matrix.from_flat(x, n), Matrix.from_flat(y, n)), ()))


def support_test_off(patch):
    """Plant masks with every bit set on `exactlin._Factor`, so that the
    spin forms every pair, as it did before it skipped the pairs whose
    supports do not meet."""
    everything = property(lambda self: -1)
    patch.setattr(exactlin._Factor, "row_mask", everything)
    patch.setattr(exactlin._Factor, "column_mask", everything)


def supports_meet(x, y, n):
    """Whether a nonzero column of the flattened n x n matrix x has the
    index of a nonzero row of the flattened y."""
    return any(any(x[k::n]) and any(y[k * n : (k + 1) * n]) for k in range(n))


def skipped_pairs(formed, every, n):
    """The operand pairs of `every`, the pairs formed when every pair is,
    that were not formed in `formed`: `formed` must be `every` less some
    pairs, in order, so the two together are `every`, and each pair left
    out has supports that do not meet and the zero product
    (`reference_product`)."""
    skipped, k = [], 0
    for pair in every:
        if k < len(formed) and formed[k] == pair:
            k += 1
        else:
            skipped.append(pair)
    assert k == len(formed)
    assert sorted(formed + skipped) == sorted(every)
    for x, y in skipped:
        assert not supports_meet(x, y, n)
        assert not any(map(any, reference_product(Matrix.from_flat(x, n), Matrix.from_flat(y, n))))
    return skipped


def _count_row_products(monkeypatch):
    """Record the flattened integer operands (x, y) of every product x y
    that `matalg.algebra` forms from now on, with the number of entries
    formed: the full products through `exactlin._product` (those of
    `closure`, of the checks of `algebra_from_basis` and `radical`, and of
    `schur_commutative_check`) and the products at chosen cells through
    `_rows_times_columns` (the Gram matrix of the trace form and the
    products of `_QuotientAlgebra`)."""
    products = []
    multiply = algebra_module._product
    multiply_at_cells = algebra_module._rows_times_columns

    def full_product(x, y):
        products.append((tuple(x.flat), tuple(y.flat), x.n * x.n))
        return multiply(x, y)

    def counting(rows, columns, cells):
        cells = list(cells)
        x = tuple(e for row in rows for e in row)
        y = tuple(e for row in zip(*columns) for e in row)
        products.append((x, y, len(cells)))
        return multiply_at_cells(rows, columns, cells)

    monkeypatch.setattr(algebra_module, "_product", full_product)
    monkeypatch.setattr(algebra_module, "_rows_times_columns", counting)
    return products


def reference_algebra_from_basis(n, matrices):
    """The closedness check by all d^2 products of basis pairs, which the
    spin of `algebra_from_basis` replaced, kept as its reference."""
    space = rref_basis([m._integer_form()[1] for m in matrices], n * n)
    if not space.dimension or not space.contains(Matrix.identity(n).flatten()):
        raise ValueError("span does not contain the identity matrix")
    basis = space.basis_matrices(n)
    if not all(subspace_contains(space, (x * y)._integer_form()[1]) for x in basis for y in basis):
        raise ValueError("span is not closed under multiplication")
    return MatrixAlgebra(n=n, space=space)


def assert_same_closedness_verdict(n, matrices):
    """`algebra_from_basis` and the d^2 reference agree on `matrices`: the
    same ValueError, or the same algebra, generated by the generators it
    records.  Returns whether the span is closed."""
    try:
        expected = reference_algebra_from_basis(n, matrices)
    except ValueError as error:
        with pytest.raises(ValueError) as raised:
            algebra_from_basis(n, matrices)
        assert str(raised.value) == str(error)
        return False
    a = algebra_from_basis(n, matrices)
    assert a == expected
    assert closure(n, [Matrix.from_flat(g.flat, n) for g in a._generating_set]) == a
    return True


@st.composite
def _spans(draw):
    """Spans at n <= 3 of the identity (most of the time) and 1-3 sparse
    integer matrices: mostly not closed."""
    n = draw(st.integers(1, 3))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2])
    count = draw(st.integers(1, 3))
    matrices = [Matrix([[draw(entry) for _ in range(n)] for _ in range(n)]) for _ in range(count)]
    if draw(st.integers(0, 4)):
        matrices.append(Matrix.identity(n))
    return n, matrices


class TestClosednessBySpinning:
    """The spin of `algebra_from_basis` against the d^2 check."""

    @pytest.mark.parametrize("n", range(1, 6))
    def test_conjugated_parabolic_and_block_diagonal(self, n):
        for k, comp in enumerate(compositions(n)):
            c = rational_invertible(random.Random(500 * n + k), n)
            cinv = c.inverse()
            blocks = [comp.block_of(i) for i in range(n)]
            for keep in (operator.le, operator.eq):
                # the block upper-triangular and the block-diagonal pattern
                pattern = [(i, j) for i in range(n) for j in range(n) if keep(blocks[i], blocks[j])]
                moved = [c * Matrix.unit(n, i, j) * cinv for i, j in pattern]
                assert assert_same_closedness_verdict(n, moved)
                # without e_ij, i != j, the span holds the identity, and not
                # e_ik e_kj = e_ij when the pattern has e_ik and e_kj
                droppable = [
                    u
                    for u, (i, j) in enumerate(pattern)
                    if any((i, k) in pattern and (k, j) in pattern for k in set(range(n)) - {i, j})
                ]
                for u in droppable[:1] + droppable[-1:]:
                    assert not assert_same_closedness_verdict(n, moved[:u] + moved[u + 1 :])

    def test_replace_drops_the_recorded_generators(self, monkeypatch):
        # a generating set of one space generates no other, so the copy
        # spins its own space when first asked
        upper = parabolic_subalgebra(Composition((1, 1, 1)))
        a = algebra_from_basis(3, upper.basis_matrices())
        other = dataclasses.replace(a, space=full_space(9))
        products = _count_row_products(monkeypatch)
        assert a._generating_set and products == []
        generators = other._generating_set
        assert products and closure(3, [Matrix.from_flat(g.flat, 3) for g in generators]) == other

    @given(small_closures())
    @settings(max_examples=40, deadline=None)
    def test_random_closures(self, a):
        assert assert_same_closedness_verdict(a.n, a.basis_matrices())

    @given(_spans())
    @settings(max_examples=60, deadline=None)
    def test_random_spans(self, case):
        assert_same_closedness_verdict(*case)

    @pytest.mark.parametrize("case", ["random-8", "random-10", "P-1-7-and-e10"])
    def test_an_open_span_is_rejected_within_d_squared_products(self, case, monkeypatch):
        # the spin stops once the span it builds passes d, where it cannot
        # be the given span: an open span does not spin to its closure.  So
        # at most d words grow it, and each meets each of at most d images
        # once
        if case == "P-1-7-and-e10":
            n = 8
            matrices = list(parabolic_units(Composition((1, 7))).values()) + [Matrix.unit(8, 1, 0)]
        else:
            n = int(case.split("-")[1])
            rng = random.Random(n)
            matrices = [Matrix.identity(n)] + [random_matrix(rng, n) for _ in range(n)]
        d = rref_basis([m.flatten() for m in matrices], n * n).dimension
        products = _count_row_products(monkeypatch)
        with pytest.raises(ValueError, match="not closed"):
            algebra_from_basis(n, matrices)
        pairs = [(x, y) for x, y, _ in products]
        words, images = {x for x, _ in pairs}, {y for _, y in pairs}
        assert len(set(pairs)) == len(pairs) and len(words) <= d and len(images) <= d
        assert 0 < len(pairs) <= d * d

    @given(_spans())
    @settings(max_examples=40, deadline=None)
    def test_verdict_matches_the_closure(self, case):
        # a span is a unital algebra exactly when it equals its closure
        n, matrices = case
        span = rref_basis([m.flatten() for m in matrices], n * n)
        if closure(n, matrices).space == span:
            assert algebra_from_basis(n, matrices).space == span
        else:
            with pytest.raises(ValueError):
                algebra_from_basis(n, matrices)


@st.composite
def _conjugated_compositions(draw):
    """`algebra_from_basis` on the conjugated basis of a block
    upper-triangular or block-diagonal algebra at n <= 5."""
    n = draw(st.integers(1, 5))
    comp = draw(st.sampled_from(list(compositions(n))))
    standard = draw(st.sampled_from([parabolic_subalgebra, block_diagonal_algebra]))(comp)
    c = rational_invertible(random.Random(draw(st.integers(0, 10**6))), n)
    return algebra_from_basis(n, conjugate(standard, c).basis_matrices())


@st.composite
def _algebras_of_every_constructor(draw):
    """An algebra at n <= 5 that no constructor has spun: a result of
    `closure`, `conjugate` or `parabolic_subalgebra`, or a unit pattern
    given straight to `MatrixAlgebra`, or a `dataclasses.replace` copy of
    one of them."""
    kind = draw(st.sampled_from(["closure", "conjugate", "parabolic", "pattern"]))
    n = draw(st.integers(1, 5))
    comp = draw(st.sampled_from(list(compositions(n))))
    if kind == "closure":
        a = draw(small_closures())
    elif kind == "conjugate":
        standard = draw(st.sampled_from([parabolic_subalgebra, block_diagonal_algebra]))(comp)
        a = conjugate(standard, rational_invertible(random.Random(draw(st.integers(0, 10**6))), n))
    elif kind == "parabolic":
        a = parabolic_subalgebra(comp)
    else:
        # the units of a preorder: the diagonal and a random set of units,
        # closed transitively (Warshall)
        units = {(i, j) for i in range(n) for j in range(n) if i == j or not draw(st.integers(0, 3))}
        for k in range(n):
            units |= {(i, j) for i in range(n) for j in range(n) if (i, k) in units and (k, j) in units}
        a = MatrixAlgebra(n=n, space=_unit_span(n, sorted(units)))
    return dataclasses.replace(a) if draw(st.booleans()) else a


class TestGeneratingSet:
    """The generators that `algebra_from_basis` records and what they cost
    the structure that reads them."""

    @given(_conjugated_compositions())
    @settings(max_examples=25, deadline=None)
    def test_a_row_is_kept_when_the_rows_kept_before_do_not_generate_it(self, a):
        n = a.n
        rows = [x for _, x in a.space._integer_form()[1]]
        kept = []
        for x in rows:
            basis, _ = reference_closure(n, [Matrix.from_flat(g, n) for g in kept])
            if not subspace_contains(rref_basis(basis, n * n), x):
                kept.append(x)
        assert [g.flat for g in a._generating_set] == kept

    @given(_conjugated_compositions())
    @settings(max_examples=25, deadline=None)
    def test_each_generator_costs_two_products_per_section_and_radical_row(self, a):
        # the radical forms no product: its flag check conjugates each
        # generator at the cells off the pattern; the center forms x g and
        # g x for each generator g and section row x
        generators = a._generating_set
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(algebra_module, "_product", lambda x, y: pytest.fail("the radical formed a product"))
            certificate = _certified_radical(a)
        quotient = _QuotientAlgebra(a, certificate)
        with pytest.MonkeyPatch.context() as patch:
            products = _count_row_products(patch)
            quotient.center()
        assert len(products) == 2 * quotient.dim * len(generators)


class TestCenterOverGenerators:
    """The generating set of every algebra generates it, and the center of
    the quotient from the commutators with it equals the one from all
    commutators of coset basis pairs."""

    def assert_same_center(self, a):
        rad = radical(a)
        expected = ReferenceQuotientAlgebra(a, rad).center()
        certificate = _certified_radical(a)
        # a copy spins its own generating set (`dataclasses.replace`)
        for b in (a, dataclasses.replace(a)):
            assert [as_fractions(z) for z in _QuotientAlgebra(b, certificate).center()] == expected

    @given(small_closures())
    @settings(max_examples=40, deadline=None)
    def test_small_closures(self, a):
        self.assert_same_center(algebra_from_basis(a.n, a.basis_matrices()))

    @given(_conjugated_compositions())
    @settings(max_examples=40, deadline=None)
    def test_conjugated_compositions(self, a):
        assert len(a._generating_set) < a.dimension
        self.assert_same_center(a)

    @given(_algebras_of_every_constructor())
    @settings(max_examples=60, deadline=None)
    def test_every_constructor(self, a):
        generators = a._generating_set
        assert closure(a.n, [Matrix.from_flat(g.flat, a.n) for g in generators]) == a
        # the spin starts from the identity, so only Q I needs no generator
        assert len(generators) < a.dimension and (not generators) == (a.dimension == 1)
        self.assert_same_center(a)


def reference_is_radical(a, candidate):
    """Whether the span `candidate` of flattened matrices inside `a` is the
    radical of `a`, on `Fraction` lists with no kernel of the package: by
    Dickson's criterion over Q the radical is the x in `a` with
    Tr(x b) = 0 for every basis element b, so `candidate` is it exactly
    when each of its basis elements has that property and its dimension
    is d less the rank of the trace Gram matrix (ranks by the `Fraction`
    `reference_echelon`)."""
    n = a.n
    basis = a.space.basis

    def trace(x, y):
        return sum(x[i * n + j] * y[j * n + i] for i in range(n) for j in range(n))

    rank = len(reference_echelon([[trace(x, y) for y in basis] for x in basis]))
    rows = candidate.basis
    return all(trace(x, b) == 0 for x in rows for b in basis) and len(reference_echelon(rows)) == len(basis) - rank


def radical_verdict(a, candidate):
    """Whether `_certified_radical` accepts the span `candidate` inside
    `a`, planted as the trace-form kernel in the coordinates of `a`; a
    rejection must carry the message of one of its checks."""
    with pytest.MonkeyPatch.context() as patch:
        plant(patch, at_pivots(a, candidate))
        try:
            _certified_radical(a)
        except RuntimeError as error:
            assert any(message in str(error) for message in (NO_IDEAL, MISSES, NOT_NILPOTENT))
            return False
    return True


class TestRadicalBothWays:
    """`_certified_radical` accepts a planted candidate exactly when it is
    the radical: (i) proves it inside the radical, (ii) proves the radical
    inside it.  The one exception is the zero candidate, for which both
    checks are skipped."""

    @given(st.one_of(_conjugated_compositions(), small_closures()), st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_the_reference(self, a, data):
        n = a.n
        rad = radical(a)
        basis, rad_basis = a.space.basis, rad.basis

        def span_of_draws(vectors):
            # the span of 1 or 2 integer combinations of `vectors`
            draws = data.draw(
                st.lists(st.lists(st.integers(-2, 2), min_size=len(vectors), max_size=len(vectors)), min_size=1, max_size=2)
            )
            return rref_basis([[sum(c * v[k] for c, v in zip(cs, vectors)) for k in range(n * n)] for cs in draws], n * n)

        candidates = [rad, a.space, span_of_draws(basis)]
        outside = [row for row in basis if not rad.contains(row)]
        if outside:
            candidates.append(rref_basis([*rad_basis, data.draw(st.sampled_from(outside))], n * n))
        if rad.dimension:
            squares = [(x * y).flatten() for x in rad.basis_matrices(n) for y in rad.basis_matrices(n)]
            candidates += [rref_basis(rad_basis[:-1], n * n), rref_basis(squares, n * n), span_of_draws(rad_basis)]
        for candidate in candidates:
            verdict, expected = radical_verdict(a, candidate), reference_is_radical(a, candidate)
            if candidate.dimension == 0:
                # the named exception: no check runs on a zero candidate
                assert verdict and expected == (rad.dimension == 0)
            else:
                assert verdict == expected

    @pytest.mark.parametrize("a", list(_conjugated_parabolic_cases()), ids=["P-1-1-1", "P-1-3", "P-2-2", "P-1-2-1"])
    def test_a_zero_candidate_is_accepted_when_the_radical_is_not(self, a):
        assert radical(a).dimension and not reference_is_radical(a, zero_space(a.n * a.n))
        assert radical_verdict(a, zero_space(a.n * a.n))

    @pytest.mark.parametrize("conjugated", [False, True])
    def test_planted_spans_of_units_take_both_verdicts(self, conjugated):
        # the spans of the strictly upper units of P(1, 1, 1): span{E02} is
        # a nilpotent ideal, span{E01} and span{E12} are one-sided, and so
        # on; only all three span the radical
        upper = parabolic_subalgebra(Composition((1, 1, 1)))
        c = rational_invertible(random.Random(31), 3) if conjugated else Matrix.identity(3)
        a = algebra_from_basis(3, conjugate(upper, c).basis_matrices())
        units = [(0, 1), (0, 2), (1, 2)]
        verdicts = []
        for k in range(1, 4):
            for chosen in combinations(units, k):
                candidate = conjugate_space(_unit_span(3, chosen), c)
                verdicts.append(radical_verdict(a, candidate))
                assert verdicts[-1] == reference_is_radical(a, candidate)
        assert verdicts == [False, False, False, False, False, False, True]


class TestMinPolyOnTheBuilder:
    """`_QuotientAlgebra.min_poly`, whose Krylov rows a `SpanBuilder` holds,
    against the reference's, for w = e z as `_central_idempotents` forms
    it: a positive multiple of the monic reference polynomial, with a
    positive leading coefficient (t_k > 0, which a stored primitive row
    in place of the residual could flip), and the same powers."""

    def assert_matches_the_reference(self, a):
        rad = radical(a)
        quotient = _QuotientAlgebra(a, _certified_radical(a))
        reference = ReferenceQuotientAlgebra(a, rad)
        # the identity, and the primitive idempotents when the center splits
        idempotents = [quotient.one, *(_central_idempotents(quotient) or [])]
        for z in quotient.center():
            right = quotient._right_factor(z)
            for e in idempotents:
                w = quotient._times(e, right)
                e_ref, w_ref = as_fractions(e), as_fractions(w)
                assert w_ref == reference.mult(e_ref, as_fractions(z))
                poly, powers = quotient.min_poly(w, e)
                expected = reference.min_poly(w_ref, e_ref)
                assert len(poly) == len(expected) and poly[-1] > 0
                assert [Fraction(c, poly[-1]) for c in poly] == expected
                reference_powers = [e_ref]
                for _ in range(len(expected) - 2):
                    reference_powers.append(reference.mult(reference_powers[-1], w_ref))
                assert [as_fractions(x) for x in powers] == reference_powers

    @given(_conjugated_compositions())
    @settings(max_examples=50, deadline=None)
    def test_conjugated_compositions(self, a):
        self.assert_matches_the_reference(a)

    def test_rotation_algebra(self):
        # Q(i): the center is not split, and i has the minimal polynomial t^2 + 1
        a = closure(2, [Matrix([[0, -1], [1, 0]])])
        quotient = _QuotientAlgebra(a, _certified_radical(a))
        assert _central_idempotents(quotient) is None
        degrees = {len(quotient.min_poly(z, quotient.one)[0]) - 1 for z in quotient.center()}
        assert degrees == {1, 2}
        self.assert_matches_the_reference(a)


class TestLoopBounds:
    def test_min_poly_stops_at_the_quotient_dimension(self, monkeypatch):
        # with the reduction switched off no power is ever found dependent,
        # so only the loop bound ends the Krylov elimination; the builder
        # reduces by `exactlin._reduce`
        a = diagonal_algebra(3)
        quotient = _QuotientAlgebra(a, _certified_radical(a))
        monkeypatch.setattr(exactlin, "_reduce", lambda vec, rows, den=1: list(vec))
        with pytest.raises(RuntimeError, match="minimal polynomial"):
            quotient.min_poly(quotient.one, quotient.one)

    def test_irrational_root_of_a_huge_constant(self):
        start = time.perf_counter()
        a = closure(2, [Matrix([[0, 1], [10**24 + 7, 0]])])
        assert semisimple_blocks(a).block_sizes is None
        assert time.perf_counter() - start < 1

    def test_rational_roots_of_a_huge_square(self):
        c = 10**12 + 39
        start = time.perf_counter()
        a = closure(2, [Matrix([[0, 1], [c * c, 0]])])
        assert semisimple_blocks(a).block_sizes == (1, 1)
        assert time.perf_counter() - start < 1


@st.composite
def _polynomials(draw):
    """Products of rational linear factors (some repeated) and one integer
    factor of degree 0 to 3, low-degree coefficients first."""
    small = st.integers(-12, 12)
    poly = [Fraction(draw(st.integers(1, 5)))]
    factors = [(draw(small), draw(st.integers(1, 6))) for _ in range(draw(st.integers(0, 3)))]
    tail = [Fraction(draw(small)) for _ in range(draw(st.integers(0, 3)))] + [Fraction(1)]
    for root_num, root_den in factors + factors[: draw(st.integers(0, 1))]:
        poly = _poly_mul(poly, [Fraction(-root_num, root_den), Fraction(1)])
    return _poly_mul(poly, tail)


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@st.composite
def _integer_polynomials(draw):
    """Integer polynomials of degree 1 to 5, low-degree coefficients first:
    up to two factors a t - r, with r small or huge, times a random
    cofactor, and in some a huge number added to the constant term."""
    small = st.integers(-20, 20)
    factors = [
        (draw(st.one_of(small, st.integers(-(10**20), 10**20))), draw(st.integers(1, 4)))
        for _ in range(draw(st.integers(0, 2)))
    ]
    lead = draw(st.integers(1, 9)) * draw(st.sampled_from((1, -1)))
    poly = [draw(small) for _ in range(draw(st.integers(0 if factors else 1, 3)))] + [lead]
    for root_num, root_den in factors:
        poly = _poly_mul(poly, [-root_num, root_den])
    poly = [int(c) for c in poly]
    if draw(st.booleans()):
        poly[0] += draw(st.integers(-(10**30), 10**30))
    return poly


def _sympy_rational_roots(coeffs):
    """The rational roots, with multiplicity, of a polynomial with rational
    coefficients (low-degree first), by sympy's factorization."""
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * t**k for k, c in enumerate(coeffs))
    _, factors = sympy.factor_list(expr, t)
    roots = []
    for f, mult in factors:
        if sympy.degree(f, t) == 1:
            (root,) = sympy.solve(f, t)
            roots += [Fraction(int(root.p), int(root.q))] * mult
    return roots


def rational_roots(coeffs):
    """`_rational_roots` of a rational polynomial, as `Fraction`s: the
    polynomial is scaled by the least common denominator of its
    coefficients, a positive constant that keeps its roots, and each
    returned pair must be in lowest terms with a positive denominator."""
    den = math.lcm(1, *(Fraction(c).denominator for c in coeffs))
    pairs, leftover = _rational_roots([int(c * den) for c in coeffs])
    assert all(type(r) is int and type(s) is int and s > 0 and math.gcd(r, s) == 1 for r, s in pairs)
    return [Fraction(r, s) for r, s in pairs], leftover


class TestRationalRoots:
    @settings(max_examples=80, deadline=None)
    @given(_polynomials())
    def test_matches_sympy_factorization(self, coeffs):
        expected = _sympy_rational_roots(coeffs)
        roots, leftover = rational_roots(coeffs)
        assert sorted(roots) == sorted(expected)
        assert leftover == len(coeffs) - 1 - len(expected)

    @settings(max_examples=60, deadline=None)
    @given(_integer_polynomials())
    @example([-(10**24 + 7), 0, 1])
    @example([-((10**12 + 39) ** 2), 0, 1])
    @example([10**30 + 1, -1, 0, 0, 0, 3])
    def test_integer_polynomials_match_sympy(self, coeffs):
        expected = _sympy_rational_roots(coeffs)
        roots, leftover = rational_roots(coeffs)
        assert sorted(roots) == sorted(expected)
        assert leftover == len(coeffs) - 1 - len(expected)
        # the monic a^(d-1) f(y / a), whose integer roots are a times the
        # rational roots of f, for a the leading coefficient
        degree, lead = len(coeffs) - 1, coeffs[-1]
        monic = [c * lead ** (degree - 1 - k) for k, c in enumerate(coeffs[:-1])] + [1]
        assert _integer_roots(monic) == sorted(set(_sympy_rational_roots(monic)))

    def test_integer_roots_need_no_divisor_search(self):
        # (y - 2^89 + 1)(y + 3)(y^2 + 1): a Mersenne prime as a root
        q = 2**89 - 1
        g = _poly_mul(_poly_mul([Fraction(-q), Fraction(1)], [Fraction(3), Fraction(1)]), [1, 0, 1])
        assert _integer_roots([int(c) for c in g]) == [-3, q]


    @pytest.mark.parametrize(
        "coeffs, roots, leftover",
        [
            ([0, 0, 0, 1], [(0, 1)] * 3, 0),  # t^3
            ([0, 0, -1, 2], [(0, 1), (0, 1), (1, 2)], 0),  # t^2 (2t - 1)
            ([0, 0, 1, 0, 1], [(0, 1)] * 2, 2),  # t^2 (t^2 + 1)
            ([0, 0, 0, -3, 0, 0], [(0, 1)] * 3, 0),  # -3 t^3, trailing zeros
            ([0, 0, 3, -1], [(0, 1), (0, 1), (3, 1)], 0),  # -t^2 (t - 3), negative lead
        ],
    )
    def test_zero_roots_with_multiplicity(self, coeffs, roots, leftover):
        found, left = _rational_roots(coeffs)
        assert (sorted(found), left) == (roots, leftover)


_coefficients = st.lists(st.integers(-(10**6), 10**6), min_size=1, max_size=7)


class TestIntegerPolynomials:
    """The integer polynomial layer of the center split: `_value` and
    `_deflate` against `Fraction` and sympy arithmetic."""

    @settings(max_examples=100, deadline=None)
    @given(_coefficients, st.integers(-(10**9), 10**9), st.just(2) | st.integers(1, 10**6))
    def test_value_is_the_scaled_fraction_value(self, q, a, b):
        x = Fraction(a, b)
        expected = sum(c * x**k for k, c in enumerate(q)) * b ** (len(q) - 1)
        assert expected.denominator == 1
        assert _value(q, a, b) == expected

    @settings(max_examples=60, deadline=None)
    @given(_coefficients, st.integers(-(10**9), 10**9), st.integers(1, 10**6))
    def test_deflate_matches_sympy_division(self, cofactor, a, b):
        sympy = pytest.importorskip("sympy")
        g = math.gcd(a, b)
        a, b = a // g, b // g
        f = [int(c) for c in _poly_mul(cofactor, [-a, b])]
        t = sympy.Symbol("t")
        quotient, remainder = sympy.div(sum(c * t**k for k, c in enumerate(f)), b * t - a, t)
        assert remainder == 0
        quotient = sympy.Poly(quotient, t)
        assert _deflate(f, a, b) == [int(quotient.coeff_monomial(t**k)) for k in range(len(f) - 1)]

    @settings(max_examples=60, deadline=None)
    @given(_coefficients, _coefficients.filter(lambda b: b[-1]))
    @example([0], [0, 1])
    def test_poly_rem_is_a_positive_multiple_of_the_remainder(self, a, b):
        # a positive multiple keeps the signs of the Sturm chain
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t")
        expr = [sum(c * t**k for k, c in enumerate(p)) for p in (a, b)]
        rem = sympy.Poly(sympy.rem(*expr, t), t)
        expected = [Fraction(int(c.p), int(c.q)) for c in reversed(rem.all_coeffs())]
        den = math.lcm(*(c.denominator for c in expected))
        r = _poly_rem(a, b)
        if rem.is_zero:
            assert r == []
        else:
            assert _primitive(r) == _primitive([int(c * den) for c in expected])

    def test_poly_rem_raises_when_the_degree_does_not_fall(self):
        # a divisor whose coefficients read as zeros when iterated cannot
        # cancel the leading term: deg a - deg b + 1 passes, then the guard
        class Stuck(list):
            def __iter__(self):
                return iter([0] * len(self))

        with pytest.raises(RuntimeError, match="did not fall"):
            _poly_rem([1, 2, 3, 4], Stuck([1, 1]))
        assert _poly_rem([1, 2, 3, 4], [1, 1]) == [-2]


class TestFlags:
    def test_full_algebra_flag_is_trivial(self):
        f = invariant_flag(full_algebra(3))
        assert f.dims == (3,)

    def test_upper_triangular_full_flag(self):
        f = invariant_flag(parabolic_subalgebra(Composition((1, 1, 1))))
        assert f.dims == (1, 2, 3)
        # the chain consists of the coordinate subspaces
        assert f.subspaces[0] == rref_basis([(1, 0, 0)], 3)
        assert f.subspaces[1] == rref_basis([(1, 0, 0), (0, 1, 0)], 3)

    def test_parabolic_flag_matches_type(self):
        f = invariant_flag(parabolic_subalgebra(Composition((1, 2))))
        assert f.dims == (1, 3)

    def test_flag_members_are_invariant(self):
        a = parabolic_subalgebra(Composition((2, 2)))
        f = invariant_flag(a)
        for member in f.subspaces:
            for b in a.basis_matrices():
                for v in member.basis:
                    image = tuple(
                        sum(b[i, j] * v[j] for j in range(4)) for i in range(4)
                    )
                    assert subspace_contains(member, image)

    def test_stabilizer_of_parabolic_flag(self):
        a = parabolic_subalgebra(Composition((1, 2)))
        stab = flag_stabilizer(invariant_flag(a))
        assert stab.space == a.space

    def test_stabilizer_of_diagonal_flag_is_larger(self):
        # the diagonal algebra stabilizes only its invariant flag's chain;
        # the stabilizer of that chain is the bigger block algebra
        a = diagonal_algebra(2)
        stab = flag_stabilizer(invariant_flag(a))
        assert stab.dimension > a.dimension


def reference_invariant_flag(a):
    """The members of the invariant flag by iterated induced radicals: on
    the quotient Q^n / V of the current member V, take the radical of the
    induced algebra and lift its joint kernel back to Q^n, until that
    radical is zero.  Kept as the reference for the kernel flag of rad a
    in `invariant_flag`."""
    n = a.n
    members = []
    current = zero_space(n)
    for _ in range(n):
        coords = coset_coords(current)
        m = len(coords)
        induced = []
        for b in a.basis_matrices():
            columns = b.transpose().entries
            projected = [reference_project(current, columns[c]) for c in coords]
            induced.append([x for row in zip(*projected) for x in row])
        rad = radical(MatrixAlgebra(n=m, space=rref_basis(induced, m * m)))
        if rad.dimension == 0:
            break
        lifted = []
        for v in joint_kernel(rad.basis_matrices(m), m).basis:
            dense = [Fraction(0)] * n
            for x, c in zip(v, coords):
                dense[c] = x
            lifted.append(dense)
        current = rref_basis(list(current.basis) + lifted, n)
        members.append(current)
    else:
        raise AssertionError("the induced radicals did not vanish within n rounds")
    return tuple(members) + (full_space(n),)


class TestInvariantFlagReference:
    def test_matches_reference_on_corpora_and_conjugated_types(self):
        # corpora at n = 2..4 and every composition at n <= 5
        algebras = [a for n in (2, 3, 4) for _, a in corpus_algebras(n, seed=7)]
        rng = random.Random(43)
        for n in range(1, 6):
            for comp in compositions(n):
                g = random_invertible(rng, n)
                algebras.append(conjugate(parabolic_subalgebra(comp), g))
        lengths = set()
        for a in algebras:
            members = invariant_flag(a).subspaces
            assert members == reference_invariant_flag(a)
            lengths.add(len(members))
        assert max(lengths) >= 3

    @given(small_closures())
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_on_closures(self, a):
        assert invariant_flag(a).subspaces == reference_invariant_flag(a)


def integer_rows(mats):
    """Each matrix flattened and scaled to integers by the least common
    denominator of its entries: the rows that `_kernel_flag` takes."""
    rows = []
    for m in mats:
        flat = m.flatten()
        den = math.lcm(*(x.denominator for x in flat))
        rows.append(tuple(int(x * den) for x in flat))
    return rows


def _count_steps(monkeypatch):
    """The `SpanBuilder._spanning` calls that `_kernel_flag` makes, one per
    step of the row-space chain, and every `_kernel` call of the algebra
    module, counted through the `pytest.MonkeyPatch` given.  The flag is
    read off the chain's echelon rows, so `_kernel_flag` calls no `_kernel`."""
    calls = {"_spanning": 0, "_kernel": 0}
    kernel, spanning = algebra_module._kernel, SpanBuilder._spanning

    def counting_kernel(*args):
        calls["_kernel"] += 1
        return kernel(*args)

    def counting_spanning(cls, *args):
        if sys._getframe(1).f_code is _kernel_flag.__code__:
            calls["_spanning"] += 1
        return spanning(*args)

    monkeypatch.setattr(algebra_module, "_kernel", counting_kernel)
    monkeypatch.setattr(SpanBuilder, "_spanning", classmethod(counting_spanning))
    return calls


@st.composite
def flag_cases(draw, max_n=6):
    """Rational n x n matrices, n in 1..max_n, as (kind, n, matrices), conjugated
    by one random invertible: random combinations of the strictly upper
    units ("nilpotent"), those plus one invertible matrix, whose rows span
    Q^n ("stall-1"), or a block-diagonal sum of strictly upper matrices on
    the first k coordinates and of matrices of nonzero trace on the other
    n - k ("stall-later"): e_0 is in every kernel, so the chain passes
    its first step and stalls at a later one."""
    kind = draw(st.sampled_from(["nilpotent", "stall-1", "stall-later"]))
    n = draw(st.integers(2 if kind == "stall-later" else 1, max_n))
    k = draw(st.integers(1, n - 1)) if kind == "stall-later" else n
    small = st.integers(-2, 2)
    mats = []
    for _ in range(draw(st.integers(1, 4))):
        rows = [[draw(small) if i < j < k else 0 for j in range(n)] for i in range(n)]
        if kind == "stall-later":
            for i in range(k, n):
                rows[i][k:] = [draw(small) for _ in range(k, n)]
            if not sum(rows[i][i] for i in range(k, n)):
                rows[k][k] += 1
        mats.append(Matrix(rows))
    if kind == "stall-1":
        mats.insert(draw(st.integers(0, len(mats))), Matrix.identity(n) + mats[0])
    g = Matrix([[draw(st.fractions(-3, 3, max_denominator=3)) for _ in range(n)] for _ in range(n)])
    if null_space(g).dimension:
        g = g + Matrix.identity(n) * (1 + sum(abs(x) for x in g.flatten()))
    ginv = g.inverse()
    return kind, n, [g * m * ginv for m in mats]


class TestKernelFlag:
    @pytest.mark.parametrize(
        "mats",
        [
            [Matrix.identity(2)],
            [Matrix.unit(2, 0, 1), Matrix.unit(2, 1, 0)],
            # the kernel span{e_0} is nonzero, and the second step stalls
            [Matrix.unit(3, 1, 2), Matrix.unit(3, 2, 1)],
        ],
        ids=["identity", "e01-e10", "e12-e21"],
    )
    def test_none_when_not_nilpotent(self, mats, monkeypatch):
        calls = _count_steps(monkeypatch)
        n = mats[0].rows
        assert _kernel_flag(integer_rows(mats), n) is None
        assert calls["_kernel"] == 0 and calls["_spanning"] <= n

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_strictly_upper_units_give_the_coordinate_flag(self, n, monkeypatch):
        calls = _count_steps(monkeypatch)
        mats = [Matrix.unit(n, i, j) for i in range(n) for j in range(i + 1, n)]
        basis, dims = _kernel_flag(integer_rows(mats), n)
        # member j is span{e_0, ..., e_j}: its basis is the identity
        assert dims == tuple(range(1, n + 1))
        assert basis == Matrix.identity(n)
        # one step per member, n in all: the longest chain there is
        assert calls == {"_spanning": n, "_kernel": 0}

    def test_no_matrices_give_the_full_space(self):
        assert _kernel_flag([], 3) == (Matrix.identity(3), (3,))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_the_null_space_route_on_conjugated_parabolics(self, n):
        # the radicals of conjugated block algebras are nilpotent, with a
        # flag of one member per block; the algebras themselves hold the
        # identity and have no flag
        rng = random.Random(90 + n)
        lengths = set()
        for comp in compositions(n):
            a = conjugate(parabolic_subalgebra(comp), rational_invertible(rng, n))
            for mats in (radical(a).basis_matrices(n), a.basis_matrices()):
                flag = _kernel_flag(integer_rows(mats), n)
                expected = null_space_kernel_flag(mats, n)
                if expected is None:
                    assert flag is None
                else:
                    assert flag == reference_flag_basis(expected, n)
                    assert flag_members(flag, n) == expected
                lengths.add(None if flag is None else len(flag[1]))
        assert lengths == {None, *range(1, n + 1)}

    @given(flag_cases())
    @settings(max_examples=80, deadline=None)
    @example(("stall-1", 3, [Matrix.identity(3)]))
    @example(("stall-later", 3, [Matrix.unit(3, 0, 1), Matrix.unit(3, 2, 2)]))
    def test_matches_the_null_space_route_on_random_sets(self, case):
        kind, n, mats = case
        with pytest.MonkeyPatch.context() as patch:
            calls = _count_steps(patch)
            flag = _kernel_flag(integer_rows(mats), n)
        expected = null_space_kernel_flag(mats, n)
        assert calls["_kernel"] == 0 and calls["_spanning"] <= n
        if kind == "nilpotent":
            assert flag is not None and flag == reference_flag_basis(expected, n)
            assert flag_members(flag, n) == expected and flag[1][-1] == n
        else:
            # U_1 = Q^n, or a later step at which dim U does not drop
            assert flag is None and expected is None
            assert (calls["_spanning"] == 1) == (kind == "stall-1")

    @given(flag_cases(max_n=5))
    @settings(max_examples=60, deadline=None)
    def test_column_prefixes_span_the_members(self, case):
        # whatever the adapted basis, its first dims[j] columns must span
        # member j, and its columns are primitive integer vectors
        _, n, mats = case
        flag = _kernel_flag(integer_rows(mats), n)
        expected = null_space_kernel_flag(mats, n)
        if expected is None:
            assert flag is None
            return
        basis, dims = flag
        assert dims == tuple(v.dimension for v in expected)
        assert flag_members(flag, n) == expected
        for column in basis.transpose().entries:
            assert all(x.denominator == 1 for x in column) and math.gcd(*map(int, column)) == 1


def flag_members(flag, n):
    """The members of a flag handed over as (basis, dims): the canonical
    spans of the first dims[j] columns of the basis."""
    basis, dims = flag
    columns = basis.transpose().entries
    return [rref_basis(columns[:d], n) for d in dims]


def null_space_kernel_flag(mats, n):
    """The kernel flag by joint kernels: V_1 is the joint kernel of `mats`,
    and V_{j+1} that of the products A m for A with rows spanning the
    annihilator of V_j, taken as the null space of the matrix of V_j's
    basis.  Kept as the reference for `_kernel_flag`, which takes the
    row-space chain."""
    if not mats:
        return [full_space(n)]
    flag = [joint_kernel(mats, n)]
    if flag[0].dimension == 0:
        return None
    while flag[-1].dimension < n:
        annihilator = Matrix(null_space(Matrix(flag[-1].basis)).basis)
        kernel = joint_kernel([annihilator * m for m in mats], n)
        if kernel.dimension == flag[-1].dimension:
            return None
        flag.append(kernel)
    return flag


class TestFlagValidation:
    @pytest.mark.parametrize(
        "first, second",
        [
            ([(1, 0, 0)], [(0, 1, 0), (0, 0, 1)]),
            ([(1, 1, 0)], [(1, 0, 0), (0, 0, 1)]),
            ([(Fraction(1, 3), 1, 0)], [(1, 2, Fraction(1, 2)), (0, 0, 1)]),
        ],
        ids=["coordinate", "line-off-plane", "rational"],
    )
    def test_a_chain_that_is_not_nested_raises(self, first, second):
        # the dimensions increase, so only the containment check can refuse it
        chain = (rref_basis(first, 3), rref_basis(second, 3), full_space(3))
        with pytest.raises(ValueError, match="flag members must be nested"):
            Flag(n=3, subspaces=chain)


def reference_flag_stabilizer(f):
    """The stabilizer as the null space of bilinear constraints: for each
    proper member V, q . (x v) = 0 over basis vectors v of V and basis
    covectors q of its annihilator.  Kept as the reference for the
    conjugated block algebra in `flag_stabilizer`."""
    n = f.n
    rows = []
    for v_space in f.subspaces:
        if v_space.dimension == n:
            continue
        annihilator = null_space(Matrix(v_space.basis))
        for v in v_space.basis:
            for q in annihilator.basis:
                rows.append([q[i] * v[j] for i in range(n) for j in range(n)])
    if not rows:
        return MatrixAlgebra(n=n, space=full_space(n * n))
    return MatrixAlgebra(n=n, space=null_space(Matrix(rows)))


def reference_flag_basis(members, n):
    """The adapted basis of the flag V_1 < ... < V_k = Q^n through
    `Fraction`s, with the member dimensions: the reduced echelon form of
    each annihilator U_j (the null space of the basis of V_j), and for each
    free column f of U_j that is not free in U_{j-1} the kernel vector e_f
    minus the column f of the echelon rows, placed at their pivots, scaled
    to a primitive integer vector.  Kept as the reference for the basis
    that `_flag_basis` reads off the integer echelon rows of a chain."""
    columns, dims, free = [], [], set()
    for member in members:
        annihilator = null_space(Matrix(member.basis))
        echelon = dict(zip(annihilator.pivots, annihilator.basis))
        for f in range(n):
            if f in echelon or f in free:
                continue
            vec = [Fraction(int(i == f)) for i in range(n)]
            for p, row in echelon.items():
                vec[p] = -row[f]
            den = math.lcm(*(x.denominator for x in vec))
            ints = [int(x * den) for x in vec]
            columns.append([x // math.gcd(*ints) for x in ints])
        free = set(range(n)).difference(echelon)
        dims.append(len(columns))
    assert len(columns) == n
    return Matrix(columns).transpose(), tuple(dims)


rationals = st.fractions(min_value=Fraction(-9), max_value=Fraction(9), max_denominator=7)


@st.composite
def flags(draw):
    """Nested spans of random rational vectors in Q^1..Q^5: the drawn
    vectors, completed greedily by standard basis vectors, cut at the
    partial sums of a random composition of n."""
    n = draw(st.integers(1, 5))
    drawn = draw(st.lists(st.lists(rationals, min_size=n, max_size=n), max_size=n))
    units = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    builder = SpanBuilder(n)
    basis = [v for v in drawn + units if builder.add(v)]
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=n - 1))) if n > 1 else []
    members = tuple(rref_basis(basis[:d], n) for d in cuts + [n])
    return Flag(n=n, subspaces=members)


class TestFlagStabilizerReference:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_reference_on_corpus_flags(self, n):
        for _, a in corpus_algebras(n, seed=7):
            f = invariant_flag(a)
            assert flag_stabilizer(f).space == reference_flag_stabilizer(f).space

    @given(flags())
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_on_random_flags(self, f):
        stab = flag_stabilizer(f)
        assert stab.space == reference_flag_stabilizer(f).space
        assert stab.dimension == parabolic_dimension(Composition(f.gaps))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_recognition_matches_reference_on_corpus(self, n):
        verdicts = set()
        for _, a in corpus_algebras(n, seed=7):
            expected = reference_flag_stabilizer(invariant_flag(a)).space == a.space
            assert is_parabolic(a)[0] is expected
            verdicts.add(expected)
        assert verdicts == {True, False}

    def test_recognition_matches_reference_on_conjugated_types(self):
        # every composition at n <= 4 and the two-block types at n = 5
        types = [comp for n in range(1, 5) for comp in compositions(n)]
        types += [Composition((k, 5 - k)) for k in range(1, 5)]
        rng = random.Random(31)
        for comp in types:
            a = conjugate(parabolic_subalgebra(comp), random_invertible(rng, comp.n))
            assert reference_flag_stabilizer(invariant_flag(a)).space == a.space
            ok, found, witness = is_parabolic(a)
            assert ok and found == comp
            assert conjugate(a, witness).space == parabolic_subalgebra(comp).space


class TestParabolicRecognition:
    def test_standard_parabolic_recognized_with_identity_witness(self):
        a = parabolic_subalgebra(Composition((1, 2)))
        ok, comp, witness = is_parabolic(a)
        assert ok and comp == Composition((1, 2))
        assert witness == Matrix.identity(3)

    def test_full_algebra_is_the_one_block_type(self):
        ok, comp, _ = is_parabolic(full_algebra(3))
        assert ok and comp == Composition((3,))

    def test_borel_is_finest_type(self):
        ok, comp, _ = is_parabolic(parabolic_subalgebra(Composition((1, 1, 1, 1))))
        assert ok and comp == Composition((1, 1, 1, 1))

    def test_diagonal_is_not_parabolic(self):
        ok, comp, witness = is_parabolic(diagonal_algebra(3))
        assert not ok and comp is None and witness is None

    def test_lower_triangular_is_conjugate_parabolic(self):
        lower = algebra_from_basis(
            2, [Matrix.unit(2, 0, 0), Matrix.unit(2, 1, 1), Matrix.unit(2, 1, 0)]
        )
        ok, comp, witness = is_parabolic(lower)
        assert ok and comp == Composition((1, 1))
        assert conjugate(lower, witness).space == parabolic_subalgebra(Composition((1, 1))).space

    @pytest.mark.parametrize("parts", [(1, 2), (2, 1), (1, 1, 1), (3,)])
    def test_random_conjugates_recognized(self, parts):
        comp = Composition(parts)
        standard = parabolic_subalgebra(comp)
        rng = random.Random(hash(parts) & 0xFFFF)
        for _ in range(3):
            c = random_invertible(rng, comp.n)
            moved = conjugate(standard, c)
            ok, found, witness = is_parabolic(moved)
            assert ok and found == comp
            assert conjugate(moved, witness).space == standard.space

    def test_proper_nonparabolic_subalgebra(self):
        # commutative span{I, e_{0,1}} has a 1-dim invariant flag step but
        # is far smaller than the stabilizer
        a = algebra_from_basis(2, [Matrix.identity(2), Matrix.unit(2, 0, 1)])
        assert is_parabolic(a)[0] is False


def conjugated_types(max_n, rng):
    """Every composition of n <= max_n, its block upper-triangular algebra
    conjugated by a seeded invertible, with integer and with rational
    entries in turn."""
    for k, comp in enumerate(comp for n in range(1, max_n + 1) for comp in compositions(n)):
        make = random_invertible if k % 2 else rational_invertible
        yield comp, conjugate(parabolic_subalgebra(comp), make(rng, comp.n))


def reversed_columns(m):
    """The matrix with its columns in reverse order."""
    return Matrix([row[::-1] for row in m.entries])


def reversed_flag(kernel_flag):
    """`_kernel_flag` with the columns of the basis it hands over reversed."""

    def tampered(rows, n):
        basis, dims = kernel_flag(rows, n)
        return reversed_columns(basis), dims

    return tampered


def expected_witness(a):
    """The inverse of the `Fraction` adapted basis of the kernel flag of the
    radical of `a`, the flag taken by joint kernels."""
    n = a.n
    return reference_flag_basis(null_space_kernel_flag(radical(a).basis_matrices(n), n), n)[0].inverse()


class TestFlagConjugator:
    """The conjugator that `is_parabolic` returns, against the inverse of
    the `Fraction` adapted basis of the invariant flag, and its check."""

    @given(flags())
    @settings(max_examples=60, deadline=None)
    def test_adapted_basis_matches_reference_on_random_flags(self, f):
        # the basis that `flag_stabilizer` conjugates by, read off the
        # annihilators of the members
        bases = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(algebra_module, "conjugate", lambda a, c: bases.append(c) or conjugate(a, c))
            flag_stabilizer(f)
        assert bases == [reference_flag_basis(f.subspaces, f.n)[0]]

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_witness_matches_reference_on_corpus(self, n):
        found = 0
        for _, a in corpus_algebras(n, seed=7):
            ok, _, witness = is_parabolic(a)
            if ok:
                found += 1
                assert witness == expected_witness(a)
        assert found

    def test_witness_matches_reference_on_conjugated_types(self):
        for comp, a in conjugated_types(5, random.Random(43)):
            ok, found, witness = is_parabolic(a)
            assert ok and found == comp
            assert witness == expected_witness(a)
            assert conjugate(a, witness).space == parabolic_subalgebra(comp).space

    def test_tampered_adapted_basis_raises(self, monkeypatch):
        upper = parabolic_subalgebra(Composition((1, 1, 1)))
        a = conjugate(upper, random_invertible(random.Random(5), 3))
        assert is_parabolic(a)[0]
        monkeypatch.setattr(algebra_module, "_kernel_flag", reversed_flag(_kernel_flag))
        # `a` keeps its certified radical: a fresh equal algebra finds it again
        with pytest.raises(RuntimeError, match="adapted basis"):
            is_parabolic(dataclasses.replace(a))

    def test_check_reads_only_the_pivots_of_the_target(self):
        # the diagonal algebra maps into the upper triangular pattern, not
        # into the strictly upper one
        rows = [x for _, x in diagonal_algebra(3).space._integer_form()[1]]
        upper = [(i, j) for i in range(3) for j in range(i, 3)]
        assert algebra_module._flag_conjugator(Matrix.identity(3), rows, 3, upper) == Matrix.identity(3)
        strictly_upper = [(0, 1), (0, 2), (1, 2)]
        with pytest.raises(RuntimeError, match="adapted basis"):
            algebra_module._flag_conjugator(Matrix.identity(3), rows, 3, strictly_upper)

    def test_is_parabolic_builds_no_parabolic_algebra(self, monkeypatch):
        # the check takes the pattern's cells, so no span of units is built
        a = conjugate(parabolic_subalgebra(Composition((1, 2))), rational_invertible(random.Random(7), 3))
        expected = expected_witness(a)
        monkeypatch.setattr(algebra_module, "parabolic_subalgebra", lambda comp: pytest.fail("built P"))
        monkeypatch.setattr(algebra_module, "_unit_span", lambda n, positions: pytest.fail("built a unit span"))
        assert is_parabolic(a) == (True, Composition((1, 2)), expected)


def every_spin_product(run):
    """The products (path, x, y, x y) that `run()` forms with the support
    test off, so with every pair the spin meets (`record_closure_products`)."""
    with pytest.MonkeyPatch.context() as patch:
        support_test_off(patch)
        products, _ = record_closure_products(patch)
        run()
    return products


class TestClosureProducts:
    """`closure` and `absorption_probe` spin one span on the right: each
    word meets each image at most once, and the pair is multiplied unless
    their supports do not meet, at all n^2 entries, packed
    (`_packed_product`) while the operands lie within its bound, row by
    column (`_rows_times_columns`) past it.  Only images are right
    factors, and each is packed at most once, the first time it is one."""

    def test_closed_basis_forms_at_most_d_k_products(self, monkeypatch):
        c = random_invertible(random.Random(41), 4)
        a = conjugate(parabolic_subalgebra(Composition((1, 3))), c)
        basis = a.basis_matrices()
        products = every_spin_product(lambda: closure(4, basis))
        formed, _ = record_closure_products(monkeypatch)
        assert closure(4, basis).space == a.space
        pairs = [(x, y) for _, x, y, _ in products]
        # the pairs whose supports do not meet are not formed; here some
        assert skipped_pairs([(x, y) for _, x, y, _ in formed], pairs, 4)
        assert len(set(pairs)) == len(pairs)
        assert {len(product) for *_, product in formed} == {16}
        # the words are the d - 1 matrices that grew the span after the
        # identity, and the images the k basis rows among them that did
        words = {x for x, _ in pairs}
        images = {y for _, y in pairs}
        assert len(words) == a.dimension - 1
        assert images <= words & set(algebra_module._integral_generators(basis))
        # a span short of M_n: each word meets each image exactly once, so
        # (d - 1) k products, here half of the (d - 1)^2 of every pair
        assert set(pairs) == {(w, g) for w in words for g in images}
        assert len(pairs) == (a.dimension - 1) * len(images) <= (a.dimension - 1) ** 2 // 2

    def test_absorption_probe_repeats_no_product(self, monkeypatch):
        a = parabolic_subalgebra(Composition((1, 3)))
        x = Matrix.unit(4, 1, 0)
        products = every_spin_product(lambda: absorption_probe(a, x))
        formed, _ = record_closure_products(monkeypatch)
        assert absorption_probe(a, x).dimension == 16
        (flat_x,) = algebra_module._integral_generators([x])
        rows = [row for _, row in a.space._integer_form()[1]]
        pairs = [(x, y) for _, x, y, _ in products]
        # the pairs whose supports do not meet are not formed; here some
        assert skipped_pairs([(x, y) for _, x, y, _ in formed], pairs, 4)
        assert len(pairs) == len(set(pairs))
        # the rows of `a` are the first words, and they take x only: the
        # first product is the first row times x, and no product has two
        # rows of `a` as its factors
        assert pairs[0] == (rows[0], flat_x)
        assert all(y == flat_x for x, y in pairs if x in rows)
        assert not any(x in rows and y in rows for x, y in pairs)

    def test_each_matrix_is_packed_once_when_first_a_right_factor(self, monkeypatch):
        c = random_invertible(random.Random(43), 4)
        a = conjugate(parabolic_subalgebra(Composition((2, 2))), c)
        x = c * Matrix.unit(4, 3, 0) * c.inverse()
        products, packings = record_closure_products(monkeypatch)
        assert absorption_probe(a, x).dimension == 16
        assert {path for path, *_ in products} == {"packed"}
        # packed in the order of first use as a right factor, once each
        assert packings == list(dict.fromkeys(y for _, _, y, _ in products))
        # only images are packed: the rows of `a` and x, never a product
        images = {row for _, row in a.space._integer_form()[1]}
        images |= set(algebra_module._integral_generators([x]))
        assert set(packings) <= images

    def test_a_pair_past_the_bound_is_multiplied_row_by_column(self, monkeypatch):
        # the bound at n = 2 is 63 - bits(2) = 61 bits: g g has 31 + 31, one
        # past it, and g h has 31 + 30, at it
        g = Matrix([[0, 2**30], [1, 0]])
        h = Matrix([[2**29, 1], [0, 0]])
        products, packings = record_closure_products(monkeypatch)
        space = closure(2, [g, h]).space
        assert space == full_space(4)
        assert (space.basis, space.pivots) == reference_closure(2, [g, h])
        flat_g, flat_h = algebra_module._integral_generators([g, h])
        # g g = 2^30 I adds nothing, g h fills M_2
        assert [(path, x, y) for path, x, y, _ in products] == [
            ("row", flat_g, flat_g),
            ("packed", flat_g, flat_h),
        ]
        assert packings == [flat_h]


def spin_outcomes(n, matrices, x):
    """What the spin answers on a case: the closure of `matrices`, the
    probe of their span by x, and the generating set of that span, each
    as its value or the text of its ValueError."""
    space = rref_basis([m._integer_form()[1] for m in matrices], n * n)

    def outcome(call):
        try:
            return call()
        except ValueError as error:
            return str(error)

    return (
        outcome(lambda: closure(n, matrices).space),
        outcome(lambda: absorption_probe(MatrixAlgebra(n=n, space=space), x).space),
        outcome(lambda: [g.flat for g in MatrixAlgebra(n=n, space=space)._generating_set]),
    )


def outcomes_forming_every_pair(case):
    """`spin_outcomes` of the case with the support test off."""
    with pytest.MonkeyPatch.context() as patch:
        support_test_off(patch)
        return spin_outcomes(*case)


def _chain(n):
    """(n, [e_01, e_12, ..., e_(n-2)(n-1)], e_(n-1)0): the closure is the
    upper triangular algebra, and each unit e_0j with j > 1 is a product
    whose factors are a word of several letters and a unit."""
    return n, [Matrix.unit(n, i, i + 1) for i in range(n - 1)], Matrix.unit(n, n - 1, 0)


SPIN_EXAMPLES = [_chain(3), _chain(4), _chain(5)]


def swapped_masks(patch):
    """A planted fault: the row mask reads the columns and the column mask
    the rows."""
    rows, columns = exactlin._Factor.row_mask, exactlin._Factor.column_mask
    patch.setattr(exactlin._Factor, "row_mask", columns)
    patch.setattr(exactlin._Factor, "column_mask", rows)


def word_takes_the_columns_of_its_left_factor(patch):
    """A planted fault: the word w y takes the column mask of w, not of y."""

    def of_product(cls, flat, x, y):
        factor = cls(flat, x.n)
        factor._row_mask, factor._column_mask = x.row_mask, x.column_mask
        return factor

    patch.setattr(exactlin._Factor, "_of_product", classmethod(of_product))


@st.composite
def _spin_cases(draw):
    """(n, matrices, x) at n <= 5: the basis of a conjugated block
    upper-triangular or block-diagonal algebra, of a unit pattern or of
    the closure of 1-2 sparse integer matrices, and a sparse integer x."""
    n = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["conjugate", "pattern", "closure"]))
    sparse = st.lists(st.sampled_from([0, 0, 0, 0, 1, -1, 2]), min_size=n * n, max_size=n * n)
    if kind == "conjugate":
        comp = draw(st.sampled_from(list(compositions(n))))
        standard = draw(st.sampled_from([parabolic_subalgebra, block_diagonal_algebra]))(comp)
        a = conjugate(standard, rational_invertible(random.Random(draw(st.integers(0, 10**6))), n))
    elif kind == "pattern":
        # the units of a preorder, closed transitively (Warshall)
        units = {(i, j) for i in range(n) for j in range(n) if i == j or not draw(st.integers(0, 3))}
        for k in range(n):
            units |= {(i, j) for i in range(n) for j in range(n) if (i, k) in units and (k, j) in units}
        a = MatrixAlgebra(n=n, space=_unit_span(n, sorted(units)))
    else:
        a = closure(n, [Matrix.from_flat(draw(sparse), n) for _ in range(draw(st.integers(1, 2)))])
    return n, a.basis_matrices(), Matrix.from_flat(draw(sparse), n)


class TestSupportTest:
    """The spin skips a pair whose supports do not meet, and nothing it
    answers changes: `closure`, `absorption_probe` and the generating set
    of `MatrixAlgebra._generating_set` are those of the spin that forms
    every pair."""

    @given(_spin_cases())
    @settings(max_examples=60, deadline=None)
    @example(SPIN_EXAMPLES[0])
    @example(SPIN_EXAMPLES[1])
    @example(SPIN_EXAMPLES[2])
    def test_same_answers_as_forming_every_pair(self, case):
        assert spin_outcomes(*case) == outcomes_forming_every_pair(case)

    @pytest.mark.parametrize("fault", [swapped_masks, word_takes_the_columns_of_its_left_factor])
    def test_planted_faults_change_the_answers(self, fault):
        changed = []
        for case in SPIN_EXAMPLES:
            expected = outcomes_forming_every_pair(case)
            with pytest.MonkeyPatch.context() as patch:
                fault(patch)
                changed.append(spin_outcomes(*case) != expected)
        assert any(changed)

    def test_examples_skip_pairs(self):
        for n, matrices, _ in SPIN_EXAMPLES:
            every = every_spin_product(lambda: closure(n, matrices))
            with pytest.MonkeyPatch.context() as patch:
                formed, _ = record_closure_products(patch)
                closure(n, matrices)
            assert skipped_pairs([(w, y) for _, w, y, _ in formed], [(w, y) for _, w, y, _ in every], n)


class TestRadicalSpanWithoutReduction:
    """`_certified_radical` builds R's n^2 span from the combinations of the
    rows of A by R's coordinate rows, scaled, with no reduction: the same
    stored form as `rref_basis` of those combinations."""

    def assert_matches_rref(self, a):
        n = a.n
        certificate = _certified_radical(a)
        basis = [x for _, x in a.space._integer_form()[1]]
        rows = certificate.coords._integer_form()[1]
        expected = rref_basis([exactlin._combination(c, basis, n * n) for _, c in rows], n * n)
        assert certificate.span._integer_form() == expected._integer_form()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_corpus(self, n):
        for _, a in corpus_algebras(n, seed=7):
            self.assert_matches_rref(a)

    @given(st.one_of(small_closures(), _conjugated_compositions()))
    @settings(max_examples=40, deadline=None)
    def test_random_algebras(self, a):
        self.assert_matches_rref(a)


def _rank_one(p, q):
    """The matrix p q^T."""
    return Matrix([[a * b for b in q] for a in p])


def _alternating(value, count):
    """count entries value, -value, value, ... for an even count: their
    sum is 0."""
    return [value if j % 2 == 0 else -value for j in range(count)]


# At n = 15 the packed product's budget is 63 - bits(15) = 59 bits, and
# both algebras below are built from rank-one matrices p t^T with
# p = (0, 1, 0, P, ..., P), whose stored rows are I and those matrices
# themselves.  q = (1, 0, 0, Q, ..., Q) gives E = p q^T with E^2 = 12 P Q E:
# a product with E has entries 12 times the product of the operands'
# largest entries, so past the budget by one bit it lies past 2^63, where
# a packed product would overflow.
_SIDE = 15
_TOP = 2**15 - 1


def _radical_case(q_value, k_value):
    """span{I, E, N} at n = 15, for N = p k^T with k = (0, 0, 1, K, -K, ...)
    and k p = 0: E N = 12 P Q N, N E = N N = 0, so it is an algebra with
    radical span{N}.  The spin forms E E, E N, N E and N N; the radical's
    flag check conjugates E and N at entries past 2^63 too."""
    p = [0, 1, 0] + [_TOP] * 12
    e = _rank_one(p, [1, 0, 0] + [q_value] * 12)
    nil = _rank_one(p, [0, 0, 1] + _alternating(k_value, 12))
    return [Matrix.identity(_SIDE), e, nil], nil


def _commutative_case(q_value, r_value):
    """span{I, E, F} at n = 15, for F = r s^T with r = (0, 1, 0, R, -R,
    ...) and s = (1, 0, 1, 1, -1, ...): q r = s p = 0, so E F = F E = 0,
    and it is a commutative algebra.  Its stored rows are
    I, E and F - E, and E (F - E) = (F - E) E = -12 P Q E."""
    p = [0, 1, 0] + [_TOP] * 12
    e = _rank_one(p, [1, 0, 0] + [q_value] * 12)
    f = _rank_one([0, 1, 0] + _alternating(r_value, 12), [1, 0, 1] + _alternating(1, 12))
    return [Matrix.identity(_SIDE), e, f]


def _record_margins(monkeypatch):
    """The bits past `_packed_budget` of each `exactlin._product` that
    `matalg.algebra` forms from now on: bits(max|x|) + bits(max|y|) less
    the budget, packed when at most 0."""
    margins = []
    multiply = algebra_module._product

    def full_product(x, y):
        bits = sum(max(map(abs, m.flat)).bit_length() for m in (x, y))
        margins.append(bits - _packed_budget(x.n))
        return multiply(x, y)

    monkeypatch.setattr(algebra_module, "_product", full_product)
    return margins


class TestProductsAtTheBudget:
    """The callers of `exactlin._product` against references on inputs
    whose products lie on both sides of the packed product's budget: at it
    (packed) and one bit past it (row by column), where the entries lie
    past 2^63.  Each case names the margin of its largest product with E.
    The radical, which forms no product, is checked on the same inputs."""

    # (Q, K): E N at the budget with K = 2^14 - 1, one bit past with 2^15 - 1;
    # E E is one bit past in both
    RADICAL_CASES = {"at": (_TOP, 2**14 - 1), "past": (_TOP, _TOP)}
    # (Q, K) for the spin, which forms E E, E N, N E and N N: E N at the
    # budget as above, then one bit past it with Q = 2^16 - 1 and N N below
    SPIN_CASES = {"at": (_TOP, 2**14 - 1), "past": (2**16 - 1, 2**14 - 1)}
    # (Q, R): E (F - E) at the budget, then one bit past
    COMMUTATIVE_CASES = {"at": (2**14 - 1, 2**16), "past": (_TOP, 1)}

    @pytest.mark.parametrize("case", ["at", "past"])
    def test_algebra_from_basis(self, case, monkeypatch):
        matrices, _ = _radical_case(*self.SPIN_CASES[case])
        margins = _record_margins(monkeypatch)
        assert algebra_from_basis(_SIDE, matrices) == reference_algebra_from_basis(_SIDE, matrices)
        # E E, E N, N E and N N
        assert margins == {"at": [1, 0, 0, -1], "past": [3, 1, 1, -1]}[case]

    @pytest.mark.parametrize("case", ["at", "past"])
    def test_radical_ideal_check(self, case, monkeypatch):
        matrices, nil = _radical_case(*self.RADICAL_CASES[case])
        a = algebra_from_basis(_SIDE, matrices)
        margins = _record_margins(monkeypatch)
        rad = radical(a)
        assert rad == reference_radical(a) == rref_basis([nil.flatten()], _SIDE**2)
        # the radical forms no product, packed or row by column: its flag
        # check conjugates the generators by `_rows_times_columns`
        assert margins == []

    @pytest.mark.parametrize("case", ["at", "past"])
    def test_schur_commutative_check(self, case, monkeypatch):
        commutative = algebra_from_basis(_SIDE, _commutative_case(*self.COMMUTATIVE_CASES[case]))
        noncommutative = algebra_from_basis(_SIDE, _radical_case(*self.RADICAL_CASES[case])[0])
        margins = _record_margins(monkeypatch)
        for a, expected in ((commutative, (True, True)), (noncommutative, (False, None))):
            basis = a.basis_matrices()
            commute = all(x * y == y * x for x in basis for y in basis)
            assert schur_commutative_check(a) == expected and commute == expected[0]
        assert min(margins) < 0 and {0: "at", 1: "past"}[max(margins)] == case


@st.composite
def _rational_generators(draw):
    """One to three rational n x n matrices, n in 2..4, each upper
    triangular or diagonal with some probability, so that closures short
    of M_n are common."""
    n = draw(st.integers(2, 4))
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    generators = []
    for _ in range(draw(st.integers(1, 3))):
        shape = draw(st.sampled_from(["dense", "upper", "diagonal"]))
        rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if (shape == "upper" and i > j) or (shape == "diagonal" and i != j):
                    rows[i][j] = Fraction(0)
        generators.append(Matrix(rows))
    return n, generators


def _random_pair(seed, n):
    """Two seeded random integer n x n matrices, entries in [-3, 3]."""
    rng = random.Random(seed)
    return [random_matrix(rng, n), random_matrix(rng, n)]


def _upper_part(m):
    """m with its entries below the diagonal set to zero."""
    return Matrix([[m[i, j] if i <= j else 0 for j in range(m.cols)] for i in range(m.rows)])


@st.composite
def _integer_pairs(draw, largest, upper):
    """Two n x n integer matrices, n in 2..largest, entries in [-3, 3],
    upper triangular when `upper` is set."""
    n = draw(st.integers(2, largest))
    entry = st.integers(-3, 3)
    return n, [
        Matrix([[draw(entry) if i <= j or not upper else 0 for j in range(n)] for i in range(n)])
        for _ in range(2)
    ]


# a 61-bit prime, for closures whose entries and denominators are this large
_P = 2**61 - 1


class TestClosureReference:
    @settings(max_examples=60, deadline=None)
    @given(_rational_generators())
    # e_01 e_12 = e_02 is reached only as the product of the later
    # generator with the earlier one
    @example((3, [Matrix.unit(3, 1, 2), Matrix.unit(3, 0, 1)]))
    @example((2, [Matrix([[1, 0], [0, 1 + _P]])]))
    @example((2, [Matrix.unit(2, 1, 0) * Fraction(1, _P), Matrix.unit(2, 0, 1)]))
    @example((2, [Matrix.zeros(2), Matrix.unit(2, 0, 1), Matrix.unit(2, 1, 0)]))
    # a dense pair that fills M_5, and an upper-triangular pair short of it
    @example((5, _random_pair(5, 5)))
    @example((5, [_upper_part(m) for m in _random_pair(6, 5)]))
    def test_exact_pass_matches_the_fraction_reference(self, case):
        n, generators = case
        space = closure(n, generators).space
        assert (space.basis, space.pivots) == reference_closure(n, generators)

    @settings(max_examples=6, deadline=None)
    @given(_integer_pairs(6, upper=True))
    @example((6, [_upper_part(m) for m in _random_pair(7, 6)]))
    def test_upper_triangular_pairs_match_the_reference(self, case):
        n, generators = case
        space = closure(n, generators).space
        assert (space.basis, space.pivots) == reference_closure(n, generators)

    @settings(max_examples=6, deadline=None)
    @given(_integer_pairs(5, upper=False))
    def test_dense_pairs_match_the_reference(self, case):
        n, generators = case
        space = closure(n, generators).space
        assert (space.basis, space.pivots) == reference_closure(n, generators)


class TestClosureCertificate:
    """Closures with an entry or a denominator of 61 bits, which the
    integer loop carries exactly."""

    def test_scalar_mod_p_falls_through_to_the_exact_path(self):
        # g is I mod p, but over Q it generates the diagonal algebra
        g = Matrix([[1, 0], [0, 1 + _P]])
        assert closure(2, [g]).space == diagonal_algebra(2).space

    def test_denominator_p_is_scaled_away(self):
        generators = [Matrix.unit(2, 1, 0) * Fraction(1, _P), Matrix.unit(2, 0, 1)]
        assert closure(2, generators).space == full_space(4)

    def test_zero_generator_is_ignored(self):
        generators = [Matrix.zeros(2), Matrix.unit(2, 0, 1), Matrix.unit(2, 1, 0)]
        assert closure(2, generators).space == full_space(4)

    def test_exact_loop_resumes_when_the_certificate_falls_short(self):
        # over Q the span of I, e_01 and I + p e_10 is 3-dimensional and
        # e_01 (I + p e_10) = e_01 + p e_00 fills M_2; mod p the last
        # generator is I, and the span would stop at {I, e_01}
        generators = [Matrix.unit(2, 0, 1), Matrix.identity(2) + _P * Matrix.unit(2, 1, 0)]
        space = closure(2, generators).space
        assert space == full_space(4)
        assert (space.basis, space.pivots) == reference_closure(2, generators)


@st.composite
def _probe_cases(draw):
    """A proper parabolic P of M_n, n in 2..4, conjugated by an invertible
    c, and x = c y c^-1 for a rational y: block upper-triangular, so x
    lies in c P c^-1, or nonzero at (n-1, 0), below the diagonal blocks,
    so x lies outside it."""
    n = draw(st.integers(2, 4))
    cut = draw(st.integers(1, n - 1))
    rest = draw(st.integers(0, n - cut))
    comp = Composition(tuple(p for p in (cut, rest, n - cut - rest) if p))
    c = random_invertible(random.Random(draw(st.integers(0, 2**32))), n)
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    y = [[draw(entry) for _ in range(n)] for _ in range(n)]
    inside = draw(st.booleans())
    for i in range(n):
        for j in range(n):
            if inside and comp.block_of(i) > comp.block_of(j):
                y[i][j] = Fraction(0)
    if not inside and not y[n - 1][0]:
        y[n - 1][0] = Fraction(1)
    return conjugate(parabolic_subalgebra(comp), c), c * Matrix(y) * c.inverse(), inside


@st.composite
def _probed_algebras(draw):
    """An algebra A of M_n, n in 2..4, given by a pattern of matrix units
    cut after the first `cut` coordinates: diagonal, block diagonal, block
    upper-triangular or all of M_n, conjugated by a seeded invertible c at
    times; x = c y c^-1 for a rational y, on A's pattern at times, so that
    x lies in A."""
    n = draw(st.integers(2, 4))
    cut = draw(st.integers(1, n - 1))
    kind = draw(st.sampled_from(["diagonal", "block-diagonal", "parabolic", "full"]))
    side = [i < cut for i in range(n)]
    pattern = {
        "diagonal": lambda i, j: i == j,
        "block-diagonal": lambda i, j: side[i] == side[j],
        "parabolic": lambda i, j: side[i] or not side[j],
        "full": lambda i, j: True,
    }[kind]
    units = [Matrix.unit(n, i, j) for i in range(n) for j in range(n) if pattern(i, j)]
    a = algebra_from_basis(n, units)
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    inside = draw(st.booleans())
    y = Matrix([
        [draw(entry) if pattern(i, j) or not inside else 0 for j in range(n)] for i in range(n)
    ])
    if draw(st.booleans()):
        c = random_invertible(random.Random(draw(st.integers(0, 2**32))), n)
        return conjugate(a, c), c * y * c.inverse(), inside
    return a, y, inside


class TestAbsorptionProbe:
    """`absorption_probe` spins the span of A under x alone; the algebra it
    returns is the reference closure of A's basis and x."""

    @settings(max_examples=40, deadline=None)
    @given(_probe_cases())
    def test_matches_the_exact_closure(self, case):
        a, x, inside = case
        expected = reference_closure(a.n, a.basis_matrices() + [x])
        space = absorption_probe(a, x).space
        assert (space.basis, space.pivots) == expected
        assert (space == a.space) == inside

    @settings(max_examples=30, deadline=None)
    @given(_probed_algebras())
    def test_matches_the_reference_below_and_at_m_n(self, case):
        a, x, inside = case
        expected = reference_closure(a.n, a.basis_matrices() + [x])
        space = absorption_probe(a, x).space
        assert (space.basis, space.pivots) == expected
        if inside:
            assert space == a.space

    @pytest.mark.parametrize("conjugated", [False, True])
    @pytest.mark.parametrize("parts, dimension", [((1, 1, 1, 1), 5), ((2, 2), 12)])
    def test_a_span_short_of_m_n_is_closed_by_sympy(self, parts, dimension, conjugated):
        # the diagonal algebra and E03 span D + Q E03; M_2 + M_2 and E03
        # generate P(2, 2)
        comp = Composition(parts)
        c = rational_invertible(random.Random(3), 4) if conjugated else Matrix.identity(4)
        a = conjugate(
            algebra_from_basis(
                4,
                [Matrix.unit(4, i, j) for i in range(4) for j in range(4)
                 if comp.block_of(i) == comp.block_of(j)],
            ),
            c,
        )
        x = c * Matrix.unit(4, 0, 3) * c.inverse()
        result = absorption_probe(a, x)
        assert result.dimension == dimension
        # sympy's rank: the span holds A and x and is closed under products
        basis = result.basis_matrices()
        held = basis + a.basis_matrices() + [x] + [u * v for u in basis for v in basis]
        assert sympy_rank([m.flatten() for m in held]) == dimension

    def test_m_n_is_returned_whatever_x(self):
        a = full_algebra(3)
        for x in (Matrix.zeros(3), Matrix.unit(3, 2, 0), random_matrix(random.Random(9), 3)):
            assert absorption_probe(a, x).space == full_space(9)


class TestProbeOfASpanThatIsNotAnAlgebra:
    """A span given straight to `MatrixAlgebra`: a probe that fills M_n is
    exact whatever the span, and one that does not raises ValueError, as
    every structural question does."""

    @pytest.mark.parametrize(
        "n, matrices, x",
        [
            # E01 E10 = E00 is not in span{I, E01, E10}
            (2, [Matrix.identity(2), Matrix.unit(2, 0, 1), Matrix.unit(2, 1, 0)], Matrix.unit(2, 0, 0)),
            # span{E01, E10} lacks the identity; E10 (E00 + E01) = E10 + E11
            (2, [Matrix.unit(2, 0, 1), Matrix.unit(2, 1, 0)], Matrix([[1, 1], [0, 0]])),
        ],
        ids=["I-E01-E10", "E01-E10"],
    )
    def test_a_probe_that_fills_is_the_reference_closure(self, n, matrices, x):
        a = MatrixAlgebra(n=n, space=rref_basis([m.flatten() for m in matrices], n * n))
        space = absorption_probe(a, x).space
        assert space == full_space(n * n)
        assert (space.basis, space.pivots) == reference_closure(n, matrices + [x])

    @pytest.mark.parametrize(
        "matrices, x, message",
        [
            # W = span{I, E01, E10, E22} is right closed under E22, short of M_3
            ([Matrix.identity(3), Matrix.unit(3, 0, 1), Matrix.unit(3, 1, 0)], Matrix.unit(3, 2, 2), "not closed"),
            # x inside the span adds nothing
            ([Matrix.identity(3), Matrix.unit(3, 0, 1), Matrix.unit(3, 1, 0)], Matrix.unit(3, 0, 1), "not closed"),
            # E01 E12 = E02 is a product of two rows, which the probe never
            # forms: W stops at dimension 8
            ([Matrix.identity(3), Matrix.unit(3, 0, 1), Matrix.unit(3, 1, 2)], Matrix.unit(3, 2, 0), "not closed"),
            ([Matrix.unit(3, 0, 1)], Matrix.unit(3, 1, 2), "identity"),
        ],
        ids=["E22", "inside", "I-E01-E12", "no-identity"],
    )
    def test_a_probe_that_does_not_fill_raises(self, matrices, x, message):
        a = MatrixAlgebra(n=3, space=rref_basis([m.flatten() for m in matrices], 9))
        with pytest.raises(ValueError, match=message):
            absorption_probe(a, x)


class TestMaximalityAndOptimal:
    def test_absorbing_outside_element_reaches_full(self):
        a = parabolic_subalgebra(Composition((1, 2)))
        probe = absorption_probe(a, Matrix.unit(3, 1, 0))
        assert probe.dimension == 9

    def test_absorbing_inside_element_changes_nothing(self):
        a = parabolic_subalgebra(Composition((1, 2)))
        probe = absorption_probe(a, Matrix.unit(3, 0, 1))
        assert probe.space == a.space

    def test_absorption_random_probes(self):
        rng = random.Random(17)
        for n, parts in ((3, (1, 2)), (4, (2, 2))):
            a = parabolic_subalgebra(Composition(parts))
            for _ in range(10):
                x = random_matrix(rng, n)
                while a.contains(x):
                    x = random_matrix(rng, n)
                assert absorption_probe(a, x).dimension == n * n

    def test_optimal_composition_small_cases(self):
        argmax, best = optimal_composition(2)
        assert best == 3 and {c.parts for c in argmax} == {(1, 1)}
        argmax, best = optimal_composition(3)
        assert best == 7 and {c.parts for c in argmax} == {(1, 2), (2, 1)}

    def test_optimal_composition_matches_brute_force(self):
        for n in range(2, 9):
            argmax, best = optimal_composition(n)
            dims = {
                comp: parabolic_dimension(comp) for comp in compositions(n, min_parts=2)
            }
            brute_best = max(dims.values())
            assert best == brute_best == n * n - n + 1
            assert {c for c, d in dims.items() if d == brute_best} == argmax

    def test_optimal_composition_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            optimal_composition(1)


class TestSchur:
    def test_diagonal_bound(self):
        commutative, bound_ok = schur_commutative_check(diagonal_algebra(3))
        assert commutative and bound_ok
        # diagonal hits the bound only at n <= 3: floor(9/4)+1 = 3

    def test_noncommutative_reports_none(self):
        upper = parabolic_subalgebra(Composition((1, 1)))
        commutative, bound_ok = schur_commutative_check(upper)
        assert not commutative and bound_ok is None

    def test_extremal_commutative_at_n4(self):
        mats = [Matrix.identity(4)] + [
            Matrix.unit(4, i, j) for i in (0, 1) for j in (2, 3)
        ]
        a = algebra_from_basis(4, mats)
        commutative, bound_ok = schur_commutative_check(a)
        assert commutative and bound_ok
        assert a.dimension == 4 * 4 // 4 + 1


@st.composite
def compositions_strategy(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    parts = []
    left = n
    while left:
        p = draw(st.integers(min_value=1, max_value=left))
        parts.append(p)
        left -= p
    return Composition(tuple(parts))


class TestParabolicProperties:
    @given(compositions_strategy())
    @settings(max_examples=40, deadline=None)
    def test_dimension_matches_formula(self, comp):
        assert parabolic_subalgebra(comp).dimension == parabolic_dimension(comp)

    @given(compositions_strategy())
    @settings(max_examples=20, deadline=None)
    def test_block_pattern_is_closed(self, comp):
        a = parabolic_subalgebra(comp)
        mats = a.basis_matrices()
        for x in mats[:6]:
            for y in mats[:6]:
                assert a.contains(x * y)


_P11 = parabolic_subalgebra(Composition((1, 1)))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Composition((1, 2)).block_of(3), "index 3 out of range for n=3"),
        (lambda: list(compositions(0)), "n must be positive"),
        (lambda: closure(2, [Matrix.identity(3)]), "expected a 2x2 matrix, got 3x3"),
        (lambda: absorption_probe(_P11, Matrix.identity(3)), "expected a 2x2 matrix, got 3x3"),
        (lambda: algebra_from_basis(2, [Matrix.identity(3)]), "expected a 2x2 matrix, got 3x3"),
        (lambda: _P11.contains(Matrix([[1, 2, 3], [4, 5, 6]])), "expected a 2x2 matrix, got 2x3"),
        (
            lambda: conjugate_space(full_space(4), Matrix.identity(3)),
            "subspace ambient does not match the conjugating matrix",
        ),
        (lambda: Flag(2, ()), "a flag needs at least the full space"),
        (lambda: Flag(2, (full_space(3),)), "flag member has wrong ambient dimension"),
        (lambda: Flag(2, (zero_space(2), full_space(2))), "flag members must be nonzero"),
        (lambda: Flag(2, (full_space(2), full_space(2))), "flag dimensions must strictly increase"),
        (lambda: Flag(2, (rref_basis([[1, 0]], 2),)), "a flag must end at the full space"),
    ],
    ids=[
        "block_of", "compositions", "closure", "absorption_probe", "algebra_from_basis",
        "contains", "conjugate_space", "flag-empty", "flag-ambient", "flag-zero",
        "flag-increasing", "flag-full",
    ],
)
def test_input_checks_raise(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "value, text",
    [
        (Composition((2, 1)), "Composition((2, 1))"),
        (_P11, "MatrixAlgebra(n=2, dim=3)"),
        (rref_basis([[1, 2, 0]], 3), "Subspace(dim=1, ambient=3)"),
    ],
    ids=["Composition", "MatrixAlgebra", "Subspace"],
)
def test_repr(value, text):
    assert repr(value) == text
