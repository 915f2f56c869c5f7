"""Matrix coalgebra: comultiplication, counit, coideals, annihilator duality."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import matalg.exactlin as exactlin_module
from matalg.algebra import (
    Composition,
    absorption_probe,
    closure,
    compositions,
    conjugate,
    parabolic_subalgebra,
)
from matalg.coalgebra import (
    CoalgebraElement,
    Coideal,
    CoidealRejection,
    comultiply,
    counit,
    is_coideal,
    parabolic_coideal,
    perp,
)
from matalg.cli.suites import _unit_pattern_spaces
from matalg.exactlin import (
    Matrix,
    SpanBuilder,
    Subspace,
    _adjoin,
    _matrix_side,
    full_space,
    random_subspace,
    rref_basis,
    subspace_sum,
    zero_space,
)
from test_algebra import rational_invertible
from test_exactlin import reference_null_space, reference_reduce


def unit_span(n, positions):
    return rref_basis([Matrix.unit(n, i, j).flatten() for i, j in positions], n * n)


def reference_is_coideal(s):
    """The coideal check in the n^4 tensor space: span X (x) C + C (x) X
    from {x (x) e_q} and {e_q (x) x} and test membership of each
    comultiplied basis element.  Kept as the slow reference for the
    quotient check in `is_coideal`."""
    n = _matrix_side(s)
    n2 = n * n
    if s.dimension == 0:
        return Coideal(n=n, space=s)
    for row in s.basis:
        if counit(CoalgebraElement(n=n, coefficients=row)):
            return CoidealRejection(n=n, space=s, axiom="counit", element=row)
    mixed = SpanBuilder(n2 * n2)
    for row in s.basis:
        nonzeros = [(p, c) for p, c in enumerate(row) if c]
        for q in range(n2):
            left = [Fraction(0)] * (n2 * n2)
            for p, c in nonzeros:
                left[p * n2 + q] = c
            mixed.add(left)
            right = [Fraction(0)] * (n2 * n2)
            for p, c in nonzeros:
                right[q * n2 + p] = c
            mixed.add(right)
    for row in s.basis:
        tensor, _ = comultiply(CoalgebraElement(n=n, coefficients=row))
        if not mixed.contains(tensor):
            return CoidealRejection(
                n=n, space=s, axiom="comultiplication", element=row
            )
    return Coideal(n=n, space=s)


def fraction_coset_images(s):
    """pi(e_a) modulo s for each coordinate a, as sparse (coordinate,
    Fraction) pairs: e_a off the pivots of s, and e_p minus the basis row
    of p at a pivot p."""
    images = [[(a, Fraction(1))] for a in range(s.ambient_dim)]
    for p, row in zip(s.pivots, s.basis):
        images[p] = [(f, -c) for f, c in enumerate(row) if c and f != p]
    return images


def reference_quotient_component(tensor, images):
    """The lexicographically smallest (p, q) at which (pi (x) pi)(tensor)
    is nonzero, or None; `tensor` is a dense vector in the n^4 tensor
    coordinates and `images` come from `fraction_coset_images`."""
    n2 = len(images)
    image = {}
    for a in range(n2):
        right = {}
        for b, c in enumerate(tensor[a * n2 : (a + 1) * n2]):
            if c:
                for q, v in images[b]:
                    right[q] = right.get(q, 0) + c * v
        for p, u in images[a]:
            for q, w in right.items():
                image[p, q] = image.get((p, q), 0) + u * w
    return min((key for key, c in image.items() if c), default=None)


def reference_quotient_is_coideal(s):
    """The coideal check on `Fraction`s, through the dense n^4 tensor of
    `comultiply`: the reference for the integer route of `is_coideal`,
    which must return an equal result, component and element included."""
    n = _matrix_side(s)
    basis = s.basis
    for row in basis:
        if counit(CoalgebraElement(n=n, coefficients=row)):
            return CoidealRejection(n=n, space=s, axiom="counit", element=row)
    images = fraction_coset_images(s)
    for row in basis:
        tensor, _ = comultiply(CoalgebraElement(n=n, coefficients=row))
        component = reference_quotient_component(tensor, images)
        if component is not None:
            return CoidealRejection(
                n=n, space=s, axiom="comultiplication", element=row, component=component
            )
    return Coideal(n=n, space=s)


def verdict(result):
    return (
        result.certified,
        getattr(result, "axiom", None),
        getattr(result, "element", None),
    )


@st.composite
def traceless_spaces(draw):
    """Rational traceless subspaces at n = 2..4.  Half of the draws keep
    every vector strictly below the diagonal, where coideals are common;
    the others fix the trace through the (0, 0) entry."""
    n = draw(st.integers(2, 4))
    lower = draw(st.booleans())
    support = [
        i * n + j for i in range(n) for j in range(n) if not lower or i > j
    ]
    entry = st.one_of(
        st.just(Fraction(0)),
        st.fractions(min_value=-3, max_value=3, max_denominator=3),
    )
    vectors = []
    for _ in range(draw(st.integers(1, 4 if n == 4 else n * n - 1))):
        v = [Fraction(0)] * (n * n)
        for k in support:
            v[k] = draw(entry)
        v[0] -= sum(v[i * n + i] for i in range(n))
        vectors.append(v)
    return rref_basis(vectors, n * n)


@st.composite
def rational_traceless_spaces(draw):
    """Rational traceless subspaces at n = 2..5 whose stored denominator
    is above 1.  As in `traceless_spaces`, half of the draws stay strictly
    below the diagonal."""
    n = draw(st.integers(2, 5))
    lower = draw(st.booleans())
    support = [i * n + j for i in range(n) for j in range(n) if not lower or i > j]
    entry = st.one_of(
        st.just(Fraction(0)),
        st.fractions(min_value=-3, max_value=3, max_denominator=5),
    )
    vectors = []
    for _ in range(draw(st.integers(1, n + 1))):
        v = [Fraction(0)] * (n * n)
        for k in support:
            v[k] = draw(entry)
        v[0] -= sum(v[i * n + i] for i in range(n))
        vectors.append(v)
    s = rref_basis(vectors, n * n)
    assume(s._integer_form()[0] > 1)
    return s


@st.composite
def reduced_subspaces(draw):
    """Subspaces of Q^d, d = 1..9, built from a reduced echelon basis:
    any set of pivot columns, the empty and the full one included, and
    zero or rational entries at the free columns right of each pivot."""
    d = draw(st.integers(1, 9))
    is_pivot = draw(st.lists(st.booleans(), min_size=d, max_size=d))
    pivots = [c for c in range(d) if is_pivot[c]]
    entry = st.one_of(
        st.just(Fraction(0)),
        st.fractions(min_value=-5, max_value=5, max_denominator=6),
    )
    basis = []
    for p in pivots:
        row = [Fraction(0)] * d
        row[p] = Fraction(1)
        for f in range(p + 1, d):
            if not is_pivot[f]:
                row[f] = draw(entry)
        basis.append(row)
    return Subspace(d, basis, pivots)


def random_traceless(rng, n):
    v = [Fraction(rng.randint(-2, 2)) for _ in range(n * n)]
    v[0] -= sum(v[i * n + i] for i in range(n))
    return v


def quotient_image(s, tensor):
    """The nonzero coefficients of (pi (x) pi)(tensor), keyed by (p, q),
    with pi the residual map against s.  Each coefficient is the
    functional sum tensor[a, b] * res(e_a)[p] * res(e_b)[q], which
    vanishes on s (x) C + C (x) s."""
    n2 = s.ambient_dim
    res = [
        reference_reduce([int(a == k) for k in range(n2)], zip(s.pivots, s.basis))
        for a in range(n2)
    ]
    image = {}
    for k, c in enumerate(tensor):
        if c:
            a, b = divmod(k, n2)
            for p in range(n2):
                for q in range(n2):
                    image[p, q] = image.get((p, q), 0) + c * res[a][p] * res[b][q]
    return {key: c for key, c in image.items() if c}


class TestComultiplication:
    def test_unit_formula_n2(self):
        # e_{0,1} splits as e_{0,0} (x) e_{0,1} + e_{0,1} (x) e_{1,1}
        tensor, eps = comultiply(CoalgebraElement.from_matrix(Matrix.unit(2, 0, 1)))
        nonzero = {i: v for i, v in enumerate(tensor) if v}
        assert nonzero == {1: Fraction(1), 7: Fraction(1)}
        assert eps == 0

    def test_unit_formula_general(self):
        n = 3
        tensor, eps = comultiply(CoalgebraElement.from_matrix(Matrix.unit(n, 1, 2)))
        expected = {}
        for k in range(n):
            expected[(1 * n + k) * n * n + (k * n + 2)] = Fraction(1)
        assert {i: v for i, v in enumerate(tensor) if v} == expected
        assert eps == 0

    def test_counit_is_trace(self):
        assert counit(CoalgebraElement.from_matrix(Matrix.unit(2, 0, 0))) == 1
        assert counit(CoalgebraElement.from_matrix(Matrix.unit(2, 0, 1))) == 0
        m = CoalgebraElement.from_matrix(Matrix([[1, 2], [3, 4]]))
        assert counit(m) == 5

    def test_counit_axiom_left(self):
        # contracting the left tensor factor with the counit gives back x
        n = 3
        rng = random.Random(8)
        for _ in range(5):
            coeffs = tuple(Fraction(rng.randint(-4, 4)) for _ in range(n * n))
            x = CoalgebraElement(n, coeffs)
            tensor, _ = comultiply(x)
            contracted = [Fraction(0)] * (n * n)
            for left in range(n * n):
                # counit of e_left is 1 exactly on diagonal units
                if left // n == left % n:
                    for right in range(n * n):
                        contracted[right] += tensor[left * n * n + right]
            assert tuple(contracted) == coeffs

    def test_counit_axiom_right(self):
        n = 3
        rng = random.Random(9)
        for _ in range(5):
            coeffs = tuple(Fraction(rng.randint(-4, 4)) for _ in range(n * n))
            tensor, _ = comultiply(CoalgebraElement(n, coeffs))
            contracted = [Fraction(0)] * (n * n)
            for right in range(n * n):
                if right // n == right % n:
                    for left in range(n * n):
                        contracted[left] += tensor[left * n * n + right]
            assert tuple(contracted) == coeffs

    def test_element_roundtrip(self):
        m = Matrix([[1, 2], [3, 4]])
        assert CoalgebraElement.from_matrix(m).to_matrix() == m

    def test_element_validation(self):
        with pytest.raises(ValueError):
            CoalgebraElement(2, (Fraction(1),))


class TestCoidealCheck:
    def test_zero_space_certifies(self):
        result = is_coideal(zero_space(9))
        assert isinstance(result, Coideal)
        assert result.certified and result.dimension == 0

    def test_single_lower_unit_n2(self):
        result = is_coideal(unit_span(2, [(1, 0)]))
        assert isinstance(result, Coideal)

    def test_single_lower_unit_n3_rejected(self):
        # the same corner unit fails at n = 3: its middle comultiplication
        # term e_{1,0} (x) e_{0,0} + ... escapes X (x) C + C (x) X
        result = is_coideal(unit_span(3, [(1, 0)]))
        assert isinstance(result, CoidealRejection)
        assert result.axiom == "comultiplication"
        assert result.element is not None

    def test_diagonal_unit_fails_counit(self):
        result = is_coideal(unit_span(2, [(0, 0)]))
        assert isinstance(result, CoidealRejection)
        assert result.axiom == "counit"
        # the offending element is reported
        assert counit(CoalgebraElement(2, result.element)) != 0

    def test_traceless_but_not_coideal(self):
        # span{e_{0,1} + e_{1,0}} at n = 2: counit fine, comultiplication not
        m = Matrix.unit(2, 0, 1) + Matrix.unit(2, 1, 0)
        result = is_coideal(rref_basis([m.flatten()], 4))
        assert isinstance(result, CoidealRejection)
        assert result.axiom == "comultiplication"

    def test_full_lower_corner_certifies(self):
        result = is_coideal(unit_span(3, [(1, 0), (2, 0)]))
        assert isinstance(result, Coideal)

    def test_rejection_element_lies_in_space(self):
        s = unit_span(3, [(1, 0)])
        result = is_coideal(s)
        assert s.contains(result.element)

    @pytest.mark.parametrize(
        "rows, axiom",
        [
            # e_{1,0} + e_{2,1}/3 is traceless, e_{2,0} + e_{2,2}/2 is not
            ([[(1, 0, 1), (2, 1, Fraction(1, 3))], [(2, 0, 1), (2, 2, Fraction(1, 2))]], "counit"),
            # e_{1,0}/2 passes, e_{1,2} + e_{2,1}/2 breaks at (1, 1) (x) (2, 1)
            (
                [[(1, 0, Fraction(1, 2))], [(2, 0, 1)], [(1, 2, 1), (2, 1, Fraction(1, 2))]],
                "comultiplication",
            ),
        ],
        ids=["counit", "comultiplication"],
    )
    def test_rejection_element_is_the_failing_basis_row(self, rows, axiom):
        vectors = []
        for terms in rows:
            v = [Fraction(0)] * 9
            for i, j, c in terms:
                v[i * 3 + j] = Fraction(c)
            vectors.append(v)
        s = rref_basis(vectors, 9)
        assert s._integer_form()[0] > 1
        result = is_coideal(s)
        assert result.axiom == axiom
        assert result.element == s.basis[1]
        assert all(type(e) is Fraction for e in result.element)
        assert result == reference_quotient_is_coideal(s)


class TestPerp:
    def test_upper_triangular_annihilator(self):
        p = perp(parabolic_subalgebra(Composition((1, 1))).space)
        assert p == unit_span(2, [(1, 0)])

    def test_zero_and_full(self):
        assert perp(zero_space(4)).dimension == 4
        assert perp(rref_basis([Matrix.unit(2, i, j).flatten() for i in range(2) for j in range(2)], 4)).dimension == 0

    def test_involution(self):
        rng = random.Random(13)
        for _ in range(10):
            dim = rng.randint(0, 9)
            s = random_subspace(rng, 9, dim)
            assert perp(perp(s)) == s

    def test_dimension_complement(self):
        rng = random.Random(14)
        for _ in range(10):
            dim = rng.randint(0, 9)
            s = random_subspace(rng, 9, dim)
            assert perp(s).dimension == 9 - dim

    def test_algebra_annihilators_are_coideals(self):
        for parts in ((1, 2), (2, 1), (1, 1, 1), (3,)):
            a = parabolic_subalgebra(Composition(parts))
            assert is_coideal(perp(a.space)).certified

    @given(reduced_subspaces())
    @example(zero_space(9))
    @example(full_space(9))
    @settings(max_examples=80, deadline=None)
    def test_matches_the_fraction_null_space(self, s):
        kernel = perp(s)
        assert (kernel.basis, kernel.pivots) == reference_null_space(s.basis, s.ambient_dim)
        assert perp(kernel) == s

    def test_adjoins_only_the_kernel_vectors(self, monkeypatch):
        # the stored rows of s are reduced already: perp adjoins the
        # n^2 - d kernel vectors and nothing else
        calls = []

        def counting(rows, residual, den=1):
            calls.append(len(rows))
            return _adjoin(rows, residual, den)

        rng = random.Random(61)
        spaces = [zero_space(9), full_space(16), unit_span(3, [(1, 0), (2, 0)])]
        for n in (2, 3, 4):
            spaces += [perp(x) for x in conjugated_parabolic_annihilators(n, rng)]
        spaces += [random_subspace(rng, 9, dim) for dim in range(10)]
        monkeypatch.setattr(exactlin_module, "_adjoin", counting)
        for s in spaces:
            calls.clear()
            assert perp(s).dimension == s.ambient_dim - s.dimension
            assert len(calls) <= s.ambient_dim - s.dimension

    def test_non_coideal_annihilator_of_non_algebra(self):
        # perp of a span that is no algebra need not certify
        s = unit_span(3, [(0, 1), (1, 2)])
        result = is_coideal(perp(s))
        assert isinstance(result, CoidealRejection)


class TestParabolicCoideal:
    def test_type_1_2_is_lower_corner(self):
        c = parabolic_coideal(Composition((1, 2)))
        assert isinstance(c, Coideal)
        assert c.space == unit_span(3, [(1, 0), (2, 0)])

    def test_dimension_series(self):
        for n in range(2, 7):
            c = parabolic_coideal(Composition((1, n - 1)))
            assert c.dimension == n - 1

    def test_duality_with_parabolic_algebra(self):
        for parts in ((1, 2), (2, 1), (1, 1, 1), (2, 2)):
            comp = Composition(parts)
            c = parabolic_coideal(comp)
            a = parabolic_subalgebra(comp)
            assert c.space == perp(a.space)
            assert perp(c.space) == a.space

    def test_one_block_type_gives_zero_coideal(self):
        assert parabolic_coideal(Composition((3,))).dimension == 0

    @pytest.mark.parametrize("n", range(1, 7))
    def test_is_the_block_lower_unit_pattern(self, n):
        for comp in compositions(n):
            blocks = [comp.block_of(i) for i in range(n)]
            lower = [(i, j) for i in range(n) for j in range(n) if blocks[i] > blocks[j]]
            assert parabolic_coideal(comp).space == unit_span(n, lower)

    def test_general_dimension(self):
        # complement of the block pattern: (n^2 - sum n_i^2)/2
        for parts in ((2, 2), (1, 1, 2), (3, 1)):
            comp = Composition(parts)
            expected = (comp.n**2 - sum(p * p for p in parts)) // 2
            assert parabolic_coideal(comp).dimension == expected


class TestQuotientCheck:
    """`is_coideal` against the tensor-span reference and against duality."""

    @given(traceless_spaces())
    @settings(max_examples=60, deadline=None)
    def test_matches_tensor_span_reference(self, s):
        assert verdict(is_coideal(s)) == verdict(reference_is_coideal(s))

    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_reference_on_every_unit_pattern(self, n):
        positions = [(i, j) for i in range(n) for j in range(n)]
        for s in _unit_pattern_spaces(n, positions):
            assert verdict(is_coideal(s)) == verdict(reference_is_coideal(s))

    @pytest.mark.parametrize("n", [3, 4])
    def test_matches_duality_oracle(self, n):
        # X is a coideal iff perp(X) is a unital subalgebra: it holds the
        # identity (the counit is the trace) and is closed under products
        rng = random.Random(20 + n)
        verdicts = set()
        for _ in range(12):
            gens = [
                Matrix.from_flat(
                    [rng.choice((0, 0, 0, 0, 1, -1)) for _ in range(n * n)], n
                )
                for _ in range(rng.randint(1, 2))
            ]
            x = perp(closure(n, gens).space)
            v = random_traceless(rng, n)
            for s in (x, subspace_sum(x, rref_basis([v], n * n))):
                p = perp(s)
                oracle = p.contains(Matrix.identity(n).flatten()) and (
                    closure(n, p.basis_matrices(n)).space == p
                )
                assert is_coideal(s).certified == oracle
                verdicts.add(oracle)
        assert verdicts == {True, False}


def conjugated_parabolic_annihilators(n, rng):
    """perp of each block upper-triangular algebra at n, conjugated by a
    seeded invertible matrix with rational entries."""
    for comp in compositions(n):
        c = rational_invertible(rng, n)
        yield perp(conjugate(parabolic_subalgebra(comp), c).space)


def random_closure_annihilators(n, rng, count):
    """perp of the closures of one or two seeded sparse integer
    matrices, conjugated by a seeded rational matrix."""
    for _ in range(count):
        gens = [
            Matrix.from_flat([rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(n * n)], n)
            for _ in range(rng.randint(1, 2))
        ]
        c = rational_invertible(rng, n)
        yield perp(conjugate(closure(n, gens), c).space)


class TestIntegerRoute:
    """`is_coideal` against the `Fraction` route through `comultiply`:
    the whole result must be equal, not only the verdict."""

    @given(rational_traceless_spaces())
    @settings(max_examples=80, deadline=None)
    def test_matches_fraction_route_on_rational_spaces(self, s):
        assert is_coideal(s) == reference_quotient_is_coideal(s)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_fraction_route_on_annihilators(self, n):
        # annihilators of unital subalgebras certify; adding a traceless
        # vector to one mostly breaks it, through some component
        rng = random.Random(70 + n)
        spaces = list(conjugated_parabolic_annihilators(n, rng))
        spaces += random_closure_annihilators(n, rng, 6)
        spaces += [subspace_sum(x, rref_basis([random_traceless(rng, n)], n * n)) for x in spaces]
        results = []
        for s in spaces:
            result = is_coideal(s)
            assert result == reference_quotient_is_coideal(s)
            results.append(result)
        assert any(r.certified and r.space._integer_form()[0] > 1 for r in results)
        assert any(not r.certified and r.component is not None for r in results)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_fraction_route_on_zero_and_full_space(self, n):
        for s in (zero_space(n * n), full_space(n * n)):
            assert is_coideal(s) == reference_quotient_is_coideal(s)
        assert is_coideal(zero_space(n * n)).certified
        assert is_coideal(full_space(n * n)).axiom == "counit"


class TestRejectionComponent:
    def test_counit_rejection_has_no_component(self):
        assert is_coideal(unit_span(2, [(0, 0)])).component is None

    def test_component_is_smallest_nonzero_quotient_coefficient(self):
        rng = random.Random(31)
        off_diagonal = [(i, j) for i in range(3) for j in range(3) if i != j]
        spaces = list(_unit_pattern_spaces(3, off_diagonal))
        for d in (1, 2, 3, 4):
            spaces.append(rref_basis([random_traceless(rng, 3) for _ in range(d)], 9))
        rejected = 0
        for s in spaces:
            result = is_coideal(s)
            if result.certified or result.axiom != "comultiplication":
                continue
            rejected += 1
            tensor, _ = comultiply(CoalgebraElement(3, result.element))
            image = quotient_image(s, tensor)
            assert result.component == min(image)
            p, q = result.component
            assert p not in s.pivots and q not in s.pivots
        assert rejected > 0

    def test_component_functional_vanishes_on_mixed_tensors(self):
        s = unit_span(3, [(1, 0)])
        result = is_coideal(s)
        assert result.component is not None
        x = result.element
        for q in range(9):
            left = [Fraction(0)] * 81
            right = [Fraction(0)] * 81
            for p, c in enumerate(x):
                left[p * 9 + q] = c
                right[q * 9 + p] = c
            assert quotient_image(s, left) == {}
            assert quotient_image(s, right) == {}
        tensor, _ = comultiply(CoalgebraElement(3, x))
        assert quotient_image(s, tensor)[result.component] != 0


class TestScalingProbes:
    """Wider than the verification suites, which keep their ranges."""

    def test_off_diagonal_unit_patterns_n4(self):
        n = 4
        positions = [(i, j) for i in range(n) for j in range(n) if i != j]
        dims = [
            s.dimension
            for s in _unit_pattern_spaces(n, positions)
            if is_coideal(s).certified
        ]
        assert min(dims) == n - 1

    def test_two_block_sub_patterns_n5(self):
        n = 5
        candidates = 0
        for left in range(1, n):
            comp = Composition((left, n - left))
            positions = [
                (i, j)
                for i in range(n)
                for j in range(n)
                if comp.block_of(i) > comp.block_of(j)
            ]
            for s in _unit_pattern_spaces(n, positions):
                if s.dimension == len(positions):
                    continue
                candidates += 1
                assert not is_coideal(s).certified
        assert candidates == 152

    @pytest.mark.parametrize("n", [5, 6])
    def test_parabolic_coideal_dimension_every_composition(self, n):
        for comp in compositions(n):
            expected = (n * n - sum(c * c for c in comp.parts)) // 2
            assert parabolic_coideal(comp).dimension == expected

    @pytest.mark.parametrize("parts", [(1, 5), (5, 1), (3, 3)])
    def test_two_block_absorption_n6(self, parts):
        # the paper's maximality theorem at n = 6: any x outside the
        # two-block algebra generates all of M_6 with it
        a = parabolic_subalgebra(Composition(parts))
        x = Matrix.unit(6, 5, 0) + Matrix.unit(6, 2, 4) * 3 - Matrix.unit(6, 1, 1)
        assert not a.contains(x)
        assert absorption_probe(a, x).dimension == 36


def test_input_checks_raise():
    with pytest.raises(ValueError) as exc:
        CoalgebraElement.from_matrix(Matrix([[1, 2, 3], [4, 5, 6]]))
    assert str(exc.value) == "coalgebra elements come from square matrices"
