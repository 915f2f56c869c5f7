"""Nil subspaces: symbolic certification, witnesses, triangularization."""

import collections
import itertools
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matalg.algebra as algebra_module
import matalg.nilpotent as nilpotent_module
from matalg.algebra import conjugate_space, radical
from matalg.cli.suites import corpus_algebras
from matalg.exactlin import (
    Matrix,
    SpanBuilder,
    Subspace,
    _primitive,
    full_space,
    random_invertible,
    random_subspace,
    rref_basis,
    subspace_sum,
    zero_space,
)
from matalg.nilpotent import (
    ALL_NILPOTENT,
    UNDETERMINED,
    WITNESS_FOUND,
    PowerReport,
    _exponents,
    _square_trace,
    _trace_polynomials,
    is_nil_subspace,
    nil_bound,
    strictly_upper_space,
    triangularize_nil,
)
from test_algebra import (
    conjugated_types,
    null_space_kernel_flag,
    reference_flag_basis,
    reversed_flag,
)
from test_exactlin import joint_kernel, reference_product, solve_linear


def unit_span(n, positions):
    return rref_basis([Matrix.unit(n, i, j).flatten() for i, j in positions], n * n)


def nil_non_triangularizable_span():
    """span{e_{1,0} + e_{2,1}, e_{1,2} - e_{0,1}} in M_3: nil, but the
    algebra it generates is not nilpotent, so its kernel flag stops short
    of Q^3."""
    a = Matrix.unit(3, 1, 0) + Matrix.unit(3, 2, 1)
    b = Matrix.unit(3, 1, 2) - Matrix.unit(3, 0, 1)
    return rref_basis([a.flatten(), b.flatten()], 9)


class TestNilCertification:
    def test_strictly_upper_is_all_nilpotent(self):
        # at n = 2 the powers 1 and 2 decide everything; from n = 3 the
        # kernel flag proves the space nil after them
        cert = is_nil_subspace(strictly_upper_space(2))
        assert cert.verdict == ALL_NILPOTENT
        assert cert.witness is None and cert.conjugator is None
        assert [r.power for r in cert.checked_powers] == [1, 2]
        assert all(r.vanished for r in cert.checked_powers)
        for n in (3, 4):
            upper = strictly_upper_space(n)
            cert = is_nil_subspace(upper)
            assert cert.verdict == ALL_NILPOTENT
            assert cert.witness is None
            assert [r.power for r in cert.checked_powers] == [1, 2]
            assert all(r.vanished for r in cert.checked_powers)
            assert cert.conjugator == triangularize_nil(upper)
            assert conjugate_space(upper, cert.conjugator) == upper

    def test_zero_space_is_nil(self):
        assert is_nil_subspace(zero_space(9)).verdict == ALL_NILPOTENT

    def test_symmetric_pair_has_witness(self):
        # e_{0,1} + e_{1,0} squares to the identity; the span is traceless,
        # so the witness comes from the expansion of Tr(X^2)
        s = unit_span(2, [(0, 1), (1, 0)])
        cert = is_nil_subspace(s)
        assert cert.verdict == WITNESS_FOUND
        assert [r.vanished for r in cert.checked_powers] == [True, False]
        w = cert.witness
        assert s.contains(w.flatten())
        assert any((w**k).trace() != 0 for k in range(1, 3))

    def test_a_basis_trace_witness_is_the_first_basis_matrix_of_nonzero_trace(self, monkeypatch):
        rng = random.Random(31)
        spaces = [random_subspace(rng, n * n, d) for n in (2, 3, 4) for d in (1, 3, n * n - 1)]
        spaces.append(rref_basis([Matrix.unit(3, 0, 1).flatten(), Matrix.unit(3, 2, 2).flatten()], 9))
        expected = []
        for s in spaces:
            n = math.isqrt(s.ambient_dim)
            expected.append(next((b for b in s.basis_matrices(n) if b.trace()), None))
        assert sum(e is not None for e in expected) > len(spaces) // 2
        # the traces are read off the stored rows: no basis matrix is built
        monkeypatch.setattr(Subspace, "basis_matrices", None)
        for s, witness in zip(spaces, expected):
            if witness is not None:
                cert = is_nil_subspace(s)
                assert cert.witness == witness
                assert [(r.power, r.vanished) for r in cert.checked_powers] == [(1, False)]

    def test_identity_span_has_witness(self):
        s = rref_basis([Matrix.identity(3).flatten()], 9)
        cert = is_nil_subspace(s)
        assert cert.verdict == WITNESS_FOUND

    def test_witness_is_certified_non_nilpotent(self):
        s = unit_span(3, [(0, 1), (1, 0), (1, 2)])
        cert = is_nil_subspace(s)
        assert cert.verdict == WITNESS_FOUND
        w = cert.witness
        assert any((w**k).trace() != 0 for k in range(1, 4))

    def test_budget_exhaustion_is_undetermined(self):
        # nil, but its kernel flag stops short, so only the expansion decides
        s = nil_non_triangularizable_span()
        assert triangularize_nil(s) is None
        cert = is_nil_subspace(s, budget=2)
        assert cert.verdict == UNDETERMINED
        assert cert.witness is None and cert.conjugator is None
        assert [(r.power, r.vanished) for r in cert.checked_powers] == [(1, True), (2, True)]

    def test_budget_counts_monomials(self):
        # d = 2 at n = 3: C(2, 1) + C(3, 2) + C(4, 3) = 2 + 3 + 4 monomials
        s = nil_non_triangularizable_span()
        cert = is_nil_subspace(s, budget=9)
        assert cert.verdict == ALL_NILPOTENT and cert.conjugator is None
        assert [r.monomial_count for r in cert.checked_powers] == [2, 3, 4]
        assert is_nil_subspace(s, budget=8).verdict == UNDETERMINED

    def test_flag_certifies_over_budget(self):
        s = conjugate_space(strictly_upper_space(3), random_invertible(random.Random(3), 3))
        cert = is_nil_subspace(s, budget=0)
        assert cert.verdict == ALL_NILPOTENT
        assert cert.conjugator is not None

    def test_witness_stops_at_first_nonzero_power(self):
        # the traceless diagonal diag(1, -1, 0) has Tr(x^2) = 2
        s = rref_basis([Matrix([[1, 0, 0], [0, -1, 0], [0, 0, 0]]).flatten()], 9)
        cert = is_nil_subspace(s)
        assert cert.checked_powers == (PowerReport(1, 1, True), PowerReport(2, 1, False))
        assert (cert.witness**2).trace() != 0

    def test_nonzero_basis_trace_decides_before_the_word_walk(self):
        # d = 7 in M_4: the expansion would reach 7 + 28 + 84 + 210 monomials
        s = random_subspace(random.Random(0), 16, 7)
        cert = is_nil_subspace(s)
        assert cert.verdict == WITNESS_FOUND
        assert cert.checked_powers == (PowerReport(1, 7, False),)
        assert s.contains(cert.witness.flatten())
        assert cert.witness.trace() != 0

    def test_nonzero_basis_trace_decides_over_budget(self):
        s = rref_basis([Matrix.identity(3).flatten()], 9)
        cert = is_nil_subspace(s, budget=0)
        assert cert.verdict == WITNESS_FOUND
        assert cert.checked_powers == (PowerReport(1, 1, False),)

    def test_monomial_counts_are_reported(self):
        s = unit_span(2, [(0, 1)])
        cert = is_nil_subspace(s)
        # one spanning element: one distinct monomial per power
        assert [r.monomial_count for r in cert.checked_powers] == [1, 1]

    def test_nilpotent_non_triangular_span(self):
        # [[1,-1],[1,-1]] squares to zero but is not triangular
        m = Matrix([[1, -1], [1, -1]])
        s = rref_basis([m.flatten()], 4)
        assert is_nil_subspace(s).verdict == ALL_NILPOTENT

    def test_bound_values(self):
        assert [nil_bound(n) for n in (2, 3, 4, 5)] == [1, 3, 6, 10]


class TestWitnessSearch:
    def test_finds_witness_in_mixed_span(self):
        s = unit_span(2, [(0, 1), (1, 0)])
        cert = is_nil_subspace(s)
        assert cert.verdict == WITNESS_FOUND
        w = cert.witness
        assert s.contains(w.flatten())
        assert any((w**k).trace() != 0 for k in range(1, 3))

    def test_none_on_nil_space(self):
        cert = is_nil_subspace(strictly_upper_space(3))
        assert cert.verdict == ALL_NILPOTENT and cert.witness is None

    def test_none_on_zero_space(self):
        cert = is_nil_subspace(zero_space(4))
        assert cert.verdict == ALL_NILPOTENT and cert.witness is None


class TestTriangularize:
    def test_already_upper(self):
        s = strictly_upper_space(3)
        c = triangularize_nil(s)
        assert c is not None
        assert conjugate_space(s, c) == s

    def test_lower_triangular_flips(self):
        n = 3
        lower = unit_span(n, [(i, j) for i in range(n) for j in range(n) if i > j])
        c = triangularize_nil(lower)
        assert c is not None
        moved = conjugate_space(lower, c)
        assert moved == strictly_upper_space(n)

    def test_conjugated_extremal_spaces_come_back(self):
        rng = random.Random(31)
        for n in (2, 3, 4):
            upper = strictly_upper_space(n)
            for _ in range(5):
                g = random_invertible(rng, n)
                moved = conjugate_space(upper, g)
                c = triangularize_nil(moved)
                assert c is not None
                assert conjugate_space(moved, c) == upper

    def test_result_is_strictly_upper_even_partial(self):
        # a single nilpotent unit inside M_3
        s = unit_span(3, [(2, 0)])
        c = triangularize_nil(s)
        assert c is not None
        for vec in conjugate_space(s, c).basis:
            m = Matrix.from_flat(vec, 3)
            for i in range(3):
                for j in range(i + 1):
                    assert m[i, j] == 0

    def test_non_nil_space_returns_none(self):
        assert triangularize_nil(rref_basis([Matrix.identity(2).flatten()], 4)) is None

    def test_non_nilpotent_algebra_span_returns_none(self):
        # e_{0,1} and e_{1,0} generate all of M_2; no common triangular form
        s = unit_span(2, [(0, 1), (1, 0)])
        assert triangularize_nil(s) is None

    def test_zero_space_identity_conjugator(self):
        assert triangularize_nil(zero_space(4)) == Matrix.identity(2)


def multiply_spaces(x, y, n):
    """The span of all products a b with a in x and b in y, subspaces of
    the flattened n x n matrices."""
    builder = SpanBuilder(n * n)
    ymats = y.basis_matrices(n)
    for a in x.basis_matrices(n):
        for b in ymats:
            builder.add((a * b)._integer_form()[1])
    return builder.to_subspace()


def test_multiply_spaces():
    left = rref_basis([Matrix.unit(2, 0, 1).flatten()], 4)
    right = rref_basis([Matrix.unit(2, 1, 0).flatten()], 4)
    assert multiply_spaces(left, right, 2) == rref_basis([Matrix.unit(2, 0, 0).flatten()], 4)


def reference_triangularize_nil(s, n):
    """The conjugator through the powers of the generated algebra: close
    the subspace under products (no identity adjoined), take the powers
    N, N^2, ... (None when N^n != 0), read the `Fraction` adapted basis
    of the joint kernels of the nonzero powers (`reference_flag_basis`)
    and invert it.  Kept as the reference for the kernel flag built from
    the basis in `triangularize_nil`."""
    generated = s
    for _ in range(n * n):
        grown = subspace_sum(generated, multiply_spaces(generated, generated, n))
        if grown == generated:
            break
        generated = grown
    powers = [generated]
    while powers[-1].dimension:
        if len(powers) == n:
            return None
        powers.append(multiply_spaces(powers[-1], generated, n))
    kernels = [joint_kernel(p.basis_matrices(n), n) for p in powers[:-1]]
    return reference_flag_basis(kernels + [full_space(n)], n)[0].inverse()


def expected_conjugator(s, n):
    """The inverse of the `Fraction` adapted basis of the kernel flag by
    joint kernels, or None when the flag stops short of Q^n."""
    flag = null_space_kernel_flag(s.basis_matrices(n), n)
    return None if flag is None else reference_flag_basis(flag, n)[0].inverse()


class TestTriangularizeReference:
    def test_matches_reference_on_conjugated_upper_spaces(self):
        # random spans of strictly upper matrices, half of them with one
        # lower unit added, conjugated by seeded invertibles
        rng = random.Random(59)
        verdicts = set()
        for n in range(1, 6):
            upper = [Matrix.unit(n, i, j) for i in range(n) for j in range(i + 1, n)]
            for trial in range(8):
                vecs = [
                    sum((rng.randint(-2, 2) * u for u in upper), Matrix.zeros(n)).flatten()
                    for _ in range(rng.randint(0, len(upper)))
                ]
                if trial % 2 and n > 1:
                    i = rng.randrange(1, n)
                    vecs.append(Matrix.unit(n, i, rng.randrange(i)).flatten())
                s = conjugate_space(rref_basis(vecs, n * n), random_invertible(rng, n))
                expected = reference_triangularize_nil(s, n)
                assert triangularize_nil(s) == expected
                verdicts.add(expected is None)
        assert verdicts == {True, False}

    def test_matches_reference_on_the_symmetric_pair(self):
        s = unit_span(2, [(0, 1), (1, 0)])
        assert reference_triangularize_nil(s, 2) is None
        assert triangularize_nil(s) is None


class TestTriangularizeConjugator:
    """The conjugator of `triangularize_nil` against the inverse of the
    `Fraction` adapted basis of the kernel flag, and its check.  On the
    inputs of `TestTriangularizeReference` the reference already inverts
    `reference_flag_basis`."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_reference_on_corpus_radicals(self, n):
        for _, a in corpus_algebras(n, seed=7):
            rad = radical(a)
            c = triangularize_nil(rad)
            assert c is not None and c == expected_conjugator(rad, n)

    def test_matches_reference_on_conjugated_types(self):
        for comp, a in conjugated_types(5, random.Random(47)):
            rad = radical(a)
            assert triangularize_nil(rad) == expected_conjugator(rad, comp.n)

    def test_tampered_adapted_basis_raises(self, monkeypatch):
        s = conjugate_space(strictly_upper_space(3), random_invertible(random.Random(5), 3))
        assert triangularize_nil(s) is not None
        monkeypatch.setattr(nilpotent_module, "_kernel_flag", reversed_flag(nilpotent_module._kernel_flag))
        with pytest.raises(RuntimeError, match="adapted basis"):
            triangularize_nil(s)

    def test_builds_no_strictly_upper_space(self, monkeypatch):
        # the check takes the strictly upper cells, so no span is built
        s = conjugate_space(strictly_upper_space(4), random_invertible(random.Random(9), 4))
        expected = expected_conjugator(s, 4)
        monkeypatch.setattr(nilpotent_module, "strictly_upper_space", lambda n: pytest.fail("built the span"))
        monkeypatch.setattr(nilpotent_module, "_unit_span", lambda n, positions: pytest.fail("built a unit span"))
        assert triangularize_nil(s) == expected

    @pytest.mark.parametrize("dim", [2, 6])
    def test_spans_grow_only_in_the_chain_and_the_inverse(self, dim, monkeypatch):
        # a conjugated plane of strictly upper matrices, and the whole
        # strictly upper space, at n = 4: the adapted basis is read off the
        # chain's echelon rows, so no span is grown for it, and the one
        # inverse adds its n rows
        n = 4
        rng = random.Random(61)
        upper = [Matrix.unit(n, i, j) for i in range(n) for j in range(i + 1, n)]
        vecs = [sum((rng.randint(-2, 2) * u for u in upper), Matrix.zeros(n)).flatten() for _ in range(dim)]
        space = rref_basis(vecs, n * n)
        assert space.dimension == dim
        s = conjugate_space(space, random_invertible(rng, n))
        callers = []
        add = SpanBuilder._add_integers

        def recording_add(builder, vec):
            # _add_integers <- SpanBuilder._spanning <- its caller
            callers.append(sys._getframe(2).f_code)
            return add(builder, vec)

        monkeypatch.setattr(SpanBuilder, "_add_integers", recording_add)
        assert triangularize_nil(s) is not None
        counts = collections.Counter(callers)
        assert set(counts) == {algebra_module._kernel_flag.__code__, Matrix.inverse.__code__}
        assert counts[Matrix.inverse.__code__] == n


class TestTriangularizeLarge:
    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_conjugated_strictly_upper_spaces_become_strictly_upper(self, n):
        # the whole strictly upper space and a span of three random
        # combinations of its units, each conjugated by a seeded invertible;
        # c^-1 and every product are formed on Fractions
        rng = random.Random(200 + n)
        upper = [Matrix.unit(n, i, j) for i in range(n) for j in range(i + 1, n)]
        combinations = [
            sum((rng.randint(-2, 2) * u for u in upper), Matrix.zeros(n)).flatten() for _ in range(3)
        ]
        for space in (strictly_upper_space(n), rref_basis(combinations, n * n)):
            s = conjugate_space(space, random_invertible(rng, n))
            c = triangularize_nil(s)
            assert c is not None
            columns = [solve_linear(c, [int(i == j) for i in range(n)]) for j in range(n)]
            cinv = Matrix(list(zip(*columns)))
            for vec in s.basis:
                x = Matrix([vec[i * n : (i + 1) * n] for i in range(n)])
                moved = reference_product(Matrix(reference_product(c, x)), cinv)
                assert all(moved[i][j] == 0 for i in range(n) for j in range(i + 1))


def reference_is_nil_subspace(s, n):
    """The powers k <= n at which Tr((t_1 b_1 + ... + t_d b_d)^k) is a
    nonzero polynomial, by the word walk: a depth-first walk over all
    basis words of length <= n with Fraction products (zero running
    products pruned), adding each word's trace to the coefficient of its
    sorted letters.  The subspace is nil iff the set is empty.  Kept as
    the reference for the integer expansion in `is_nil_subspace`."""
    basis = s.basis_matrices(n)
    coefficients = {}

    def walk(product, word):
        tr = product.trace()
        if tr:
            key = (len(word), tuple(sorted(word)))
            coefficients[key] = coefficients.get(key, 0) + tr
        if len(word) == n:
            return
        for i, b in enumerate(basis):
            nxt = product * b
            if not nxt.is_zero():
                walk(nxt, word + (i,))

    for i, b in enumerate(basis):
        if not b.is_zero():
            walk(b, (i,))
    return {k for (k, _), value in coefficients.items() if value}


def assert_matches_reference(s, n):
    """Same verdict as the word walk, and a witness reported at the first
    power the walk finds nonzero; returns the verdict."""
    nonzero = reference_is_nil_subspace(s, n)
    cert = is_nil_subspace(s)
    if nonzero:
        assert cert.verdict == WITNESS_FOUND
        assert cert.checked_powers[-1].power == min(nonzero)
    else:
        assert cert.verdict == ALL_NILPOTENT
    return cert.verdict


def unit_patterns(n):
    """The span of every nonempty set of matrix units of M_n."""
    positions = [(i, j) for i in range(n) for j in range(n)]
    for mask in range(1, 1 << len(positions)):
        yield unit_span(n, [p for k, p in enumerate(positions) if mask >> k & 1])


def upper_spans(rng, n, count):
    """`count` spans of 1..3 random integer combinations of the strictly
    upper units, every other one with a lower unit added, conjugated by
    seeded invertibles."""
    upper = [Matrix.unit(n, i, j) for i in range(n) for j in range(i + 1, n)]
    for trial in range(count):
        vecs = [
            sum((rng.randint(-2, 2) * u for u in upper), Matrix.zeros(n)).flatten()
            for _ in range(rng.randint(1, 3))
        ]
        if trial % 2:
            i = rng.randrange(1, n)
            vecs.append(Matrix.unit(n, i, rng.randrange(i)).flatten())
        yield conjugate_space(rref_basis(vecs, n * n), random_invertible(rng, n))


rationals = st.fractions(min_value=-2, max_value=2, max_denominator=4)


@st.composite
def traceless_rational_spaces(draw):
    """(n, span) of 1..3 traceless rational n x n matrices, n = 2, 3.
    When `upper`, only strictly upper entries are drawn, so the span is
    nil, and it is conjugated by a seeded invertible."""
    n = draw(st.integers(2, 3))
    upper = draw(st.booleans())
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        m = [draw(rationals) if i < j or not upper else Fraction(0) for i in range(n) for j in range(n)]
        m[-1] -= sum(m[i * n + i] for i in range(n))
        rows.append(m)
    s = rref_basis(rows, n * n)
    if upper:
        s = conjugate_space(s, random_invertible(random.Random(draw(st.integers(0, 99))), n))
    return n, s


class TestNilReference:
    def test_matches_reference_on_every_unit_pattern(self):
        verdicts = set()
        for n in (1, 2, 3):
            for s in unit_patterns(n):
                verdicts.add(assert_matches_reference(s, n))
        assert verdicts == {ALL_NILPOTENT, WITNESS_FOUND}

    def test_matches_reference_on_conjugated_upper_spaces(self):
        rng = random.Random(61)
        verdicts = set()
        for n in range(2, 6):
            for s in upper_spans(rng, n, 8):
                verdicts.add(assert_matches_reference(s, n))
        assert verdicts == {ALL_NILPOTENT, WITNESS_FOUND}

    @given(traceless_rational_spaces())
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_on_rational_bases(self, case):
        n, s = case
        assert_matches_reference(s, n)

    def test_primitive_rows_clear_denominators(self):
        s = rref_basis([(Fraction(1, 2), Fraction(-3, 4), 0, Fraction(1, 6))], 4)
        assert primitive_rows(s) == [[6, -9, 0, 2]]


def primitive_rows(s):
    """The stored rows of `s` made primitive, as `is_nil_subspace` takes
    them: the rows its trace polynomials are expanded on."""
    return [_primitive(vec) for _, vec in s._integer_form()[1]]


def sympy_trace_supports(s, n):
    """For k = 1..n, the exponent vectors of the nonzero coefficients of
    Tr((t_1 b_1 + ... + t_d b_d)^k), expanded by sympy."""
    sympy = pytest.importorskip("sympy")
    t = sympy.symbols(f"t0:{s.dimension}")
    x = sympy.zeros(n, n)
    for ti, vec in zip(t, s.basis):
        x += ti * sympy.Matrix(n, n, [sympy.Rational(e.numerator, e.denominator) for e in vec])
    supports = []
    power = sympy.eye(n)
    for _ in range(n):
        power = (power * x).expand()
        poly = sympy.Poly(power.trace(), *t)
        supports.append({m for m, c in poly.terms() if c})
    return supports


def expanded_supports(s, n):
    """For k = 2..n, the exponent vectors of the nonzero coefficients of
    Tr(X^k) as the package forms it: `_square_trace` for k = 2, and
    `_trace_polynomials` for k >= 3."""
    rows = primitive_rows(s)
    polys = [_square_trace(rows, n), *_trace_polynomials(rows, n)]
    return [{tuple(_exponents(key, s.dimension, n)) for key in poly} for poly in polys]


def expanded_traces(rows, n):
    """Tr(X^k) for k = 1..n, X = sum_i t_i rows[i] read row-major, each a
    dict from exponent tuple to nonzero integer: the generic matrix
    multiplied out entry by entry, one power at a time."""
    d = len(rows)
    units = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    x = [[{units[i]: r[a * n + b] for i, r in enumerate(rows) if r[a * n + b]} for b in range(n)] for a in range(n)]

    def add_product(out, p, q):
        for m1, c1 in p.items():
            for m2, c2 in q.items():
                m = tuple(e1 + e2 for e1, e2 in zip(m1, m2))
                out[m] = out.get(m, 0) + c1 * c2

    power, traces = x, []
    for k in range(1, n + 1):
        if k > 1:
            nxt = [[{} for _ in range(n)] for _ in range(n)]
            for a, b, c in itertools.product(range(n), repeat=3):
                add_product(nxt[a][c], power[a][b], x[b][c])
            power = nxt
        trace = {}
        for a in range(n):
            for m, c in power[a][a].items():
                trace[m] = trace.get(m, 0) + c
        traces.append({m: c for m, c in trace.items() if c})
    return traces


def reference_grid_point(poly, d):
    """The first point, in order, of the Nullstellensatz grid of the
    smallest-keyed monomial of `poly` (exponent tuples as keys, sorted as
    their packed keys would be) where `poly` does not vanish: the search
    `_grid_point` makes, on every monomial's full exponent tuple."""
    top = min(poly, key=lambda m: m[::-1])
    support = [i for i, e in enumerate(top) if e]
    terms = [(c, m) for m, c in poly.items() if all(m[i] == 0 for i in range(d) if i not in support)]
    for values in itertools.product(*(range(top[i] + 1) for i in support)):
        point = [0] * d
        for i, x in zip(support, values):
            point[i] = x
        if sum(c * math.prod(x**e for x, e in zip(point, m)) for c, m in terms):
            return point
    raise AssertionError("nonzero polynomial vanishes on its grid")


def expansion_certificate(s, n):
    """(verdict, witness, checked powers) of the full expansion alone: the
    first basis matrix of nonzero trace, else the first nonzero Tr(X^k),
    k <= n, of `expanded_traces` on the primitive basis rows, with its
    `reference_grid_point` as the witness's coefficients."""
    for b in s.basis_matrices(n):
        if b.trace():
            return WITNESS_FOUND, b, (PowerReport(1, s.dimension, False),)
    d = s.dimension
    rows = primitive_rows(s)
    reports = []
    for k, trace in enumerate(expanded_traces(rows, n), start=1):
        reports.append(PowerReport(k, math.comb(d + k - 1, k), not trace))
        if trace:
            coeffs = reference_grid_point(trace, d)
            witness = sum((c * Matrix.from_flat(r, n) for c, r in zip(coeffs, rows)), Matrix.zeros(n))
            return WITNESS_FOUND, witness, tuple(reports)
    return ALL_NILPOTENT, None, tuple(reports)


def cycle_span():
    """span{e_{0,1} + e_{1,2} + e_{2,0}} in M_3: Tr(x) = Tr(x^2) = 0 but
    Tr(x^3) = 3, so only the expansion finds the witness."""
    cycle = Matrix.unit(3, 0, 1) + Matrix.unit(3, 1, 2) + Matrix.unit(3, 2, 0)
    return rref_basis([cycle.flatten()], 9)


@st.composite
def differential_spaces(draw):
    """(n, span), n <= 4: 1..4 traceless rational matrices; or a conjugated
    span of random integer combinations of the strictly upper units; or a
    conjugate of the nil span whose kernel flag stops short."""
    kind = draw(st.sampled_from(["traceless", "upper", "non-triangularizable"]))
    rng = random.Random(draw(st.integers(0, 999)))
    if kind == "non-triangularizable":
        return 3, conjugate_space(nil_non_triangularizable_span(), random_invertible(rng, 3))
    n = draw(st.integers(2, 4))
    if kind == "traceless":
        rows = []
        for _ in range(draw(st.integers(1, 4))):
            m = [draw(rationals) for _ in range(n * n)]
            m[-1] -= sum(m[i * n + i] for i in range(n))
            rows.append(m)
        return n, rref_basis(rows, n * n)
    upper = [Matrix.unit(n, i, j) for i in range(n) for j in range(i + 1, n)]
    vecs = [
        sum((draw(st.integers(-2, 2)) * u for u in upper), Matrix.zeros(n)).flatten()
        for _ in range(draw(st.integers(1, len(upper))))
    ]
    return n, conjugate_space(rref_basis(vecs, n * n), random_invertible(rng, n))


def assert_strictly_upper_after(c, s, n):
    """c x c^-1 is strictly upper triangular for each basis element x of
    s, with c^-1 and the products formed on Fractions."""
    columns = [solve_linear(c, [int(i == j) for i in range(n)]) for j in range(n)]
    cinv = Matrix(list(zip(*columns)))
    for vec in s.basis:
        x = Matrix([vec[i * n : (i + 1) * n] for i in range(n)])
        moved = reference_product(Matrix(reference_product(c, x)), cinv)
        assert all(moved[i][j] == 0 for i in range(n) for j in range(i + 1))


class TestNilDifferential:
    """`is_nil_subspace`, cheapest proof first, against the full expansion
    of Tr(X^k) for every k <= n."""

    def assert_matches_expansion(self, s, n):
        verdict, witness, reports = expansion_certificate(s, n)
        cert = is_nil_subspace(s)
        assert cert.verdict == verdict
        if verdict == WITNESS_FOUND:
            assert cert.witness == witness
            assert cert.checked_powers == reports
        elif cert.conjugator is not None:
            assert [r.power for r in cert.checked_powers] == [1, 2]
            assert_strictly_upper_after(cert.conjugator, s, n)
        else:
            assert cert.checked_powers == reports
        return cert

    @given(differential_spaces())
    @settings(max_examples=60, deadline=None)
    def test_matches_the_full_expansion(self, case):
        n, s = case
        self.assert_matches_expansion(s, n)

    def test_every_step_decides_somewhere(self):
        # a witness at k = 1, 2 and 3, a flag proof, and a nil space that
        # only the expansion proves
        cases = [
            (3, rref_basis([Matrix.identity(3).flatten()], 9)),
            (2, unit_span(2, [(0, 1), (1, 0)])),
            (3, cycle_span()),
            (4, conjugate_space(strictly_upper_space(4), random_invertible(random.Random(9), 4))),
            (3, nil_non_triangularizable_span()),
        ]
        certs = [self.assert_matches_expansion(s, n) for n, s in cases]
        assert [c.checked_powers[-1].power for c in certs[:3]] == [1, 2, 3]
        assert certs[3].conjugator is not None
        assert certs[4].verdict == ALL_NILPOTENT and certs[4].conjugator is None

    @given(differential_spaces())
    @settings(max_examples=60, deadline=None)
    def test_square_trace_is_the_expanded_square(self, case):
        n, s = case
        rows = primitive_rows(s)
        square = expanded_traces(rows, n)[1]
        packed = {sum(e * (n + 1) ** i for i, e in enumerate(m)): c for m, c in square.items()}
        assert _square_trace(rows, n) == packed


class TestTracePolynomialOracle:
    def test_supports_match_sympy_on_unit_patterns(self):
        pytest.importorskip("sympy")
        for n in (2, 3):
            for index, s in enumerate(unit_patterns(n)):
                if n == 3 and index % 17:
                    continue
                assert expanded_supports(s, n) == sympy_trace_supports(s, n)[1:]

    @given(traceless_rational_spaces())
    @settings(max_examples=20, deadline=None)
    def test_supports_match_sympy_on_rational_bases(self, case):
        pytest.importorskip("sympy")
        n, s = case
        if s.dimension:
            assert expanded_supports(s, n) == sympy_trace_supports(s, n)[1:]


def witness_space(rng, n):
    """Strictly upper units plus a traceless diagonal, conjugated: one
    dimension above the nil bound, with every basis trace 0."""
    diag = [rng.choice((-2, -1, 1, 2)) for _ in range(n - 1)]
    diag.append(-sum(diag))
    h = Matrix([[diag[i] if i == j else 0 for j in range(n)] for i in range(n)])
    s = subspace_sum(strictly_upper_space(n), rref_basis([h.flatten()], n * n))
    return conjugate_space(s, random_invertible(rng, n))


class TestDeterministicWitness:
    def witness_cases(self):
        rng = random.Random(83)
        cases = [unit_span(2, [(0, 1), (1, 0)]), unit_span(3, [(0, 1), (1, 0), (1, 2)])]
        cases += [witness_space(rng, n) for n in (3, 4, 4)]
        return cases

    def test_every_witness_lies_in_the_space_with_nonzero_last_trace(self):
        spaces = [(n, s) for n in (2, 3) for s in unit_patterns(n)]
        spaces += [(n, s) for n in range(2, 6) for s in upper_spans(random.Random(n), n, 6)]
        spaces += [(math.isqrt(s.ambient_dim), s) for s in self.witness_cases()]
        witnesses = 0
        for n, s in spaces:
            cert = is_nil_subspace(s)
            if cert.verdict != WITNESS_FOUND:
                continue
            witnesses += 1
            k = cert.checked_powers[-1].power
            assert not cert.checked_powers[-1].vanished
            assert s.contains(cert.witness.flatten())
            assert (cert.witness**k).trace() != 0
        assert witnesses > 100

    def test_witness_draws_no_random_numbers(self, monkeypatch):
        cases = self.witness_cases()

        def refuse(*args, **kwargs):
            raise AssertionError("random draw in is_nil_subspace")

        monkeypatch.setattr(random, "Random", refuse)
        for s in cases:
            first = is_nil_subspace(s)
            assert first.verdict == WITNESS_FOUND
            assert first.witness == is_nil_subspace(s).witness


class TestNilScalingProbes:
    def test_conjugated_dense_n5_keeps_its_verdict(self):
        s = conjugate_space(strictly_upper_space(5), random_invertible(random.Random(5), 5))
        assert is_nil_subspace(s).verdict == ALL_NILPOTENT

    def test_conjugated_dense_n6_certifies(self):
        s = conjugate_space(strictly_upper_space(6), random_invertible(random.Random(5), 6))
        cert = is_nil_subspace(s)
        assert cert.verdict == ALL_NILPOTENT
        assert cert.conjugator == triangularize_nil(s)
        assert conjugate_space(s, cert.conjugator) == strictly_upper_space(6)

    def test_witness_above_the_bound_at_n6(self):
        s = witness_space(random.Random(6), 6)
        cert = is_nil_subspace(s)
        assert cert.verdict == WITNESS_FOUND
        k = cert.checked_powers[-1].power
        assert s.contains(cert.witness.flatten())
        assert (cert.witness**k).trace() != 0


class TestNilCostGuard:
    """The conjugated extremal space is proved nil by its kernel flag, with
    no monomial expansion."""

    @pytest.fixture
    def no_expansion(self, monkeypatch):
        def refuse(rows, n):
            raise AssertionError("_trace_polynomials entered")

        monkeypatch.setattr(nilpotent_module, "_trace_polynomials", refuse)

    @pytest.mark.parametrize("n", [5, 7, 8])
    def test_extremal_space_certifies_by_its_flag(self, n, no_expansion):
        s = conjugate_space(strictly_upper_space(n), random_invertible(random.Random(5), n))
        cert = is_nil_subspace(s)
        assert cert.verdict == ALL_NILPOTENT
        assert [r.power for r in cert.checked_powers] == [1, 2]
        assert conjugate_space(s, cert.conjugator) == strictly_upper_space(n)


class TestNilBoundExtremality:
    def test_dimension_above_bound_never_nil(self):
        rng = random.Random(77)
        n = 3
        for _ in range(10):
            s = random_subspace(rng, n * n, nil_bound(n) + 1)
            assert is_nil_subspace(s).verdict == WITNESS_FOUND

    def test_extremal_space_reaches_bound(self):
        for n in (2, 3, 4):
            assert strictly_upper_space(n).dimension == nil_bound(n)

    @pytest.mark.parametrize("n", [0, -1])
    def test_nil_bound_rejects_sizes_below_one(self, n):
        with pytest.raises(ValueError) as exc:
            nil_bound(n)
        assert str(exc.value) == f"n must be positive, got {n}"

    @pytest.mark.parametrize("n", [0, -1])
    def test_strictly_upper_space_rejects_sizes_below_one(self, n):
        with pytest.raises(ValueError) as exc:
            strictly_upper_space(n)
        assert str(exc.value) == f"n must be positive, got {n}"
