"""Nil subspaces: symbolic certification, witnesses, triangularization."""

import random

from matalg.algebra import _adapted_basis, conjugate_space, multiply_spaces
from matalg.exactlin import (
    Matrix,
    _joint_kernel,
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
    is_nil_subspace,
    nil_bound,
    nonnil_witness_search,
    strictly_upper_space,
    triangularize_nil,
)


def unit_span(n, positions):
    return rref_basis([Matrix.unit(n, i, j).flatten() for i, j in positions], n * n)


class TestNilCertification:
    def test_strictly_upper_is_all_nilpotent(self):
        for n in (2, 3, 4):
            cert = is_nil_subspace(strictly_upper_space(n))
            assert cert.verdict == ALL_NILPOTENT
            assert cert.witness is None
            assert [r.power for r in cert.checked_powers] == list(range(1, n + 1))
            assert all(r.vanished for r in cert.checked_powers)

    def test_zero_space_is_nil(self):
        assert is_nil_subspace(zero_space(9)).verdict == ALL_NILPOTENT

    def test_symmetric_pair_has_witness(self):
        # e_{0,1} + e_{1,0} squares to the identity; the span is traceless,
        # so the witness comes from the word walk through Tr(x^2)
        s = unit_span(2, [(0, 1), (1, 0)])
        cert = is_nil_subspace(s)
        assert cert.verdict == WITNESS_FOUND
        assert [r.vanished for r in cert.checked_powers] == [True, False]
        w = cert.witness
        assert s.contains(w.flatten())
        assert any((w**k).trace() != 0 for k in range(1, 3))

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
        cert = is_nil_subspace(strictly_upper_space(3), budget=2)
        assert cert.verdict == UNDETERMINED
        assert cert.witness is None

    def test_nonzero_basis_trace_decides_before_the_word_walk(self):
        # d = 7 in M_4: the walk would visit 7 + 49 + 343 + 2401 words
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
        w = nonnil_witness_search(s)
        assert w is not None
        assert s.contains(w.flatten())
        assert any((w**k).trace() != 0 for k in range(1, 3))

    def test_none_on_nil_space(self):
        assert nonnil_witness_search(strictly_upper_space(3)) is None

    def test_none_on_zero_space(self):
        assert nonnil_witness_search(zero_space(4)) is None

    def test_deterministic_for_fixed_seed(self):
        s = unit_span(3, [(0, 1), (1, 0)])
        a = nonnil_witness_search(s, seed=5)
        b = nonnil_witness_search(s, seed=5)
        assert a == b

    def test_agrees_with_certification(self):
        rng = random.Random(2)
        for trial in range(20):
            positions = set()
            n = 3
            for _ in range(rng.randint(1, 4)):
                positions.add((rng.randrange(n), rng.randrange(n)))
            s = unit_span(n, sorted(positions))
            cert = is_nil_subspace(s)
            found = nonnil_witness_search(s, seed=trial, trials=256)
            if cert.verdict == ALL_NILPOTENT:
                assert found is None
            else:
                assert found is not None


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


def reference_triangularize_nil(s, n):
    """The conjugator through the powers of the generated algebra: close
    the subspace under products (no identity adjoined), take the powers
    N, N^2, ... (None when N^n != 0), refine the joint kernels of the
    nonzero powers greedily to a basis and invert it.  Kept as the
    reference for the kernel flag built from the basis in
    `triangularize_nil`."""
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
    kernels = [_joint_kernel(p.basis_matrices(n), n) for p in powers[:-1]]
    return _adapted_basis(kernels + [full_space(n)], n).inverse()


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


class TestNilBoundExtremality:
    def test_dimension_above_bound_never_nil(self):
        rng = random.Random(77)
        n = 3
        for _ in range(10):
            s = random_subspace(rng, n * n, nil_bound(n) + 1)
            assert nonnil_witness_search(s, seed=1, trials=128) is not None

    def test_extremal_space_reaches_bound(self):
        for n in (2, 3, 4):
            assert strictly_upper_space(n).dimension == nil_bound(n)
