"""Group algebras with closed-form structure, built from permutations.

For a finite group G, the permutation matrices of G span a unital
subalgebra of M_n, generated as a unital algebra by the matrices of any
generating set of G (each inverse is a power).  Two representations are
built here:

- the regular representation (n = |G|, G acting on itself by left
  multiplication) spans Q[G], of dimension |G|; it is semisimple
  (Maschke), and each simple block acts on Q[G] as on itself, so its
  lift trace is its dimension;
- the natural representation of S_n on Q^n spans Q (+) M_(n-1)(Q), of
  dimension (n - 1)^2 + 1: the all-ones projector and its complement.

Closed forms by hand: Q[S_3] = Q^2 x M_2(Q); Q[C_4] = Q^2 x Q(i) and
Q[C_6] = Q^2 x Q(w)^2, whose centers are not split; Q[D_4] = Q^4 x M_2(Q)
and Q[Q_8] = Q^4 x (-1,-1)_Q, the rational quaternions.

Only public names of matalg are used.
"""

from __future__ import annotations

import random

from matalg import Matrix, MatrixAlgebra, closure, conjugate

Permutation = tuple[int, ...]


def compose(p: Permutation, q: Permutation) -> Permutation:
    """p after q: i -> p[q[i]]."""
    return tuple(p[i] for i in q)


def generated_group(generators: list[Permutation]) -> list[Permutation]:
    """Every product of the `generators`, sorted; the identity first."""
    identity = tuple(range(len(generators[0])))
    elements, seen = [identity], {identity}
    for g in elements:
        for s in generators:
            h = compose(s, g)
            if h not in seen:
                seen.add(h)
                elements.append(h)
    return sorted(elements)


def order(p: Permutation) -> int:
    identity, power, k = tuple(range(len(p))), p, 1
    for _ in range(len(p) * len(p)):
        if power == identity:
            return k
        power, k = compose(p, power), k + 1
    raise AssertionError("no permutation of n points has order above n^2")


def cycle(n: int) -> Permutation:
    """The n-cycle 0 -> 1 -> ... -> n-1 -> 0."""
    return tuple((i + 1) % n for i in range(n))


def transposition(n: int, i: int, j: int) -> Permutation:
    p = list(range(n))
    p[i], p[j] = j, i
    return tuple(p)


def _quaternion_units() -> list[Permutation]:
    """Left multiplication by i and by j on the 8 units +-1, +-i, +-j, +-k
    (index 2u + s for the unit u in 1, i, j, k and the sign s in +, -)."""
    # u * v = sign * unit, for u, v in 1, i, j, k
    table = {
        (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
        (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
        (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
        (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
    }

    def left(u: int) -> Permutation:
        image = []
        for index in range(8):
            v, s = divmod(index, 2)
            sign, w = table[u, v]
            image.append(2 * w + (s if sign > 0 else 1 - s))
        return tuple(image)

    return [left(1), left(2)]


# generating sets, as permutations of their points
GROUPS = {
    "S3": [transposition(3, 0, 1), cycle(3)],
    "C4": [cycle(4)],
    "C6": [cycle(6)],
    "D4": [cycle(4), transposition(4, 1, 3)],
    "Q8": _quaternion_units(),
}


def permutation_matrix(p: Permutation) -> Matrix:
    """The matrix that sends e_j to e_p(j)."""
    n = len(p)
    return Matrix([[int(p[j] == i) for j in range(n)] for i in range(n)])


def regular_generators(generators: list[Permutation]) -> list[Matrix]:
    """The matrices of the `generators` in the regular representation of
    the group they generate: left multiplication on its elements."""
    elements = generated_group(generators)
    index = {g: k for k, g in enumerate(elements)}
    return [permutation_matrix(tuple(index[compose(s, g)] for g in elements)) for s in generators]


def unimodular(rng: random.Random, n: int) -> Matrix:
    """L U for unit lower and upper triangular integer matrices with
    entries in -2..2 off the diagonal: determinant 1, so its inverse is an
    integer matrix too, and a conjugate by it is dense."""
    lower = [[1 if i == j else rng.randint(-2, 2) if i > j else 0 for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else rng.randint(-2, 2) if i < j else 0 for j in range(n)] for i in range(n)]
    return Matrix(lower) * Matrix(upper)


def regular_algebra(name: str, seed: int | None = None) -> MatrixAlgebra:
    """Q[G] for the group `name` of `GROUPS` in its regular representation,
    conjugated by `unimodular(Random(seed), |G|)` when a seed is given."""
    return _spanned(regular_generators(GROUPS[name]), seed)


def natural_algebra(n: int, seed: int | None = None) -> MatrixAlgebra:
    """The span of the permutation matrices of S_n on Q^n, generated by
    (0 1) and the n-cycle, conjugated as `regular_algebra` is."""
    return _spanned([permutation_matrix(transposition(n, 0, 1)), permutation_matrix(cycle(n))], seed)


def _spanned(generators: list[Matrix], seed: int | None) -> MatrixAlgebra:
    n = generators[0].rows
    a = closure(n, generators)
    return a if seed is None else conjugate(a, unimodular(random.Random(seed), n))
