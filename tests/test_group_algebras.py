"""Group algebras against their closed forms (`groups`): semisimple
algebras, dense once conjugated, whose radical is 0, so every structural
question reads the radical's certificate for R = 0."""

import pytest

from groups import GROUPS, compose, generated_group, natural_algebra, order, regular_algebra
from matalg import invariant_flag, is_parabolic, radical, semisimple_blocks

# the closed forms of the regular representations: |G|, then the block
# sizes and lift traces of Q[G], or None where its center is not split.
# D4 and Q8 get one answer: M_2(Q) and the quaternions (-1,-1)_Q are not
# told apart by their lift traces, which is the open input of deciding
# the uncertified blocks
REGULAR = {
    "S3": (6, (1, 1, 2), (1, 1, 4)),
    "C4": (4, None, None),
    "C6": (6, None, None),
    "D4": (8, (1, 1, 1, 1, 2), (1, 1, 1, 1, 4)),
    "Q8": (8, (1, 1, 1, 1, 2), (1, 1, 1, 1, 4)),
}


def assert_semisimple(a, dimension, sizes, traces, split):
    assert a.dimension == dimension
    assert radical(a).dimension == 0
    assert is_parabolic(a) == (False, None, None)
    assert invariant_flag(a).dims == (a.n,)
    data = semisimple_blocks(a)
    assert (data.radical_dim, data.semisimple_dim) == (0, dimension)
    assert (data.block_sizes, data.lift_traces, data.split) == (sizes, traces, split)


@pytest.mark.parametrize("name", list(REGULAR))
def test_the_groups_are_the_named_ones(name):
    elements = generated_group(GROUPS[name])
    orders = sorted(order(g) for g in elements)
    expected = {
        "S3": [1, 2, 2, 2, 3, 3],
        "C4": [1, 2, 4, 4],
        "C6": [1, 2, 3, 3, 6, 6],
        # D4 has five involutions, Q8 one: the two are not isomorphic
        "D4": [1, 2, 2, 2, 2, 2, 4, 4],
        "Q8": [1, 2, 4, 4, 4, 4, 4, 4],
    }
    assert orders == expected[name]
    commutative = all(compose(g, h) == compose(h, g) for g in elements for h in elements)
    assert commutative == name.startswith("C")


@pytest.mark.parametrize("seed", [None, 46], ids=["plain", "conjugated"])
@pytest.mark.parametrize("name", list(REGULAR))
def test_regular_representation(name, seed):
    dimension, sizes, traces = REGULAR[name]
    a = regular_algebra(name, seed)
    assert a.n == dimension
    assert_semisimple(a, dimension, sizes, traces, False)


@pytest.mark.parametrize("seed", [None, 46], ids=["plain", "conjugated"])
@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_natural_representation_of_the_symmetric_group(n, seed):
    a = natural_algebra(n, seed)
    assert a.n == n
    assert_semisimple(a, (n - 1) ** 2 + 1, (1, n - 1), (1, n - 1), True)
