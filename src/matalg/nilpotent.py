"""Nilpotent subspaces of the n x n matrix algebra.

A subspace is "nil" when every element is a nilpotent matrix.  Over Q
this is a polynomial identity: x is nilpotent iff Tr(x^k) = 0 for
k = 1..n (Newton's identities), so a subspace with basis b_1..b_d is nil
iff the polynomial Tr((t_1 b_1 + ... + t_d b_d)^k) vanishes identically
for each k.  `is_nil_subspace` first reads the k = 1 coefficients, the
basis traces Tr(b_i): a nonzero one decides the answer at once, with b_i
as the witness.  Otherwise it expands the polynomials symbolically, which
is exact but exponential in k, hence the term budget.  When a coefficient
is nonzero the witness comes from `nonnil_witness_search`, the one
sampler of the module; sampling only finds the witness, the verdict is
read from the exact coefficients.

The dimension of a nil subspace is at most n(n-1)/2, with equality
exactly for conjugates of the strictly upper-triangular space;
`triangularize_nil` produces the conjugating matrix through the kernel
flag ker N < ker N^2 < ... of the algebra N the subspace generates, built
straight from the subspace's basis.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .exactlin import (
    Matrix,
    Subspace,
    _combination,
    _matrix_side,
    _unit_span,
)
from .algebra import _adapted_basis, _kernel_flag

__all__ = [
    "ALL_NILPOTENT",
    "WITNESS_FOUND",
    "UNDETERMINED",
    "DEFAULT_TERM_BUDGET",
    "PowerReport",
    "NilCertificate",
    "is_nil_subspace",
    "nonnil_witness_search",
    "triangularize_nil",
    "strictly_upper_space",
    "nil_bound",
]

_ZERO = Fraction(0)

ALL_NILPOTENT = "all-nilpotent"
WITNESS_FOUND = "witness-found"
UNDETERMINED = "undetermined"

DEFAULT_TERM_BUDGET = 500_000

# Witness search inside `is_nil_subspace`.  Some Tr(x^k), k <= n, is a
# nonzero polynomial of degree k in the basis coefficients, so by
# Schwartz-Zippel a draw from [-n, n]^d misses with probability at most
# k / (2n + 1) < 1/2, and all 256 draws miss with probability below 2^-256.
_WITNESS_SEED = 0x0B57
_WITNESS_TRIALS = 256


def nil_bound(n: int) -> int:
    """Largest possible dimension of a nil subspace of M_n: n(n-1)/2."""
    return n * (n - 1) // 2


def strictly_upper_space(n: int) -> Subspace:
    """Span of the units e_{i,j} with i < j; the extremal nil subspace."""
    return _unit_span(n, ((i, j) for i in range(n) for j in range(i + 1, n)))


@dataclass(frozen=True)
class PowerReport:
    """One trace power sum: the polynomial Tr(x^power) on the subspace,
    with the number of coefficients examined and whether all vanished."""

    power: int
    monomial_count: int
    vanished: bool


@dataclass(frozen=True)
class NilCertificate:
    """Outcome of the nil-subspace decision.

    verdict is one of `ALL_NILPOTENT`, `WITNESS_FOUND`, `UNDETERMINED`;
    a witness (an element of the subspace with some Tr(witness^k) != 0)
    accompanies `WITNESS_FOUND`, and `checked_powers` records each trace
    power sum that was fully expanded.
    """

    verdict: str
    witness: Matrix | None
    checked_powers: tuple[PowerReport, ...]


def is_nil_subspace(s: Subspace, *, budget: int = DEFAULT_TERM_BUDGET) -> NilCertificate:
    """Decide whether every element of the subspace is nilpotent.

    Expands Tr((t_1 b_1 + ... + t_d b_d)^k) for k = 1..n as a polynomial
    in the coefficients: the coefficient of each degree-k monomial is a
    sum of traces of basis words, accumulated here by depth-first walk
    over all d^k words with zero running products pruned.  All
    coefficients vanish for every k iff the subspace is nil (infinite
    field, characteristic zero).

    The k = 1 coefficients are the basis traces and are read first, for
    any budget: when some Tr(b_i) is nonzero, b_i is returned as the
    witness with the single report for power 1.  Otherwise, when the
    nominal word count sum(d^k, k=1..n) exceeds `budget`, the verdict is
    `UNDETERMINED`.  A nonzero coefficient found by the walk is turned
    into a witness by `nonnil_witness_search` with a fixed seed.
    """
    n = _matrix_side(s)
    d = s.dimension
    if d == 0:
        reports = tuple(PowerReport(k, 0, True) for k in range(1, n + 1))
        return NilCertificate(ALL_NILPOTENT, None, reports)
    basis = s.basis_matrices(n)
    for b in basis:
        if b.trace():
            return NilCertificate(WITNESS_FOUND, b, (PowerReport(1, d, False),))
    nominal_terms = sum(d**k for k in range(1, n + 1))
    if nominal_terms > budget:
        return NilCertificate(UNDETERMINED, None, ())
    coefficients: dict[tuple[int, tuple[int, ...]], Fraction] = {}

    def walk(product: Matrix, word: tuple[int, ...]) -> None:
        key = (len(word), tuple(sorted(word)))
        tr = product.trace()
        if tr:
            coefficients[key] = coefficients.get(key, _ZERO) + tr
        if len(word) == n:
            return
        for i, b in enumerate(basis):
            nxt = product * b
            if nxt.is_zero():
                continue  # the whole sub-tree contributes zero traces
            walk(nxt, word + (i,))

    for i, b in enumerate(basis):
        if not b.is_zero():
            walk(b, (i,))

    nonzero_powers = {k for (k, _), value in coefficients.items() if value}
    reports = tuple(
        PowerReport(
            power=k,
            monomial_count=math.comb(d + k - 1, k),
            vanished=k not in nonzero_powers,
        )
        for k in range(1, n + 1)
    )
    if not nonzero_powers:
        return NilCertificate(ALL_NILPOTENT, None, reports)
    witness = nonnil_witness_search(s, _WITNESS_SEED, _WITNESS_TRIALS, lo=-n, hi=n)
    if witness is None:
        raise RuntimeError("nonzero trace polynomial but no witness found")
    return NilCertificate(WITNESS_FOUND, witness, reports)


def _trace_powers_nonzero(x: Matrix, n: int) -> bool:
    power = x
    for _ in range(n):
        if power.trace():
            return True
        power = power * x
    return False


def nonnil_witness_search(
    s: Subspace, seed: int = 0, trials: int = 64, *, lo: int = -3, hi: int = 3
) -> Matrix | None:
    """Random search for a non-nilpotent element of the subspace.

    Draws `trials` integer combinations of the basis and returns the
    first with a nonzero trace power Tr(x^k), k <= n; None when the
    search is exhausted.  The element returned always lies in the
    subspace and is certified non-nilpotent exactly.
    """
    n = _matrix_side(s)
    if s.dimension == 0:
        return None
    rng = random.Random(seed)
    for _ in range(trials):
        coeffs = [rng.randint(lo, hi) for _ in s.basis]
        if not any(coeffs):
            continue
        x = Matrix.from_flat(_combination(coeffs, s.basis, n * n), n)
        if _trace_powers_nonzero(x, n):
            return x
    return None


def triangularize_nil(s: Subspace) -> Matrix | None:
    """Conjugator c with c x c^-1 strictly upper triangular for all x in s.

    Builds the kernel flag V_k = {v : N^k v = 0} of the (non-unital)
    algebra N generated by the subspace, straight from its basis.  When
    N is nilpotent the flag reaches Q^n, any refinement of it to a full
    flag orders a basis under which every element of N is strictly upper
    triangular, and the inverse of that basis matrix is returned (verified
    before return).  When N is not nilpotent -- possible even for nil
    subspaces -- the failure marker None is returned.
    """
    n = _matrix_side(s)
    flag = _kernel_flag(s.basis_matrices(n), n)
    if flag is None:
        return None
    cinv = _adapted_basis(flag, n)
    conjugator = cinv.inverse()
    for m in s.basis_matrices(n):
        moved = conjugator * m * cinv
        for i in range(n):
            for j in range(i + 1):
                if moved.entries[i][j]:
                    raise RuntimeError("triangularization check failed")
    return conjugator
