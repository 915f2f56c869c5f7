"""Nilpotent subspaces of the n x n matrix algebra.

A subspace is "nil" when every element is a nilpotent matrix.  Over Q
this is a polynomial identity: x is nilpotent iff Tr(x^k) = 0 for
k = 1..n (Newton's identities), so a subspace with basis b_1..b_d is nil
iff the polynomial Tr((t_1 b_1 + ... + t_d b_d)^k) vanishes identically
for each k.  `is_nil_subspace` takes its exact steps in order of cost.
It reads the k = 1 coefficients first, the basis traces Tr(b_i): a
nonzero one decides the answer at once, with b_i as the witness.  The
k = 2 polynomial comes next, off the trace Gram matrix Tr(b_i b_j).
Then the kernel-flag triangularizer: when the algebra the subspace
generates is nilpotent, its checked conjugator proves the subspace nil.
Only then does it expand the powers k = 3..n of the generic matrix over
the integers, one power at a time, which is exact but grows with the
number of monomials, hence the term budget.  When a trace polynomial is
nonzero the witness is read off it deterministically (Alon's
Combinatorial Nullstellensatz) and checked exactly; no random draw is
made, so the verdict and the witness are both deterministic.

The dimension of a nil subspace is at most n(n-1)/2, with equality
exactly for conjugates of the strictly upper-triangular space
(Gerstenhaber); `triangularize_nil` produces the conjugating matrix
through the kernel flag ker N < ker N^2 < ... of the algebra N the
subspace generates, built straight from the subspace's stored rows along
the row-space chain: ker N^j is the annihilator of the row space of the
words of length j, and the basis adapted to the flag is read off the
free columns of the chain's echelon rows.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from .exactlin import (
    Matrix,
    Subspace,
    _combination,
    _matrix_side,
    _primitive,
    _unit_span,
)
from .algebra import _flag_conjugator, _kernel_flag, _trace_gram

__all__ = [
    "ALL_NILPOTENT",
    "WITNESS_FOUND",
    "UNDETERMINED",
    "DEFAULT_TERM_BUDGET",
    "PowerReport",
    "NilCertificate",
    "is_nil_subspace",
    "triangularize_nil",
    "strictly_upper_space",
    "nil_bound",
]

ALL_NILPOTENT = "all-nilpotent"
WITNESS_FOUND = "witness-found"
UNDETERMINED = "undetermined"

DEFAULT_TERM_BUDGET = 100_000


def nil_bound(n: int) -> int:
    """Largest possible dimension of a nil subspace of M_n: n(n-1)/2."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return n * (n - 1) // 2


def strictly_upper_space(n: int) -> Subspace:
    """Span of the units e_{i,j} with i < j; the extremal nil subspace."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return _unit_span(n, _strictly_upper_positions(n))


def _strictly_upper_positions(n: int) -> list[tuple[int, int]]:
    """The cells (i, j) with i < j: the pattern of `strictly_upper_space`."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


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
    a witness (an element of the subspace with Tr(witness^k) != 0 for the
    last reported power k) accompanies `WITNESS_FOUND`, and
    `checked_powers` records each trace power sum that was fully
    checked, in order: powers 1..k up to the first nonzero one for
    `WITNESS_FOUND`; powers 1..n for `ALL_NILPOTENT` proved by the trace
    powers alone; powers 1 and 2 when the kernel flag proves the subspace
    nil, and when the expansion of the higher powers is over budget
    (`UNDETERMINED`).  `conjugator` accompanies an `ALL_NILPOTENT` proved
    by the kernel flag: a matrix c, checked by `triangularize_nil`, with
    c x c^-1 strictly upper triangular for every x in the subspace, the
    inverse of the basis adapted to the flag that its row-space chain
    hands over.
    """

    verdict: str
    witness: Matrix | None
    checked_powers: tuple[PowerReport, ...]
    conjugator: Matrix | None = None


def is_nil_subspace(s: Subspace, *, budget: int = DEFAULT_TERM_BUDGET) -> NilCertificate:
    """Decide whether every element of the subspace is nilpotent.

    Decides whether Tr(X^k) vanishes for the generic element
    X = t_1 b_1 + ... + t_d b_d, k = 1, 2, ..., as a polynomial with
    integer coefficients (each basis vector is first scaled to a primitive
    integer vector, which keeps every coefficient's zero-ness), and stops
    at the first nonzero one.  All of them vanish for k = 1..n iff the
    subspace is nil (infinite field, characteristic zero).  The exact steps come in order of cost,
    and only the last one is capped by `budget`:

    1. k = 1, the basis traces, read off the stored rows: when some
       Tr(b_i) is nonzero, b_i is returned as the witness with the single
       report for power 1.
    2. k = 2, from the trace Gram matrix (`_trace_gram`): Tr(X^2) has
       the coefficient Tr(b_i^2) at t_i^2 and 2 Tr(b_i b_j) at t_i t_j.
    3. For n >= 3, the kernel flag: when `triangularize_nil` returns a
       conjugator, the verdict is `ALL_NILPOTENT` with that conjugator as
       its proof.  This settles exactly the subspaces whose generated
       algebra is nilpotent, Gerstenhaber's extremal spaces among them.
    4. Otherwise, when the number of monomials of the trace polynomials,
       the sum of C(d + k - 1, k) over k = 1..n, exceeds `budget`, the
       verdict is `UNDETERMINED`; else Tr(X^k) is expanded for
       k = 3..n (`_trace_polynomials`).

    A nonzero Tr(X^k) gives the witness through `_grid_point`, checked by
    Tr(witness^k) != 0 before it is returned.
    """
    n = _matrix_side(s)
    d = s.dimension
    if d == 0:
        reports = tuple(PowerReport(k, 0, True) for k in range(1, n + 1))
        return NilCertificate(ALL_NILPOTENT, None, reports)
    den, stored = s._integer_form()
    for _, row in stored:
        if sum(row[:: n + 1]):
            return NilCertificate(WITNESS_FOUND, Matrix._make(n, n, den, row), (PowerReport(1, d, False),))
    counts = [math.comb(d + k - 1, k) for k in range(1, n + 1)]
    rows = [_primitive(vec) for _, vec in stored]
    # n >= 2 from here: the one nonzero subspace of M_1 has a basis trace
    square = _square_trace(rows, n)
    reports = [PowerReport(1, d, True), PowerReport(2, counts[1], not square)]
    if square:
        return _witness(square, 2, rows, n, reports)
    if n >= 3:
        conjugator = triangularize_nil(s)
        if conjugator is not None:
            return NilCertificate(ALL_NILPOTENT, None, tuple(reports), conjugator)
        if sum(counts) > budget:
            return NilCertificate(UNDETERMINED, None, tuple(reports))
        for k, trace in enumerate(_trace_polynomials(rows, n), start=3):
            reports.append(PowerReport(k, counts[k - 1], not trace))
            if trace:
                return _witness(trace, k, rows, n, reports)
    return NilCertificate(ALL_NILPOTENT, None, tuple(reports))


def _witness(
    trace: dict[int, int], k: int, rows: list[list[int]], n: int, reports: list[PowerReport]
) -> NilCertificate:
    """The `WITNESS_FOUND` certificate for the nonzero Tr(X^k) `trace`: its
    `_grid_point` combination of `rows`, checked by Tr(witness^k) != 0."""
    point = _grid_point(trace, len(rows), n)
    witness = Matrix.from_flat(_combination(point, rows, n * n), n)
    if not (witness**k).trace():
        raise RuntimeError("witness check failed: Tr(witness^k) is zero")
    return NilCertificate(WITNESS_FOUND, witness, tuple(reports))


def _square_trace(rows: list[list[int]], n: int) -> dict[int, int]:
    """Tr(X^2) for X = sum_i t_i rows[i], packed as in `_trace_polynomials`:
    sum over i, j of t_i t_j Tr(b_i b_j), read off the upper triangle of
    the trace Gram matrix (`_trace_gram`), twice off the diagonal."""
    place = [(n + 1) ** i for i in range(len(rows))]
    gram = _trace_gram(rows, n)
    return {place[i] + place[j]: tr if i == j else 2 * tr for (i, j), tr in gram.items() if tr}


def _trace_polynomials(rows: list[list[int]], n: int) -> Iterator[dict[int, int]]:
    """Yield Tr(X^k) for k = 3..n, X = sum_i t_i rows[i] read row-major:
    the powers that `is_nil_subspace` expands, after Tr(X) off the basis
    traces and Tr(X^2) off the trace Gram matrix (`_square_trace`).

    A polynomial is a dict from packed exponent vector to nonzero integer
    coefficient: the exponent of t_i is digit i in base n + 1 (no degree
    exceeds n), so multiplying two monomials adds their keys.  X^(k-1) is
    formed only when Tr(X^k) is asked for, starting from X itself, and
    Tr(X^k) is read as sum_ab X^(k-1)_ab X_ba, so X^n itself is never
    formed.
    """
    base = n + 1
    generic = [
        [[(base**i, row[a * n + b]) for i, row in enumerate(rows) if row[a * n + b]] for b in range(n)]
        for a in range(n)
    ]
    power = [[dict(entry) for entry in line] for line in generic]
    for _ in range(3, n + 1):
        power = [
            [_dot((power[a][b], generic[b][c]) for b in range(n)) for c in range(n)]
            for a in range(n)
        ]
        yield _dot((power[a][b], generic[b][a]) for a in range(n) for b in range(n))


def _dot(pairs: Iterable[tuple[dict[int, int], list[tuple[int, int]]]]) -> dict[int, int]:
    """Sum of polynomial times linear form over the pairs, cancelled
    monomials dropped."""
    out: dict[int, int] = {}
    get = out.get
    for poly, linear in pairs:
        if not poly:
            continue
        for step, v in linear:
            for m, c in poly.items():
                key = m + step
                out[key] = get(key, 0) + c * v
    return {m: c for m, c in out.items() if c}


def _exponents(key: int, d: int, n: int) -> list[int]:
    """The exponent vector of t_1..t_d packed in `key` (base n + 1)."""
    exps = []
    for _ in range(d):
        key, e = divmod(key, n + 1)
        exps.append(e)
    return exps


def _grid_point(poly: dict[int, int], d: int, n: int) -> list[int]:
    """An integer point c with poly(c) != 0, for a nonzero homogeneous
    polynomial in packed form.

    The smallest monomial t_1^e_1 ... t_d^e_d has maximal degree, so by the
    Combinatorial Nullstellensatz (Alon 1999) poly does not vanish on the
    grid {0..e_1} x ... x {0..e_d}, of at most 2^degree points.  The grid
    is searched in order, on the monomials supported where it is: those
    whose exponents at the support alone add up to the degree.
    """
    top = _exponents(min(poly), d, n)
    degree = sum(top)
    support = [i for i, e in enumerate(top) if e]
    places = [(n + 1) ** i for i in support]
    terms = []
    for m, c in poly.items():
        exps = [m // p % (n + 1) for p in places]
        if sum(exps) == degree:
            terms.append((c, exps))
    for values in itertools.product(*(range(top[i] + 1) for i in support)):
        if sum(c * math.prod(x**e for x, e in zip(values, exps)) for c, exps in terms):
            point = [0] * d
            for i, x in zip(support, values):
                point[i] = x
            return point
    raise RuntimeError("nonzero polynomial vanishes on its Nullstellensatz grid")


def triangularize_nil(s: Subspace) -> Matrix | None:
    """Conjugator c with c x c^-1 strictly upper triangular for all x in s.

    Builds the kernel flag V_k = {v : N^k v = 0} of the (non-unital)
    algebra N generated by the subspace, straight from its stored rows,
    along the row-space chain of `_kernel_flag`.  When N is nilpotent the
    flag reaches Q^n, and the chain hands over a basis adapted to it, read
    off the free columns of its echelon rows (`algebra._flag_basis`): under
    it every element of N is strictly upper triangular.  The inverse of
    that basis matrix is returned, checked by `_flag_conjugator` against
    the strictly upper cells.  When N is not nilpotent -- possible even
    for nil subspaces -- None is returned.
    """
    n = _matrix_side(s)
    rows = [x for _, x in s._integer_form()[1]]
    flag = _kernel_flag(rows, n)
    return None if flag is None else _flag_conjugator(flag[0], rows, n, _strictly_upper_positions(n))
