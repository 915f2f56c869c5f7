"""Exact rational arithmetic for checking answers, independent of matalg.

Matrices are lists of rows of `Fraction`; vectors are sequences of
`Fraction`.  Nothing here imports matalg, so a fault in matalg's own
linear algebra cannot hide itself by also breaking the check.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Rows = list[list[Fraction]]


def to_rows(entries: Sequence[Sequence]) -> Rows:
    return [[Fraction(e) for e in row] for row in entries]


def unflatten(vec: Sequence, n: int) -> Rows:
    return [[Fraction(vec[i * n + j]) for j in range(n)] for i in range(n)]


def flatten(m: Rows) -> list[Fraction]:
    return [e for row in m for e in row]


def identity(n: int) -> Rows:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def matmul(a: Rows, b: Rows) -> Rows:
    cols = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in cols] for row in a]


def power(a: Rows, k: int) -> Rows:
    result = identity(len(a))
    for _ in range(k):
        result = matmul(result, a)
    return result


def is_zero(a: Rows) -> bool:
    return all(not e for row in a for e in row)


def _echelon(vectors: Sequence[Sequence]) -> list[list[Fraction]]:
    """Row echelon form (not reduced) by plain Gaussian elimination."""
    rows = [[Fraction(e) for e in v] for v in vectors]
    reduced: list[list[Fraction]] = []
    for row in rows:
        for pivot_row in reduced:
            lead = next(i for i, e in enumerate(pivot_row) if e)
            if row[lead]:
                f = row[lead] / pivot_row[lead]
                row = [x - f * y for x, y in zip(row, pivot_row)]
        if any(row):
            reduced.append(row)
            reduced.sort(key=lambda r: next(i for i, e in enumerate(r) if e))
    return reduced


def rank(vectors: Sequence[Sequence]) -> int:
    return len(_echelon(vectors))


def in_span(vectors: Sequence[Sequence], vec: Sequence) -> bool:
    base = _echelon(vectors)
    return rank(base + [list(vec)]) == len(base)


def inverse(a: Rows) -> Rows:
    """Gauss-Jordan inverse; raises ValueError when `a` is singular."""
    n = len(a)
    work = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(to_rows(a))]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col]), None)
        if pivot is None:
            raise ValueError("singular matrix")
        work[col], work[pivot] = work[pivot], work[col]
        lead = work[col][col]
        work[col] = [e / lead for e in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    return [row[n:] for row in work]


def conjugate(c: Rows, x: Rows, c_inv: Rows) -> Rows:
    return matmul(matmul(c, x), c_inv)


def block_of(parts: Sequence[int]) -> list[int]:
    """Block number of each coordinate for the composition `parts`."""
    return [b for b, p in enumerate(parts) for _ in range(p)]


def is_block_upper(m: Rows, parts: Sequence[int]) -> bool:
    blocks = block_of(parts)
    n = len(m)
    return all(not m[i][j] for i in range(n) for j in range(n) if blocks[i] > blocks[j])


def is_strictly_upper(m: Rows) -> bool:
    n = len(m)
    return all(not m[i][j] for i in range(n) for j in range(i + 1))
