"""Serialization of matrix bases as structured text documents.

A basis document is JSON with three fields:

    {
      "n": 2,
      "field": "Q",
      "basis": [ [["1", "0"], ["0", "1"]], ... ]
    }

Every entry is an exact-rational string ("p", "-p/q"); parsing
canonicalizes ("3/6" becomes "1/2") and serialization always writes the
canonical form with positive denominator and no denominator of 1, so
serialize(parse(text)) is the identity on canonical documents.  Errors
carry the position of the offending entry.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from ..exactlin import Matrix

__all__ = [
    "DocumentError",
    "BasisDocument",
    "parse_rational",
    "format_rational",
    "parse_basis_document",
    "serialize_basis_document",
]

_RATIONAL_RE = re.compile(r"^([+-]?[0-9]+)(?:/([0-9]+))?$")


class DocumentError(ValueError):
    """A malformed basis document; the message names the location."""


def _numerator_denominator(text: object) -> tuple[int, int]:
    """The numerator and positive denominator of a rational string such as
    "2", " -6/4 " or "+3", as written: not reduced to lowest terms.  The
    error message leaves the location to the caller."""
    if not isinstance(text, str):
        raise DocumentError(f"expected a rational string, got {text!r}")
    match = _RATIONAL_RE.match(text.strip())
    if not match:
        raise DocumentError(f"invalid rational {text!r}")
    try:
        num, den = int(match[1]), int(match[2] or 1)
    except ValueError:  # the interpreter's int-string digit limit
        raise DocumentError(f"more than {sys.get_int_max_str_digits()} digits") from None
    if not den:
        raise DocumentError(f"zero denominator in {text!r}")
    return num, den


def parse_rational(text: str, *, where: str = "value") -> Fraction:
    """Exact rational from a string like "2", "-7/3"; canonicalized."""
    try:
        return Fraction(*_numerator_denominator(text))
    except DocumentError as exc:
        raise DocumentError(f"{where}: {exc}") from None


def format_rational(value: Fraction) -> str:
    """Canonical string: lowest terms, positive denominator, "p" when the
    denominator is 1 (this is exactly `str` on Fraction)."""
    return str(value)


def _matrix_rows(m: Matrix) -> list[list[str]]:
    """The entries of `m`, row by row, as canonical rational strings."""
    return [[format_rational(v) for v in row] for row in m.entries]


@dataclass(frozen=True)
class BasisDocument:
    """A list of n x n rational matrices, tagged with the field (always
    "Q"; the tag makes the format self-describing)."""

    n: int
    matrices: tuple[Matrix, ...]
    field: str = "Q"

    def __post_init__(self) -> None:
        if self.field != "Q":
            raise DocumentError(f"unsupported field {self.field!r}; only Q")
        for idx, m in enumerate(self.matrices):
            if m.rows != self.n or m.cols != self.n:
                raise DocumentError(
                    f"basis[{idx}]: expected a {self.n}x{self.n} matrix"
                )


def parse_basis_document(text: str) -> BasisDocument:
    """Parse document text; raises `DocumentError` with a position on any
    malformed field or entry."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(
            f"not valid JSON: {exc.msg} (line {exc.lineno}, column {exc.colno})"
        ) from exc
    except ValueError:  # a JSON integer beyond the int-string digit limit
        limit = sys.get_int_max_str_digits()
        raise DocumentError(f"a JSON number has more than {limit} digits") from None
    except RecursionError:  # arrays or objects nested beyond the parser's depth
        raise DocumentError("not valid JSON: nested too deeply") from None
    if not isinstance(raw, dict):
        raise DocumentError("document root must be an object")
    for key in ("n", "field", "basis"):
        if key not in raw:
            raise DocumentError(f"missing field {key!r}")
    n = raw["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise DocumentError(f"n must be a positive integer, got {n!r}")
    if raw["field"] != "Q":
        raise DocumentError(f"unsupported field {raw['field']!r}; only Q")
    basis_raw = raw["basis"]
    if not isinstance(basis_raw, list):
        raise DocumentError("basis must be a list of matrices")
    matrices = []
    # each distinct entry string that parses, parsed once: most entries of a
    # basis document repeat ("0" above all); an entry that fails is not kept,
    # so the first failing one in order raises with its position
    parsed: dict[str, tuple[int, int]] = {}
    for b_idx, mat_raw in enumerate(basis_raw):
        if not isinstance(mat_raw, list) or len(mat_raw) != n:
            raise DocumentError(f"basis[{b_idx}]: expected {n} rows")
        nums, dens = [], []
        for r_idx, row_raw in enumerate(mat_raw):
            if not isinstance(row_raw, list) or len(row_raw) != n:
                raise DocumentError(
                    f"basis[{b_idx}] row {r_idx}: expected {n} entries"
                )
            for c_idx, entry in enumerate(row_raw):
                pair = parsed.get(entry) if isinstance(entry, str) else None
                if pair is None:
                    try:
                        # only a string parses, so only strings are kept
                        pair = parsed[entry] = _numerator_denominator(entry)
                    except DocumentError as exc:
                        where = f"basis[{b_idx}] row {r_idx} col {c_idx}"
                        raise DocumentError(f"{where}: {exc}") from None
                num, den = pair
                nums.append(num)
                dens.append(den)
        # the entries over their common denominator, the stored form of
        # `Matrix`, which divides out any common factor
        den = math.lcm(*dens)
        ints = nums if den == 1 else [a * (den // b) for a, b in zip(nums, dens)]
        matrices.append(Matrix._make(n, n, den, tuple(ints)))
    return BasisDocument(n=n, matrices=tuple(matrices))


def serialize_basis_document(doc: BasisDocument) -> str:
    """Canonical document text: fixed key order, two-space indentation,
    canonical rational strings, trailing newline."""
    payload = {
        "n": doc.n,
        "field": doc.field,
        "basis": [_matrix_rows(m) for m in doc.matrices],
    }
    return json.dumps(payload, indent=2) + "\n"
