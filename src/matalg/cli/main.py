"""Command-line interface.

Three families of commands:

  construct  emit basis documents for block-triangular algebras and
             their lower-block coideals
  analyze    read a basis document and report closure, radical, block
             structure, block-type recognition, coideal status, or the
             annihilator subspace
  verify     run a named verification suite over a range of sizes and
             print a deterministic report

Exit codes: 0 on success (and verification PASS), 1 on verification
FAIL, 2 on usage or document errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Callable

from ..algebra import (
    Composition,
    MatrixAlgebra,
    algebra_from_basis,
    closure,
    is_parabolic,
    parabolic_subalgebra,
    radical,
    semisimple_blocks,
)
from ..coalgebra import CoidealRejection, is_coideal, parabolic_coideal, perp
from ..exactlin import Matrix, Subspace, rref_basis
from .documents import (
    BasisDocument,
    DocumentError,
    _matrix_rows,
    parse_basis_document,
    serialize_basis_document,
)
from .suites import SUITE_NAMES, run_verification

__all__ = ["main"]


def _is_ascii_digits(text: str) -> bool:
    """Whether `text` is one or more of the digits 0-9.  `str.isdigit` and
    `int` also take other Unicode decimal digits, and `int` takes
    underscores between digits ("\u0663" and "1_0" are 3 and 10)."""
    return text.isascii() and text.isdigit()


def _parse_int(text: str) -> int:
    """An integer option: ASCII digits with an optional sign, so that a
    negative value reaches the range checks of the command."""
    digits = text.strip()
    if not _is_ascii_digits(digits[1:] if digits[:1] in ("+", "-") else digits):
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}")
    return int(digits)


def _parse_composition(text: str) -> tuple[int, ...]:
    parts = []
    for piece in text.split(","):
        piece = piece.strip()
        if not _is_ascii_digits(piece) or int(piece) <= 0:
            raise argparse.ArgumentTypeError(
                f"invalid block type {text!r}: expected comma-separated positive integers"
            )
        parts.append(int(piece))
    return tuple(parts)


def _parse_n_range(text: str) -> tuple[int, int]:
    raw = text.strip()
    if ".." in raw:
        lo_text, _, hi_text = raw.partition("..")
        lo_text, hi_text = lo_text.strip(), hi_text.strip()
    else:
        lo_text = hi_text = raw
    if not (_is_ascii_digits(lo_text) and _is_ascii_digits(hi_text)):
        raise argparse.ArgumentTypeError(
            f"invalid size range {text!r}: expected N or LO..HI"
        )
    lo, hi = int(lo_text), int(hi_text)
    if lo < 1 or lo > hi:
        raise argparse.ArgumentTypeError(f"invalid size range {text!r}")
    return lo, hi


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise DocumentError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _space_document(n: int, space: Subspace) -> str:
    matrices = tuple(space.basis_matrices(n))
    return serialize_basis_document(BasisDocument(n=n, matrices=matrices))


def _input_algebra(doc: BasisDocument) -> MatrixAlgebra:
    try:
        return algebra_from_basis(doc.n, doc.matrices)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc


def _input_space(doc: BasisDocument) -> Subspace:
    return rref_basis([m._integer_form()[1] for m in doc.matrices], doc.n * doc.n)


# ---------------------------------------------------------------------------
# Handlers.
# ---------------------------------------------------------------------------


def _cmd_construct(args: argparse.Namespace) -> int:
    parts = args.type
    if args.n is not None and sum(parts) != args.n:
        raise DocumentError(
            f"block type {','.join(map(str, parts))} sums to {sum(parts)}, not n={args.n}"
        )
    built = args.constructor(Composition(parts))
    _write_text(args.output, _space_document(built.n, built.space))
    return 0


def _blocks(doc: BasisDocument) -> dict:
    data = semisimple_blocks(_input_algebra(doc))
    return {
        "n": doc.n,
        "dimension": data.radical_dim + data.semisimple_dim,
        "radical_dimension": data.radical_dim,
        "semisimple_dimension": data.semisimple_dim,
        "split": data.split,
        "block_sizes": list(data.block_sizes) if data.block_sizes is not None else None,
        "lift_traces": list(data.lift_traces) if data.lift_traces is not None else None,
    }


def _is_parabolic(doc: BasisDocument) -> dict:
    ok, comp, witness = is_parabolic(_input_algebra(doc))
    return {
        "n": doc.n,
        "parabolic": ok,
        "type": list(comp.parts) if comp is not None else None,
        "witness": _matrix_rows(witness) if witness is not None else None,
    }


def _is_coideal(doc: BasisDocument) -> dict:
    n = doc.n
    result = is_coideal(_input_space(doc))
    rejected = isinstance(result, CoidealRejection)
    return {
        "n": n,
        "coideal": result.certified,
        "dimension": result.space.dimension,
        "failed_axiom": result.axiom if rejected else None,
        "counterexample": (
            _matrix_rows(Matrix.from_flat(result.element, n)) if rejected else None
        ),
        "failed_component": (
            [list(divmod(c, n)) for c in result.component]
            if rejected and result.component is not None
            else None
        ),
    }


# Each `analyze` action and what answers it: a subspace, written as a basis
# document, or a JSON object.  The parser offers the actions in this order.
_ANALYSES: dict[str, Callable[[BasisDocument], Subspace | dict]] = {
    "closure": lambda doc: closure(doc.n, doc.matrices).space,
    "radical": lambda doc: radical(_input_algebra(doc)),
    "blocks": _blocks,
    "is-parabolic": _is_parabolic,
    "is-coideal": _is_coideal,
    "perp": lambda doc: perp(_input_space(doc)),
}


def _cmd_analyze(args: argparse.Namespace) -> int:
    doc = parse_basis_document(_read_text(args.input))
    answer = _ANALYSES[args.action](doc)
    if isinstance(answer, Subspace):
        text = _space_document(doc.n, answer)
    else:
        text = json.dumps(answer, indent=2) + "\n"
    _write_text(args.output, text)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        report = run_verification(
            args.suite,
            args.n,
            seed=args.seed,
            trials=args.trials,
            budget=args.budget,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _write_text(args.output, report.to_text())
    sys.stdout.flush()
    print(f"wall time: {report.wall_time_s:.2f}s", file=sys.stderr)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# Parser wiring.
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: `parse_args`
    leaves it unchanged, so every call of `main` can share it."""
    parser = argparse.ArgumentParser(
        prog="matalg",
        description="exact structure computations for matrix subalgebras and coideals",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    construct = sub.add_parser(
        "construct", help="emit basis documents for standard objects"
    )
    construct_sub = construct.add_subparsers(dest="object", required=True)
    for name, constructor, blurb in (
        ("parabolic-algebra", parabolic_subalgebra, "block upper-triangular algebra"),
        ("parabolic-coideal", parabolic_coideal, "complementary lower-block coideal"),
    ):
        p = construct_sub.add_parser(name, help=blurb)
        p.add_argument("--type", type=_parse_composition, required=True,
                       help="comma-separated block sizes, e.g. 1,2")
        p.add_argument("--n", type=_parse_int, default=None,
                       help="ambient size; must match the sum of the block sizes")
        p.add_argument("--output", default=None, help="output path (default: stdout)")
        p.set_defaults(handler=_cmd_construct, constructor=constructor)

    analyze = sub.add_parser("analyze", help="analyze a basis document")
    analyze.add_argument("action", choices=tuple(_ANALYSES))
    analyze.add_argument("--input", required=True,
                         help="basis document path, or - for stdin")
    analyze.add_argument("--output", default=None, help="output path (default: stdout)")
    analyze.set_defaults(handler=_cmd_analyze)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("--suite", choices=SUITE_NAMES, required=True)
    verify.add_argument("--n", type=_parse_n_range, required=True,
                        help="size or inclusive range, e.g. 3 or 2..4")
    verify.add_argument("--seed", type=_parse_int, default=0)
    verify.add_argument("--trials", type=_parse_int, default=None,
                        help="override per-check random draw counts")
    verify.add_argument("--budget", type=_parse_int, default=None,
                        help="nil certification budget: the most monomials of "
                        "Tr(X^k), k = 1..n, summed, that the expansion may reach "
                        "for a span not settled by Tr(X), Tr(X^2) or the kernel "
                        "flag (default 100000)")
    verify.add_argument("--output", default=None, help="report path (default: stdout)")
    verify.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # downstream closed the pipe
        return 0


if __name__ == "__main__":
    sys.exit(main())
