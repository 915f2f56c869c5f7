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
import json
import sys

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
    format_rational,
    parse_basis_document,
    serialize_basis_document,
)
from .suites import SUITE_NAMES, run_verification

__all__ = ["main"]


def _parse_composition(text: str) -> tuple[int, ...]:
    parts = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece.isdigit() or int(piece) <= 0:
            raise argparse.ArgumentTypeError(
                f"invalid block type {text!r}: expected comma-separated positive integers"
            )
        parts.append(int(piece))
    if not parts:
        raise argparse.ArgumentTypeError("block type must have at least one part")
    return tuple(parts)


def _parse_n_range(text: str) -> tuple[int, int]:
    raw = text.strip()
    if ".." in raw:
        lo_text, _, hi_text = raw.partition("..")
        lo_text, hi_text = lo_text.strip(), hi_text.strip()
    else:
        lo_text = hi_text = raw
    if not lo_text.isdigit() or not hi_text.isdigit():
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


def _matrix_rows(m: Matrix) -> list[list[str]]:
    return [[format_rational(v) for v in row] for row in m.entries]


def _space_document(n: int, space: Subspace) -> str:
    matrices = [Matrix.from_flat(vec, n) for vec in space.basis]
    return serialize_basis_document(BasisDocument(n=n, matrices=tuple(matrices)))


def _input_algebra(doc: BasisDocument) -> MatrixAlgebra:
    try:
        return algebra_from_basis(doc.n, doc.matrices)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc


def _input_space(doc: BasisDocument) -> Subspace:
    return rref_basis([m.flatten() for m in doc.matrices], doc.n * doc.n)


# ---------------------------------------------------------------------------
# Handlers.
# ---------------------------------------------------------------------------


def _resolve_type(args: argparse.Namespace) -> Composition:
    parts = args.type
    if args.n is not None and sum(parts) != args.n:
        raise DocumentError(
            f"block type {','.join(map(str, parts))} sums to {sum(parts)}, not n={args.n}"
        )
    return Composition(parts)


def _cmd_construct_algebra(args: argparse.Namespace) -> int:
    comp = _resolve_type(args)
    algebra = parabolic_subalgebra(comp)
    _write_text(args.output, _space_document(algebra.n, algebra.space))
    return 0


def _cmd_construct_coideal(args: argparse.Namespace) -> int:
    comp = _resolve_type(args)
    coideal = parabolic_coideal(comp)
    _write_text(args.output, _space_document(coideal.n, coideal.space))
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    doc = parse_basis_document(_read_text(args.input))
    n = doc.n
    action = args.action
    if action == "closure":
        algebra = closure(n, doc.matrices)
        _write_text(args.output, _space_document(n, algebra.space))
        return 0
    if action == "radical":
        algebra = _input_algebra(doc)
        _write_text(args.output, _space_document(n, radical(algebra)))
        return 0
    if action == "perp":
        _write_text(args.output, _space_document(n, perp(_input_space(doc))))
        return 0
    if action == "blocks":
        data = semisimple_blocks(_input_algebra(doc))
        payload = {
            "n": n,
            "dimension": data.radical_dim + data.semisimple_dim,
            "radical_dimension": data.radical_dim,
            "semisimple_dimension": data.semisimple_dim,
            "split": data.split,
            "block_sizes": list(data.block_sizes) if data.split else None,
        }
    elif action == "is-parabolic":
        ok, comp, witness = is_parabolic(_input_algebra(doc))
        payload = {
            "n": n,
            "parabolic": ok,
            "type": list(comp.parts) if comp is not None else None,
            "witness": _matrix_rows(witness) if witness is not None else None,
        }
    elif action == "is-coideal":
        result = is_coideal(_input_space(doc))
        payload = {
            "n": n,
            "coideal": result.certified,
            "dimension": result.space.dimension,
        }
        if isinstance(result, CoidealRejection):
            payload["failed_axiom"] = result.axiom
            payload["counterexample"] = _matrix_rows(
                Matrix.from_flat(result.element, n)
            )
            payload["failed_component"] = (
                [list(divmod(c, n)) for c in result.component]
                if result.component is not None
                else None
            )
        else:
            payload["failed_axiom"] = None
            payload["counterexample"] = None
            payload["failed_component"] = None
    else:  # pragma: no cover - argparse restricts choices
        raise DocumentError(f"unknown analysis {action!r}")
    _write_text(args.output, json.dumps(payload, indent=2) + "\n")
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matalg",
        description="exact structure computations for matrix subalgebras and coideals",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    construct = sub.add_parser(
        "construct", help="emit basis documents for standard objects"
    )
    construct_sub = construct.add_subparsers(dest="object", required=True)
    for name, handler, blurb in (
        ("parabolic-algebra", _cmd_construct_algebra, "block upper-triangular algebra"),
        ("parabolic-coideal", _cmd_construct_coideal, "complementary lower-block coideal"),
    ):
        p = construct_sub.add_parser(name, help=blurb)
        p.add_argument("--type", type=_parse_composition, required=True,
                       help="comma-separated block sizes, e.g. 1,2")
        p.add_argument("--n", type=int, default=None,
                       help="ambient size; must match the sum of the block sizes")
        p.add_argument("--output", default=None, help="output path (default: stdout)")
        p.set_defaults(handler=handler)

    analyze = sub.add_parser("analyze", help="analyze a basis document")
    analyze.add_argument(
        "action",
        choices=("closure", "radical", "blocks", "is-parabolic", "is-coideal", "perp"),
    )
    analyze.add_argument("--input", required=True,
                         help="basis document path, or - for stdin")
    analyze.add_argument("--output", default=None, help="output path (default: stdout)")
    analyze.set_defaults(handler=_cmd_analyze)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("--suite", choices=SUITE_NAMES, required=True)
    verify.add_argument("--n", type=_parse_n_range, required=True,
                        help="size or inclusive range, e.g. 3 or 2..4")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--trials", type=int, default=None,
                        help="override per-check random draw counts")
    verify.add_argument("--budget", type=int, default=None,
                        help="term budget for nil certification")
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
    except BrokenPipeError:  # pragma: no cover - downstream closed the pipe
        return 0


if __name__ == "__main__":
    sys.exit(main())
