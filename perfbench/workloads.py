"""The benchmark's four workloads: seeded inputs, timed calls, checks.

Each workload is a fixed list of operations.  An operation has a class
(`kind`), a call into matalg's public API that is timed, and a check
that runs afterwards, outside the timed region.  A check returns None
when the answer is right, `KNOWN_FAULT` when the answer shows the one
fault the benchmark keeps on purpose, and otherwise a message saying
what is wrong.  Checks use `oracle` (or plain JSON parsing) and never
matalg, and each compares against a theorem of the paper or a fact of
the construction, not against a stored answer.

matalg receives only the generated inputs: every random choice is made
here, from `random.Random` seeded with the workload name and the seed.
The composition of each list (how many operations of each input type)
is a fixed table per workload and does not depend on the seed, so the
share of each class, and of failed operations, is the same in every run.
Each table puts about 30% of the list below a tight middle group that
holds p50, and a tight slow group around p90; see README.md.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Sequence

import oracle

KNOWN_FAULT = "known fault"


@dataclass(frozen=True)
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], str | None]


def random_invertible(rng: random.Random, n: int) -> oracle.Rows:
    """A random integer matrix with entries in [-2, 2] that is invertible."""
    for _ in range(1000):
        rows = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        try:
            oracle.inverse(rows)
        except ValueError:
            continue
        return rows
    raise RuntimeError("no invertible matrix in 1000 draws")


def random_unimodular(rng: random.Random, n: int) -> oracle.Rows:
    """L U for random unit lower and upper triangular matrices whose other
    entries are drawn from +-1, +-2: its inverse is an integer matrix
    too, and the sizes of the conjugated entries, and what they cost,
    vary less between draws than with random_invertible."""
    lower = [[Fraction(1 if i == j else rng.choice((-2, -1, 1, 2)) if i > j else 0) for j in range(n)] for i in range(n)]
    upper = [[Fraction(1 if i == j else rng.choice((-2, -1, 1, 2)) if i < j else 0) for j in range(n)] for i in range(n)]
    return oracle.matmul(lower, upper)


def parabolic_dim(parts: Sequence[int]) -> int:
    n = sum(parts)
    return (n * n + sum(p * p for p in parts)) // 2


def unit_vectors(n: int, pairs) -> list[list[int]]:
    vectors = []
    for i, j in pairs:
        vec = [0] * (n * n)
        vec[i * n + j] = 1
        vectors.append(vec)
    return vectors


def block_diagonal_pairs(parts: Sequence[int]) -> list[tuple[int, int]]:
    blocks = oracle.block_of(parts)
    n = len(blocks)
    return [(i, j) for i in range(n) for j in range(n) if blocks[i] == blocks[j]]


def nonzero(rng: random.Random) -> int:
    return rng.choice((-3, -2, -1, 1, 2, 3))


# ---------------------------------------------------------------------------
# closure: absorption probes and closures of conjugated parabolic algebras.
# ---------------------------------------------------------------------------

def probe_op(M, rng: random.Random, parts: Sequence[int]) -> Op:
    """absorption_probe(P(l, n-l), x) for a sparse integer x outside P.

    By the paper's maximality theorem the result is all of M_n."""
    n = sum(parts)
    blocks = oracle.block_of(parts)
    rows = [[0] * n for _ in range(n)]
    for _ in range(rng.randint(0, 2)):
        rows[rng.randrange(n)][rng.randrange(n)] = rng.randint(-3, 3)
    below = [(a, b) for a in range(n) for b in range(n) if blocks[a] > blocks[b]]
    a, b = rng.choice(below)
    rows[a][b] = nonzero(rng)
    algebra = M.parabolic_subalgebra(M.Composition(parts))
    x = M.Matrix(rows)

    def check(result) -> str | None:
        basis = result.space.basis
        if len(basis) != n * n or oracle.rank(basis) != n * n:
            return f"probe of P{parts} gave dimension {len(basis)}, not {n * n}"
        return None

    return Op(f"probe-n{n}", lambda: M.absorption_probe(algebra, x), check)


def conjugated_closure_op(M, rng: random.Random, parts: Sequence[int]) -> Op:
    """closure of the (dense rational) basis of g P(c) g^-1.

    The result must have dimension (n^2 + sum c_i^2)/2, and conjugating
    each basis element back by g must give a block upper-triangular
    matrix of type c."""
    n = sum(parts)
    g = random_invertible(rng, n)
    g_inv = oracle.inverse(g)
    algebra = M.conjugate(M.parabolic_subalgebra(M.Composition(parts)), M.Matrix(g))
    generators = algebra.basis_matrices()
    expected = parabolic_dim(parts)

    def check(result) -> str | None:
        basis = result.space.basis
        if len(basis) != expected or oracle.rank(basis) != expected:
            return f"closure of conjugated P{parts} has dimension {len(basis)}, not {expected}"
        for vec in basis:
            back = oracle.conjugate(g_inv, oracle.unflatten(vec, n), g)
            if not oracle.is_block_upper(back, parts):
                return f"closure of conjugated P{parts} leaves the conjugated algebra"
        return None

    return Op(f"closure-n{n}", lambda: M.closure(n, generators), check)


# ---------------------------------------------------------------------------
# coideal: certify annihilators of unital subalgebras, reject small spaces.
# ---------------------------------------------------------------------------


def certify_op(M, kind: str, n: int, algebra_vectors: Sequence[Sequence], dim: int) -> Op:
    """is_coideal(perp(A)) for a unital subalgebra A of dimension `dim`.

    The annihilator of a subalgebra is a coideal, so the verdict must
    be certified, for the annihilator of A."""
    space = M.rref_basis(algebra_vectors, n * n)

    def call():
        x = M.perp(space)
        return x, M.is_coideal(x)

    def check(result) -> str | None:
        x, verdict = result
        if not verdict.certified:
            return f"annihilator of a dimension-{dim} subalgebra rejected as a coideal"
        if tuple(verdict.space.basis) != tuple(x.basis):
            return "coideal certificate is for another space"
        if oracle.rank(x.basis) != n * n - dim:
            return f"annihilator has dimension {len(x.basis)}, not {n * n - dim}"
        for u in x.basis:
            for v in algebra_vectors:
                if sum((Fraction(a) * b for a, b in zip(u, v)), Fraction(0)):
                    return "perp returned a vector that does not annihilate the algebra"
        return None

    return Op(kind, call, check)


def unit_pattern_certify_op(M, rng: random.Random, parts: Sequence[int]) -> Op:
    """As above for the unit-pattern algebra spanned by the e_{s(a),s(b)}
    with block(a) <= block(b), for a random permutation s: a block
    upper-triangular algebra with its coordinates permuted."""
    n = sum(parts)
    blocks = oracle.block_of(parts)
    s = rng.sample(range(n), n)
    pairs = [(s[a], s[b]) for a in range(n) for b in range(n) if blocks[a] <= blocks[b]]
    return certify_op(M, f"certify-n{n}", n, unit_vectors(n, pairs), len(pairs))


def conjugated_certify_op(M, rng: random.Random, parts: Sequence[int]) -> Op:
    """As above for u P(c) u^-1, u = 1 + t e_{ab} an elementary integer
    matrix, which keeps the annihilator sparse.  Position (a, b) lies
    below the diagonal blocks, so u is not in P(c) and u P(c) u^-1 is
    another algebra than P(c)."""
    n = sum(parts)
    blocks = oracle.block_of(parts)
    u = oracle.identity(n)
    a, b = rng.choice([(a, b) for a in range(n) for b in range(n) if blocks[a] > blocks[b]])
    u[a][b] = Fraction(nonzero(rng))
    algebra = M.conjugate(M.parabolic_subalgebra(M.Composition(parts)), M.Matrix(u))
    return certify_op(M, f"certify-n{n}", n, algebra.space.basis, parabolic_dim(parts))


def reject_op(M, rng: random.Random, n: int, k: int) -> Op:
    """is_coideal on a traceless subspace of dimension k in 1..n-2, spanned
    by vectors with nonzero entries (all but the last diagonal one drawn
    from +-1, +-2, +-3).

    A nonzero coideal has dimension at least n - 1 (the paper's
    minimality theorem), so the answer must be a rejection on the
    comultiplication axiom (the counit vanishes), naming a basis
    element of the input."""
    for _ in range(100):
        vectors = [[nonzero(rng) for _ in range(n * n)] for _ in range(k)]
        for vec in vectors:
            vec[n * n - 1] = -sum(vec[d * n + d] for d in range(n - 1))
        if oracle.rank(vectors) == k:
            break
    else:
        raise RuntimeError("no independent traceless vectors in 100 draws")
    space = M.rref_basis(vectors, n * n)

    def check(result) -> str | None:
        if result.certified:
            return f"a dimension-{k} space at n={n} was certified as a coideal"
        if result.axiom != "comultiplication":
            return f"traceless space rejected on {result.axiom!r}"
        element = tuple(result.element)
        if element not in tuple(tuple(v) for v in space.basis):
            return "rejection names an element that is not an input basis element"
        if not any(element) or not oracle.in_span(vectors, element):
            return "rejection names an element outside the input space"
        return None

    return Op(f"reject-n{n}", lambda: M.is_coideal(space), check)


# ---------------------------------------------------------------------------
# nil: certify conjugated strictly upper spaces, find witnesses above the
# Gerstenhaber bound, triangularize.
# ---------------------------------------------------------------------------


def strictly_upper_subspace(M, rng: random.Random, n: int, k: int):
    """The span of k independent random integer combinations of the
    strictly upper units, conjugated by a random g."""
    upper = unit_vectors(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    for _ in range(100):
        vectors = [
            [sum(rng.randint(-2, 2) * u[c] for u in upper) for c in range(n * n)]
            for _ in range(k)
        ]
        if oracle.rank(vectors) == k:
            break
    else:
        raise RuntimeError("no independent strictly upper vectors in 100 draws")
    g = random_invertible(rng, n)
    return M.conjugate_space(M.rref_basis(vectors, n * n), M.Matrix(g))


def nil_certify_op(M, rng: random.Random, n: int, k: int) -> Op:
    """A conjugate of a subspace of strictly upper matrices is nil."""
    space = strictly_upper_subspace(M, rng, n, k)

    def check(result) -> str | None:
        if result.verdict != M.ALL_NILPOTENT:
            return f"conjugated strictly upper space of dimension {k} got {result.verdict!r}"
        return None

    return Op(f"nil-certify-n{n}", lambda: M.is_nil_subspace(space), check)


def witness_op(M, rng: random.Random, n: int) -> Op:
    """g (strictly upper + a traceless diagonal h) g^-1, g unimodular, has
    dimension n(n-1)/2 + 1, above Gerstenhaber's bound, so it is not nil.
    The witness must lie in the space and satisfy x^n != 0."""
    upper = unit_vectors(n, [(a, b) for a in range(n) for b in range(a + 1, n)])
    diag = [nonzero(rng) for _ in range(n - 1)]
    diag.append(-sum(diag))
    h = [0] * (n * n)
    for d, value in enumerate(diag):
        h[d * n + d] = value
    g = random_unimodular(rng, n)
    space = M.conjugate_space(M.rref_basis(upper + [h], n * n), M.Matrix(g))

    def check(result) -> str | None:
        if result.verdict != M.WITNESS_FOUND:
            return f"space above the nil bound got {result.verdict!r}"
        w = oracle.to_rows(result.witness.entries)
        if not oracle.in_span(space.basis, oracle.flatten(w)):
            return "nil witness is not in the space"
        if oracle.is_zero(oracle.power(w, n)):
            return "nil witness is nilpotent"
        return None

    return Op(f"witness-n{n}", lambda: M.is_nil_subspace(space), check)


def triangularize_op(M, rng: random.Random, n: int, k: int) -> Op:
    """triangularize_nil on a conjugated strictly upper subspace of
    dimension k: the conjugator c must make c x c^-1 strictly upper for
    every basis x."""
    space = strictly_upper_subspace(M, rng, n, k)

    def check(c) -> str | None:
        if c is None:
            return "triangularize_nil gave up on a nilpotent space"
        c_rows = oracle.to_rows(c.entries)
        try:
            c_inv = oracle.inverse(c_rows)
        except ValueError:
            return "triangularizing conjugator is singular"
        for vec in space.basis:
            if not oracle.is_strictly_upper(oracle.conjugate(c_rows, oracle.unflatten(vec, n), c_inv)):
                return "conjugator leaves an element off the strictly upper space"
        return None

    return Op(f"triangularize-n{n}", lambda: M.triangularize_nil(space), check)


# ---------------------------------------------------------------------------
# analyze: `matalg analyze blocks|radical|is-parabolic` on basis documents.
# ---------------------------------------------------------------------------

def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = importlib.import_module("matalg.cli.main").main(argv)
    return code, out.getvalue()


def parse_document(text: str) -> list[oracle.Rows]:
    return [oracle.to_rows(m) for m in json.loads(text)["basis"]]


def write_document(path: Path, n: int, matrices) -> None:
    documents = importlib.import_module("matalg.cli.documents")
    doc = documents.BasisDocument(n=n, matrices=tuple(matrices))
    path.write_text(documents.serialize_basis_document(doc), encoding="utf-8")


ANALYZE_COMMANDS = ("blocks", "radical", "is-parabolic")


def analyze_ops(M, rng: random.Random, parts: Sequence[int], parabolic: bool,
                workdir: Path, name: str, commands: Sequence[str] = ANALYZE_COMMANDS) -> list[Op]:
    """`matalg analyze <command>` for each of `commands` on one conjugated
    algebra: the block upper-triangular algebra of type `parts`, or the
    block-diagonal one."""
    n = sum(parts)
    if parabolic:
        algebra = M.parabolic_subalgebra(M.Composition(parts))
    else:
        pairs = block_diagonal_pairs(parts)
        algebra = M.MatrixAlgebra(n=n, space=M.rref_basis(unit_vectors(n, pairs), n * n))
    g = random_invertible(rng, n)
    algebra = M.conjugate(algebra, M.Matrix(g))
    path = workdir / f"{name}.json"
    write_document(path, n, algebra.basis_matrices())
    basis = [oracle.unflatten(v, n) for v in algebra.space.basis]
    dim = len(basis)
    semisimple = sum(p * p for p in parts)
    radical_dim = dim - semisimple
    kind = f"{'parabolic' if parabolic else 'diagonal'}-n{n}"

    def blocks_check(result) -> str | None:
        code, text = result
        if code != 0:
            return f"analyze blocks exited {code}"
        out = json.loads(text)
        if (out["dimension"], out["radical_dimension"]) != (dim, radical_dim):
            return f"blocks of type {parts}: dimensions {out['dimension']}/{out['radical_dimension']}, not {dim}/{radical_dim}"
        if not out["split"] or out["block_sizes"] != sorted(parts):
            return f"blocks of type {parts}: block sizes {out['block_sizes']}, not {sorted(parts)}"
        return None

    def radical_check(result) -> str | None:
        code, text = result
        if code != 0:
            return f"analyze radical exited {code}"
        rad = parse_document(text)
        flat = [oracle.flatten(x) for x in rad]
        if len(rad) != radical_dim or oracle.rank(flat) != radical_dim:
            return f"radical of type {parts} has dimension {len(rad)}, not {radical_dim}"
        algebra_vectors = [oracle.flatten(b) for b in basis]
        for x, v in zip(rad, flat):
            if not oracle.is_zero(oracle.power(x, n)):
                return "radical element is not nilpotent"
            if not oracle.in_span(algebra_vectors, v):
                return "radical element is not in the algebra"
        return None

    def parabolic_check(result) -> str | None:
        code, text = result
        if code != 0:
            return f"analyze is-parabolic exited {code}"
        out = json.loads(text)
        if not parabolic:
            if out["parabolic"] or out["type"] is not None:
                return f"algebra of dimension {dim} < n(n+1)/2 reported parabolic"
            return None
        if not out["parabolic"] or out["type"] != list(parts):
            return f"conjugated P{parts} reported as {out['type']}"
        w = oracle.to_rows(out["witness"])
        try:
            w_inv = oracle.inverse(w)
        except ValueError:
            return "is-parabolic witness is singular"
        for b in basis:
            if not oracle.is_block_upper(oracle.conjugate(w, b, w_inv), parts):
                return f"is-parabolic witness does not bring P{parts} to block form"
        return None

    checks = {"blocks": blocks_check, "radical": radical_check, "is-parabolic": parabolic_check}
    argv = ["--input", str(path)]
    return [
        Op(f"{kind}-{command}", lambda command=command: run_cli(["analyze", command] + argv), checks[command])
        for command in commands
    ]


def diagonal_blocks_op(M, n: int, workdir: Path) -> Op:
    """`analyze blocks` on the diagonal algebra of M_n, which is split
    with n blocks of size 1.  At n = 10 semisimple_blocks exhausts its
    random draws and prints "split": false on every run; the input does
    not depend on the seed."""
    path = workdir / f"diagonal{n}.json"
    units = [M.Matrix.unit(n, i, i) for i in range(n)]
    write_document(path, n, units)

    def check(result) -> str | None:
        code, text = result
        if code != 0:
            return f"analyze blocks exited {code}"
        out = json.loads(text)
        if (out["dimension"], out["radical_dimension"]) != (n, 0):
            return f"diagonal algebra: dimensions {out['dimension']}/{out['radical_dimension']}"
        if not out["split"]:
            return KNOWN_FAULT
        if out["block_sizes"] != [1] * n:
            return f"diagonal algebra: block sizes {out['block_sizes']}"
        return None

    return Op(f"diagonal-blocks-n{n}", lambda: run_cli(["analyze", "blocks", "--input", str(path)]), check)


# ---------------------------------------------------------------------------
# Workload lists.  Each table row is (count, factory, arguments after
# `M, rng`).  The rows run from the cheapest operations to the dearest:
# about 30% of the list below the middle group, the middle group (about
# 40%, it holds p50), a few operations between it and the slow group, the
# slow group around p90, and in some lists one or two dearer operations
# above it.  An input type's cost varies little between seeds, so p50
# and p90 stay inside their groups.  Costs are in README.md.
# ---------------------------------------------------------------------------

CLOSURE_PLAN = [
    # below the middle: closures at n = 4 of the types with two equal
    # blocks or three and more blocks
    *[(7, conjugated_closure_op, (c,)) for c in ((2, 2), (1, 1, 2), (1, 2, 1), (2, 1, 1), (1, 1, 1, 1))],
    # middle: absorption probes at n = 4
    (24, probe_op, ((1, 3),)),
    (24, probe_op, ((3, 1),)),
    # between: closures at n = 4 of the types with a block of size 3
    (6, conjugated_closure_op, ((1, 3),)),
    (6, conjugated_closure_op, ((3, 1),)),
    # slow: probes and closures at n = 5
    (6, probe_op, ((1, 4),)),
    (6, probe_op, ((3, 2),)),
    (6, conjugated_closure_op, ((1, 4),)),
    (6, conjugated_closure_op, ((4, 1),)),
]

COIDEAL_PLAN = [
    # below the middle: certifications with one block of size 3 or two of 2
    (20, unit_pattern_certify_op, ((1, 3),)),
    (20, unit_pattern_certify_op, ((3, 1),)),
    (20, unit_pattern_certify_op, ((2, 2),)),
    # middle: certifications with three blocks, rejections of lines
    (25, unit_pattern_certify_op, ((1, 1, 2),)),
    (25, unit_pattern_certify_op, ((2, 1, 1),)),
    (30, reject_op, (4, 1)),
    # between: certifications of conjugated algebras, four blocks, n = 5
    *[(3, conjugated_certify_op, (c,)) for c in ((1, 3), (3, 1), (2, 2))],
    *[(2, conjugated_certify_op, (c,)) for c in ((1, 1, 2), (2, 1, 1), (1, 2, 1))],
    (2, unit_pattern_certify_op, ((1, 1, 1, 1),)),
    (1, unit_pattern_certify_op, ((1, 4),)),
    (1, unit_pattern_certify_op, ((4, 1),)),
    (1, reject_op, (5, 1)),
    # slow: rejections of planes at n = 4, and one at n = 5 above them
    (40, reject_op, (4, 2)),
    (1, reject_op, (5, 2)),
]

NIL_PLAN = [
    # below the middle: triangularizing planes
    (36, triangularize_op, (4, 2)),
    # middle: triangularizing spaces of dimension 3 to 6
    *[(10, triangularize_op, (4, k)) for k in (3, 4, 5, 6)],
    # between: certifying nil spaces of dimension 5 and 6
    (5, nil_certify_op, (4, 5)),
    (5, nil_certify_op, (4, 6)),
    # slow: witnesses above Gerstenhaber's bound
    (32, witness_op, (4,)),
]

# analyze rows are (count, parts, parabolic, commands): `count` documents,
# each asked every command in `commands`.
ANALYZE_PLAN = [
    # below the middle: block-diagonal algebras at n = 4 (block-diagonal
    # algebras here all have dimension below the Borel n(n+1)/2)
    *[(2, c, False, ANALYZE_COMMANDS) for c in ((2, 2), (1, 1, 2), (1, 2, 1), (2, 1, 1), (1, 1, 1, 1))],
    # middle: parabolic algebras at n = 4
    *[(2, c, True, ANALYZE_COMMANDS) for c in ((1, 3), (3, 1), (2, 2), (1, 1, 2), (1, 2, 1), (2, 1, 1), (1, 1, 1, 1))],
    # between: radical and is-parabolic of block-diagonal algebras at n = 5
    (2, (2, 3), False, ("radical", "is-parabolic")),
    (2, (3, 2), False, ("radical", "is-parabolic")),
    # slow: blocks of block-diagonal algebras at n = 5
    (8, (2, 3), False, ("blocks",)),
    (7, (3, 2), False, ("blocks",)),
    # above them: parabolic algebras at n = 5 (and the diagonal one at n = 10)
    (1, (2, 3), True, ("blocks", "radical")),
    (1, (3, 2), True, ("radical", "is-parabolic")),
]


def from_plan(M, rng, plan) -> list[Op]:
    return [factory(M, rng, *args) for count, factory, args in plan for _ in range(count)]


def build_closure(M, rng, workdir) -> list[Op]:
    return from_plan(M, rng, CLOSURE_PLAN)


def build_coideal(M, rng, workdir) -> list[Op]:
    return from_plan(M, rng, COIDEAL_PLAN)


def build_nil(M, rng, workdir) -> list[Op]:
    return from_plan(M, rng, NIL_PLAN)


def build_analyze(M, rng, workdir) -> list[Op]:
    ops: list[Op] = []
    for count, parts, parabolic, commands in ANALYZE_PLAN:
        for _ in range(count):
            name = f"{'p' if parabolic else 'd'}{len(ops)}"
            ops += analyze_ops(M, rng, parts, parabolic, workdir, name, commands)
    ops.append(diagonal_blocks_op(M, 10, workdir))
    return ops


WORKLOADS = {
    "closure": build_closure,
    "coideal": build_coideal,
    "nil": build_nil,
    "analyze": build_analyze,
}


def build(name: str, M, seed: int, workdir: Path) -> list[Op]:
    """The operation list of workload `name` for `seed`, in call order."""
    rng = random.Random(f"{name}:{seed}")
    ops = WORKLOADS[name](M, rng, workdir)
    rng.shuffle(ops)
    return ops
