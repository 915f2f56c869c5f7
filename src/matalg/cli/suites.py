"""Verification suites: exhaustive and randomized checks with reports.

Each suite replays a family of structural facts at small n -- extremal
dimensions of proper unital subalgebras, the block dimension formula,
maximality of two-block types, nil-subspace bounds, radical/block
consistency, coideal duality and minimality, the commutative dimension
bound -- and records one pass/fail line per check.

Reports are deterministic: given the same (suite, n range, seed, trials,
budget) the rendered text is byte-identical, so reports can be diffed
across runs and machines.  Wall time is measured but kept out of the
canonical text.

The exhaustive corpus at n = 2, 3 is the family of unit-pattern
subalgebras: spans of matrix units containing all diagonal units whose
off-diagonal position set is transitively closed.  These are exactly the
spans closed under multiplication, so they exhaust a natural finite
testbed (4 algebras at n = 2, 29 at n = 3).  At n = 4 a fixed corpus of
block-triangular, diagonal, commutative-extremal and seeded random
closure algebras stands in, since exhaustive enumeration is no longer
practical.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from ..algebra import (
    Composition,
    MatrixAlgebra,
    absorption_probe,
    closure,
    compositions,
    conjugate_space,
    is_parabolic,
    optimal_composition,
    parabolic_dimension,
    parabolic_subalgebra,
    radical,
    schur_commutative_check,
    semisimple_blocks,
)
from ..coalgebra import is_coideal, parabolic_coideal, perp
from ..exactlin import (
    Matrix,
    Subspace,
    _unit_span,
    full_space,
    random_invertible,
    random_matrix,
    random_subspace,
    rref_basis,
)
from ..nilpotent import (
    ALL_NILPOTENT,
    DEFAULT_TERM_BUDGET,
    WITNESS_FOUND,
    is_nil_subspace,
    nil_bound,
    strictly_upper_space,
    triangularize_nil,
)

__all__ = [
    "CheckRecord",
    "VerificationReport",
    "SUITE_NAMES",
    "suite_supported_ns",
    "enumerate_unit_pattern_subalgebras",
    "corpus_algebras",
    "run_verification",
]


@dataclass(frozen=True)
class CheckRecord:
    """One verification line: an identifier, the statement being checked,
    and the expected/observed values."""

    check_id: str
    claim: str
    expected: str
    observed: str
    passed: bool


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    n_lo: int
    n_hi: int
    seed: int
    trials: int | None
    budget: int | None
    records: tuple[CheckRecord, ...]
    wall_time_s: float

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def to_text(self) -> str:
        """Canonical report text; deterministic for fixed inputs (wall
        time is deliberately excluded)."""
        lines = [
            f"suite: {self.suite}",
            f"n: {self.n_lo}..{self.n_hi}",
            f"seed: {self.seed}",
            f"trials: {'default' if self.trials is None else self.trials}",
            f"budget: {'default' if self.budget is None else self.budget}",
            "checks:",
        ]
        for r in self.records:
            status = "pass" if r.passed else "FAIL"
            lines.append(
                f"  [{status}] {r.check_id} expected={r.expected} observed={r.observed} :: {r.claim}"
            )
        failed = sum(1 for r in self.records if not r.passed)
        lines.append(
            f"summary: {len(self.records)} checks, {len(self.records) - failed} passed, {failed} failed"
        )
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


def _check(check_id: str, claim: str, expected: object, observed: object) -> CheckRecord:
    return CheckRecord(
        check_id=check_id,
        claim=claim,
        expected=str(expected),
        observed=str(observed),
        passed=str(expected) == str(observed),
    )


def _all_of(check_id: str, claim: str, outcomes: Iterable[bool]) -> CheckRecord:
    """A tally of checks that must all hold: expected t/t, observed k/t."""
    outcomes = list(outcomes)
    t = len(outcomes)
    return _check(check_id, claim, f"{t}/{t}", f"{sum(outcomes)}/{t}")


def _none_of(
    check_id: str, claim: str, outcomes: Iterable[bool], noun: str = "violations"
) -> CheckRecord:
    """A tally of events that must never happen: expected 0, observed k."""
    return _check(check_id, claim, f"0 {noun}", f"{sum(outcomes)} {noun}")


def _rng(seed: int, *tags: object) -> random.Random:
    """Deterministic child generator; string seeding is stable across
    platforms and Python versions."""
    return random.Random(":".join(str(t) for t in (seed,) + tags))


# ---------------------------------------------------------------------------
# Corpora.
# ---------------------------------------------------------------------------


def enumerate_unit_pattern_subalgebras(n: int) -> list[MatrixAlgebra]:
    """All unit-pattern subalgebras of M_n, for n in {2, 3}.

    A pattern is a set of off-diagonal positions; together with all
    diagonal positions it spans a unital multiplicatively closed algebra
    exactly when it is transitively closed ((i,j) and (j,k) present force
    (i,k)).  The list is free of duplicates (distinct patterns span
    distinct subspaces) and sorted by dimension, then by pattern.
    """
    if n not in (2, 3):
        raise ValueError("exhaustive enumeration is supported for n in {2, 3}")
    off = [(i, j) for i in range(n) for j in range(n) if i != j]
    diagonal = [(i, i) for i in range(n)]
    found: list[tuple[int, tuple[tuple[int, int], ...], MatrixAlgebra]] = []
    for mask in range(1 << len(off)):
        chosen = {off[k] for k in range(len(off)) if mask >> k & 1}
        if any((i, k) not in chosen for i, j in chosen for j2, k in chosen if j2 == j and i != k):
            continue
        algebra = MatrixAlgebra(n=n, space=_unit_span(n, diagonal + sorted(chosen)))
        found.append((algebra.dimension, tuple(sorted(chosen)), algebra))
    found.sort(key=lambda item: (item[0], item[1]))
    return [algebra for _, _, algebra in found]


def _unit_pattern_spaces(n: int, positions: Sequence[tuple[int, int]]) -> Iterator[Subspace]:
    """The span of the units e_{i,j} over each nonempty subset of
    `positions`, in bitmask order (bit k selects positions[k]); the full
    set comes last."""
    for mask in range(1, 1 << len(positions)):
        yield _unit_span(n, [p for k, p in enumerate(positions) if mask >> k & 1])


def corpus_algebras(n: int, seed: int = 0) -> list[tuple[str, MatrixAlgebra]]:
    """Labeled corpus for the structural suites.

    n = 2, 3: the exhaustive unit-pattern family.  n = 4: all block
    upper-triangular types, the diagonal algebra, the commutative
    algebra of extremal dimension, and six seeded random closures.
    """
    if n in (2, 3):
        return [
            (f"pattern-{idx:02d}", algebra)
            for idx, algebra in enumerate(enumerate_unit_pattern_subalgebras(n))
        ]
    if n != 4:
        raise ValueError("corpus is defined for n in {2, 3, 4}")
    entries: list[tuple[str, MatrixAlgebra]] = []
    for comp in compositions(n):
        label = "blocks-" + "-".join(str(p) for p in comp.parts)
        entries.append((label, parabolic_subalgebra(comp)))
    diagonal = MatrixAlgebra(n=n, space=_unit_span(n, [(i, i) for i in range(n)]))
    entries.append(("diagonal", diagonal))
    # span{I, e_{0,2}, e_{0,3}, e_{1,2}, e_{1,3}}: commutative of dimension
    # n^2/4 + 1, the largest a commutative subalgebra can be.
    extremal_units = [Matrix.identity(n).flatten()] + [
        Matrix.unit(n, i, j).flatten() for i in (0, 1) for j in (2, 3)
    ]
    entries.append(
        ("commutative-extremal", MatrixAlgebra(n=n, space=rref_basis(extremal_units, n * n)))
    )
    rng = _rng(seed, "corpus", n)
    for t in range(3):
        entries.append((f"cyclic-{t}", closure(n, [random_matrix(rng, n)])))
    for t in range(3):
        gens = [random_matrix(rng, n) for _ in range(2)]
        entries.append((f"generated-{t}", closure(n, gens)))
    return entries


# ---------------------------------------------------------------------------
# Suite runners.  Each yields the records of one size n.
# ---------------------------------------------------------------------------

_CORPUS_SIZES = {2: 4, 3: 29}  # transitively closed patterns, counted exhaustively
_NIL_PATTERN_COUNT_N3 = 24  # nonzero acyclic patterns on three points (25 labeled DAGs minus the empty one)
# Draw limit of the maximality probe: a draw lands inside a two-block
# algebra only when all its block-lower entries are 0, with probability
# at most 1/7 for entries in [-3, 3].
_OUTSIDE_DRAW_LIMIT = 1000


def _outside(algebra: MatrixAlgebra, rng: random.Random) -> Matrix:
    """The first random matrix drawn that is not in `algebra`."""
    for _ in range(_OUTSIDE_DRAW_LIMIT):
        x = random_matrix(rng, algebra.n)
        if not algebra.contains(x):
            return x
    raise RuntimeError(f"no matrix outside {algebra!r} in {_OUTSIDE_DRAW_LIMIT} draws")


def _run_max_subalgebra(
    n: int, seed: int, trials: int | None, budget: int | None
) -> Iterator[CheckRecord]:
    target = n * n - n + 1
    if n <= 3:
        corpus = enumerate_unit_pattern_subalgebras(n)
        yield _check(
            f"max-subalgebra/corpus-size/n={n}",
            "count of transitively closed unit patterns",
            _CORPUS_SIZES[n],
            len(corpus),
        )
        proper = [a.dimension for a in corpus if a.dimension < n * n]
        yield _check(
            f"max-subalgebra/exhaustive-max/n={n}",
            "largest proper unital dimension over the exhaustive corpus is n^2 - n + 1",
            target,
            max(proper),
        )
    yield _check(
        f"max-subalgebra/parabolic-attains/n={n}",
        "the block type (1, n-1) reaches dimension n^2 - n + 1",
        target,
        parabolic_subalgebra(Composition((1, n - 1))).dimension,
    )
    if n >= 4:
        t = 200 if trials is None else trials
        rng = _rng(seed, "closures", n)
        between = []
        for _ in range(t):
            k = rng.randint(1, 3)
            gens = [random_matrix(rng, n) for _ in range(k)]
            between.append(target < closure(n, gens).dimension < n * n)
        yield _none_of(
            f"max-subalgebra/random-closures/n={n}",
            f"no closure of up to three random generators lands strictly between n^2-n+1 and n^2 ({t} draws)",
            between,
        )


def _run_dimension_formula(
    n: int, seed: int, trials: int | None, budget: int | None
) -> Iterator[CheckRecord]:
    yield _all_of(
        f"dimension-formula/n={n}",
        "every block type (n_1..n_s) spans dimension (n^2 + sum n_i^2)/2",
        (
            parabolic_subalgebra(comp).dimension == parabolic_dimension(comp)
            for comp in compositions(n)
        ),
    )


def _run_split_bound(
    n: int, seed: int, trials: int | None, budget: int | None
) -> Iterator[CheckRecord]:
    split: list[tuple[MatrixAlgebra, int]] = []
    for _, a in corpus_algebras(n, seed):
        data = semisimple_blocks(a)
        if data.split:
            split.append((a, (n * n + sum(s * s for s in data.block_sizes)) // 2))
    yield _none_of(
        f"split-bound/dimension/n={n}",
        f"dim <= (n^2 + sum n_i^2)/2 for every split corpus algebra ({len(split)} checked)",
        (a.dimension > bound for a, bound in split),
    )
    yield _all_of(
        f"split-bound/equality/n={n}",
        "every algebra meeting the bound is conjugate to its block type",
        (is_parabolic(a)[0] for a, bound in split if a.dimension == bound),
    )


def _run_maximality(
    n: int, seed: int, trials: int | None, budget: int | None
) -> Iterator[CheckRecord]:
    t = 100 if trials is None else trials
    for left in range(1, n):
        algebra = parabolic_subalgebra(Composition((left, n - left)))
        rng = _rng(seed, "absorb", n, left)
        outside = (_outside(algebra, rng) for _ in range(t))
        yield _all_of(
            f"maximality/n={n}/type=({left},{n - left})",
            "adjoining any element outside a two-block algebra closes to all of M_n",
            (absorption_probe(algebra, x).dimension == n * n for x in outside),
        )


def _run_optimal_type(
    n: int, seed: int, trials: int | None, budget: int | None
) -> Iterator[CheckRecord]:
    argmax, best = optimal_composition(n)
    observed = sorted(comp.parts for comp in argmax)
    expected = sorted({(1, n - 1), (n - 1, 1)})
    yield _check(
        f"optimal-type/argmax/n={n}",
        "the proper block types of maximal dimension are exactly (1, n-1) and (n-1, 1)",
        expected,
        observed,
    )
    yield _check(
        f"optimal-type/value/n={n}",
        "their dimension is n^2 - n + 1",
        n * n - n + 1,
        best,
    )


def _run_gerstenhaber(
    n: int, seed: int, trials: int | None, budget: int | None
) -> Iterator[CheckRecord]:
    nil_budget = DEFAULT_TERM_BUDGET if budget is None else budget
    if n == 3:
        positions = [(i, j) for i in range(n) for j in range(n)]
        nil_dims: list[int] = []
        for space in _unit_pattern_spaces(n, positions):
            cert = is_nil_subspace(space, budget=nil_budget)
            if cert.verdict == ALL_NILPOTENT:
                nil_dims.append(space.dimension)
        yield _check(
            f"gerstenhaber/nil-pattern-count/n={n}",
            "count of nonzero unit patterns spanning nil subspaces (acyclic patterns)",
            _NIL_PATTERN_COUNT_N3,
            len(nil_dims),
        )
        yield _check(
            f"gerstenhaber/exhaustive-nil-max/n={n}",
            "every nil unit-pattern subspace has dimension at most n(n-1)/2",
            nil_bound(n),
            max(nil_dims) if nil_dims else "no pattern certified",
        )
    t = 100 if trials is None else trials
    rng = _rng(seed, "witness", n)
    spaces = (random_subspace(rng, n * n, nil_bound(n) + 1) for _ in range(t))
    yield _all_of(
        f"gerstenhaber/random-witness/n={n}",
        "a subspace of dimension n(n-1)/2 + 1 always contains a non-nilpotent element",
        (is_nil_subspace(s, budget=nil_budget).verdict == WITNESS_FOUND for s in spaces),
    )
    t2 = 50 if trials is None else trials
    rng2 = _rng(seed, "triangularize", n)
    upper = strictly_upper_space(n)
    recovered = []
    for _ in range(t2):
        moved = conjugate_space(upper, random_invertible(rng2, n))
        back = triangularize_nil(moved)
        recovered.append(back is not None and conjugate_space(moved, back) == upper)
    yield _all_of(
        f"gerstenhaber/triangularize/n={n}",
        "conjugates of the strictly upper-triangular space are triangularized back exactly",
        recovered,
    )


def _run_wedderburn(
    n: int, seed: int, trials: int | None, budget: int | None
) -> Iterator[CheckRecord]:
    # semisimple_blocks raises RuntimeError unless radical(a) certifies
    blocks = [(a, semisimple_blocks(a)) for _, a in corpus_algebras(n, seed)]
    yield _all_of(
        f"wedderburn/identity/n={n}",
        "radical dimension plus sum of squared block sizes equals the dimension (split corpus)",
        (
            data.radical_dim + sum(s * s for s in data.block_sizes) == a.dimension
            for a, data in blocks
            if data.split
        ),
    )
    yield _all_of(
        f"wedderburn/radical-certified/n={n}",
        "the trace-form kernel certifies as a nilpotent two-sided ideal on the whole corpus",
        [True] * len(blocks),
    )
    full = MatrixAlgebra(n=n, space=full_space(n * n))
    yield _check(
        f"wedderburn/full-radical/n={n}",
        "the full matrix algebra has zero radical",
        0,
        radical(full).dimension,
    )


def _run_min_coideal(
    n: int, seed: int, trials: int | None, budget: int | None
) -> Iterator[CheckRecord]:
    spaces = [a.space for _, a in corpus_algebras(n, seed)]
    yield _all_of(
        f"min-coideal/perp-certifies/n={n}",
        "the annihilator of every corpus subalgebra certifies as a coideal",
        (is_coideal(perp(s)).certified for s in spaces),
    )
    rng = _rng(seed, "perp", n)
    t = 25 if trials is None else trials
    for _ in range(t):
        dim = rng.randint(0, n * n)
        spaces.append(random_subspace(rng, n * n, dim))
    yield _all_of(
        f"min-coideal/perp-involution/n={n}",
        "perp is an involution (corpus plus random subspaces)",
        (perp(perp(s)) == s for s in spaces),
    )
    yield _check(
        f"min-coideal/parabolic-coideal-dim/n={n}",
        "the block-lower coideal of type (1, n-1) has dimension n - 1",
        n - 1,
        parabolic_coideal(Composition((1, n - 1))).dimension,
    )
    sub_certified = []
    for left in range(1, n):
        pivots = parabolic_coideal(Composition((left, n - left))).space.pivots
        positions = [divmod(p, n) for p in pivots]
        for space in _unit_pattern_spaces(n, positions):
            if space.dimension < len(positions):  # skip the coideal itself
                sub_certified.append(is_coideal(space).certified)
    yield _none_of(
        f"min-coideal/two-block-minimal/n={n}",
        f"no proper nonzero unit sub-pattern of a two-block coideal certifies ({len(sub_certified)} candidates)",
        sub_certified,
        noun="certified",
    )
    if n <= 3:
        certified_dims: list[int] = []
        positions = [(i, j) for i in range(n) for j in range(n)]
        for space in _unit_pattern_spaces(n, positions):
            if is_coideal(space).certified:
                certified_dims.append(space.dimension)
        yield _check(
            f"min-coideal/minimal-dimension/n={n}",
            "the smallest certified nonzero unit-pattern coideal has dimension n - 1",
            n - 1,
            min(certified_dims),
        )


def _run_schur(
    n: int, seed: int, trials: int | None, budget: int | None
) -> Iterator[CheckRecord]:
    bound = (n * n) // 4 + 1
    commutative: list[tuple[MatrixAlgebra, bool]] = []
    for _, a in corpus_algebras(n, seed):
        is_commutative, bound_holds = schur_commutative_check(a)
        if is_commutative:
            commutative.append((a, bound_holds))
    yield _none_of(
        f"schur/bound/n={n}",
        f"every commutative corpus algebra has dimension at most n^2/4 + 1 ({len(commutative)} checked)",
        (not holds for _, holds in commutative),
    )
    yield _check(
        f"schur/attained/n={n}",
        "the commutative bound is attained in the corpus",
        True,
        any(a.dimension == bound for a, _ in commutative),
    )


_Runner = Callable[[int, int, "int | None", "int | None"], Iterator[CheckRecord]]

_SUITES: dict[str, tuple[frozenset[int], _Runner]] = {
    "max-subalgebra": (frozenset({2, 3, 4, 5}), _run_max_subalgebra),
    "dimension-formula": (frozenset(range(2, 9)), _run_dimension_formula),
    "split-bound": (frozenset({2, 3, 4}), _run_split_bound),
    "maximality": (frozenset({2, 3, 4}), _run_maximality),
    "optimal-type": (frozenset(range(2, 9)), _run_optimal_type),
    "gerstenhaber": (frozenset({3, 4}), _run_gerstenhaber),
    "wedderburn": (frozenset({2, 3, 4}), _run_wedderburn),
    "min-coideal": (frozenset({2, 3, 4}), _run_min_coideal),
    "schur": (frozenset({2, 3, 4}), _run_schur),
}

SUITE_NAMES = tuple(sorted(_SUITES)) + ("all",)


def suite_supported_ns(suite: str) -> frozenset[int]:
    if suite == "all":
        out: set[int] = set()
        for supported, _ in _SUITES.values():
            out |= supported
        return frozenset(out)
    if suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITE_NAMES)}")
    return _SUITES[suite][0]


def run_verification(
    suite: str,
    n_range: tuple[int, int],
    seed: int = 0,
    *,
    trials: int | None = None,
    budget: int | None = None,
) -> VerificationReport:
    """Run one suite (or "all") over an inclusive n range.

    Individual suites reject n outside their supported set; "all" runs
    every suite on the part of the range it supports.  `trials`
    overrides the per-check draw counts (default: each check's own
    count); `budget` caps the symbolic expansion in nil certification,
    counted as the monomials of the trace polynomials Tr(X^k), k = 1..n,
    of a generic element X (the sum of C(d + k - 1, k) for a
    d-dimensional subspace).
    """
    n_lo, n_hi = n_range
    if n_lo > n_hi:
        raise ValueError(f"empty n range {n_lo}..{n_hi}")
    if trials is not None and trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    supported = suite_supported_ns(suite)
    missing = [n for n in range(n_lo, n_hi + 1) if n not in supported]
    if missing and suite == "all":
        raise ValueError(f"n={missing[0]} is not covered by any suite")
    if missing:
        allowed = ", ".join(str(v) for v in sorted(supported))
        raise ValueError(f"suite {suite!r} does not support n={missing[0]} (supported: {allowed})")
    start = time.perf_counter()
    records = [
        record
        for name, (sizes, runner) in _SUITES.items()
        if suite in (name, "all")
        for n in range(n_lo, n_hi + 1)
        if n in sizes
        for record in runner(n, seed, trials, budget)
    ]
    records.sort(key=lambda r: r.check_id)
    elapsed = time.perf_counter() - start
    return VerificationReport(
        suite=suite,
        n_lo=n_lo,
        n_hi=n_hi,
        seed=seed,
        trials=trials,
        budget=budget,
        records=tuple(records),
        wall_time_s=elapsed,
    )
