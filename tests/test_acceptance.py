"""Acceptance gate: every structural claim at its full verification scale.

Each test runs one verification suite over its complete supported range
with a fixed seed and prints a single summary line.  Run with `pytest -v
-s tests/test_acceptance.py` to see one line per claim.

The last test pins the canonical text of `matalg verify --suite all --n
2..8 --seed 7`.  That report is the nine suites over exactly these
ranges, so it is assembled from the cached suite reports instead of
being run a second time.
"""

import hashlib
from functools import lru_cache

from matalg.cli.suites import VerificationReport, run_verification

SEED = 7

# sha256 of the canonical `all` report over n = 2..8 at SEED (78 checks).
GOLDEN_ALL_SHA256 = "c43239ea305b5785859eb2cde6ef2ac4db4b1d591a0afe4cdf31ca6830a0982a"

SUITE_RANGES = {
    "max-subalgebra": (2, 5),
    "dimension-formula": (2, 8),
    "split-bound": (2, 4),
    "maximality": (2, 4),
    "optimal-type": (2, 8),
    "gerstenhaber": (3, 4),
    "wedderburn": (2, 4),
    "min-coideal": (2, 4),
    "schur": (2, 4),
}


@lru_cache(maxsize=None)
def _report(name, n_range):
    return run_verification(name, n_range, seed=SEED)


def _run(name):
    lo, hi = SUITE_RANGES[name]
    report = _report(name, (lo, hi))
    status = "PASS" if report.passed else "FAIL"
    print(
        f"[{status}] {name} (n={lo}..{hi}): "
        f"{sum(1 for r in report.records if r.passed)}/{len(report.records)} checks"
    )
    failing = [r for r in report.records if not r.passed]
    detail = "; ".join(
        f"{r.check_id}: expected {r.expected}, observed {r.observed}" for r in failing
    )
    assert report.passed, f"{name} failed: {detail}"
    return report


def test_proper_subalgebra_dimension_extremality():
    # exhaustive pattern corpus at n = 2, 3; 200 random closures at n = 4, 5
    _run("max-subalgebra")


def test_block_type_dimension_formula():
    # all 2^(n-1) block types for every n up to 8
    _run("dimension-formula")


def test_split_dimension_bound_and_equality_recognition():
    report = _run("split-bound")
    # the equality cases must actually have been exercised
    for n in (2, 3):
        rec = next(
            r for r in report.records if r.check_id == f"split-bound/equality/n={n}"
        )
        checked = int(rec.observed.split("/")[1])
        assert checked > 0


def test_two_block_algebras_are_maximal():
    # 100 absorption probes per two-block type
    _run("maximality")


def test_optimal_block_type_is_thin_thick():
    _run("optimal-type")


def test_nil_subspace_dimension_bound():
    # exhaustive patterns at n = 3; 100 random above-bound subspaces and
    # 50 triangularization round trips per n
    _run("gerstenhaber")


def test_radical_block_decomposition_consistency():
    _run("wedderburn")


def test_minimal_coideal_dimension_and_duality():
    _run("min-coideal")


def test_commutative_subalgebra_dimension_bound():
    _run("schur")


def test_golden_all_report():
    records = [
        r for name, n_range in SUITE_RANGES.items() for r in _report(name, n_range).records
    ]
    report = VerificationReport(
        suite="all",
        n_lo=2,
        n_hi=8,
        seed=SEED,
        trials=None,
        budget=None,
        records=tuple(sorted(records, key=lambda r: r.check_id)),
        wall_time_s=0.0,
    )
    assert len(report.records) == 78
    digest = hashlib.sha256(report.to_text().encode("utf-8")).hexdigest()
    assert digest == GOLDEN_ALL_SHA256
