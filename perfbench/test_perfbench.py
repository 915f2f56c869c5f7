"""Tests of the benchmark itself: its checks, its tracer, its manifest.

Run from the repository root with `python3 -m pytest perfbench`.
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads as W

M = run.load_matalg()


def answered(op):
    """Call `op`, require its check to accept the answer, return it."""
    result = op.call()
    assert op.check(result) is None
    return result


def test_closure_check_rejects_a_closure_one_dimension_short():
    op = W.conjugated_closure_op(M, random.Random(1), (1, 1, 2))
    result = answered(op)
    space = result.space
    short = dataclasses.replace(space, basis=space.basis[:-1], pivots=space.pivots[:-1])
    assert op.check(dataclasses.replace(result, space=short))


def test_witness_check_rejects_a_tampered_witness():
    op = W.witness_op(M, random.Random(2), 4)
    cert = answered(op)
    rows = [list(row) for row in cert.witness.entries]
    rows[0][0] += 1
    assert op.check(dataclasses.replace(cert, witness=M.Matrix(rows)))


def test_coideal_checks_reject_flipped_verdicts():
    certify = W.unit_pattern_certify_op(M, random.Random(3), (2, 2))
    x, verdict = answered(certify)
    assert certify.check((x, dataclasses.replace(verdict, certified=False)))
    reject = W.reject_op(M, random.Random(3), 4, 2)
    rejection = answered(reject)
    assert reject.check(dataclasses.replace(rejection, certified=True))


def test_blocks_check_rejects_a_wrong_block_size(tmp_path):
    blocks = W.analyze_ops(M, random.Random(4), (1, 3), True, tmp_path, "p", ["blocks"])[0]
    code, text = answered(blocks)
    out = json.loads(text)
    out["block_sizes"][0] += 1
    assert blocks.check((code, json.dumps(out)))


def one_of_each(rng, workdir):
    """A short list holding every operation class at n = 4."""
    return [
        W.conjugated_closure_op(M, rng, (1, 3)),
        W.probe_op(M, rng, (2, 2)),
        W.unit_pattern_certify_op(M, rng, (1, 3)),
        W.conjugated_certify_op(M, rng, (3, 1)),
        W.reject_op(M, rng, 4, 2),
        W.nil_certify_op(M, rng, 4, 6),
        W.witness_op(M, rng, 4),
        W.triangularize_op(M, rng, 4, 2),
        *W.analyze_ops(M, rng, (2, 2), True, workdir, "p"),
        *W.analyze_ops(M, rng, (1, 1, 2), False, workdir, "d"),
    ]


def traced_counts(workdir):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        ops = one_of_each(random.Random(5), workdir)
        for op in ops:
            with tracer.span("op"):
                result = op.call()
            assert op.check(result) is None
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    return {name: metrics[name]["value"] for name in tracing.COUNT_METRICS}


def test_two_traced_runs_give_identical_counts(tmp_path):
    first = traced_counts(tmp_path)
    second = traced_counts(tmp_path)
    assert first == second
    assert all(value > 0 for value in first.values()), first


def test_calibration_scales_each_call_by_the_passes_around_it():
    ref = run.CALIBRATION_REFERENCE_S
    # The machine runs at half speed for the last two calls.
    passes = [ref] * 4 + [2 * ref] * 5
    scaled = run.calibrated([0.1] * 6 + [0.2] * 2, passes)
    assert scaled[:4] == pytest.approx([0.1] * 4)
    assert scaled[-2:] == pytest.approx([0.1] * 2)


def test_uninstall_restores_matalg():
    closure, mul = M.closure, M.Matrix.__mul__
    tracer = tracing.Tracer()
    tracer.install()
    assert M.closure is not closure and M.algebra.closure is not closure
    tracer.uninstall()
    assert M.closure is closure and M.algebra.closure is closure
    assert M.Matrix.__mul__ is mul


def test_manifest_names_what_the_benchmark_prints():
    manifest = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in manifest["workloads"]] == list(W.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in manifest["per_layer"]] == [
        (name, tracing.unit(name)) for name in tracing.PER_LAYER
    ]
    assert {m["name"] for m in manifest["end_to_end"]} == {
        "ops_per_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb", "setup_s"
    }
    assert manifest["run_seconds"] == run.ROUND_SECONDS


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "closure", "--seed", "1",
         "--seconds", "20", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.mark.parametrize("name", list(W.WORKLOADS))
def test_lists_do_not_depend_on_the_seed_in_composition(name, tmp_path):
    kinds = [sorted(op.kind for op in W.build(name, M, seed, tmp_path)) for seed in (1, 2)]
    assert kinds[0] == kinds[1]
