"""Run one workload of the matalg benchmark and print its metrics as JSON.

    python3 perfbench/run.py --workload closure|coideal|nil|analyze|all \\
        --seed N --seconds S --trace 0|1

Run from the repository root; matalg is imported from ./src.  The
workload's operation list is built from the seed, then timed as a closed
loop with one caller: each operation starts when the previous one has
returned.  One round is the whole list; a run makes
max(1, round(S / ROUND_SECONDS)) rounds, so the work done depends on S
but never on how fast the machine is.  Every answer is checked after
its call, outside the timed region.

Times are reported at the reference speed: before each operation a
fixed calibration loop (Fraction arithmetic and small allocations, no
matalg) is timed, and each operation's wall time is scaled by
CALIBRATION_REFERENCE_S over the median calibration time around it.
A shared machine can run everything up to about 1.8 times slower for
tens of seconds at a time (README.md); the calibration loop slows with
it, so the scaled times do not.  The raw wall-time figures are kept in
the per-run detail file.

With --trace 0 the last line of output is the end-to-end metrics; with
--trace 1 the traced functions are wrapped (see tracing.py) and the last
line is the per-layer metrics.  `--workload all` runs each workload in
its own fresh process, one after another.  Per-run details go to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path

import workloads
from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# One round of every workload takes about this long on the reference
# machine at full speed (see README.md).
ROUND_SECONDS = 15
# Set-up is timed this many times per run; setup_s is the median.
SETUP_REPEATS = 5
# What one calibration pass takes on the reference machine at full speed.
CALIBRATION_REFERENCE_S = 0.0012
# An operation's speed factor is the median of this many calibration
# passes around it: the one just before it and those of its neighbours.
CALIBRATION_WINDOW = 5

IMPORT_CHILD = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import matalg, matalg.cli.main\n"
    "print(time.perf_counter() - t)\n"
)


def load_matalg():
    """Import matalg from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    import matalg
    import matalg.cli.main  # noqa: F401  (the analyze workload calls the CLI)

    if Path(matalg.__file__).resolve().parent != SRC / "matalg":
        raise ImportError(f"matalg was imported from {matalg.__file__}, not {SRC}")
    return matalg


def import_seconds() -> float:
    """Time `import matalg` in a fresh interpreter; returns seconds."""
    done = subprocess.run(
        [sys.executable, "-I", "-c", IMPORT_CHILD, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout)


def calibration_pass() -> float:
    """Seconds one pass of the calibration loop takes.  Like matalg's inner
    loops it does Fraction arithmetic, builds lists and dicts and sorts,
    but it calls no matalg."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 300):
        acc += Fraction(i % 97, i % 13 + 1)
    keys = [(i * i) % 1009 for i in range(2000)]
    keys.sort()
    {k: str(k) for k in keys}
    return time.perf_counter() - start


def calibrated(seconds: list[float], passes: list[float]) -> list[float]:
    """Scale each wall time to the reference speed.  passes[i] is the
    calibration pass just before call i (and passes[-1] the one after the
    last call)."""
    half = CALIBRATION_WINDOW // 2
    out = []
    for i, t in enumerate(seconds):
        window = passes[max(0, i - half): i + half + 1]
        out.append(t * CALIBRATION_REFERENCE_S / statistics.median(window))
    return out


def timed_rounds(ops, rounds: int, tracer: Tracer | None):
    """Call every operation `rounds` times; returns per-call wall seconds,
    calibration passes, classes, failed count and wrong-answer messages."""
    times: list[float] = []
    passes: list[float] = []
    kinds: list[str] = []
    failed = 0
    wrong: list[str] = []
    for _ in range(CALIBRATION_WINDOW):  # warm-up
        calibration_pass()
    for _ in range(rounds):
        for op in ops:
            passes.append(calibration_pass())
            start = time.perf_counter()
            try:
                if tracer is None:
                    result = op.call()
                else:
                    with tracer.span(f"op.{op.kind}"):
                        result = op.call()
            except Exception:  # one broken operation must not end the run
                times.append(time.perf_counter() - start)
                kinds.append(op.kind)
                failed += 1
                traceback.print_exc()
                continue
            times.append(time.perf_counter() - start)
            kinds.append(op.kind)
            verdict = op.check(result)
            if verdict == workloads.KNOWN_FAULT:
                failed += 1
            elif verdict is not None:
                wrong.append(f"{op.kind}: {verdict}")
    passes.append(calibration_pass())
    return times, passes, kinds, failed, wrong


def percentile_classes(times: list[float], kinds: list[str]) -> dict:
    """Which operation classes hold the calls ranked around p50 and p90."""
    order = sorted(range(len(times)), key=times.__getitem__)
    out = {}
    for label, q in (("p50", 0.5), ("p90", 0.9)):
        rank = int(q * len(order))
        window = order[max(0, rank - 3): rank + 3]
        out[label] = sorted({kinds[i] for i in window})
    return out


def class_summary(times: list[float], kinds: list[str]) -> dict:
    by_kind: dict[str, list[float]] = {}
    for t, k in zip(times, kinds):
        by_kind.setdefault(k, []).append(t)
    return {
        k: {"count": len(v), "median_ms": statistics.median(v) * 1e3,
            "min_ms": min(v) * 1e3, "max_ms": max(v) * 1e3}
        for k, v in sorted(by_kind.items())
    }


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    matalg = load_matalg()
    rounds = max(1, round(seconds / ROUND_SECONDS))
    OUT_DIR.mkdir(exist_ok=True)
    tracer = Tracer() if trace else None
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix=f"docs-{name}-") as tmp:
        workdir = Path(tmp)
        setup_samples = []
        setup_wall = []
        if tracer is None:
            for _ in range(SETUP_REPEATS):
                before = [calibration_pass() for _ in range(CALIBRATION_WINDOW)]
                imported = import_seconds()
                start = time.perf_counter()
                ops = workloads.build(name, matalg, seed, workdir)
                took = imported + time.perf_counter() - start
                after = [calibration_pass() for _ in range(CALIBRATION_WINDOW)]
                setup_wall.append(took)
                setup_samples.append(took * CALIBRATION_REFERENCE_S / statistics.median(before + after))
        else:
            tracer.install()
            with tracer.span("setup"):
                ops = workloads.build(name, matalg, seed, workdir)
        gc.collect()
        wall, passes, kinds, failed, wrong = timed_rounds(ops, rounds, tracer)
        if tracer is not None:
            tracer.uninstall()
    for message in wrong:
        print(f"wrong answer: {message}", file=sys.stderr)
    times = calibrated(wall, passes)
    total = sum(times)
    detail = {
        "workload": name, "seed": seed, "rounds": rounds, "trace": trace,
        "ops_per_s": len(times) / total,
        "wall_ops_per_s": len(wall) / sum(wall),
        "wall_op_p50_ms": statistics.median(wall) * 1e3,
        "wall_op_p90_ms": statistics.quantiles(wall, n=10)[8] * 1e3,
        "calibration_median_ms": statistics.median(passes) * 1e3,
        "calibration_quartiles_ms": [q * 1e3 for q in statistics.quantiles(passes, n=4)],
        "classes": class_summary(times, kinds),
        "percentile_classes": percentile_classes(times, kinds),
        "setup_samples_s": setup_samples,
        "setup_wall_s": setup_wall,
        "wrong": wrong,
    }
    if tracer is None:
        metrics = {
            "ops_per_s": {"value": len(times) / total, "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(times) * 1e3, "unit": "ms"},
            "op_p90_ms": {"value": statistics.quantiles(times, n=10)[8] * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        }
    else:
        metrics = tracer.metrics()
        tracer.write(OUT_DIR / f"trace-{name}-seed{seed}.json.gz")
    result = {"correct": not wrong, "attempted": len(times), "failed": failed, "metrics": metrics}
    detail["result"] = result
    (OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(detail, indent=1))
    return result


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    status = 0
    for name in workloads.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status |= subprocess.run(argv, timeout=900).returncode
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=ROUND_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"error: cannot import matalg from {SRC}: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
