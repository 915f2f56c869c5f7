"""Spans around matalg's public functions, installed from outside matalg.

`Tracer.install` replaces each traced function with a wrapper, in every
loaded matalg module that holds it (so calls between matalg modules are
seen too), and the traced `Matrix` and `SpanBuilder` methods on their
classes.  `uninstall` puts the originals back.

A span is (name, parent, start, end).  Spans are appended to in-memory
arrays and written once, by `write`, when the run ends.  A layer's self
time is the total duration of its spans minus the time their child spans
cover.  Counts (calls, rows, grown spans, monomials, document bytes) are
kept at the same boundaries and repeat exactly for the same inputs.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

# (span name, module, function) for the traced module-level functions.
FUNCTIONS = [
    ("exactlin.rref", "matalg.exactlin", "rref_basis"),
    ("exactlin.null_space", "matalg.exactlin", "null_space"),
    ("exactlin.intersect", "matalg.exactlin", "subspace_intersect"),
    ("algebra.closure", "matalg.algebra", "closure"),
    ("algebra.radical", "matalg.algebra", "radical"),
    ("algebra.semisimple_blocks", "matalg.algebra", "semisimple_blocks"),
    ("algebra.invariant_flag", "matalg.algebra", "invariant_flag"),
    ("algebra.flag_stabilizer", "matalg.algebra", "flag_stabilizer"),
    ("algebra.conjugate", "matalg.algebra", "conjugate"),
    ("nilpotent.is_nil", "matalg.nilpotent", "is_nil_subspace"),
    ("nilpotent.triangularize", "matalg.nilpotent", "triangularize_nil"),
    ("coalgebra.is_coideal", "matalg.coalgebra", "is_coideal"),
    ("coalgebra.comultiply", "matalg.coalgebra", "comultiply"),
    ("coalgebra.perp", "matalg.coalgebra", "perp"),
    ("cli.parse", "matalg.cli.documents", "parse_basis_document"),
    ("cli.serialize", "matalg.cli.documents", "serialize_basis_document"),
]

# (span name, class, method) for the traced methods.
METHODS = [
    ("exactlin.matmul", "Matrix", "__mul__"),
    ("exactlin.inverse", "Matrix", "inverse"),
    ("exactlin.span_add", "SpanBuilder", "add"),
    ("exactlin.span_contains", "SpanBuilder", "contains"),
]

# Per-layer metrics.  `<span>.calls` counts spans, `<span>.self_s` sums
# their self time; the other names are counts kept by COUNTERS.
PER_LAYER = [
    "exactlin.matmul.calls",
    "exactlin.matmul.self_s",
    "exactlin.span_add.calls",
    "exactlin.span_add.grew",
    "exactlin.span_add.useful_ratio",
    "exactlin.span_add.self_s",
    "exactlin.span_contains.calls",
    "exactlin.span_contains.self_s",
    "exactlin.rref.calls",
    "exactlin.rref.rows",
    "exactlin.rref.self_s",
    "exactlin.null_space.self_s",
    "exactlin.intersect.self_s",
    "exactlin.inverse.self_s",
    "algebra.closure.calls",
    "algebra.closure.self_s",
    "algebra.radical.self_s",
    "algebra.semisimple_blocks.self_s",
    "algebra.invariant_flag.self_s",
    "algebra.flag_stabilizer.self_s",
    "algebra.conjugate.self_s",
    "nilpotent.is_nil.calls",
    "nilpotent.is_nil.self_s",
    "nilpotent.monomials",
    "nilpotent.triangularize.self_s",
    "coalgebra.is_coideal.calls",
    "coalgebra.is_coideal.self_s",
    "coalgebra.comultiply.calls",
    "coalgebra.perp.self_s",
    "cli.parse.self_s",
    "cli.serialize.self_s",
    "cli.doc_bytes",
]


def unit(metric: str) -> str:
    if metric.endswith(".self_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("_bytes"):
        return "bytes"
    return "count"


# The per-layer metrics that must repeat exactly for the same inputs.
COUNT_METRICS = [m for m in PER_LAYER if unit(m) in ("count", "bytes")]


def _grew(counts, args, result):
    counts["exactlin.span_add.grew"] += bool(result)


def _monomials(counts, args, result):
    counts["nilpotent.monomials"] += sum(p.monomial_count for p in result.checked_powers)


def _parsed_bytes(counts, args, result):
    counts["cli.doc_bytes"] += len(args[0].encode("utf-8"))


def _serialized_bytes(counts, args, result):
    counts["cli.doc_bytes"] += len(result.encode("utf-8"))


COUNTERS = {
    "exactlin.span_add": _grew,
    "nilpotent.is_nil": _monomials,
    "cli.parse": _parsed_bytes,
    "cli.serialize": _serialized_bytes,
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        name_id = self._name_id(name)
        counter = COUNTERS.get(name)
        open_, close = self._open, self._close
        counts = self.counts

        def wrapper(*args, **kwargs):
            idx = open_(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if counter is not None:
                counter(counts, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the traced functions and methods of the loaded matalg."""
        modules = [m for key, m in list(sys.modules.items()) if key == "matalg" or key.startswith("matalg.")]
        for span_name, module_name, attr in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(span_name, original)
            if span_name == "exactlin.rref":
                wrapper = self._rref_rows(wrapper)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)
        exactlin = sys.modules["matalg.exactlin"]
        for span_name, class_name, attr in METHODS:
            cls = getattr(exactlin, class_name)
            original = cls.__dict__[attr]
            wrapper = self._wrap(span_name, original)
            if attr == "__mul__":
                wrapper = self._matrix_products_only(wrapper, original, cls)
            self._restore.append((cls, attr, original))
            setattr(cls, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _rref_rows(self, traced):
        counts = self.counts

        def rref_basis(vectors, ambient_dim):
            vectors = list(vectors)
            counts["exactlin.rref.rows"] += len(vectors)
            return traced(vectors, ambient_dim)

        return rref_basis

    @staticmethod
    def _matrix_products_only(traced, original, matrix_cls):
        def __mul__(self, other):
            if isinstance(other, matrix_cls):
                return traced(self, other)
            return original(self, other)

        return __mul__

    def summary(self) -> tuple[Counter, dict[str, float]]:
        """Calls and self time (seconds) per span name."""
        child = [0.0] * len(self.start)
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += self.end[idx] - self.start[idx]
        calls: Counter[str] = Counter()
        self_s = {name: 0.0 for name in self.names}
        for idx, name_id in enumerate(self.name):
            name = self.names[name_id]
            calls[name] += 1
            self_s[name] += self.end[idx] - self.start[idx] - child[idx]
        return calls, self_s

    def metrics(self) -> dict[str, dict]:
        calls, self_s = self.summary()
        values = dict(self.counts)
        for name in self.names:
            values[f"{name}.calls"] = calls[name]
            values[f"{name}.self_s"] = self_s[name]
        values["exactlin.span_add.useful_ratio"] = self.counts["exactlin.span_add.grew"] / max(
            1, calls["exactlin.span_add"]
        )
        return {m: {"value": values.get(m, 0), "unit": unit(m)} for m in PER_LAYER}

    def write(self, path: Path) -> None:
        """Write every span, gzipped JSON, once."""
        payload = {
            "names": self.names,
            "name": list(self.name),
            "parent": list(self.parent),
            "start": list(self.start),
            "end": list(self.end),
            "counts": dict(self.counts),
        }
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(payload, handle)
