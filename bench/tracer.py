"""Spans and LAPACK call counts for the traced run, recorded from outside.

:class:`Tracer` replaces every public function of the package's modules,
every re-imported copy of it (``hermitize.build_metric``,
``cli.biorthonormal_eigensystem``, the package namespace), the
``numpy.linalg`` entry points and ``json.dumps`` with
wrappers that record a span: op index, name, start, end and the index of
the enclosing span.  Nothing inside the program changes; ``remove`` puts
the originals back.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import time

import numpy as np

LAPACK = ("eig", "eigvals", "svd", "inv", "solve", "qr", "eigh", "eigvalsh", "cholesky")
# Modules whose public functions get spans; ``_linalg`` and ``errors`` are
# private helpers and exception types.
MODULES = (
    "antilinear", "cli", "eigensystem", "factor", "hermitize", "io", "metric", "ptmodel",
    "symmetry",
)


class Tracer:
    """Spans of one run; ``op`` is the index of the op being traced."""

    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []  # [op, name, start, end, parent]
        self.json_bytes: dict[int, int] = {}
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, count_bytes: bool = False):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([self.op, name, time.perf_counter(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = time.perf_counter()
            if count_bytes:
                self.json_bytes[self.op] = self.json_bytes.get(self.op, 0) + len(result)
            return result

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(f"{self.package.__name__}.{m}") for m in MODULES]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, val in vars(mod).items():
                public = inspect.isfunction(val) and not attr.startswith("_")
                if public and val.__module__ == mod.__name__:
                    wrappers[val] = self._wrap(f"{short}.{attr}", val)
        for attr in LAPACK:
            fn = getattr(np.linalg, attr)
            wrappers[fn] = self._wrap(f"lapack.{attr}", fn)
        wrappers[json.dumps] = self._wrap("io.json_dumps", json.dumps, count_bytes=True)

        for owner in [*modules, self.package, np.linalg, json]:
            for attr, val in list(vars(owner).items()):
                try:
                    wrapper = wrappers.get(val)
                except TypeError:  # unhashable attribute
                    continue
                if wrapper is not None:
                    self._patched.append((owner, attr, val))
                    setattr(owner, attr, wrapper)

    def remove(self) -> None:
        while self._patched:
            owner, attr, val = self._patched.pop()
            setattr(owner, attr, val)

    def summary(self, op_kinds: dict[int, str]) -> dict:
        """Per-name totals over the traced ops: ms, calls, self ms, and calls
        split by op kind."""
        child_time = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for i, (op, name, start, end, _) in enumerate(self.spans):
            if op not in op_kinds:
                continue
            rec = out.setdefault(name, {"ms": 0.0, "self_ms": 0.0, "calls": 0, "by_kind": {}})
            rec["ms"] += 1e3 * (end - start)
            rec["self_ms"] += 1e3 * (end - start - child_time[i])
            rec["calls"] += 1
            kind = op_kinds[op]
            rec["by_kind"][kind] = rec["by_kind"].get(kind, 0) + 1
        return out

    def write(self, path, op_kinds: dict[int, str], extra: dict) -> None:
        """Gzipped JSON lines: run-level data first, then one line per span."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps(extra) + "\n")
            for op, name, start, end, parent in self.spans:
                record = {
                    "op": op, "kind": op_kinds.get(op), "name": name,
                    "start": start, "end": end, "parent": parent,
                }
                fh.write(json.dumps(record) + "\n")
