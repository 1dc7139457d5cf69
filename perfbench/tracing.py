"""Span tracing of spcd's layers from outside the package.

The tracer replaces public functions of spcd's modules by wrappers that
record one span per call: name, start, end, the enclosing span in the
same process and a few counts.  Each span is written as one JSON line
and flushed at once, to a file per process, because the workers of a
process pool are forked with the wrappers in place and leave through
``os._exit`` without running ``atexit`` handlers.

Wrappers are installed on module attributes, so they catch every call
that looks the name up at call time.  A name bound by ``from x import y``
at import time is not caught; the smoke test checks that every wrapper
fires on the workloads that use it.
"""

import functools
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _lu_fill(args, kwargs, lu):
    return {"fill": int(lu.L.nnz + lu.U.nnz)}


# (module, attribute path, span name, counts(args, kwargs, result) or None)
LAYERS = [
    ("geometry", "contains_batch", "geometry.contains_batch",
     lambda a, k, r: {"points": int(np.size(_arg(a, k, 1, "xs")))}),
    ("geometry", "outflow_arcs", "geometry.outflow_arcs", None),
    ("grids", "build_rect_grid", "grids.build_rect_grid", None),
    ("grids", "build_strip_mesh", "grids.build_strip_mesh", None),
    ("grids", "StripLocator.locate_batch", "grids.locate_batch",
     lambda a, k, r: {"points": int(np.size(_arg(a, k, 1, "xs")))}),
    ("operators", "assemble_outer", "operators.assemble_outer",
     lambda a, k, r: {"nnz": int(r.matrix.nnz)}),
    ("operators", "assemble_strip", "operators.assemble_strip",
     lambda a, k, r: {"nnz": int(r.matrix.nnz)}),
    ("linsolve", "solve", "linsolve.solve",
     lambda a, k, r: {"unknowns": int(r[0].size), "refine_steps": int(r[1].iterations)}),
    ("linsolve", "splu", "linsolve.splu", _lu_fill),
    ("pipeline", "solve_problem", "pipeline.solve_problem", None),
    ("pipeline", "dump_solution", "pipeline.dump_solution", None),
    ("harness", "two_mesh_difference", "harness.two_mesh_difference", None),
    ("harness", "order_table", "harness.order_table", None),
    ("cli", "run", "cli.run", None),
]


class Tracer:
    """Installs the layer wrappers and writes their spans under ``directory``.

    ``tag`` labels the spans of the current phase (``"setup"`` or
    ``"pass"``); forked workers inherit the value current at the fork.
    """

    def __init__(self, modules, directory):
        self.modules = modules
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.tag = None
        self._saved = []
        self._pid = None
        self._fh = None
        self._stack = []
        self._next_id = 0

    def _writer(self):
        pid = os.getpid()
        if pid != self._pid:
            # first span in this process, or in a forked worker: the
            # parent's open spans and file handle are not ours
            self._pid = pid
            self._stack = []
            self._next_id = 0
            self._fh = open(self.directory / f"trace-{pid}.jsonl", "a")
        return self._fh

    def _wrap(self, fn, name, counts):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            fh = self._writer()
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            t0 = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                record = {"pid": self._pid, "id": span_id, "parent": parent,
                          "name": name, "t0": t0, "t1": t1, "tag": self.tag}
                if counts is not None and result is not None:
                    record["counts"] = counts(args, kwargs, result)
                    # time spent counting, kept out of the parent's self time
                    record["tare"] = time.perf_counter() - t1
                fh.write(json.dumps(record) + "\n")
                fh.flush()
        return wrapper

    def install(self):
        for module, path, name, counts in LAYERS:
            owner = self.modules[module]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, counts))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    @contextmanager
    def active(self, tag):
        """Trace the calls made inside the block under ``tag``."""
        self.tag = tag
        self.install()
        try:
            yield
        finally:
            self.uninstall()
            self.tag = None

    def close(self):
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def spans(self):
        """Every span written so far, by this process and its workers."""
        out = []
        for path in sorted(self.directory.glob("trace-*.jsonl")):
            with open(path) as fh:
                out.extend(json.loads(line) for line in fh if line.strip())
        return out


def aggregate(spans, tag):
    """Per span name: calls, summed duration, summed self time and summed
    counts over the spans with ``tag``.  Self time is the duration minus
    the durations of the direct child spans in the same process."""
    spans = [s for s in spans if s["tag"] == tag]
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[(s["pid"], s["parent"])] += s["t1"] - s["t0"] + s.get("tare", 0.0)
    stats = defaultdict(lambda: {"calls": 0, "wall": 0.0, "self": 0.0, "counts": defaultdict(int)})
    for s in spans:
        st = stats[s["name"]]
        dur = s["t1"] - s["t0"]
        st["calls"] += 1
        st["wall"] += dur
        st["self"] += dur - child_time[(s["pid"], s["id"])]
        for k, v in s.get("counts", {}).items():
            st["counts"][k] += v
    return stats
