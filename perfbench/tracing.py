"""Spans recorded from the benchmark's own files, around public layer calls.

``instrumented`` swaps every public function of the package's layer modules
for a wrapper that records a span, in every package namespace that holds a
reference to it, and restores the originals afterwards. Calls between layers
go through module globals, so nested calls are traced too. Spans are kept in
memory and written out by the caller when the run ends. Tracing is meant for
single-threaded runs: one stack of open spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("generators", "graph", "percolation", "epidemic", "oracle", "harness", "parallel")
PACKAGE = "outbreak_local"


class Tracer:
    """Spans as [name, start, end, parent index, attributes]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = [name, time.perf_counter(), None, self._open[-1] if self._open else -1, attrs]
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
                meta = getattr(out, "meta", None)
                if isinstance(meta, dict):  # generator work counters
                    rec[4].update({k: meta[k] for k in ("attempts", "proposals", "steps")
                                   if k in meta})
                return out
        return traced

    def duration(self, index: int) -> float:
        return self.spans[index][2] - self.spans[index][1]

    def subtree(self, root: int) -> list[int]:
        """Indices of the spans below `root`. Spans are appended in start
        order, so a parent always precedes its children."""
        inside, out = {root}, []
        for i in range(root + 1, len(self.spans)):
            if self.spans[i][3] in inside:
                inside.add(i)
                out.append(i)
        return out

    def self_times(self, root: int) -> dict:
        """Self time summed per span-name prefix (the layer) under `root`:
        each span's duration minus the time its child spans cover."""
        below = self.subtree(root)
        child_time = {}
        for i in below:
            parent = self.spans[i][3]
            child_time[parent] = child_time.get(parent, 0.0) + self.duration(i)
        out = {}
        for i in [root, *below]:
            layer = self.spans[i][0].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + self.duration(i) - child_time.get(i, 0.0)
        return out

    def find(self, root: int, name: str) -> list[int]:
        """Indices of spans called `name` below `root`."""
        return [i for i in self.subtree(root) if self.spans[i][0] == name]

    def write(self, path: Path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [{"id": i, "name": s[0], "start": s[1] - t0, "end": s[2] - t0,
                 "parent": s[3], **({"attrs": s[4]} if s[4] else {})}
                for i, s in enumerate(self.spans)]
        path.write_text(json.dumps({"spans": rows}, default=str) + "\n")


@contextmanager
def instrumented(tracer: Tracer):
    """Trace every public function of the layer modules while active."""
    wrappers = {}
    for layer in LAYERS:
        mod = sys.modules[f"{PACKAGE}.{layer}"]
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and not name.startswith("_") and obj.__module__ == mod.__name__:
                wrappers[obj] = tracer.wrap(f"{layer}.{name}", obj)
    swapped = []
    for modname, mod in list(sys.modules.items()):
        if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
            continue
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                swapped.append((mod, name, obj))
                setattr(mod, name, wrappers[obj])
    try:
        yield
    finally:
        for mod, name, obj in swapped:
            setattr(mod, name, obj)
