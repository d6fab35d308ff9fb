"""Spans around the public functions of multitar, recorded from outside.

``from .x import y`` binds ``y`` in the importing module, so a function is
wrapped in every multitar namespace that holds it, not only where it is
defined.  Spans stay in memory; :func:`summarize` turns one traced run into
inclusive times, call counts, per-module self times and the work counts read
from the wrapped calls' arguments and results.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import time
from collections import defaultdict

LAYERS = ("panel", "fracdiff", "regression", "tensor_ops", "netfilter",
          "multinet", "pipeline", "cli")


def _tree_bytes(path) -> int:
    if os.path.isfile(path):
        return os.path.getsize(path)
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Work counts taken from a wrapped call: (args, kwargs, result) -> {count: n}.
# Byte counts stat the files a writer produced after its span has ended.
_COUNTERS = {
    "panel.ingest_csv": lambda a, k, r: {"rows": r.values.size},
    "panel.export_panel": lambda a, k, r: {
        "bytes": _tree_bytes(_arg(a, k, 1, "path"))},
    "regression.als_fit": lambda a, k, r: {
        "sweeps": r[1].n_sweeps, "unconverged": int(not r[1].converged)},
    "netfilter.polya_filter": lambda a, k, r: {
        "edges": _arg(a, k, 0, "g").n_edges},
    "pipeline.export_network": lambda a, k, r: {"bytes": _tree_bytes(r)},
    "pipeline.export_matrices": lambda a, k, r: {
        "bytes": sum(_tree_bytes(p) for p in r.values())},
    "pipeline.save_model": lambda a, k, r: {
        "bytes": _tree_bytes(_arg(a, k, 3, "model_dir"))},
}

# Functions whose span name carries the variant chosen by an argument.
_SPAN_SUFFIX = {
    "pipeline.export_network": lambda a, k: str(
        a[2] if len(a) > 2 else k.get("fmt", "csv")),
    "cli.main": lambda a, k: str(_arg(a, k, 0, "argv")[0]),
}


class Tracer:
    """Records ``[name, start, end, parent]`` spans while installed."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []
        self._patched = []

    def _wrap(self, qualname, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        suffix = _SPAN_SUFFIX.get(qualname)
        counter = _COUNTERS.get(qualname)

        def traced(*args, **kwargs):
            name = qualname if suffix is None else (
                qualname + "." + suffix(args, kwargs))
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if counter is not None:
                for key, n in counter(args, kwargs, result).items():
                    counts[qualname + "." + key] += n
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every public function of the layers wherever it is bound."""
        targets = {}
        for layer in LAYERS:
            mod = importlib.import_module("multitar." + layer)
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    targets[id(obj)] = (obj, f"{layer}.{name}")
        wrappers = {}
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "multitar" and not mod_name.startswith("multitar."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in targets and targets[id(obj)][0] is obj:
                    if id(obj) not in wrappers:
                        wrappers[id(obj)] = self._wrap(targets[id(obj)][1], obj)
                    setattr(mod, attr, wrappers[id(obj)])
                    self._patched.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()


def summarize(tracer: Tracer, run_s: float) -> dict:
    """Per-name inclusive time and calls, per-module self time, and glue.

    A span's self time is its duration less that of its direct children;
    spans nest strictly because the pipeline is single-threaded, so the self
    times add up to the time under root spans.  Inclusive time skips spans
    nested in a span of the same name, so recursion is not counted twice.
    """
    spans = tracer.spans
    child_s = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_s[parent] += end - start
    inclusive = defaultdict(float)
    calls = defaultdict(int)
    self_s = {layer: 0.0 for layer in LAYERS}
    root_s = 0.0
    for idx, (name, start, end, parent) in enumerate(spans):
        dur = end - start
        calls[name] += 1
        self_s[name.split(".", 1)[0]] += dur - child_s[idx]
        if parent < 0:
            root_s += dur
        anc = parent
        while anc >= 0 and spans[anc][0] != name:
            anc = spans[anc][3]
        if anc < 0:
            inclusive[name] += dur
    return {
        "inclusive_s": dict(inclusive),
        "calls": dict(calls),
        "self_s": self_s,
        "counts": dict(tracer.counts),
        "root_s": root_s,
        "glue_s": run_s - root_s,
        "n_spans": len(spans),
    }
