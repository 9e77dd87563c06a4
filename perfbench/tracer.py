"""Span tracing of isagram's public functions from outside the package.

The tracer replaces module attributes with timing wrappers, so nothing under
``src/`` has to know about it.  Each call records one span (name, start,
end, parent, counters); spans stay in memory until ``dump`` writes them out.
A span's self time is its duration minus the time of the wrapped calls made
inside it.  Functions that do not exist in the checked-out package are
skipped, and their metrics then read zero.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time

import numpy as np

CLASSIFIER_KINDS = ("mnb", "cnb", "gnb", "knn", "perceptron", "softmax_lr", "linear_svm")

_SELF_TIMED = (
    "corpus.ingest", "corpus.split", "codec.encode", "codec.decode",
    "vectorize.fit_tfidf", "vectorize.transform_matrix", "kernels.gram_stats",
    "kernels.tfidf_fill", "kernels.hist_fill", "kernels.count_pattern", "rng.shuffle",
    "classify.save_model", "classify.load_model", "cli.import",
    "evaluate.run_comparison", "cli.main",
)
_COUNTED = ("corpus.split", "codec.encode", "vectorize.fit_tfidf",
            "kernels.count_pattern", "rng.shuffle")

# Every per-layer metric of a traced run, with its unit.
PER_LAYER_UNITS = {
    **{f"{name}.s": "s" for name in _SELF_TIMED},
    **{f"{name}.calls": "count" for name in _COUNTED},
    "codec.encode.bytes": "B",
    "classify.save_model.bytes": "B",
    "vectorize.transform_matrix.rows": "count",
    "vectorize.transform_matrix.cells": "count",
    "vectorize.transform_matrix.nnz": "count",
    "vectorize.transform_matrix.fill": "ratio",
    **{f"classify.{fn}.{kind}.s": "s"
       for kind in CLASSIFIER_KINDS for fn in ("fit_vectors", "predict_matrix")},
    "trace.slowdown": "ratio",
    "trace.layer_share": "ratio",
    "trace.ops": "count",
}

# Spans that measure the harness around the layers rather than a layer.
HARNESS_SPANS = ("evaluate.run_comparison", "cli.main", "cli.import")


def _encode_bytes(args, kwargs, result):
    return {"bytes": len(args[1])}


def _matrix_counts(args, kwargs, result):
    return {
        "rows": int(result.shape[0]),
        "cells": int(result.size),
        "nnz": int(np.count_nonzero(result)),
    }


def _saved_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


def _spec_kind(args, kwargs):
    return args[0].kind


def _model_kind(args, kwargs):
    return args[0].spec.kind


# (module, attribute, span name, counter function, span-name suffix function)
TARGETS = (
    ("corpus", "ingest", "corpus.ingest", None, None),
    ("corpus", "split", "corpus.split", None, None),
    ("codec", "encode", "codec.encode", _encode_bytes, None),
    ("codec", "decode", "codec.decode", None, None),
    ("vectorize", "fit_tfidf", "vectorize.fit_tfidf", None, None),
    ("vectorize", "transform_matrix", "vectorize.transform_matrix", _matrix_counts, None),
    ("kernels", "gram_stats", "kernels.gram_stats", None, None),
    ("kernels", "tfidf_fill", "kernels.tfidf_fill", None, None),
    ("kernels", "hist_fill", "kernels.hist_fill", None, None),
    ("kernels", "count_pattern", "kernels.count_pattern", None, None),
    ("classify", "fit_vectors", "classify.fit_vectors", None, _spec_kind),
    ("classify", "predict_matrix", "classify.predict_matrix", None, _model_kind),
    ("classify", "save_model", "classify.save_model", _saved_bytes, None),
    ("classify", "load_model", "classify.load_model", None, None),
    ("rng", "SplitMix64.shuffle", "rng.shuffle", None, None),
    ("evaluate", "run_comparison", "evaluate.run_comparison", None, None),
    ("cli", "main", "cli.main", None, None),
)

# Other modules that bind a target under their own name (``from .corpus
# import split``); the wrapper must replace that binding too.
ALIASES = {("corpus", "split"): (("evaluate", "split"),)}


class Tracer:
    """Records spans for the isagram functions it wraps."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._restore: list[tuple[object, str, object]] = []
        self._phase = "setup"

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, name, counter, suffix in TARGETS:
            owner, leaf, original = _resolve(f"isagram.{module_name}", attr)
            if original is None:
                continue
            wrapper = self._wrap(name, original, counter, suffix)
            self._replace(owner, leaf, wrapper)
            for alias_module, alias_attr in ALIASES.get((module_name, attr), ()):
                alias_owner, _, bound = _resolve(f"isagram.{alias_module}", alias_attr)
                if bound is original:
                    self._replace(alias_owner, alias_attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _replace(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name, fn, counter, suffix):
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = f"{name}.{suffix(args, kwargs)}" if suffix else name
            parent = stack[-1] if stack else None
            span = {"name": span_name, "phase": self._phase, "child": 0.0,
                    "parent": parent["id"] if parent else None, "id": len(spans)}
            spans.append(span)
            stack.append(span)
            returned = False
            span["start"] = time.perf_counter()
            try:
                return_value = fn(*args, **kwargs)
                returned = True
                return return_value
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                if returned and counter:
                    span.update(counter(args, kwargs, return_value))
                # counting is tracing work: keep it out of the parent's self time
                if parent is not None:
                    parent["child"] += time.perf_counter() - span["start"]

        return traced

    # -- recording ----------------------------------------------------------

    def phase(self, name: str) -> None:
        """Label the spans recorded from now on (one label per kind of operation)."""
        self._phase = name

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record a span measured outside a wrapper (such as an import)."""
        self.spans.append({"name": name, "phase": self._phase, "child": 0.0,
                           "parent": None, "id": len(self.spans),
                           "start": start, "end": end})

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _resolve(module_name: str, attr: str):
    """(owner object, leaf attribute, current value) or (None, None, None)."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, None, None
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None, None
    value = getattr(owner, leaf, None)
    return (owner, leaf, value) if callable(value) else (None, None, None)


def load_spans(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, self seconds and summed counters."""
    totals: dict[str, dict[str, float]] = {}
    for span in spans:
        entry = totals.setdefault(span["name"], {"calls": 0, "s": 0.0})
        entry["calls"] += 1
        entry["s"] += span["end"] - span["start"] - span["child"]
        for key in ("bytes", "rows", "cells", "nnz"):
            if key in span:
                entry[key] = entry.get(key, 0) + span[key]
    return totals


def per_layer_metrics(spans, phase_counts: dict[str, int]) -> dict[str, float]:
    """Per-layer values for one unit of the workload.

    ``phase_counts`` maps each phase label to how many operations of that
    kind ran; every phase contributes its totals divided by that count, so
    a value is the cost of one operation of each kind, whatever the run
    length.
    """
    per_phase: dict[str, list] = {}
    for span in spans:
        per_phase.setdefault(span["phase"], []).append(span)
    merged: dict[str, dict[str, float]] = {}
    for phase, count in phase_counts.items():
        if count <= 0:
            continue
        for name, entry in layer_totals(per_phase.get(phase, [])).items():
            target = merged.setdefault(name, {})
            for key, value in entry.items():
                target[key] = target.get(key, 0.0) + value / count

    def get(name, key):
        return merged.get(name, {}).get(key, 0.0)

    out = {f"{name}.s": get(name, "s") for name in _SELF_TIMED}
    out.update({f"{name}.calls": get(name, "calls") for name in _COUNTED})
    out["codec.encode.bytes"] = get("codec.encode", "bytes")
    out["classify.save_model.bytes"] = get("classify.save_model", "bytes")
    for key in ("rows", "cells", "nnz"):
        out[f"vectorize.transform_matrix.{key}"] = get("vectorize.transform_matrix", key)
    cells = out["vectorize.transform_matrix.cells"]
    out["vectorize.transform_matrix.fill"] = (
        out["vectorize.transform_matrix.nnz"] / cells if cells else 0.0
    )
    for kind in CLASSIFIER_KINDS:
        out[f"classify.fit_vectors.{kind}.s"] = get(f"classify.fit_vectors.{kind}", "s")
        out[f"classify.predict_matrix.{kind}.s"] = get(f"classify.predict_matrix.{kind}", "s")
    return out


def layer_self_seconds(spans) -> float:
    """Self time summed over every span that measures a layer, not the harness."""
    return sum(s["end"] - s["start"] - s["child"] for s in spans
               if s["name"] not in HARNESS_SPANS)
