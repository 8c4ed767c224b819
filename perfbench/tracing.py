"""Layer timing from outside the library.

`Tracer` wraps the public functions listed in LAYERS and rebinds each
name in every loaded `transword` module that holds it, so calls between
modules and within one module both pass through the wrapper.  Each call
records a span (name, start, end, parent span, query id, whether the
result was not None) in memory; `layer_metrics` turns the spans into
per-layer counts and self times, and `write_spans` saves them.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# module -> functions timed as that module's layer
LAYERS = {
    "schema": ("tail_alignment", "poly_shift_match", "fold"),
    "setspec": ("pair_agreement",),
    "words": ("reduce", "canonicalize", "project_finite"),
    "hag": ("hag_normal", "hag_equal"),
    "sigma": ("decompose", "apply_Ff"),
    "endo": ("apply_projected", "check_admissible"),
    "freegroup": ("reduce_free",),
    "dsl": ("parse_word", "render_word"),
}

# (metric, unit) in the order the traced run prints them
LAYER_METRICS = (
    ("schema.tail_alignment.calls", "count"),
    ("schema.tail_alignment.self_s", "s"),
    ("schema.tail_alignment.hit_ratio", "ratio"),
    ("schema.poly_shift_match.calls", "count"),
    ("schema.poly_shift_match.self_s", "s"),
    ("schema.fold.calls", "count"),
    ("schema.fold.self_s", "s"),
    ("setspec.pair_agreement.calls", "count"),
    ("setspec.pair_agreement.self_s", "s"),
    ("words.reduce.calls", "count"),
    ("words.reduce.self_s", "s"),
    ("words.reduce.passes_per_call", "ratio"),
    ("words.canonicalize.calls", "count"),
    ("words.canonicalize.self_s", "s"),
    ("hag.hag_normal.calls", "count"),
    ("hag.hag_normal.self_s", "s"),
    ("hag.hag_equal.self_s", "s"),
    ("sigma.decompose.calls", "count"),
    ("sigma.decompose.self_s", "s"),
    ("sigma.apply_Ff.self_s", "s"),
    ("endo.apply_projected.calls", "count"),
    ("endo.apply_projected.self_s", "s"),
    ("endo.check_admissible.self_s", "s"),
    ("words.project_finite.calls", "count"),
    ("words.project_finite.self_s", "s"),
    ("freegroup.reduce_free.calls", "count"),
    ("freegroup.reduce_free.self_s", "s"),
    ("dsl.parse_word.self_s", "s"),
    ("dsl.render_word.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


class Tracer:
    """Context manager: while entered, every function in LAYERS records
    spans; on exit the original functions are bound again."""

    def __init__(self):
        self.names: list[str] = []
        # (name index, start, end, parent span or -1, query id, result not None)
        self.spans: list[tuple | None] = []
        self.query = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        key = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            hit = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                hit = result is not None
                return result
            finally:
                spans[sid] = (key, start, clock(), parent, self.query, hit)
                stack.pop()

        return traced

    def __enter__(self):
        loaded = [
            m for n, m in list(sys.modules.items())
            if n == "transword" or n.startswith("transword.")
        ]
        for mod_name, fn_names in LAYERS.items():
            mod = importlib.import_module(f"transword.{mod_name}")
            for fn_name in fn_names:
                original = getattr(mod, fn_name)
                traced = self._wrap(f"{mod_name}.{fn_name}", original)
                for m in loaded:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, traced)
                            self._undo.append((m, attr, original))
        return self

    def __exit__(self, *exc):
        for m, attr, original in reversed(self._undo):
            setattr(m, attr, original)
        self._undo.clear()
        return False


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer calls, self seconds and ratios from the recorded spans.
    Self time is a span's duration minus the durations of its child spans
    (calls run on one thread, so children never overlap)."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    hits: dict[str, int] = defaultdict(int)
    names = tracer.names
    passes = 0
    for sid, (key, start, end, parent, _, hit) in enumerate(spans):
        name = names[key]
        calls[name] += 1
        self_s[name] += end - start - child[sid]
        hits[name] += hit
        if name == "words.canonicalize" and parent >= 0:
            passes += names[spans[parent][0]] == "words.reduce"
    out: dict[str, float] = {}
    for metric, _ in LAYER_METRICS:
        layer, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = calls[layer]
        elif kind == "self_s":
            out[metric] = self_s[layer]
    ta = "schema.tail_alignment"
    out[f"{ta}.hit_ratio"] = hits[ta] / calls[ta] if calls[ta] else 0.0
    red = "words.reduce"
    out[f"{red}.passes_per_call"] = passes / calls[red] if calls[red] else 0.0
    return out


def write_spans(tracer: Tracer, path) -> None:
    """One JSON object: the span names and every span as
    [name index, start, end, parent, query id, hit]."""
    with open(path, "w") as fh:
        json.dump({"names": tracer.names, "spans": tracer.spans}, fh, separators=(",", ":"))
