"""Outside-in tracing of the hopformer package for the benchmark.

A :class:`Tracer` replaces the public functions of each package module with
timing wrappers for the duration of a ``with tracer.installed(run_id):``
block and restores the originals afterwards.  Every call becomes a span
(name, start, end, parent id, run id) kept in memory; nothing inside
``src/`` is edited.  A function imported by name into several modules
(``from .masks import build_head_masks``) is replaced wherever that same
object is bound, so calls through any module are caught.

Self time is a span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager

# Public functions timed, per package module.  Span names are "<module>.<fn>".
TRACED = {
    "graphs": ["augment", "load_dataset", "load_graph"],
    "masks": ["build_mask", "build_head_masks"],
    "autograd": ["matmul", "add", "scale", "relu", "concat_cols", "concat_rows",
                 "row_slice", "sum_all", "sum_rows", "mean_rows", "layer_norm",
                 "dropout", "sparse_masked_attention", "backward"],
    "model": ["init_model", "embed_tokens", "encoder_layer", "encode", "forward",
              "readout", "predict_node", "predict_graph", "save_model", "load_model"],
    "training": ["train", "evaluate", "adam_step", "cross_entropy", "mae",
                 "prepare_graph", "split_indices"],
    "analysis": ["small_world_report", "dataset_small_world", "attention_flop_count"],
    "cli": ["main", "cmd_train", "cmd_analyze"],
}

# Tape primitives: the ops that record a backward closure.
PRIMITIVES = frozenset(f"autograd.{fn}" for fn in TRACED["autograd"] if fn != "backward")


class Span:
    __slots__ = ("name", "start", "end", "parent", "run_id", "key")

    def __init__(self, name, start, end, parent, run_id, key=None):
        self.name, self.start, self.end = name, start, end
        self.parent, self.run_id, self.key = parent, run_id, key

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_obj(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "run_id": self.run_id, "key": self.key}


class Tracer:
    """Collects spans for calls into the package while installed."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self._run_id = None
        self._adam_steps = 0

    def _forward_key(self, args, kwargs):
        # Two forwards with the same graph, mode, dropout seed and parameter
        # version compute the same values; the second is redundant work.
        return (id(args[1]), bool(kwargs.get("training", False)),
                kwargs.get("rng_seed"), self._adam_steps)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        keyed = name == "model.forward"
        counts_step = name == "training.adam_step"

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            key = self._forward_key(args, kwargs) if keyed else None
            if counts_step:
                self._adam_steps += 1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = Span(name, start, end, parent, self._run_id, key)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self, run_id):
        """Time every call into the package made inside the block."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "hopformer" or n.startswith("hopformer."))]
        replaced = []
        for mod_name, fns in TRACED.items():
            home = sys.modules.get(f"hopformer.{mod_name}")
            if home is None:
                continue
            for fn_name in fns:
                orig = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", orig)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            replaced.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)
        self._run_id = run_id
        try:
            yield self
        finally:
            for mod, attr, orig in reversed(replaced):
                setattr(mod, attr, orig)
            self._run_id = None

    def extend(self, span_objs, run_id):
        """Append spans recorded by another process, re-numbering parents."""
        base = len(self.spans)
        for s in span_objs:
            parent = None if s["parent"] is None else s["parent"] + base
            key = None if s.get("key") is None else tuple(s["key"])
            self.spans.append(Span(s["name"], s["start"], s["end"], parent, run_id, key))

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.to_obj()) + "\n")


class SpanIndex:
    """Self times and subtree membership over the spans of one run id."""

    def __init__(self, spans: list[Span], run_id):
        self.ids = [i for i, s in enumerate(spans) if s.run_id == run_id]
        self.spans = spans
        child_time = {i: 0.0 for i in self.ids}
        for i in self.ids:
            p = spans[i].parent
            if p is not None:
                child_time[p] += spans[i].duration
        self.self_time = {i: spans[i].duration - child_time[i] for i in self.ids}

    def named(self, name):
        return [i for i in self.ids if self.spans[i].name == name]

    def subtree(self, root):
        """Ids of ``root`` and every span below it (ids grow with call order)."""
        inside = {root}
        for i in self.ids:
            if i > root and self.spans[i].parent in inside:
                inside.add(i)
        return inside

    def total(self, ids) -> float:
        return sum(self.spans[i].duration for i in ids)
