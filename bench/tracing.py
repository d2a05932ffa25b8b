"""Spans around proctrack's layer functions, recorded from outside the package.

Each traced name is patched where its caller looks it up: `encode` is looked
up as `proctrack.model.encode` by the model, every autodiff op as
`proctrack.autodiff.<op>` by the encoder and heads, and methods on their
class. A span records its name, start, end and parent span; a layer's self
time is its span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

import proctrack.autodiff as autodiff
import proctrack.data as data
import proctrack.evaluation as evaluation
import proctrack.model as model
import proctrack.state_table as state_table
import proctrack.train as train
from refclock import ReferenceClock

# Ops that build the tape of a forward pass.
FORWARD_OPS = ("matmul", "add", "scale", "softmax", "gelu", "layer_norm",
               "embedding", "concat", "transpose", "reshape", "slice_rows")
# Spans whose direct child ops are forward-pass tape nodes.
FORWARD_PARENTS = ("encoder.embed", "encoder.encode", "heads.status_head",
                   "heads.span_head")
REFERENCE_SPAN = "bench.reference"


def traced_sites():
    """(owner, attribute, span name) for every wrapped function."""
    sites = [(autodiff, op, f"autodiff.{op}")
             for op in FORWARD_OPS + ("cross_entropy", "mean_of", "sgd_step")]
    sites.append((autodiff.Tensor, "backward", "autodiff.backward"))
    for attr, layer in (("embed", "encoder"), ("encode", "encoder"),
                        ("build_query", "inputs"), ("timestamp", "inputs"),
                        ("status_head", "heads"), ("span_head", "heads"),
                        ("joint_loss", "heads"), ("decode_step", "inference"),
                        ("repair_timeline", "inference"),
                        ("violates_rules", "inference")):
        sites.append((model, attr, f"{layer}.{attr}"))
    for attr in ("save", "load", "predict_procedure", "procedure_loss"):
        sites.append((model.TrackerModel, attr, f"model.{attr}"))
    sites.append((data, "generate_synthetic", "data.generate_synthetic"))
    sites.append((train, "train_model", "train.train_model"))
    for attr in ("build_table", "write_tsv", "read_tsv"):
        sites.append((state_table, attr, f"state_table.{attr}"))
    for attr in ("document_level", "sentence_level"):
        sites.append((evaluation, attr, f"evaluation.{attr}"))
    # The benchmark's own calibration, so that time spent in it inside a
    # layer's span (train_model's stop_fn) is not charged to that layer.
    sites.append((ReferenceClock, "calibrate", REFERENCE_SPAN))
    return sites


class Tracer:
    """In-memory span log. `install()` patches every traced site, `remove()`
    restores the originals."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._originals = []

    def install(self) -> None:
        for owner, attr, span_name in traced_sites():
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                patched = classmethod(self._wrap(original.__func__, span_name))
            else:
                patched = self._wrap(original, span_name)
            setattr(owner, attr, patched)
            self._originals.append((owner, attr, original))

    def remove(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, span_name):
        if span_name not in self._name_ids:
            self._name_ids[span_name] = len(self.names)
            self.names.append(span_name)
        nid = self._name_ids[span_name]
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter

        # The bookkeeping sits inside the span, so its cost lands on the
        # (short) traced call rather than on the caller's self time.
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = clock()
            sid = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(t0)
            end.append(t0)
            stack.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                end[sid] = clock()

        return traced

    def mark(self) -> int:
        """Index of the next span, to bound a window for `summary`."""
        return len(self.start)

    def summary(self, first: int = 0, last: int | None = None) -> dict:
        """Per span name over spans[first:last]: calls and self seconds; the
        number of forward ops called directly by a forward-pass parent; and
        the summed duration of top-level spans, the time the layers cover."""
        n = len(self.start) if last is None else last
        dur = (np.frombuffer(self.end, dtype=np.float64)[:n]
               - np.frombuffer(self.start, dtype=np.float64)[:n])
        parent = np.frombuffer(self.parent, dtype=np.int64)[:n].copy()
        names = np.frombuffer(self.name_id, dtype=np.int64)[:n].copy()
        has_parent = parent >= 0
        self_time = dur - np.bincount(parent[has_parent],
                                      weights=dur[has_parent], minlength=n)
        sel = slice(first, n)
        k = len(self.names)
        calls = np.bincount(names[sel], minlength=k)
        self_s = np.bincount(names[sel], weights=self_time[sel], minlength=k)
        ids = self._name_ids
        is_op = np.isin(names[sel], [ids[f"autodiff.{op}"] for op in FORWARD_OPS])
        parent_name = np.where(has_parent[sel], names[parent[sel]], -1)
        under_forward = np.isin(parent_name, [ids[p] for p in FORWARD_PARENTS])
        return {
            "calls": {name: int(calls[i]) for i, name in enumerate(self.names)},
            "self_s": {name: float(self_s[i]) for i, name in enumerate(self.names)},
            "forward_ops": int(np.count_nonzero(is_op & under_forward)),
            "covered_s": float(dur[sel][~has_parent[sel]].sum()),
        }
