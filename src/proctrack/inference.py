"""Decode per-step states and repair timelines against the consistency rules.

A timeline is a list of location values over steps 0..n, each "-" (does not
exist), "?" (exists, location unknown), or lowercase location text. The rules,
on the events that `state_table.derive_action` gives: an entity is created at
most once, destroyed at most once, and never created after a completed
destruction.
"""

from __future__ import annotations

import numpy as np

from .autodiff import ShapeMismatchError, softmax_array
from .heads import STATUS_GONE, STATUS_KNOWN
from .state_table import ACTION_CREATE, ACTION_DESTROY, derive_action


def decode_step(status: np.ndarray, start: np.ndarray, end: np.ndarray,
                candidates, paragraph_positions):
    """Resolve every row, an (entity, step), of (rows, 3) status logits, in
    paragraph words. `start` and `end` hold (known, T) logits: one row for
    each row whose status argmax is known-location, in row order, and none
    for the others, as a tape-free `TrackerModel.forward_steps` computes
    them. Word i is logit column `paragraph_positions[i]`.

    A known-location row gets a span from its start and end probabilities.
    With `candidates`, the (start, end) word spans allowed, it is the
    candidate with the highest start*end product; ties go to the earliest
    start, then the shortest. With candidates=None (the --no-np-filter
    ablation) it is the independent start and end argmax over the words, and
    an end before its start gives no span.

    Returns each row's "-", "?" or inclusive (start, end) word span, and the
    count of known-location rows left with no span, which decode to "?".
    """
    classes = status.argmax(-1).tolist()
    known = classes.count(STATUS_KNOWN)
    if start.shape[:-1] != (known,) or end.shape != start.shape:
        raise ShapeMismatchError(
            f"{known} known-location rows need that many start and end "
            f"logit rows, got {start.shape} and {end.shape}")
    pos = np.asarray(paragraph_positions, dtype=int)
    start_p, end_p = softmax_array(start)[:, pos], softmax_array(end)[:, pos]
    spans = [None] * known
    if candidates is None and len(pos):
        spans = [(s, e) if s <= e else None for s, e in zip(
            start_p.argmax(-1).tolist(), end_p.argmax(-1).tolist())]
    elif candidates:
        # In this order the first maximum is the tie rule's winner.
        ranked = sorted(candidates, key=lambda se: (se[0], se[1] - se[0]))
        s, e = np.array(ranked).T
        spans = [ranked[i] for i in (start_p[:, s] * end_p[:, e]).argmax(-1)]
    values, flagged, spans = [], 0, iter(spans)
    for cls in classes:
        if cls == STATUS_GONE:
            values.append("-")
        elif cls != STATUS_KNOWN:
            values.append("?")
        elif (span := next(spans)) is not None:
            values.append(span)
        else:
            values.append("?")
            flagged += 1
    return values, flagged


def repair_timeline(states: list[str]) -> list[str]:
    """Greedy forward repair: a step whose `derive_action` event would break
    a rule is overwritten by carrying the previous step's state forward."""
    out, created, destroyed = list(states[:1]), False, False
    for value in states[1:]:
        action = derive_action(out[-1], value)
        if (action == ACTION_CREATE and (created or destroyed)
                or action == ACTION_DESTROY and destroyed):
            value = out[-1]
        created |= action == ACTION_CREATE
        destroyed |= action == ACTION_DESTROY
        out.append(value)
    return out


def violates_rules(timeline: list[str]) -> bool:
    """Whether the timeline breaks a rule: exactly when repair changes it."""
    return repair_timeline(timeline) != list(timeline)
