"""Decode per-step states and repair timelines against the consistency rules.

A timeline is a list of location values over steps 0..n, each "-" (does not
exist), "?" (exists, location unknown), or lowercase location text. The two
rules: an entity is created at most once, destroyed at most once, and never
created after a completed destruction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .heads import (
    STATUS_GONE, STATUS_KNOWN, STATUS_UNKNOWN, SpanPrediction, StatusPrediction,
)


@dataclass
class DecodedState:
    value: str  # "-", "?", or location text
    span: tuple[int, int] | None = None  # layout positions when value is text
    flagged: bool = False  # known-location status with no usable candidate


def decode_step(status: StatusPrediction, span: SpanPrediction,
                candidates: list[tuple[int, int]],
                span_text) -> DecodedState:
    """Resolve one (entity, step) prediction.

    `candidates` are (start, end) layout positions of allowed spans;
    `span_text(s, e)` renders a chosen span to its location text.
    """
    cls = status.argmax
    if cls == STATUS_GONE:
        return DecodedState("-")
    if cls == STATUS_UNKNOWN:
        return DecodedState("?")
    if not candidates:
        return DecodedState("?", flagged=True)
    start_p, end_p = span.start_probs, span.end_probs
    # Highest start*end product; ties go to the earliest start, then shortest.
    best = min(candidates,
               key=lambda se: (-float(start_p[se[0]] * end_p[se[1]]),
                               se[0], se[1] - se[0]))
    return DecodedState(span_text(*best), span=best)


def decode_step_unfiltered(status: StatusPrediction, span: SpanPrediction,
                           span_text, paragraph_positions) -> DecodedState:
    """Ablation path: independent start/end argmax over paragraph tokens only."""
    if status.argmax != STATUS_KNOWN or not paragraph_positions:
        # decode_step's "-", "?" and flagged no-candidate results.
        return decode_step(status, span, [], span_text)
    pos = np.asarray(paragraph_positions)
    s = int(pos[np.argmax(span.start_probs[pos])])
    e = int(pos[np.argmax(span.end_probs[pos])])
    if e < s:
        return DecodedState("?", flagged=True)
    return DecodedState(span_text(s, e), span=(s, e))


def _exists(value: str) -> bool:
    return value != "-"


def violates_rules(timeline: list[str]) -> bool:
    """Exhaustive predicate: any double create/destroy or create-after-destroy."""
    creations, destructions = [], []
    for i in range(1, len(timeline)):
        was, now = _exists(timeline[i - 1]), _exists(timeline[i])
        if not was and now:
            creations.append(i)
        elif was and not now:
            destructions.append(i)
    if len(creations) > 1 or len(destructions) > 1:
        return True
    return bool(creations and destructions and creations[0] > destructions[0])


def repair_timeline(states: list[str]) -> list[str]:
    """Greedy forward repair: a step whose transition would break a rule is
    overwritten by carrying the previous step's state forward."""
    if not states:
        return []
    out = [states[0]]
    created = destroyed = 0
    for value in states[1:]:
        prev = out[-1]
        was, now = _exists(prev), _exists(value)
        if not was and now:  # creation
            if created >= 1 or destroyed >= 1:
                out.append(prev)
                continue
            created += 1
        elif was and not now:  # destruction
            if destroyed >= 1:
                out.append(prev)
                continue
            destroyed += 1
        out.append(value)
    return out
