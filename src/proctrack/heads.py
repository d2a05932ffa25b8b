"""Prediction heads: 3-way status over [CLS] and start/end span distributions.

The heads read the encoder's hidden states, (..., T, d_model), and emit one
logit row per input, an (entity, step); the loss is a log-softmax NLL on the
rows, and decoding takes their softmax.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from . import autodiff as ad
from .autodiff import Tensor

# Fixed class order for entity status.
STATUS_GONE, STATUS_UNKNOWN, STATUS_KNOWN = 0, 1, 2


def status_class_of(value: str) -> int:
    if value == "-":
        return STATUS_GONE
    if value == "?":
        return STATUS_UNKNOWN
    return STATUS_KNOWN


@dataclass
class GoldStep:
    status_class: int
    span: tuple[int, int] | None = None  # layout positions, inclusive


def status_head(hidden: Tensor, w: Tensor) -> Tensor:
    """Status logits, (rows, 3), from the [CLS] row of each input."""
    d = hidden.data.shape[-1]
    if w.data.shape != (d, 3):
        raise ad.ShapeMismatchError(
            f"status weight must be d_model x 3, got {w.data.shape}"
        )
    return ad.reshape(ad.matmul(ad.slice_rows(hidden, 0, 1, axis=-2), w), (-1, 3))


def span_head(hidden: Tensor, w_start: Tensor, w_end: Tensor
              ) -> tuple[Tensor, Tensor]:
    """Start and end logits, each (rows, T), one row per input."""
    T, d = hidden.data.shape[-2:]
    for w in (w_start, w_end):
        if w.data.shape != (d, 1):
            raise ad.ShapeMismatchError(
                f"span weight must be d_model x 1, got {w.data.shape}"
            )
    start = ad.reshape(ad.matmul(hidden, w_start), (-1, T))
    end = ad.reshape(ad.matmul(hidden, w_end), (-1, T))
    return start, end


def span_rows(golds: Sequence[GoldStep]) -> list[int]:
    """The rows whose gold is a known location with a span, in row order:
    the only rows a loss scores spans on. Gold steps whose location text
    could not be aligned to the paragraph have gold.span = None and are left
    out (callers flag them)."""
    return [i for i, g in enumerate(golds)
            if g.status_class == STATUS_KNOWN and g.span is not None]


def joint_loss(status: Tensor, start: Tensor, end: Tensor,
               golds: Sequence[GoldStep]) -> Tensor:
    """Status cross-entropy, plus start+end cross-entropy where gold has a span.

    Scores (B, 3) status logits against one GoldStep per row, and (S, T)
    start/end logits against the S rows of `span_rows(golds)`, one logit row
    each, in that order; the terms are summed over the rows.
    """
    rows = span_rows(golds)
    if start.data.shape[0] != len(rows) or end.data.shape[0] != len(rows):
        raise ad.ShapeMismatchError(
            f"span logits {start.data.shape} and {end.data.shape} need one row "
            f"per gold span, {len(rows)}")
    loss = ad.cross_entropy(status, [g.status_class for g in golds])
    if rows:
        starts, ends = zip(*(golds[i].span for i in rows))
        loss = ad.add(loss, ad.cross_entropy(start, starts))
        loss = ad.add(loss, ad.cross_entropy(end, ends))
    return loss

