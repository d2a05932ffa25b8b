"""Prediction heads: 3-way status from each input's [CLS] row, and start/end
span logits from its hidden states, one logit row per input, an (entity,
step). The loss is a log-softmax NLL on the rows; decoding takes their softmax."""

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
    span: tuple[int, int] | None  # layout positions, inclusive


def status_head(cls: Tensor, w: Tensor) -> Tensor:
    """Status logits, (rows, 3), from the inputs' (..., 1, d_model) [CLS] rows."""
    if cls.data.shape[-2:-1] != (1,) or w.data.shape != (cls.data.shape[-1], 3):
        raise ad.ShapeMismatchError(
            f"status head needs (..., 1, d_model) [CLS] rows and a d_model x 3 "
            f"weight, got {cls.data.shape} and {w.data.shape}")
    return ad.reshape(ad.matmul(cls, w), (-1, 3))


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
    if not rows:
        return loss
    starts, ends = zip(*(golds[i].span for i in rows))
    return ad.add(loss, ad.cross_entropy(start, starts), ad.cross_entropy(end, ends))

