"""Prediction heads: 3-way status from each input's [CLS] row, and start/end
span logits from its hidden states, one logit row per input, an (entity,
step). The loss is a log-softmax NLL on the rows; decoding takes their softmax."""

from __future__ import annotations

from collections.abc import Sequence

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


def joint_loss(status: Tensor, start: Tensor, end: Tensor, classes: Sequence[int],
               spans: Sequence[tuple[int, int]]) -> Tensor:
    """Status cross-entropy, plus start+end cross-entropy for each gold span.

    Scores (B, 3) status logits against one status class per row, and (S, T)
    start/end logits against the S gold spans, (start, end) positions
    inclusive, one logit row each, in that order; the terms are summed over
    the rows.
    """
    if start.data.shape[0] != len(spans) or end.data.shape[0] != len(spans):
        raise ad.ShapeMismatchError(
            f"span logits {start.data.shape} and {end.data.shape} need one row "
            f"per gold span, {len(spans)}")
    loss = ad.cross_entropy(status, classes)
    if not spans:
        return loss
    starts, ends = zip(*spans)
    return ad.add(loss, ad.cross_entropy(start, starts), ad.cross_entropy(end, ends))
