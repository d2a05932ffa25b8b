"""Prediction heads: 3-way status over [CLS] and start/end span distributions.

The heads emit logits with the encoder output's leading axes; the loss is a
log-softmax NLL on them, and decoding takes their softmax.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .encoder import EncoderConfig, EncoderOutput, init_params

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


def status_head(output: EncoderOutput, w: Tensor) -> Tensor:
    """Status logits, (..., 3), from the [CLS] rows."""
    *lead, _, d = output.hidden.data.shape
    if w.data.shape != (d, 3):
        raise ad.ShapeMismatchError(
            f"status weight must be d_model x 3, got {w.data.shape}"
        )
    return ad.reshape(ad.matmul(output.cls, w), (*lead, 3))


def span_head(output: EncoderOutput, w_start: Tensor, w_end: Tensor
              ) -> tuple[Tensor, Tensor]:
    """Start and end logits, each (..., T)."""
    *lead, T, d = output.hidden.data.shape
    for w in (w_start, w_end):
        if w.data.shape != (d, 1):
            raise ad.ShapeMismatchError(
                f"span weight must be d_model x 1, got {w.data.shape}"
            )
    start = ad.reshape(ad.matmul(output.hidden, w_start), (*lead, T))
    end = ad.reshape(ad.matmul(output.hidden, w_end), (*lead, T))
    return start, end


def joint_loss(status: Tensor, start: Tensor, end: Tensor,
               golds: Sequence[GoldStep]) -> Tensor:
    """Status cross-entropy, plus start+end cross-entropy where gold has a span.

    Scores the rows of (B, 3) status and (B, T) start/end logits against one
    GoldStep per row; the terms are summed over the rows. Gold steps whose
    location text could not be aligned to the paragraph have gold.span =
    None; their span terms are skipped (callers flag them).
    """
    loss = ad.cross_entropy(status, [g.status_class for g in golds])
    rows = [i for i, g in enumerate(golds)
            if g.status_class == STATUS_KNOWN and g.span is not None]
    if rows:
        starts, ends = zip(*(golds[i].span for i in rows))
        loss = ad.add(loss, ad.cross_entropy(ad.embedding(start, rows), starts))
        loss = ad.add(loss, ad.cross_entropy(ad.embedding(end, rows), ends))
    return loss


def init_head_params(config: EncoderConfig, rng: np.random.Generator) -> dict:
    """The status and span head weights for an encoder with `config`."""
    return init_params(config, rng, heads=True)
