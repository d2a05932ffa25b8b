"""Prediction heads: 3-way status over [CLS] and start/end span distributions.

The heads emit logits; the loss is a log-softmax NLL on them, and the
probabilities used for decoding are computed from them on demand. Over a
batched encoder output the logits carry the same leading axes, and `row(i)`
takes one input's prediction out of it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .encoder import EncoderOutput

# Fixed class order for entity status.
STATUS_GONE, STATUS_UNKNOWN, STATUS_KNOWN = 0, 1, 2
STATUS_NAMES = ("non-existence", "unknown-location", "known-location")


def status_class_of(value: str) -> int:
    if value == "-":
        return STATUS_GONE
    if value == "?":
        return STATUS_UNKNOWN
    return STATUS_KNOWN


@dataclass
class StatusPrediction:
    logits_t: Tensor  # shape (..., 3)

    def row(self, i: int) -> "StatusPrediction":
        return StatusPrediction(Tensor(self.logits_t.data[i]))

    @property
    def probs(self) -> np.ndarray:
        return ad.softmax_array(self.logits_t.data)

    @property
    def argmax(self) -> int:
        return int(np.argmax(self.logits_t.data))


@dataclass
class SpanPrediction:
    start_t: Tensor  # logits, shape (..., T)
    end_t: Tensor  # logits, shape (..., T)

    def row(self, i: int) -> "SpanPrediction":
        return SpanPrediction(Tensor(self.start_t.data[i]),
                              Tensor(self.end_t.data[i]))

    @property
    def start_probs(self) -> np.ndarray:
        return ad.softmax_array(self.start_t.data)

    @property
    def end_probs(self) -> np.ndarray:
        return ad.softmax_array(self.end_t.data)


@dataclass
class GoldStep:
    status_class: int
    span: tuple[int, int] | None = None  # layout positions, inclusive


def status_head(output: EncoderOutput, w: Tensor) -> StatusPrediction:
    *lead, _, d = output.hidden.data.shape
    if w.data.shape != (d, 3):
        raise ad.ShapeMismatchError(
            f"status weight must be d_model x 3, got {w.data.shape}"
        )
    logits = ad.reshape(ad.matmul(output.cls, w), (*lead, 3))
    return StatusPrediction(logits_t=logits)


def span_head(output: EncoderOutput, w_start: Tensor, w_end: Tensor) -> SpanPrediction:
    *lead, T, d = output.hidden.data.shape
    for w in (w_start, w_end):
        if w.data.shape != (d, 1):
            raise ad.ShapeMismatchError(
                f"span weight must be d_model x 1, got {w.data.shape}"
            )
    start = ad.reshape(ad.matmul(output.hidden, w_start), (*lead, T))
    end = ad.reshape(ad.matmul(output.hidden, w_end), (*lead, T))
    return SpanPrediction(start_t=start, end_t=end)


def joint_loss(status: StatusPrediction, span: SpanPrediction,
               gold: GoldStep | Sequence[GoldStep]) -> Tensor:
    """Status cross-entropy, plus start+end cross-entropy when gold has a span.

    One GoldStep scores one unbatched prediction; a sequence of them scores
    the rows of a batched one, (B, 3) and (B, T), and the terms are summed
    over the rows. Gold steps whose location text could not be aligned to the
    paragraph have gold.span = None; their span terms are skipped (callers
    flag them).
    """
    if isinstance(gold, GoldStep):  # a batch of one
        status = StatusPrediction(ad.reshape(status.logits_t, (1, -1)))
        span = SpanPrediction(ad.reshape(span.start_t, (1, -1)),
                              ad.reshape(span.end_t, (1, -1)))
        gold = [gold]
    loss = ad.cross_entropy(status.logits_t, [g.status_class for g in gold])
    rows = [i for i, g in enumerate(gold)
            if g.status_class == STATUS_KNOWN and g.span is not None]
    if rows:
        starts, ends = zip(*(gold[i].span for i in rows))
        loss = ad.add(loss, ad.cross_entropy(ad.embedding(span.start_t, rows), starts))
        loss = ad.add(loss, ad.cross_entropy(ad.embedding(span.end_t, rows), ends))
    return loss


def init_head_params(d_model: int, rng: np.random.Generator) -> dict:
    return {
        "head.status": Tensor(rng.normal(0.0, 0.02, (d_model, 3)),
                              requires_grad=True, name="head.status"),
        "head.start": Tensor(rng.normal(0.0, 0.02, (d_model, 1)),
                             requires_grad=True, name="head.start"),
        "head.end": Tensor(rng.normal(0.0, 0.02, (d_model, 1)),
                           requires_grad=True, name="head.end"),
    }

