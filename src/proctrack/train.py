"""Training loop: one optimizer step per procedure on the mean entity loss."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import NonFiniteGradientError, SgdConfig
from .data import Procedure
from .heads import status_class_of
from .model import TrackerModel

log = logging.getLogger(__name__)


@dataclass
class TrainResult:
    epoch_losses: list = field(default_factory=list)
    steps: int = 0
    # Gold known-location steps left out of the span loss because their
    # text is not in the paragraph, counted once over the corpus.
    unaligned_spans: int = 0


def status_accuracy(model: TrackerModel, procs: list[Procedure]) -> float:
    total = hit = 0
    for proc in procs:
        timelines, _ = model.predict_procedure(proc, repair=False)
        for entity in proc.entities:
            for pred, gold in zip(timelines[entity], proc.grid[entity]):
                total += 1
                if status_class_of(pred) == status_class_of(gold):
                    hit += 1
    return hit / total if total else 1.0


def train_model(model: TrackerModel, procs: list[Procedure], sgd: SgdConfig,
                epochs: int, seed: int = 0, checkpoint_dir=None,
                dev_procs=None, freeze_timestamps: bool = False,
                eval_every: int = 0,
                stop_fn=None) -> TrainResult:
    """Sequential over procedures; gradients are averaged within a procedure
    and applied as a single SGD step. Raises NonFiniteGradientError on a
    non-finite loss, or from `sgd_step` at the step it refuses, as it would
    leave a parameter beyond float32's range or NaN, so no checkpoint that
    `TrackerModel.load` rejects is saved; the last good one stays on disk.

    `freeze_timestamps` zeroes the time-id table and drops its gradient
    before each step (the step-blind ablation), leaving `requires_grad` as
    it was. `stop_fn(model, epoch)` may end training early.
    """
    if not procs:
        raise ValueError("no procedures to train on")
    if eval_every < 0:
        raise ValueError(f"eval_every must be >= 0, got {eval_every}")
    if freeze_timestamps:
        model.params["ts_emb"].data[:] = 0.0
    rng = np.random.default_rng(seed)
    result = TrainResult(unaligned_spans=sum(
        not p.occurrences[v] for p in procs for e in p.entities
        for v in p.grid[e] if v in p.occurrences))
    for epoch in range(epochs):
        epoch_losses = []
        for proc in procs:
            loss = model.procedure_loss(proc, rng=rng)
            value = float(loss.data)
            if not math.isfinite(value):
                raise NonFiniteGradientError(
                    f"non-finite loss at epoch {epoch}, procedure {proc.id!r}; "
                    f"last checkpoint retained")
            loss.backward()
            if freeze_timestamps:
                model.params["ts_emb"].grad = None
            ad.sgd_step(model.params, sgd, result.steps)
            result.steps += 1
            epoch_losses.append(value)
        mean_loss = sum(epoch_losses) / len(epoch_losses)
        result.epoch_losses.append(mean_loss)
        if dev_procs and eval_every and (epoch + 1) % eval_every == 0:
            detail = f"dev status acc {status_accuracy(model, dev_procs):.3f}"
        else:
            detail = f"lr {sgd.effective_lr(result.steps):.2e}"
        log.info("epoch %d: loss %.4f, %s, %d gold spans not in the paragraph",
                 epoch, mean_loss, detail, result.unaligned_spans)
        if checkpoint_dir:
            model.save(checkpoint_dir)
        if stop_fn is not None and stop_fn(model, epoch):
            log.info("early stop at epoch %d", epoch)
            break
    return result
