"""Full model: vocabulary + encoder + heads, with procedure-level helpers."""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import DataError, Procedure, find_token_occurrences
from .encoder import (
    EncoderConfig, embed, encode, init_encoder_params, param_count, param_shapes,
)
from .heads import (
    GoldStep, SpanPrediction, StatusPrediction, init_head_params, joint_loss,
    span_head, status_class_of, status_head,
)
from .inference import (
    DecodedState, decode_step, decode_step_unfiltered, repair_timeline,
    violates_rules,
)
from .inputs import (
    QueryLayout, TimestampedInput, build_query, time_ids, timestamp,
)
from .tokenizer import Vocab, build_vocab, tokenize


def vocab_from_procedures(procs: list[Procedure]) -> Vocab:
    corpus = []
    for p in procs:
        for e in p.entities:
            corpus.append(["where", "is", "?"])
            corpus.append(e.split(";")[0].strip().split())
        corpus.extend(p.sentences)
    return build_vocab(corpus)


@dataclass
class TrackerModel:
    vocab: Vocab
    config: EncoderConfig
    params: dict = field(default_factory=dict)

    @classmethod
    def fresh(cls, vocab: Vocab, config: EncoderConfig, seed: int) -> "TrackerModel":
        config.vocab_size = len(vocab)
        rng = np.random.default_rng(seed)
        params = init_encoder_params(config, rng)
        params.update(init_head_params(config, rng))
        return cls(vocab=vocab, config=config, params=params)

    # -- persistence --------------------------------------------------------

    def save(self, directory) -> None:
        """Write the checkpoint files; each goes to a temporary file in
        `directory` first and then replaces the old one, so a failed save
        leaves the previous checkpoint whole."""
        os.makedirs(directory, exist_ok=True)
        for name, write in (
                ("params.json", lambda p: ad.save_checkpoint(self.params, p)),
                ("config.json", self.config.save),
                ("vocab.json", self.vocab.save)):
            path = os.path.join(directory, name)
            tmp = path + ".tmp"
            try:
                write(tmp)
            except BaseException:
                if os.path.exists(tmp):
                    os.remove(tmp)
                raise
            os.replace(tmp, path)

    @classmethod
    def load(cls, directory) -> "TrackerModel":
        """Load a checkpoint; DataError if its tensors are not the names and
        shapes its config implies."""
        try:
            vocab = Vocab.load(os.path.join(directory, "vocab.json"))
        except ValueError as exc:
            raise DataError(str(exc)) from exc
        try:
            config = EncoderConfig.load(os.path.join(directory, "config.json"))
        except (TypeError, ValueError) as exc:
            raise DataError(f"{directory}: config.json: {exc}") from exc
        if config.vocab_size != len(vocab):
            raise DataError(
                f"checkpoint vocab size {config.vocab_size} does not match "
                f"vocab file with {len(vocab)} entries"
            )
        try:
            params = ad.load_checkpoint(os.path.join(directory, "params.json"))
        except ValueError as exc:
            raise DataError(str(exc)) from exc
        # A count first: a config with a huge n_layers must not be listed.
        count = param_count(config)
        if len(params) != count:
            raise DataError(f"{directory}: params.json holds {len(params)} "
                            f"tensors, config.json implies {count}")
        found = {k: t.shape for k, t in params.items()}
        implied = param_shapes(config)
        if found != implied:
            raise DataError(f"{directory}: params.json does not match config.json: "
                            + "; ".join(f"{k}: found {found.get(k, 'nothing')}, "
                                        f"expected {implied.get(k, 'nothing')}"
                                        for k in sorted(found.keys() | implied.keys())
                                        if found.get(k) != implied.get(k)))
        return cls(vocab=vocab, config=config, params=params)

    # -- forward ------------------------------------------------------------

    def layout_for(self, entity: str, proc: Procedure) -> QueryLayout:
        return build_query(entity, proc.sentences, self.vocab,
                           max_len=self.config.max_len)

    def forward(self, layout: QueryLayout, step: int
                ) -> tuple[StatusPrediction, SpanPrediction]:
        """One pass for one step, recorded on the tape."""
        return self._heads(timestamp(layout, step), self.params)

    def forward_steps(self, layout: QueryLayout
                      ) -> tuple[StatusPrediction, SpanPrediction]:
        """Steps 0..n in one batched pass, with a leading step axis.

        The pass runs on views of the parameters that need no gradient, so
        it records no tape and each intermediate is freed once used.
        """
        params = {k: Tensor(t.data) for k, t in self.params.items()}
        return self._heads(TimestampedInput(layout, time_ids(layout)), params)

    def _heads(self, inp: TimestampedInput, params: dict, train: bool = False,
               rng: np.random.Generator | None = None
               ) -> tuple[StatusPrediction, SpanPrediction]:
        out = encode(embed(inp, params), params, self.config, train=train, rng=rng)
        return (status_head(out, params["head.status"]),
                span_head(out, params["head.start"], params["head.end"]))

    # -- training targets ---------------------------------------------------

    def gold_steps(self, proc: Procedure, entity: str, layout: QueryLayout):
        """GoldStep per step 0..n, with spans mapped to layout positions."""
        g2l = layout.layout_pos_of_paragraph()
        paragraph = proc.paragraph
        steps, unaligned = [], 0
        for value in proc.grid[entity]:
            cls = status_class_of(value)
            span = None
            if cls == 2:
                occurrences = find_token_occurrences(tokenize(value), paragraph)
                if occurrences:
                    s, e = occurrences[0]
                    span = (g2l[s], g2l[e])
                else:
                    unaligned += 1
            steps.append(GoldStep(status_class=cls, span=span))
        return steps, unaligned

    def procedure_loss(self, proc: Procedure, train: bool = True,
                       rng: np.random.Generator | None = None) -> Tensor:
        """Mean joint loss over every (entity, step 0..n) pair.

        Each entity's steps run as one batched pass on the tape, scored by
        one loss over its rows.
        """
        losses, passes = [], 0
        for entity in proc.entities:
            layout = self.layout_for(entity, proc)
            golds, _ = self.gold_steps(proc, entity, layout)
            status, span = self._heads(TimestampedInput(layout, time_ids(layout)),
                                       self.params, train, rng)
            losses.append(joint_loss(status, span, golds))
            passes += len(golds)
        return ad.mean_of(losses, passes)

    # -- prediction ---------------------------------------------------------

    def candidate_layout_spans(self, proc: Procedure, layout: QueryLayout):
        g2l = layout.layout_pos_of_paragraph()
        return [(g2l[s], g2l[e]) for s, e in proc.candidate_spans]

    def predict_entity(self, proc: Procedure, entity: str,
                       np_filter: bool = True, repair: bool = True):
        """Timeline of location values over steps 0..n for one entity.

        Returns (timeline, flagged_count, violation_count_before_repair).
        """
        layout = self.layout_for(entity, proc)
        candidates = self.candidate_layout_spans(proc, layout)
        l2text = layout.tokens
        para_positions = [i for i, g in enumerate(layout.paragraph_index)
                          if g is not None]

        def span_text(s, e):
            return " ".join(l2text[s:e + 1])

        statuses, spans = self.forward_steps(layout)
        raw, flagged = [], 0
        for step in range(proc.n_steps + 1):
            status, span = statuses.row(step), spans.row(step)
            if np_filter:
                state = decode_step(status, span, candidates, span_text)
            else:
                state = decode_step_unfiltered(status, span, span_text,
                                               para_positions)
            if state.flagged:
                flagged += 1
            raw.append(state.value)
        violations = int(violates_rules(raw))
        timeline = repair_timeline(raw) if repair else raw
        return timeline, flagged, violations

    def predict_procedure(self, proc: Procedure, np_filter: bool = True,
                          repair: bool = True):
        """Timelines for all entities. Returns (timelines, stats dict)."""
        timelines, flagged = {}, 0
        violations = 0
        for entity in proc.entities:
            tl, fl, vi = self.predict_entity(proc, entity, np_filter=np_filter,
                                             repair=repair)
            timelines[entity] = tl
            flagged += fl
            violations += vi
        return timelines, {"flagged": flagged, "rule_violations": violations}
