"""Build the per-entity question+paragraph input and stamp it for a step.

The token sequence is [CLS] where is <entity> ? [SEP] s1 [SEP] ... sn [SEP].
The sequence itself never changes with the step; only the per-token time ids
do. Time ids: 0 = question region, 1 = past sentence, 2 = current sentence,
3 = future sentence. Step 0 (the before-process state) marks every sentence
as current. A [SEP] inherits the time id of the sentence it closes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tokenizer import CLS, SEP, Vocab, tokenize

TS_QUESTION, TS_PAST, TS_CURRENT, TS_FUTURE = 0, 1, 2, 3


@dataclass(frozen=True)
class QueryLayout:
    tokens: tuple[str, ...]
    token_ids: tuple[int, ...]
    sentence_index: tuple[int, ...]  # 0 = question region, 1..n = sentences
    paragraph_index: tuple  # per-token global paragraph index, None off-paragraph
    n_sentences: int

    def __len__(self):
        return len(self.tokens)

    @property
    def position_ids(self):
        return tuple(range(len(self.tokens)))

    def layout_pos_of_paragraph(self) -> dict[int, int]:
        """Map paragraph-global word index -> layout position."""
        return {
            g: i for i, g in enumerate(self.paragraph_index) if g is not None
        }


@dataclass(frozen=True, eq=False)
class TimestampedInput:
    """A layout with time ids: (T,) for one step, or (B, T) for B steps."""
    layout: QueryLayout
    timestamp_ids: np.ndarray

    def __len__(self):
        return len(self.layout)


def build_query(entity: str, sentences: list[list[str]], vocab: Vocab,
                max_len: int | None = None) -> QueryLayout:
    if not entity:
        raise ValueError("entity name must be non-empty")
    if not sentences:
        raise ValueError("procedure must have at least one sentence")
    # Aliases like "water; liquid" contribute only their first surface form.
    surface = entity.split(";")[0].strip()
    tokens = [CLS, "where", "is", *tokenize(surface), "?", SEP]
    sent_idx = [0] * len(tokens)
    para_idx: list = [None] * len(tokens)
    g = 0
    for j, sent in enumerate(sentences, start=1):
        for tok in sent:
            tokens.append(tok)
            sent_idx.append(j)
            para_idx.append(g)
            g += 1
        tokens.append(SEP)
        sent_idx.append(j)
        para_idx.append(None)
    if max_len is not None and len(tokens) > max_len:
        raise ValueError(
            f"query for entity {entity!r} has {len(tokens)} tokens, "
            f"exceeding max length {max_len}"
        )
    return QueryLayout(
        tokens=tuple(tokens),
        token_ids=tuple(vocab.encode_all(tokens)),
        sentence_index=tuple(sent_idx),
        paragraph_index=tuple(para_idx),
        n_sentences=len(sentences),
    )


def time_ids(layout: QueryLayout) -> np.ndarray:
    """The (n+1, T) time ids of `layout` by the rule above, one row per step
    0..n, built once for all steps."""
    sentence = np.array(layout.sentence_index)
    step = np.arange(layout.n_sentences + 1)[:, None]
    ids = np.where(sentence < step, TS_PAST, TS_FUTURE)
    ids[(sentence == step) | (step == 0)] = TS_CURRENT
    ids[:, sentence == 0] = TS_QUESTION
    return ids


def timestamp(layout: QueryLayout, step: int) -> TimestampedInput:
    """`layout` stamped for one step: row `step` of `time_ids(layout)`."""
    n = layout.n_sentences
    if not 0 <= step <= n:
        raise ValueError(f"step {step} out of range 0..{n}")
    return TimestampedInput(layout=layout, timestamp_ids=time_ids(layout)[step])
