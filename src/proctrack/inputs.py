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
    paragraph_pos: tuple[int, ...]  # layout position of paragraph word i


@dataclass(frozen=True, eq=False)
class TimestampedInput:
    """Token ids, (T,) or (E, 1, T) for E queries of one length, with time
    ids, (T,) for one step or (B, T) for B steps."""
    token_ids: tuple[int, ...] | np.ndarray
    timestamp_ids: np.ndarray


def question_tokens(entity: str) -> list[str]:
    """The tokens that name `entity` in its question. Aliases like
    "water; liquid" contribute only their first surface form."""
    return tokenize(entity.split(";")[0])


def build_query(entity: str, sentences: list[list[str]], vocab: Vocab,
                max_len: int | None = None) -> QueryLayout:
    if not entity:
        raise ValueError("entity name must be non-empty")
    if not sentences:
        raise ValueError("procedure must have at least one sentence")
    tokens = [CLS, "where", "is", *question_tokens(entity), "?", SEP]
    sent_idx = [0] * len(tokens)
    para_pos = []
    for j, sent in enumerate(sentences, start=1):
        for tok in sent:
            para_pos.append(len(tokens))
            tokens.append(tok)
            sent_idx.append(j)
        tokens.append(SEP)
        sent_idx.append(j)
    if max_len is not None and len(tokens) > max_len:
        raise ValueError(
            f"query for entity {entity!r} has {len(tokens)} tokens, "
            f"exceeding max length {max_len}"
        )
    return QueryLayout(
        tokens=tuple(tokens),
        token_ids=tuple(vocab.encode_all(tokens)),
        sentence_index=tuple(sent_idx),
        paragraph_pos=tuple(para_pos),
    )


def time_ids(layout: QueryLayout) -> np.ndarray:
    """The (n+1, T) time ids of `layout` by the rule above, one row per step
    0..n, built once for all steps."""
    sentence = np.array(layout.sentence_index)
    step = np.arange(sentence[-1] + 1)[:, None]
    ids = np.where(sentence < step, TS_PAST, TS_FUTURE)
    ids[(sentence == step) | (step == 0)] = TS_CURRENT
    ids[:, sentence == 0] = TS_QUESTION
    return ids


def timestamp(layout: QueryLayout, step: int) -> TimestampedInput:
    """`layout` stamped for one step: row `step` of `time_ids(layout)`."""
    n = layout.sentence_index[-1]
    if not 0 <= step <= n:
        raise ValueError(f"step {step} out of range 0..{n}")
    return TimestampedInput(layout.token_ids, time_ids(layout)[step])
