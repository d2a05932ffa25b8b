"""Whitespace tokenizer and word-level vocabulary with reserved special tokens."""

from __future__ import annotations

PAD, UNK, CLS, SEP = "[PAD]", "[UNK]", "[CLS]", "[SEP]"
RESERVED = {PAD: 0, UNK: 1, CLS: 2, SEP: 3}

_TRAILING_PUNCT = ".,?!;"


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, detach trailing .,?!; as own tokens."""
    tokens = []
    for chunk in text.lower().split():
        tail = []
        while chunk and chunk[-1] in _TRAILING_PUNCT:
            tail.append(chunk[-1])
            chunk = chunk[:-1]
        if chunk:
            tokens.append(chunk)
        tokens.extend(reversed(tail))
    return tokens


class Vocab:
    """Immutable token<->id map. Ids 0-3 are reserved for the special tokens."""

    def __init__(self, token_to_id: dict[str, int]):
        if not (isinstance(token_to_id, dict)
                and all(type(i) is int for i in token_to_id.values())):
            raise ValueError("vocab must be an object mapping each token to "
                             "an integer id")
        for tok, i in RESERVED.items():
            if token_to_id.get(tok) != i:
                raise ValueError(f"vocab must map {tok} to {i}")
        self.token_to_id = dict(token_to_id)
        ids = set(self.token_to_id.values())
        if len(ids) != len(self.token_to_id):
            raise ValueError("vocab ids must be unique")
        if not all(0 <= i < len(ids) for i in ids):
            raise ValueError("vocab ids must be 0 .. size - 1")

    def __len__(self):
        return len(self.token_to_id)

    def encode_all(self, tokens) -> list[int]:
        get, unk = self.token_to_id.get, RESERVED[UNK]
        return [get(t, unk) for t in tokens]


def build_vocab(corpus) -> Vocab:
    """Assign ids to the tokens of `corpus`, an iterable of token lists, in
    first-seen order after the reserved ids."""
    mapping = dict(RESERVED)
    for tokens in corpus:
        for tok in tokens:
            if tok not in mapping:
                mapping[tok] = len(mapping)
    return Vocab(mapping)
