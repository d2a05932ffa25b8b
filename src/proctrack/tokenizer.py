"""Whitespace tokenizer and word-level vocabulary with reserved special tokens."""

from __future__ import annotations

import json

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
        for tok, i in RESERVED.items():
            if token_to_id.get(tok) != i:
                raise ValueError(f"vocab must map {tok} to {i}")
        self._token_to_id = dict(token_to_id)
        ids = set(self._token_to_id.values())
        if len(ids) != len(self._token_to_id):
            raise ValueError("vocab ids must be unique")
        if not all(type(i) is int and 0 <= i < len(ids) for i in ids):
            raise ValueError("vocab ids must be 0 .. size - 1")

    def __len__(self):
        return len(self._token_to_id)

    def encode(self, token: str) -> int:
        return self._token_to_id.get(token, RESERVED[UNK])

    def encode_all(self, tokens) -> list[int]:
        return [self.encode(t) for t in tokens]

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self._token_to_id, f, ensure_ascii=False, indent=0)

    @classmethod
    def load(cls, path) -> "Vocab":
        """The vocabulary saved at `path`; ValueError naming the file unless
        it is a JSON object mapping each token to an integer id."""
        with open(path, encoding="utf-8") as f:
            mapping = json.load(f)
        if not (isinstance(mapping, dict)
                and all(type(i) is int for i in mapping.values())):
            raise ValueError(
                f"{path}: expected an object mapping each token to an integer id")
        return cls(mapping)


def build_vocab(corpus) -> Vocab:
    """Assign ids in first-seen order after the reserved ids.

    `corpus` is an iterable of token lists (or of plain tokens).
    """
    mapping = dict(RESERVED)
    for item in corpus:
        tokens = [item] if isinstance(item, str) else item
        for tok in tokens:
            if tok not in mapping:
                mapping[tok] = len(mapping)
    return Vocab(mapping)
