"""Built-in demo data: a small photosynthesis procedure with a full gold grid.

Used by the tests, the acceptance suite's golden fixture among them. No CLI
command reads it; `generate-data` writes a corpus to start from.
"""

from __future__ import annotations

from .data import Procedure
from .tokenizer import tokenize

_SENTENCES = [
    "Roots absorb water from soil",
    "The water flows to the leaf",
    "Light from the sun and CO2 enter the leaf",
    "The water, light, and CO2 combine into a mixture",
    "Mixture forms sugar",
]

_GRID = {
    "water": ["soil", "root", "leaf", "leaf", "-", "-"],
    "light": ["sun", "sun", "sun", "leaf", "-", "-"],
    "co2": ["?", "?", "?", "leaf", "-", "-"],
    "mixture": ["-", "-", "-", "-", "leaf", "-"],
    "sugar": ["-", "-", "-", "-", "-", "leaf"],
}


def photosynthesis() -> Procedure:
    return Procedure(
        id="photosynthesis",
        sentences=[tokenize(s) for s in _SENTENCES],
        entities=list(_GRID),
        grid={e: list(tl) for e, tl in _GRID.items()},
    )
