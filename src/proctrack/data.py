"""Dataset schema, loaders, TSV grid converter, and a synthetic generator.

Canonical JSON form: a list of objects
    {"id": str, "sentences": [[token, ...], ...], "entities": [str, ...],
     "grid": {entity: [state0, ..., stateN]}, "candidate_spans": [[s, e], ...]}
Grid values are "-", "?", or lowercase location text. Candidate span indices
are paragraph-global, 0-based, inclusive. A recipe object may stand in the
same list:
    {"id": str, "sentences": [str or [token, ...], ...], "ingredients": [str],
     "locations": {ingredient: {step: location}}}
"""

from __future__ import annotations

import json
import logging
import random
from dataclasses import dataclass, field

from .inference import violates_rules
from .inputs import question_tokens
from .tokenizer import tokenize

log = logging.getLogger(__name__)


class DataError(ValueError):
    """Schema or consistency problem in a dataset file; message carries a path."""


def find_token_occurrences(needle: list[str], paragraph: list[str]) -> list[tuple[int, int]]:
    """Inclusive (start, end) of every verbatim occurrence, in order; none
    for an empty needle."""
    k = len(needle)
    return [(i, i + k - 1) for i in range(len(paragraph) - k + 1)
            if k and paragraph[i:i + k] == needle]


@dataclass
class Procedure:
    """One paragraph and its gold grid. Where each text location of the grid
    occurs in the paragraph is found once, when the procedure is built:
    `occurrences` maps it to its verbatim (start, end) spans, in order, and
    `candidate_spans`, when none are given, are all of them, sorted."""
    id: str
    sentences: list  # list of token lists
    entities: list
    grid: dict  # entity -> list of n+1 location values
    candidate_spans: list = field(default_factory=list)  # (start, end) global
    occurrences: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        paragraph = self.paragraph
        self.occurrences = {}
        for timeline in self.grid.values():
            for value in timeline:
                if value not in ("-", "?") and value not in self.occurrences:
                    self.occurrences[value] = find_token_occurrences(
                        tokenize(value), paragraph)
        if not self.candidate_spans:
            self.candidate_spans = sorted(
                {sp for spans in self.occurrences.values() for sp in spans})

    @property
    def n_steps(self) -> int:
        return len(self.sentences)

    @property
    def paragraph(self) -> list[str]:
        return [tok for sent in self.sentences for tok in sent]

    @property
    def unresolved_locations(self) -> list[str]:
        """The grid's text locations that never occur verbatim, sorted."""
        return sorted(v for v, spans in self.occurrences.items() if not spans)

    def timeline(self, entity: str) -> list[str]:
        return list(self.grid[entity])


def _normalize(value: str) -> str:
    value = value.strip().lower()
    return value if value else "-"


def validate_procedure(proc: Procedure, path: str) -> None:
    n = proc.n_steps
    if n == 0:
        raise DataError(f"{path}.sentences: procedure has no sentences")
    if not proc.entities:
        raise DataError(f"{path}.entities: procedure has no entities")
    seen = set()
    for i, entity in enumerate(proc.entities):
        if entity in seen:
            raise DataError(f"{path}.entities[{i}]: duplicate entity {entity!r:.80}")
        seen.add(entity)
    if set(proc.grid) != set(proc.entities):
        raise DataError(f"{path}.grid: grid entities do not match entity list")
    for entity, timeline in proc.grid.items():
        if len(timeline) != n + 1:
            raise DataError(
                f"{path}.grid.{entity}: expected {n + 1} values "
                f"(state 0 through state {n}), got {len(timeline)}"
            )
    para_len = len(proc.paragraph)
    for i, (s, e) in enumerate(proc.candidate_spans):
        if not (0 <= s <= e < para_len):
            raise DataError(
                f"{path}.candidate_spans[{i}]: span ({s}, {e}) outside "
                f"paragraph of {para_len} tokens"
            )


def _recipe_grid(obj: dict, n: int, path: str) -> tuple[list, dict]:
    """The entities and grid of a recipe object over `n` sentences: per
    ingredient an object of step -> location, each location carried forward
    until the next annotated step. Ingredients with no annotation are left
    out, with a warning; an annotation of an unlisted name is an error."""
    ingredients, locations = obj["ingredients"], obj["locations"]
    if not (isinstance(ingredients, list)
            and all(isinstance(name, str) for name in ingredients)):
        raise DataError(f"{path}.ingredients: expected a list of strings, "
                        f"got {ingredients!r:.80}")
    if not isinstance(locations, dict):
        raise DataError(f"{path}.locations: expected an object of ingredient "
                        f"annotations, got {locations!r:.80}")
    for name in locations:
        if name not in ingredients:
            raise DataError(f"{path}.locations.{name}: not one of the "
                            f"ingredients {ingredients!r:.80}")
    entities, grid = [], {}
    for name in ingredients:
        ann = locations.get(name, {})
        if not isinstance(ann, dict):
            raise DataError(f"{path}.locations.{name}: expected an object of "
                            f"step -> location, got {ann!r:.80}")
        if not ann:
            log.warning("%s: ingredient %r has no location annotations; skipped",
                        obj["id"], name)
            continue
        steps = {}
        for key, value in ann.items():
            step = int(key) if key.isascii() and key.isdigit() else -1
            if not 0 <= step <= n or step in steps:
                raise DataError(f"{path}.locations.{name}.{key}: expected a "
                                f"step number 0..{n}, each step once")
            if not isinstance(value, str):
                raise DataError(f"{path}.locations.{name}.{key}: expected a "
                                f"location string, got {value!r:.80}")
            steps[step] = value
        timeline = [steps.get(0, "?")]
        for step in range(1, n + 1):
            timeline.append(steps.get(step, timeline[-1]))
        entities.append(name)
        grid[name] = timeline
    return entities, grid


def _proc_from_obj(obj, path: str) -> Procedure:
    """Build and check the Procedure of one corpus entry, or raise a
    DataError naming `path`. The entry is a procedure object, a grid-TSV
    block in that shape, or a recipe object (one with `locations`), whose
    sentences may be strings and whose grid comes from `_recipe_grid`.
    Sentence tokens and grid values are lowercased. Rejected, as they break
    the TSV formats or the question: an id or entity name holding a tab or
    line break, an entity name with no question tokens, and a sentence token
    that is empty or holds whitespace."""
    if not isinstance(obj, dict):
        raise DataError(f"{path}: expected a procedure or recipe object, "
                        f"got {obj!r:.80}")
    recipe = "locations" in obj
    required = {"id", "sentences",
                *(("ingredients", "locations") if recipe else ("entities", "grid"))}
    missing = required - set(obj)
    if missing:
        raise DataError(f"{path}: missing keys {sorted(missing)}")
    unknown = set(obj) - required - {"candidate_spans"}
    if unknown:
        raise DataError(f"{path}: unknown keys {sorted(unknown)}")
    if not isinstance(obj["id"], str):
        raise DataError(f"{path}.id: expected a string, got {obj['id']!r:.80}")
    sentences = obj["sentences"]
    if not isinstance(sentences, list):
        raise DataError(f"{path}.sentences: expected a list of sentences")
    if recipe:
        sentences = [tokenize(s) if isinstance(s, str) else s for s in sentences]
    for j, sent in enumerate(sentences):
        if not (isinstance(sent, list) and all(isinstance(t, str) for t in sent)):
            raise DataError(f"{path}.sentences[{j}]: expected a list of token "
                            f"strings, got {sent!r:.80}")
        for k, tok in enumerate(sent):
            if tok.split() != [tok]:
                raise DataError(f"{path}.sentences[{j}][{k}]: token {tok!r:.80} is "
                                f"empty or holds whitespace")
    entities, grid = (_recipe_grid(obj, len(sentences), path) if recipe
                      else (obj["entities"], obj["grid"]))
    if not (isinstance(entities, list)
            and all(isinstance(e, str) for e in entities)):
        raise DataError(f"{path}.entities: expected a list of entity names, "
                        f"got {entities!r:.80}")
    key = "ingredients" if recipe else "entities"
    for where, name in [("id", obj["id"]),
                        *((f"{key}[{i}]", e) for i, e in enumerate(obj[key]))]:
        if {"\t", "\r", "\n"} & set(name):
            raise DataError(f"{path}.{where}: {name!r:.80} holds a tab or line "
                            f"break, which a TSV cell cannot")
        if where != "id" and not question_tokens(name):
            raise DataError(f"{path}.{where}: entity name {name!r:.80} gives no "
                            f"question tokens")
    if not isinstance(grid, dict):
        raise DataError(f"{path}.grid: expected an object of entity timelines")
    for entity, tl in grid.items():
        if not (isinstance(tl, list) and all(isinstance(v, str) for v in tl)):
            raise DataError(f"{path}.grid.{entity}: expected a list of location "
                            f"strings, got {tl!r:.80}")
    spans = obj.get("candidate_spans", [])
    if not (isinstance(spans, list)
            and all(isinstance(sp, list) and len(sp) == 2
                    and all(type(i) is int for i in sp) for sp in spans)):
        raise DataError(f"{path}.candidate_spans: expected a list of [start, end] "
                        f"integer pairs, got {spans!r:.80}")
    proc = Procedure(
        id=obj["id"],
        sentences=[[t.lower() for t in s] for s in sentences],
        entities=list(entities),
        grid={e: [_normalize(v) for v in tl] for e, tl in grid.items()},
        candidate_spans=[tuple(sp) for sp in spans],
    )
    validate_procedure(proc, path)
    return proc


def _unique_ids(procs: list[Procedure], places: list[str]) -> list[Procedure]:
    """`procs`, or a DataError naming both places of the first repeated id:
    predictions and gold tables are keyed by it."""
    first = {}
    for proc, place in zip(procs, places):
        if proc.id in first:
            raise DataError(f"{place}.id: {proc.id!r:.80} repeats {first[proc.id]}")
        first[proc.id] = place
    return procs


def load_procedures(path) -> list[Procedure]:
    with open(path, encoding="utf-8") as f:
        try:
            data = json.load(f)
        except RecursionError:
            raise DataError(f"{path}: JSON nested too deeply to read") from None
    if not isinstance(data, list):
        raise DataError("$: top level must be a list of procedures")
    places = [f"$[{i}]" for i in range(len(data))]
    return _unique_ids([_proc_from_obj(obj, where)
                        for obj, where in zip(data, places)], places)


def save_procedures(procs: list[Procedure], path) -> None:
    data = [
        {
            "id": p.id,
            "sentences": p.sentences,
            "entities": p.entities,
            "grid": p.grid,
            "candidate_spans": [list(sp) for sp in p.candidate_spans],
        }
        for p in procs
    ]
    with open(path, "w", encoding="utf-8") as f:
        json.dump(data, f, ensure_ascii=False, indent=1)


# ---------------------------------------------------------------------------
# Grid-style TSV ingestion: one block per process, blank-line separated.
# Header row: process id, then entity names. One row per state: first cell
# "state<k>", second cell the sentence text ("" for state0), then one
# location value per entity.
# ---------------------------------------------------------------------------

def load_grid_tsv(path) -> list[Procedure]:
    with open(path, encoding="utf-8") as f:
        lines = [line.rstrip("\n") for line in f]
    blocks, cur = [], []
    for line in lines:
        if line.strip():
            cur.append(line)
        elif cur:
            blocks.append(cur)
            cur = []
    if cur:
        blocks.append(cur)

    procs, places = [], [f"{path}:block{b}" for b in range(len(blocks))]
    for block, where in zip(blocks, places):
        header = block[0].split("\t")
        if len(header) < 2:
            raise DataError(f"{where}: header needs a process id and >=1 entity")
        pid, entities = header[0], header[1:]
        sentences, columns = [], {e: [] for e in entities}
        for k, line in enumerate(block[1:]):
            cells = line.split("\t")
            if cells[0] != f"state{k}":
                raise DataError(f"{where}: expected row 'state{k}', "
                                f"got {cells[0]!r:.80}")
            if len(cells) != len(entities) + 2:
                raise DataError(
                    f"{where}.state{k}: expected {len(entities) + 2} cells, "
                    f"got {len(cells)}"
                )
            if k > 0:
                sentences.append(tokenize(cells[1]))
            elif cells[1]:
                raise DataError(f"{where}.state0: the sentence cell must be empty")
            for e, v in zip(entities, cells[2:]):
                columns[e].append(v)
        procs.append(_proc_from_obj({"id": pid, "sentences": sentences,
                                     "entities": entities, "grid": columns},
                                    where))
    return _unique_ids(procs, places)


def save_grid_tsv(procs: list[Procedure], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for p in procs:
            f.write("\t".join([p.id, *p.entities]) + "\n")
            for k in range(p.n_steps + 1):
                sentence = " ".join(p.sentences[k - 1]) if k > 0 else ""
                cells = [f"state{k}", sentence] + [p.grid[e][k] for e in p.entities]
                f.write("\t".join(cells) + "\n")
            f.write("\n")


# ---------------------------------------------------------------------------
# Synthetic corpus generator.
# ---------------------------------------------------------------------------

ENTITY_POOL = ("water", "sand", "salt", "vapor", "dough", "seed",
               "smoke", "juice", "paste", "ash", "mud", "resin")
LOCATION_POOL = ("soil", "oven", "bowl", "river", "field", "tank",
                 "cloud", "pot", "tray", "mill")
COMBINE_PROB, DESTROY_PROB = 0.25, 0.2


@dataclass
class GrammarConfig:
    min_entities: int = 2
    max_entities: int = 3
    min_steps: int = 3
    max_steps: int = 5
    entity_pool: tuple = ENTITY_POOL

    def __post_init__(self):
        for kind in ("steps", "entities"):
            least, most = getattr(self, f"min_{kind}"), getattr(self, f"max_{kind}")
            if not 1 <= least <= most:
                raise ValueError(f"{kind} range must have 1 <= min_{kind} <= "
                                 f"max_{kind}, got {least} and {most}")


def generate_synthetic(seed: int, n_procedures: int,
                       grammar: GrammarConfig | None = None) -> list[Procedure]:
    """Template-generated procedures with exactly derivable gold grids.

    Every text location in a grid occurs verbatim in its paragraph, and every
    grid satisfies the create/destroy consistency rules by construction.
    """
    g = grammar or GrammarConfig()
    rng = random.Random(seed)
    procs = []
    for idx in range(n_procedures):
        n_entities = rng.randint(g.min_entities, g.max_entities)
        names = rng.sample(g.entity_pool, min(n_entities + 2, len(g.entity_pool)))
        entities, spare = names[:n_entities], names[n_entities:]
        n_steps = rng.randint(g.min_steps, g.max_steps)

        state = {}
        created, destroyed = set(), set()
        for e in entities:
            if rng.random() < 0.3:
                state[e] = "-"  # will need creation
            else:
                state[e] = "?"  # input with unknown starting location
        grid = {e: [state[e]] for e in entities}
        sentences = []

        for _ in range(n_steps):
            alive = [e for e in entities if state[e] != "-"]
            dead_fresh = [e for e in entities
                          if state[e] == "-" and e not in created and e not in destroyed]
            sentence = None
            r = rng.random()
            if len(alive) >= 2 and spare and r < COMBINE_PROB:
                x, y = rng.sample(alive, 2)
                z = spare.pop()
                loc = rng.choice(LOCATION_POOL)
                sentence = ["the", x, "and", "the", y, "combine",
                            "into", z, "at", "the", loc, "."]
                state[x] = state[y] = "-"
                destroyed.update((x, y))
                entities.append(z)
                grid[z] = ["-"] * len(grid[entities[0]])
                state[z] = loc
                created.add(z)
            elif alive and r < COMBINE_PROB + DESTROY_PROB:
                x = rng.choice(alive)
                sentence = ["the", x, "is", "destroyed", "."]
                state[x] = "-"
                destroyed.add(x)
            elif dead_fresh and r < COMBINE_PROB + DESTROY_PROB + 0.2:
                x = rng.choice(dead_fresh)
                loc = rng.choice(LOCATION_POOL)
                sentence = ["a", x, "appears", "at", "the", loc, "."]
                state[x] = loc
                created.add(x)
            elif alive:
                x = rng.choice(alive)
                loc = rng.choice([l for l in LOCATION_POOL if l != state[x]])
                sentence = ["the", x, "moves", "to", "the", loc, "."]
                state[x] = loc
            else:
                sentence = ["nothing", "happens", "."]
            sentences.append(sentence)
            for e in entities:
                grid[e].append(state[e])

        proc = Procedure(id=f"proc{idx:04d}", sentences=sentences,
                         entities=entities, grid=grid)
        assert not proc.unresolved_locations, \
            "generator must only use locations present in text"
        procs.append(proc)
    for p in procs:
        for e in p.entities:
            assert not violates_rules(p.grid[e])
    return procs
