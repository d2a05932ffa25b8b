"""Scoring: per-sentence event categories, document-level tuple sets, and
location-change accuracy.

Sentence-level asks, per (process, entity, event kind): does the event occur
(Cat1), at which steps (Cat2), and at/to which locations (Cat3). Document-level
scores set precision/recall over inputs, outputs, conversions, and moves
derived from the state-change table, macro-averaged over processes.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, asdict

from .state_table import (
    ACTION_CREATE, ACTION_DESTROY, ACTION_MOVE, ACTION_NONE,
    StateChangeRow, timelines_from_table,
)

log = logging.getLogger(__name__)


@dataclass
class MetricsReport:
    cat1: float | None = None
    cat2: float | None = None
    cat3: float | None = None
    macro_avg: float | None = None
    micro_avg: float | None = None
    criteria: dict = field(default_factory=dict)  # name -> {precision, recall, f1}
    precision: float | None = None
    recall: float | None = None
    f1: float | None = None
    location_change_accuracy: float | None = None

    def to_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items()
                if v is not None and v != {}}


def _f1(p: float, r: float) -> float:
    return 2 * p * r / (p + r) if p + r > 0 else 0.0


def extract_events(table: list[StateChangeRow]) -> list[StateChangeRow]:
    """The event rows: those whose action is not NONE. A create's `before`
    and a destroy's `after` are "-"."""
    return [r for r in table if r.action != ACTION_NONE]


def _event_tuples(events: list[StateChangeRow]) -> set:
    out = set()
    for ev in events:
        if ev.action == ACTION_CREATE:
            out.add((ev.step, ev.after))
        elif ev.action == ACTION_DESTROY:
            out.add((ev.step, ev.before))
        else:
            out.add((ev.step, ev.before, ev.after))
    return out


def sentence_level(pred_tables: dict[str, list[StateChangeRow]],
                   gold_tables: dict[str, list[StateChangeRow]]) -> MetricsReport:
    def by_entity_kind(tables):
        grouped: dict[tuple, list[StateChangeRow]] = {}
        for pid, rows in tables.items():
            for ev in extract_events(rows):
                grouped.setdefault((pid, ev.entity, ev.action), []).append(ev)
        return grouped

    pred, gold = by_entity_kind(pred_tables), by_entity_kind(gold_tables)
    # Score every (process, entity, kind) that occurs on either side; pairs
    # where neither side has the event are vacuous and excluded. Cat1 holds
    # where both sides have it, and only there are Cat2 and Cat3 scored.
    universe, both = set(pred) | set(gold), set(pred) & set(gold)
    c2_hit = sum({e.step for e in pred[k]} == {e.step for e in gold[k]}
                 for k in both)
    c3_hit = sum(_event_tuples(pred[k]) == _event_tuples(gold[k]) for k in both)
    cat1 = len(both) / len(universe) if universe else 1.0
    cat2 = c2_hit / len(both) if both else 1.0
    cat3 = c3_hit / len(both) if both else 1.0
    total = len(universe) + 2 * len(both)
    micro = (len(both) + c2_hit + c3_hit) / total if total else 1.0
    return MetricsReport(cat1=cat1, cat2=cat2, cat3=cat3,
                         macro_avg=(cat1 + cat2 + cat3) / 3, micro_avg=micro)


def answer_sets(table: list[StateChangeRow]) -> dict[str, set]:
    """Inputs/outputs/conversions/moves answer sets for one process table."""
    inputs, outputs = set(), set()
    for entity, timeline in timelines_from_table(table).items():
        exists0, existsN = timeline[0] != "-", timeline[-1] != "-"
        if exists0 and not existsN:
            inputs.add(entity)
        if not exists0 and existsN:
            outputs.add(entity)

    events = extract_events(table)
    destroys = [e for e in events if e.action == ACTION_DESTROY]
    creates = [e for e in events if e.action == ACTION_CREATE]
    conversions = {
        (d.step, d.entity, c.entity, c.after)
        for d in destroys for c in creates
        if d.step == c.step and d.before == c.after
    }
    moves = {(e.entity, e.step, e.before, e.after)
             for e in events if e.action == ACTION_MOVE}
    return {"inputs": inputs, "outputs": outputs,
            "conversions": conversions, "moves": moves}


def document_level(pred_tables: dict[str, list[StateChangeRow]],
                   gold_tables: dict[str, list[StateChangeRow]]) -> MetricsReport:
    if set(pred_tables) != set(gold_tables):
        missing = set(gold_tables) ^ set(pred_tables)
        raise ValueError(f"process ids differ between pred and gold: {sorted(missing)}")
    if not gold_tables:
        raise ValueError("no processes to score")

    criteria = ("inputs", "outputs", "conversions", "moves")
    # Per-process precisions and recalls; summed with fsum, whose result does
    # not depend on the order of the processes.
    scores = {c: ([], []) for c in criteria}
    for pid in gold_tables:
        pred_sets = answer_sets(pred_tables[pid])
        gold_sets = answer_sets(gold_tables[pid])
        for c in criteria:
            inter = len(pred_sets[c] & gold_sets[c])
            scores[c][0].append(inter / len(pred_sets[c]) if pred_sets[c] else 1.0)
            scores[c][1].append(inter / len(gold_sets[c]) if gold_sets[c] else 1.0)

    n = len(gold_tables)
    per_criterion = {}
    for c in criteria:
        p, r = math.fsum(scores[c][0]) / n, math.fsum(scores[c][1]) / n
        per_criterion[c] = {"precision": p, "recall": r, "f1": _f1(p, r)}
    overall_p = sum(per_criterion[c]["precision"] for c in criteria) / len(criteria)
    overall_r = sum(per_criterion[c]["recall"] for c in criteria) / len(criteria)
    return MetricsReport(criteria=per_criterion, precision=overall_p,
                         recall=overall_r, f1=_f1(overall_p, overall_r))


def location_change_accuracy(pred_timelines: dict[str, dict[str, list[str]]],
                             gold_timelines: dict[str, dict[str, list[str]]]) -> float:
    """Accuracy at gold steps where the location differs from the prior step."""
    total = hit = 0
    for pid, entities in gold_timelines.items():
        for entity, gold in entities.items():
            pred = pred_timelines.get(pid, {}).get(entity)
            for i in range(1, len(gold)):
                if gold[i] == gold[i - 1]:
                    continue
                total += 1
                if pred is not None and i < len(pred) and pred[i] == gold[i]:
                    hit += 1
    if total == 0:
        log.warning("no location-change steps in gold; reporting accuracy 1.0")
        return 1.0
    return hit / total
