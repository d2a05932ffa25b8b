"""Document-level state-change table: (step, entity, action, before, after).

Rows are chained per entity: row i's before-location equals row i-1's after.
Action names are derived from the (before, after) pair only.
"""

from __future__ import annotations

from dataclasses import dataclass

ACTION_NONE, ACTION_CREATE, ACTION_MOVE, ACTION_DESTROY = (
    "NONE", "CREATE", "MOVE", "DESTROY",
)


@dataclass(frozen=True)
class StateChangeRow:
    step: int
    entity: str
    action: str
    before: str
    after: str


def derive_action(before: str, after: str) -> str:
    if before == after:
        return ACTION_NONE
    if before == "-":
        return ACTION_CREATE
    if after == "-":
        return ACTION_DESTROY
    # Both sides exist and differ; "?" <-> text also counts as a move.
    return ACTION_MOVE


def build_table(timelines: dict[str, list[str]], n_steps: int) -> list[StateChangeRow]:
    """One row per (entity, step 1..n). Timelines must include state 0."""
    rows = []
    for entity, timeline in timelines.items():
        if len(timeline) != n_steps + 1:
            raise ValueError(
                f"timeline for {entity!r} has {len(timeline)} states, "
                f"expected {n_steps + 1} (state 0 through state {n_steps})"
            )
        for i in range(1, n_steps + 1):
            before, after = timeline[i - 1], timeline[i]
            rows.append(StateChangeRow(i, entity, derive_action(before, after),
                                       before, after))
    return rows


def timeline_from_rows(rows: list[StateChangeRow]) -> list[str]:
    """Recover a single entity's timeline (state 0..n) from its rows, whose
    steps must be 1..n, each once."""
    rows = sorted(rows, key=lambda r: r.step)
    if [r.step for r in rows] != list(range(1, len(rows) + 1)):
        raise ValueError(f"steps for {rows[0].entity!r} are not 1 .. {len(rows)}, "
                         f"each once")
    for prev, cur in zip(rows, rows[1:]):
        if prev.after != cur.before:
            raise ValueError(
                f"broken chaining for {cur.entity!r} at step {cur.step}: "
                f"before {cur.before!r} != previous after {prev.after!r}"
            )
    return [rows[0].before] + [r.after for r in rows]


def timelines_from_table(table: list[StateChangeRow]) -> dict[str, list[str]]:
    """Entity -> timeline (state 0..n) for every entity of one process table."""
    per_entity: dict[str, list[StateChangeRow]] = {}
    for r in table:
        per_entity.setdefault(r.entity, []).append(r)
    return {e: timeline_from_rows(rows) for e, rows in per_entity.items()}


def write_tsv(tables: dict[str, list[StateChangeRow]], path) -> None:
    """process_id, step, entity, action, before, after; lowercase locations,
    and the action derived from them."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for pid in sorted(tables):
            for r in sorted(tables[pid], key=lambda r: (r.entity, r.step)):
                before, after = r.before.lower(), r.after.lower()
                f.write("\t".join([pid, str(r.step), r.entity,
                                   derive_action(before, after), before, after])
                        + "\n")


def read_tsv(path) -> dict[str, list[StateChangeRow]]:
    """The rows of a `write_tsv` file by process id; ValueError naming the
    line of a row that has not 6 columns, a step that is not digits, or an
    action that is not the one its before and after give."""
    tables: dict[str, list[StateChangeRow]] = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 6:
                raise ValueError(f"{path}:{lineno}: expected 6 columns, got {len(parts)}")
            pid, step, entity, action, before, after = parts
            if not (step.isascii() and step.isdigit()):
                raise ValueError(f"{path}:{lineno}: step {step!r:.20} is not "
                                 f"an integer")
            if action != derive_action(before, after):
                raise ValueError(f"{path}:{lineno}: action {action!r:.20} does "
                                 f"not fit {before!r:.40} -> {after!r:.40}, "
                                 f"which is {derive_action(before, after)}")
            tables.setdefault(pid, []).append(
                StateChangeRow(int(step), entity, action, before, after)
            )
    return tables
