import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proctrack.data import GrammarConfig, generate_synthetic
from proctrack.evaluation import (
    answer_sets, document_level, extract_events,
    location_change_accuracy, sentence_level,
)
from proctrack.fixtures import photosynthesis
from proctrack.state_table import StateChangeRow, build_table, timeline_from_rows


def grid_tables(grid, n_steps):
    return build_table({e: list(tl) for e, tl in grid.items()}, n_steps)


@pytest.fixture
def photo_tables():
    p = photosynthesis()
    return {p.id: grid_tables(p.grid, p.n_steps)}


class TestExtractEvents:
    def test_two_step_sample_rows(self):
        rows = [
            StateChangeRow(1, "water", "MOVE", "root", "leaf"),
            StateChangeRow(2, "water", "DESTROY", "leaf", "-"),
            StateChangeRow(1, "sugar", "CREATE", "-", "leaf"),
            StateChangeRow(2, "sugar", "NONE", "leaf", "leaf"),
        ]
        assert extract_events(rows) == rows[:3]

    def test_all_none_table_empty(self):
        rows = build_table({"ghost": ["-"] * 5}, 4)
        assert extract_events(rows) == []

    def test_water_timeline_events(self):
        rows = build_table({"water": ["soil", "root", "leaf", "leaf", "-", "-"]}, 5)
        events = extract_events(rows)
        assert events == [
            StateChangeRow(1, "water", "MOVE", "soil", "root"),
            StateChangeRow(2, "water", "MOVE", "root", "leaf"),
            StateChangeRow(4, "water", "DESTROY", "leaf", "-"),
        ]


class TestSentenceLevel:
    def test_identity_all_ones(self, photo_tables):
        r = sentence_level(photo_tables, photo_tables)
        assert r.cat1 == r.cat2 == r.cat3 == r.macro_avg == r.micro_avg == 1.0

    def test_omitted_move_drops_cat1(self):
        gold = {"p": grid_tables({"a": ["soil", "leaf", "-"],
                                  "b": ["-", "pot", "pot"]}, 2)}
        # gold pairs: a/move, a/destroy, b/create; pred omits a's move and
        # adds nothing else -> 4th pair comes from pred's extra destroy of b
        pred = {"p": grid_tables({"a": ["soil", "soil", "-"],
                                  "b": ["-", "pot", "pot"]}, 2)}
        gold_keys = {("p", "a", "move"), ("p", "a", "destroy"), ("p", "b", "create")}
        pred_keys = {("p", "a", "destroy"), ("p", "b", "create")}
        r = sentence_level(pred, gold)
        assert r.cat1 == pytest.approx(len(gold_keys & pred_keys)
                                       / len(gold_keys | pred_keys))

    def test_empty_both_sides_vacuous_ones(self):
        empty = {"p": build_table({"a": ["-", "-"]}, 1)}
        r = sentence_level(empty, empty)
        assert r.cat1 == r.cat2 == r.cat3 == 1.0

    def test_cat2_requires_same_steps(self):
        gold = {"p": grid_tables({"a": ["soil", "leaf", "leaf"]}, 2)}
        pred = {"p": grid_tables({"a": ["soil", "soil", "leaf"]}, 2)}
        r = sentence_level(pred, gold)
        assert r.cat1 == 1.0  # move occurs on both sides
        assert r.cat2 == 0.0  # but at different steps
        assert r.cat3 == 0.0


class TestDocumentLevel:
    def test_identity_all_ones(self, photo_tables):
        r = document_level(photo_tables, photo_tables)
        for m in r.criteria.values():
            assert m["precision"] == m["recall"] == m["f1"] == 1.0
        assert r.precision == r.recall == r.f1 == 1.0

    def test_photo_inputs_outputs(self):
        p = photosynthesis()
        sets = answer_sets(grid_tables(p.grid, p.n_steps))
        assert sets["inputs"] == {"water", "light", "co2"}
        assert sets["outputs"] == {"sugar"}

    def test_photo_conversions(self):
        p = photosynthesis()
        sets = answer_sets(grid_tables(p.grid, p.n_steps))
        assert (4, "water", "mixture", "leaf") in sets["conversions"]
        assert (5, "mixture", "sugar", "leaf") in sets["conversions"]

    def test_partial_inputs_precision_recall(self):
        gold_grid = photosynthesis().grid
        pred_grid = {e: (tl if e == "water" else ["-"] * 6)
                     for e, tl in gold_grid.items()}
        r = document_level({"p": grid_tables(pred_grid, 5)},
                           {"p": grid_tables(gold_grid, 5)})
        assert r.criteria["inputs"]["precision"] == 1.0
        assert r.criteria["inputs"]["recall"] == pytest.approx(1 / 3)

    def test_process_id_mismatch_rejected(self, photo_tables):
        with pytest.raises(ValueError, match="process ids"):
            document_level(photo_tables, {"other": []})

    def test_no_processes_rejected(self):
        with pytest.raises(ValueError, match="no processes"):
            document_level({}, {})

    def test_process_order_does_not_change_a_digit(self):
        """Per-process scores summed in another order can differ in the last
        bit; this corpus was found by `TestMetricProperties`."""
        pred = {"p0": {"resin": ["-", "-", "-", "soil"], "paste": ["?", "-", "?", "oven"],
                       "sand": ["?", "?", "bowl", "bowl"]},
                "p1": {"water": ["-", "-", "-"], "sand": ["?", "-", "-"],
                       "ash": ["?", "?", "mill"]},
                "p2": {"ash": ["-", "-", "-"], "resin": ["?", "-", "-"]},
                "p3": {"smoke": ["-", "?", "soil"], "sand": ["?", "?", "soil"],
                       "dough": ["-", "-", "-"], "salt": ["-", "tank", "river"]}}
        gold = {"p0": {"resin": ["-", "-", "soil", "soil"], "paste": ["?", "?", "?", "oven"],
                       "sand": ["?", "bowl", "bowl", "bowl"]},
                "p1": pred["p1"],
                "p2": {"ash": ["-", "-", "cloud"], "resin": ["?", "-", "-"]},
                "p3": {"smoke": ["-", "-", "-"], "sand": ["?", "-", "-"],
                       "dough": ["?", "-", "-"], "salt": ["-", "tank", "river"]}}
        pt, gt = tables_of(pred), tables_of(gold)
        want = document_level(pt, gt).to_dict()
        for order in itertools.permutations(gt):
            got = document_level({pid: pt[pid] for pid in order},
                                 {pid: gt[pid] for pid in order})
            assert got.to_dict() == want, order

    def test_row_order_invariance(self, photo_tables):
        pid = next(iter(photo_tables))
        shuffled = list(photo_tables[pid])
        random.Random(3).shuffle(shuffled)
        a = document_level({pid: shuffled}, photo_tables)
        b = document_level(photo_tables, photo_tables)
        assert a.to_dict() == b.to_dict()


# ---------------------------------------------------------------------------
# Brute-force oracles working directly on grids, independent of the
# state-table pathway.
# ---------------------------------------------------------------------------

def oracle_events(grid):
    events = []
    for e, tl in grid.items():
        for i in range(1, len(tl)):
            b, a = tl[i - 1], tl[i]
            if b == a:
                continue
            if b == "-":
                events.append((e, "create", i, "-", a))
            elif a == "-":
                events.append((e, "destroy", i, b, "-"))
            else:
                events.append((e, "move", i, b, a))
    return events


def oracle_doc_sets(grid):
    inputs = {e for e, tl in grid.items() if tl[0] != "-" and tl[-1] == "-"}
    outputs = {e for e, tl in grid.items() if tl[0] == "-" and tl[-1] != "-"}
    events = oracle_events(grid)
    conversions = set()
    for (de, dk, ds, db, _) in events:
        if dk != "destroy":
            continue
        for (ce, ck, cs, _, ca) in events:
            if ck == "create" and cs == ds and ca == db:
                conversions.add((ds, de, ce, ca))
    moves = {(e, i, b, a) for (e, k, i, b, a) in events if k == "move"}
    return {"inputs": inputs, "outputs": outputs,
            "conversions": conversions, "moves": moves}


def oracle_sentence(pred_grids, gold_grids):
    def keyed(grids):
        out = {}
        for pid, grid in grids.items():
            for (e, k, i, b, a) in oracle_events(grid):
                out.setdefault((pid, e, k), []).append((i, b, a))
        return out

    pred, gold = keyed(pred_grids), keyed(gold_grids)
    keys = set(pred) | set(gold)
    if not keys:
        return 1.0, 1.0, 1.0

    def cat3_tuples(evs, kind):
        if kind == "create":
            return {(i, a) for i, b, a in evs}
        if kind == "destroy":
            return {(i, b) for i, b, a in evs}
        return {(i, b, a) for i, b, a in evs}

    c1 = sum(1 for k in keys if (k in pred) == (k in gold)) / len(keys)
    both = [k for k in keys if k in pred and k in gold]
    c2 = (sum(1 for k in both
              if {i for i, _, _ in pred[k]} == {i for i, _, _ in gold[k]})
          / len(both)) if both else 1.0
    c3 = (sum(1 for k in both
              if cat3_tuples(pred[k], k[2]) == cat3_tuples(gold[k], k[2]))
          / len(both)) if both else 1.0
    return c1, c2, c3


def random_grid(rng):
    values = ["-", "?", "soil", "leaf", "pot"]
    n_entities = rng.randint(1, 4)
    n_steps = rng.randint(1, 5)
    return {f"e{i}": [rng.choice(values) for _ in range(n_steps + 1)]
            for i in range(n_entities)}, n_steps


class TestOracleEquivalence:
    def test_document_level_matches_oracle_on_random_grids(self):
        rng = random.Random(99)
        for _ in range(200):
            pred_grids, gold_grids, pred_t, gold_t = {}, {}, {}, {}
            for p in range(rng.randint(1, 3)):
                pid = f"p{p}"
                grid, n = random_grid(rng)
                gold_grids[pid] = grid
                gold_t[pid] = grid_tables(grid, n)
                pred = {e: [rng.choice(["-", "?", "soil", "leaf", "pot"])
                            for _ in tl] for e, tl in grid.items()}
                pred_grids[pid] = pred
                pred_t[pid] = grid_tables(pred, n)
            # implementation answer sets match the grid-level oracle exactly
            for pid in gold_grids:
                assert answer_sets(gold_t[pid]) == oracle_doc_sets(gold_grids[pid])
                assert answer_sets(pred_t[pid]) == oracle_doc_sets(pred_grids[pid])

    def test_sentence_level_matches_oracle_on_random_grids(self):
        rng = random.Random(7)
        for _ in range(200):
            grid, n = random_grid(rng)
            pred = {e: [rng.choice(["-", "?", "soil", "leaf"]) for _ in tl]
                    for e, tl in grid.items()}
            r = sentence_level({"p": grid_tables(pred, n)},
                               {"p": grid_tables(grid, n)})
            c1, c2, c3 = oracle_sentence({"p": pred}, {"p": grid})
            assert r.cat1 == pytest.approx(c1)
            assert r.cat2 == pytest.approx(c2)
            assert r.cat3 == pytest.approx(c3)


class TestLocationChangeAccuracy:
    def test_identity_is_one(self):
        tl = {"p": {"water": ["soil", "root", "leaf", "leaf"]}}
        assert location_change_accuracy(tl, tl) == 1.0

    def test_half_right(self):
        gold = {"p": {"water": ["soil", "root", "leaf", "leaf"]}}
        pred = {"p": {"water": ["soil", "root", "pot", "leaf"]}}
        # gold changes at steps 1 and 2; pred is right only at step 1
        assert location_change_accuracy(pred, gold) == pytest.approx(0.5)

    def test_constant_unknown_scores_zero(self):
        gold = {"p": {"water": ["soil", "root", "leaf", "leaf"]}}
        pred = {"p": {"water": ["?", "?", "?", "?"]}}
        assert location_change_accuracy(pred, gold) == 0.0

    def test_values_compare_exactly(self):
        """Values arrive lowercased by their loaders and compare with `==`:
        `strasse` is not `straße`, as in sentence and document scoring."""
        gold = {"p": {"water": ["soil", "straße"]}}
        pred = {"p": {"water": ["soil", "strasse"]}}
        assert location_change_accuracy(pred, gold) == 0.0

    def test_no_change_steps_reports_one(self, caplog):
        gold = {"p": {"water": ["soil", "soil"]}}
        assert location_change_accuracy(gold, gold) == 1.0

    def test_counting_oracle_on_random_timelines(self):
        rng = random.Random(5)
        values = ["-", "?", "soil", "leaf"]
        for _ in range(100):
            n = rng.randint(2, 6)
            gold = [rng.choice(values) for _ in range(n)]
            pred = [rng.choice(values) for _ in range(n)]
            changes = [i for i in range(1, n) if gold[i] != gold[i - 1]]
            if not changes:
                continue
            expected = sum(1 for i in changes if pred[i] == gold[i]) / len(changes)
            got = location_change_accuracy({"p": {"e": pred}}, {"p": {"e": gold}})
            assert got == pytest.approx(expected)


# ---------------------------------------------------------------------------
# Properties of all three metrics on generated corpora.
# ---------------------------------------------------------------------------

@st.composite
def scored_corpus(draw):
    """Gold grids of a synthetic corpus, a prediction that mutates some of
    their values, and a random generator for shuffles and renamings."""
    min_steps = draw(st.integers(1, 5))
    procs = generate_synthetic(
        draw(st.integers(0, 10**6)), draw(st.integers(1, 5)),
        GrammarConfig(min_steps=min_steps, max_steps=min_steps + draw(st.integers(0, 3))))
    rng = draw(st.randoms(use_true_random=False))
    mutate = draw(st.floats(0.0, 0.6))
    gold = {p.id: {e: p.timeline(e) for e in p.entities} for p in procs}
    values = ["-", "?", "soil", "oven", "bowl"]
    pred = {pid: {e: [rng.choice(values) if rng.random() < mutate else v
                      for v in tl] for e, tl in grid.items()}
            for pid, grid in gold.items()}
    return pred, gold, rng


def tables_of(grids):
    return {pid: grid_tables(grid, len(next(iter(grid.values()))) - 1)
            for pid, grid in grids.items()}


def all_scores(pred, gold):
    """Every number the three metrics report for grids `pred` and `gold`."""
    pt, gt = tables_of(pred), tables_of(gold)
    return (document_level(pt, gt).to_dict(), sentence_level(pt, gt).to_dict(),
            location_change_accuracy(pred, gold))


def shuffled_rows(tables, rng):
    out = {}
    for pid in rng.sample(list(tables), len(tables)):
        rows = list(tables[pid])
        rng.shuffle(rows)
        out[pid] = rows
    return out


def timelines_of(tables):
    """Per-entity timelines recovered from table rows in any order."""
    out = {}
    for pid, rows in tables.items():
        per_entity = {}
        for r in rows:
            per_entity.setdefault(r.entity, []).append(r)
        out[pid] = {e: timeline_from_rows(rs) for e, rs in per_entity.items()}
    return out


class TestMetricProperties:
    @given(scored_corpus())
    @settings(max_examples=40, deadline=None)
    def test_gold_against_gold_is_one(self, case):
        _, gold, _ = case
        doc, sent, lca = all_scores(gold, gold)
        assert doc["precision"] == doc["recall"] == doc["f1"] == 1.0
        assert all(v == 1.0 for m in doc["criteria"].values() for v in m.values())
        assert sent == {k: 1.0 for k in ("cat1", "cat2", "cat3", "macro_avg",
                                         "micro_avg")}
        assert lca == 1.0

    @given(scored_corpus())
    @settings(max_examples=40, deadline=None)
    def test_invariant_to_row_order(self, case):
        pred, gold, rng = case
        pt, gt = tables_of(pred), tables_of(gold)
        ps, gs = shuffled_rows(pt, rng), shuffled_rows(gt, rng)
        assert document_level(ps, gs).to_dict() == document_level(pt, gt).to_dict()
        assert sentence_level(ps, gs).to_dict() == sentence_level(pt, gt).to_dict()
        assert (location_change_accuracy(timelines_of(ps), timelines_of(gs))
                == location_change_accuracy(pred, gold))

    @given(scored_corpus())
    @settings(max_examples=40, deadline=None)
    def test_invariant_to_renaming_entities(self, case):
        pred, gold, rng = case
        # Per procedure, a permutation of its own names plus a suffix, so that
        # the renaming also reorders the entities.
        new = {pid: dict(zip(grid, (n + "_x" for n in rng.sample(list(grid), len(grid)))))
               for pid, grid in gold.items()}
        renamed = [{pid: {new[pid][e]: tl for e, tl in grid.items()}
                    for pid, grid in grids.items()} for grids in (pred, gold)]
        assert all_scores(*renamed) == all_scores(pred, gold)
