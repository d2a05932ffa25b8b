import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proctrack.fixtures import photosynthesis
from proctrack.inference import repair_timeline
from proctrack.state_table import (
    ACTION_CREATE, ACTION_DESTROY, ACTION_MOVE, ACTION_NONE, StateChangeRow,
    build_table, derive_action, read_tsv, timeline_from_rows, write_tsv,
)


class TestDeriveAction:
    @pytest.mark.parametrize("before,after,action", [
        ("root", "leaf", ACTION_MOVE),
        ("-", "leaf", ACTION_CREATE),
        ("leaf", "leaf", ACTION_NONE),
        ("leaf", "-", ACTION_DESTROY),
        ("-", "-", ACTION_NONE),
        ("?", "?", ACTION_NONE),
        ("?", "leaf", ACTION_MOVE),
        ("leaf", "?", ACTION_MOVE),
        ("-", "?", ACTION_CREATE),
        ("?", "-", ACTION_DESTROY),
    ])
    def test_total_function(self, before, after, action):
        assert derive_action(before, after) == action


WATER = ["soil", "root", "leaf", "leaf", "-", "-"]


class TestBuildTable:
    def test_water_row_sequence(self):
        rows = build_table({"water": WATER}, 5)
        assert [(r.step, r.action, r.before, r.after) for r in rows] == [
            (1, ACTION_MOVE, "soil", "root"),
            (2, ACTION_MOVE, "root", "leaf"),
            (3, ACTION_NONE, "leaf", "leaf"),
            (4, ACTION_DESTROY, "leaf", "-"),
            (5, ACTION_NONE, "-", "-"),
        ]

    def test_never_existing_entity_all_none(self):
        rows = build_table({"ghost": ["-"] * 4}, 3)
        assert all(r.action == ACTION_NONE and r.before == r.after == "-"
                   for r in rows)

    def test_two_step_fragment(self):
        # water moves root->leaf then is destroyed; sugar is created at leaf
        rows = build_table({"water": ["root", "leaf", "-"],
                            "sugar": ["-", "leaf", "leaf"]}, 2)
        expected = [
            StateChangeRow(1, "water", ACTION_MOVE, "root", "leaf"),
            StateChangeRow(2, "water", ACTION_DESTROY, "leaf", "-"),
            StateChangeRow(1, "sugar", ACTION_CREATE, "-", "leaf"),
            StateChangeRow(2, "sugar", ACTION_NONE, "leaf", "leaf"),
        ]
        assert rows == expected

    def test_row_count(self):
        p = photosynthesis()
        rows = build_table({e: p.timeline(e) for e in p.entities}, p.n_steps)
        assert len(rows) == len(p.entities) * p.n_steps

    def test_chaining_invariant(self):
        p = photosynthesis()
        rows = build_table({e: p.timeline(e) for e in p.entities}, p.n_steps)
        per_entity = {}
        for r in rows:
            per_entity.setdefault(r.entity, []).append(r)
        for entity_rows in per_entity.values():
            for prev, cur in zip(entity_rows, entity_rows[1:]):
                assert prev.after == cur.before

    def test_missing_state_zero_rejected(self):
        with pytest.raises(ValueError, match="state 0"):
            build_table({"water": ["root", "leaf"]}, 2)

    @given(st.lists(st.sampled_from(["-", "?", "soil", "leaf"]),
                    min_size=2, max_size=7))
    @settings(max_examples=150, deadline=None)
    def test_round_trip_through_rows(self, timeline):
        timeline = repair_timeline(timeline)
        rows = build_table({"e": timeline}, len(timeline) - 1)
        assert timeline_from_rows(rows) == timeline

    def test_timeline_from_rows_rejects_broken_chain(self):
        rows = [StateChangeRow(1, "e", ACTION_MOVE, "soil", "leaf"),
                StateChangeRow(2, "e", ACTION_NONE, "pot", "pot")]
        with pytest.raises(ValueError, match="chaining"):
            timeline_from_rows(rows)

    @pytest.mark.parametrize("steps", [[1, 3], [2, 3], [1, 1], [0, 1]],
                             ids=["gap", "no-step-1", "repeated", "step-0"])
    def test_timeline_from_rows_rejects_steps_not_one_to_n(self, steps):
        rows = [StateChangeRow(s, "e", ACTION_NONE, "pot", "pot") for s in steps]
        with pytest.raises(ValueError, match="not 1 .. 2"):
            timeline_from_rows(rows)


class TestTsv:
    def test_round_trip(self, tmp_path):
        p = photosynthesis()
        tables = {p.id: build_table({e: p.timeline(e) for e in p.entities},
                                    p.n_steps)}
        path = tmp_path / "pred.tsv"
        write_tsv(tables, path)
        loaded = read_tsv(path)
        assert set(loaded) == {p.id}
        assert sorted(loaded[p.id], key=lambda r: (r.entity, r.step)) == \
            sorted(tables[p.id], key=lambda r: (r.entity, r.step))

    def test_format_is_tab_separated_no_header(self, tmp_path):
        tables = {"proc1": [StateChangeRow(1, "water", ACTION_MOVE, "Soil", "Root")]}
        path = tmp_path / "pred.tsv"
        write_tsv(tables, path)
        assert path.read_text() == "proc1\t1\twater\tMOVE\tsoil\troot\n"

    def test_locations_differing_only_in_case_read_back(self, tmp_path):
        """Lowercasing can make a move a stay; the action written is the one
        the written locations give, so the file reads back."""
        rows = build_table({"e": ["Leaf", "leaf", "-"]}, 2)
        assert rows[0].action == ACTION_MOVE
        path = tmp_path / "pred.tsv"
        write_tsv({"p": rows}, path)
        assert [r.action for r in read_tsv(path)["p"]] == [ACTION_NONE, ACTION_DESTROY]

    @pytest.mark.parametrize("line, message", [
        ("p\tone\te\tNONE\tpot\tpot", "step 'one' is not an integer"),
        ("p\t-1\te\tNONE\tpot\tpot", "step '-1' is not an integer"),
        ("p\t1\te\tNONE\tsoil\tpot", "action 'NONE' does not fit"),
        ("p\t1\te\tmove\tsoil\tpot", "action 'move' does not fit"),
        ("p\t1\te\tCREATE\t?\tpot", "'?' -> 'pot', which is MOVE"),
    ], ids=["word-step", "negative-step", "move-as-none", "lowercase-action",
            "unknown-to-text"])
    def test_row_whose_step_or_action_is_wrong_rejected(self, tmp_path, line,
                                                         message):
        """The error names the file and line of the second row."""
        path = tmp_path / "bad.tsv"
        path.write_text("p\t2\te\tNONE\tpot\tpot\n" + line + "\n")
        with pytest.raises(ValueError) as err:
            read_tsv(path)
        assert "bad.tsv:2: " in str(err.value) and message in str(err.value)

    def test_bad_column_count_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("proc1\t1\twater\tMOVE\tsoil\n")
        with pytest.raises(ValueError, match="6 columns"):
            read_tsv(path)
