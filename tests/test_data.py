import json
import re

import pytest

from proctrack.data import (
    DataError, GrammarConfig, Procedure, generate_synthetic, load_grid_tsv,
    load_procedures, save_grid_tsv, save_procedures,
)
from proctrack.fixtures import photosynthesis
from proctrack.inference import violates_rules


class TestFixture:
    def test_shape(self):
        p = photosynthesis()
        assert p.n_steps == 5
        assert len(p.entities) == 5
        assert p.grid["water"][0] == "soil"

    def test_input_entities(self):
        p = photosynthesis()
        assert {e for e in p.entities if p.grid[e][0] != "-"} == {"water", "light", "co2"}

    def test_unresolvable_location_flagged(self):
        # "root" never appears verbatim (the text says "roots")
        assert photosynthesis().unresolved_locations == ["root"]


class TestOneDerivation:
    """Where each gold location occurs is worked out when a Procedure is
    built, the same way however it is built."""

    # Paragraph: roots absorb water from the soil . | the water flows to the
    # leaf . | sugar forms in the leaf .
    SENTENCES = [["roots", "absorb", "water", "from", "the", "soil", "."],
                 ["the", "water", "flows", "to", "the", "leaf", "."],
                 ["sugar", "forms", "in", "the", "leaf", "."]]
    GRID = {"water": ["the soil", "root", "the leaf", "the leaf"],
            "sugar": ["-", "-", "-", "leaf"]}

    def built(self, **spans):
        return Procedure(id="p", sentences=self.SENTENCES,
                         entities=list(self.GRID), grid=self.GRID, **spans)

    def test_direct_json_and_grid_tsv_agree(self, tmp_path):
        direct = self.built()
        assert direct.occurrences == {"the soil": [(4, 5)], "root": [],
                                      "the leaf": [(11, 12), (17, 18)],
                                      "leaf": [(12, 12), (18, 18)]}
        assert direct.candidate_spans == [(4, 5), (11, 12), (12, 12),
                                          (17, 18), (18, 18)]
        assert direct.unresolved_locations == ["root"]
        json_path, tsv_path = tmp_path / "p.json", tmp_path / "p.tsv"
        json_path.write_text(json.dumps([{"id": "p", "sentences": self.SENTENCES,
                                          "entities": list(self.GRID),
                                          "grid": self.GRID}]))
        save_grid_tsv([direct], tsv_path)
        for loaded in (load_procedures(json_path)[0], load_grid_tsv(tsv_path)[0]):
            assert loaded.occurrences == direct.occurrences
            assert loaded.candidate_spans == direct.candidate_spans
            assert loaded.unresolved_locations == direct.unresolved_locations

    def test_given_spans_keep_their_order(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps([{"id": "p", "sentences": self.SENTENCES,
                                     "entities": list(self.GRID),
                                     "grid": self.GRID,
                                     "candidate_spans": [[18, 18], [4, 5]]}]))
        loaded = load_procedures(path)[0]
        assert loaded.candidate_spans == [(18, 18), (4, 5)]
        assert loaded.occurrences == self.built().occurrences
        assert self.built(candidate_spans=[(0, 0)]).candidate_spans == [(0, 0)]


class TestJsonRoundTrip:
    def test_load_save_load_identity(self, tmp_path):
        procs = [photosynthesis()] + generate_synthetic(3, 2)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_procedures(procs, a)
        once = load_procedures(a)
        save_procedures(once, b)
        assert a.read_bytes() == b.read_bytes()
        twice = load_procedures(b)
        assert [p.grid for p in once] == [p.grid for p in twice]
        assert [p.candidate_spans for p in once] == [p.candidate_spans for p in twice]

    def test_missing_state_zero_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([{
            "id": "x", "sentences": [["a", "b"]], "entities": ["e"],
            "grid": {"e": ["soil"]},  # needs 2 values for 1 sentence
        }]))
        with pytest.raises(DataError, match=r"\$\[0\]\.grid\.e"):
            load_procedures(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([{
            "id": "x", "sentences": [["a"]], "entities": ["e"],
            "grid": {"e": ["-", "-"]}, "bogus": 1,
        }]))
        with pytest.raises(DataError, match="bogus"):
            load_procedures(path)

    def test_grid_entity_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([{
            "id": "x", "sentences": [["a"]], "entities": ["e", "f"],
            "grid": {"e": ["-", "-"]},
        }]))
        with pytest.raises(DataError, match="grid"):
            load_procedures(path)

    def test_span_outside_paragraph_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([{
            "id": "x", "sentences": [["a", "b"]], "entities": ["e"],
            "grid": {"e": ["-", "-"]}, "candidate_spans": [[1, 5]],
        }]))
        with pytest.raises(DataError, match="candidate_spans"):
            load_procedures(path)

    def test_capitalised_token_and_grid_value_resolve(self, tmp_path):
        """Sentence tokens and grid values are lowercased by the same rule,
        so a capitalised location still occurs in its paragraph."""
        path = tmp_path / "data.json"
        path.write_text(json.dumps([{
            "id": "x", "sentences": [["Water", "enters", "the", "Soil"]],
            "entities": ["water"], "grid": {"water": ["?", "Soil"]},
        }]))
        proc = load_procedures(path)[0]
        assert proc.sentences == [["water", "enters", "the", "soil"]]
        assert proc.occurrences == {"soil": [(3, 3)]}
        assert proc.candidate_spans == [(3, 3)]

    def test_lowercased_not_casefolded(self, tmp_path):
        path = tmp_path / "data.json"
        path.write_text(json.dumps([{
            "id": "x", "sentences": [["in", "der", "straße"]],
            "entities": ["e"], "grid": {"e": ["?", "Straße"]},
        }]))
        proc = load_procedures(path)[0]
        assert proc.grid["e"] == ["?", "straße"]
        assert proc.occurrences == {"straße": [(2, 2)]}
        assert proc.unresolved_locations == []

    def test_values_normalized(self, tmp_path):
        path = tmp_path / "data.json"
        path.write_text(json.dumps([{
            "id": "x", "sentences": [["soil"]], "entities": ["e"],
            "grid": {"e": ["Soil", " ? "]},
        }]))
        proc = load_procedures(path)[0]
        assert proc.grid["e"] == ["soil", "?"]


class TestWhatBreaksTheTsvFormats:
    """Ids and entity names are TSV cells and predicted text is joined from
    sentence tokens, so the loader rejects, naming the JSON path, what would
    break those cells or give an empty question."""

    RECORD = {"id": "p", "sentences": [["roots", "absorb", "water"]],
              "entities": ["water"], "grid": {"water": ["?", "roots"]}}

    def load(self, tmp_path, record):
        path = tmp_path / "data.json"
        path.write_text(json.dumps([self.RECORD, record]))
        return load_procedures(path)

    @staticmethod
    def named(entity):
        return {"entities": [entity], "grid": {entity: ["?", "roots"]}}

    @pytest.mark.parametrize("fields, where", [
        ({"id": "p\t1"}, r"\$\[1\]\.id: 'p\\t1' holds a tab or line break"),
        ({"id": "p\r1"}, r"\$\[1\]\.id: "),
        ({"id": "p\n1"}, r"\$\[1\]\.id: "),
        (named("sa\tlt"), r"\$\[1\]\.entities\[0\]: 'sa\\tlt' holds a tab"),
        (named("salt\n"), r"\$\[1\]\.entities\[0\]: "),
        (named(""), r"\$\[1\]\.entities\[0\]: entity name '' gives no question"),
        (named("  "), r"\$\[1\]\.entities\[0\]: entity name '  ' gives no"),
        (named("; alias"), r"\$\[1\]\.entities\[0\]: entity name '; alias'"),
        ({"sentences": [["roots", "", "water"]]},
         r"\$\[1\]\.sentences\[0\]\[1\]: token '' is empty or holds whitespace"),
        ({"sentences": [["roots", "absorb water"]]},
         r"\$\[1\]\.sentences\[0\]\[1\]: token 'absorb water'"),
        ({"sentences": [["roots", "water\t"]]}, r"\$\[1\]\.sentences\[0\]\[1\]: "),
    ], ids=["tab-id", "cr-id", "lf-id", "tab-entity", "lf-entity", "empty-entity",
            "blank-entity", "alias-only-entity", "empty-token", "space-token",
            "tab-token"])
    def test_rejected_naming_its_path(self, tmp_path, fields, where):
        with pytest.raises(DataError, match=where):
            self.load(tmp_path, {**self.RECORD, **fields})

    def test_recipe_ingredient_named_by_its_path(self, tmp_path):
        recipe = {"id": "r", "sentences": ["melt butter"], "ingredients": ["  "],
                  "locations": {"  ": {"1": "butter"}}}
        with pytest.raises(DataError, match=r"\$\[1\]\.ingredients\[0\]: "
                                            r"entity name '  ' gives no"):
            self.load(tmp_path, recipe)

    def test_a_name_with_spaces_and_an_alias_loads(self, tmp_path):
        (_, proc) = self.load(tmp_path, {**self.RECORD, "id": "p 2",
                                         **self.named("root water; sap")})
        assert proc.id == "p 2" and proc.entities == ["root water; sap"]


class TestGridTsv:
    def test_fixture_round_trip_reproduces_json(self, tmp_path):
        p = photosynthesis()
        tsv, direct, converted = (tmp_path / n for n in
                                  ("grid.tsv", "a.json", "b.json"))
        save_procedures([p], direct)
        save_grid_tsv([p], tsv)
        save_procedures(load_grid_tsv(tsv), converted)
        assert direct.read_bytes() == converted.read_bytes()

    def test_bad_state_label_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("p1\te\nstate0\t\t-\nstate5\ta b\t-\n")
        with pytest.raises(DataError, match="state1"):
            load_grid_tsv(path)

    def test_state0_sentence_text_rejected(self, tmp_path):
        """Step 0 has no sentence: text in its cell is an error, not
        dropped."""
        path = tmp_path / "bad.tsv"
        path.write_text("p1\te\nstate0\tsome dropped text\t?\n"
                        "state1\ta b\t-\n")
        with pytest.raises(DataError, match=r"bad\.tsv:block0\.state0:"):
            load_grid_tsv(path)

    def test_cell_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("p1\te\nstate0\t\t-\t-\n")
        with pytest.raises(DataError, match="cells"):
            load_grid_tsv(path)


class TestRecipeAnnotations:
    def _write(self, tmp_path, locations, ingredients=("butter", "flour")):
        path = tmp_path / "recipes.json"
        path.write_text(json.dumps([{
            "id": "r1",
            "sentences": ["melt butter in the pan", "add flour to the pan",
                          "stir the mix", "pour into the bowl",
                          "bake in the oven", "serve"],
            "ingredients": list(ingredients),
            "locations": locations,
        }]))
        return path

    def test_carry_forward_between_annotations(self, tmp_path):
        path = self._write(tmp_path, {"butter": {"1": "pan", "4": "bowl"}})
        proc = load_procedures(path)[0]
        assert proc.grid["butter"] == ["?", "pan", "pan", "pan", "bowl", "bowl", "bowl"]

    def test_change_step_count_matches_recount(self, tmp_path):
        path = self._write(tmp_path, {"butter": {"1": "pan", "4": "bowl"},
                                      "flour": {"2": "pan"}})
        for proc in load_procedures(path):
            for e in proc.entities:
                tl = proc.grid[e]
                changes = sum(1 for i in range(1, len(tl)) if tl[i] != tl[i - 1])
                assert changes == len([k for k in
                                       json.loads(path.read_text())[0]
                                       ["locations"][e]])

    def test_unannotated_ingredient_excluded_with_warning(self, tmp_path, caplog):
        path = self._write(tmp_path, {"butter": {"1": "pan"}})
        with caplog.at_level("WARNING"):
            proc = load_procedures(path)[0]
        assert proc.entities == ["butter"]
        assert "flour" in caplog.text


class TestRecipeAnnotationErrors:
    """Each malformed recipe is a DataError naming its JSON path."""

    RECIPE = {"id": "r1", "sentences": ["melt butter in the pan", "serve"],
              "ingredients": ["butter"], "locations": {"butter": {"1": "pan"}}}

    def load(self, tmp_path, recipe):
        """`recipe` loaded as $[1], after a well-formed one with its own id."""
        path = tmp_path / "recipes.json"
        path.write_text(json.dumps([{**self.RECIPE, "id": "r0"}, recipe]))
        return load_procedures(path)

    def test_well_formed_recipe_loads(self, tmp_path):
        assert [p.id for p in self.load(tmp_path, self.RECIPE)] == ["r0", "r1"]

    @pytest.mark.parametrize("field, value, where", [
        ("id", ["x"], r"\$\[1\]\.id:"),
        ("id", 7, r"\$\[1\]\.id:"),
        ("ingredients", "butter", r"\$\[1\]\.ingredients:"),
        ("ingredients", [["butter"]], r"\$\[1\]\.ingredients:"),
        ("locations", ["butter"], r"\$\[1\]\.locations:"),
        ("locations", {"butter": ["pan"]}, r"\$\[1\]\.locations\.butter:"),
        ("locations", {"butter": {"one": "pan"}},
         r"\$\[1\]\.locations\.butter\.one:"),
        ("locations", {"butter": {"9": "pan"}},
         r"\$\[1\]\.locations\.butter\.9:"),
        ("locations", {"butter": {"1": 5}}, r"\$\[1\]\.locations\.butter\.1:"),
        ("locations", {"butter": {"1": "pan", "01": "pot"}},
         r"\$\[1\]\.locations\.butter\.01:"),
        ("sentences", "melt butter", r"\$\[1\]\.sentences:"),
        ("sentences", ["melt", 5], r"\$\[1\]\.sentences\[1\]:"),
    ], ids=["list-id", "int-id", "string-ingredients", "nested-ingredients",
            "list-locations", "list-annotation", "word-step", "step-past-end",
            "number-location", "step-given-twice", "string-sentences",
            "number-sentence"])
    def test_malformed_field_names_its_path(self, tmp_path, field, value, where):
        with pytest.raises(DataError, match=where):
            self.load(tmp_path, {**self.RECIPE, field: value})

    @pytest.mark.parametrize("key", [" 1", "1 ", "+1", "0_1", "\u0661", "\uff11"],
                             ids=["space-before", "space-after", "plus",
                                  "underscore", "arabic-indic-digit",
                                  "fullwidth-digit"])
    def test_step_key_is_ascii_digits_only(self, tmp_path, key):
        """Keys that Python's int() reads as step 1 are not step numbers."""
        locations = {"butter": {key: "pan"}}
        with pytest.raises(DataError, match=re.escape(
                f"$[1].locations.butter.{key}: expected a step number 0..2")):
            self.load(tmp_path, {**self.RECIPE, "locations": locations})

    def test_step_key_with_leading_zeros_is_its_number(self, tmp_path):
        recipe = {**self.RECIPE, "locations": {"butter": {"01": "pan"}}}
        assert self.load(tmp_path, recipe)[1].grid == {"butter": ["?", "pan", "pan"]}

    def test_non_object_recipe(self, tmp_path):
        with pytest.raises(DataError,
                           match=r"\$\[1\]: expected a procedure or recipe object"):
            self.load(tmp_path, ["r1"])

    def test_unknown_key_names_its_path(self, tmp_path):
        with pytest.raises(DataError, match=r"\$\[1\]: unknown keys \['entities'\]"):
            self.load(tmp_path, {**self.RECIPE, "entities": ["butter"]})

    def test_annotation_of_an_unlisted_ingredient_names_its_path(self, tmp_path):
        """A misspelt key is an error, not an annotation dropped in silence."""
        recipe = {**self.RECIPE, "ingredients": ["egg", "milk"],
                  "locations": {"egg": {"1": "pan"}, "milk": {"1": "bowl"},
                                "mlik": {"2": "pan"}}}
        with pytest.raises(DataError, match=r"\$\[1\]\.locations\.mlik: not one "
                                            r"of the ingredients \['egg', 'milk'\]"):
            self.load(tmp_path, recipe)

    def test_recipes_and_procedures_share_one_list(self, tmp_path):
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps([self.RECIPE, {
            "id": "p1", "sentences": [["melt", "butter", "in", "the", "pan"],
                                      ["serve"]],
            "entities": ["butter"], "grid": {"butter": ["?", "pan", "pan"]}}]))
        recipe, proc = load_procedures(path)
        assert recipe.sentences == proc.sentences
        assert recipe.grid == proc.grid
        assert recipe.candidate_spans == proc.candidate_spans == [(4, 4)]


class TestSyntheticGenerator:
    def test_deterministic_per_seed(self):
        a = generate_synthetic(7, 5)
        b = generate_synthetic(7, 5)
        assert [(p.id, p.sentences, p.grid, p.candidate_spans) for p in a] == \
            [(p.id, p.sentences, p.grid, p.candidate_spans) for p in b]
        c = generate_synthetic(8, 5)
        assert [p.grid for p in a] != [p.grid for p in c]

    def test_gold_locations_verbatim_in_paragraph(self):
        for p in generate_synthetic(13, 20):
            assert p.unresolved_locations == []
            para = p.paragraph
            for tl in p.grid.values():
                for v in tl:
                    if v not in ("-", "?"):
                        assert v in para

    def test_grids_satisfy_consistency_rules(self):
        for p in generate_synthetic(21, 50):
            for e in p.entities:
                assert not violates_rules(p.grid[e])

    @pytest.mark.parametrize("fields", [
        {"min_steps": 0, "max_steps": 0}, {"min_steps": 5, "max_steps": 3},
        {"min_entities": 0}, {"min_entities": 4, "max_entities": 3},
    ], ids=["no-steps", "steps-reversed", "no-entities", "entities-reversed"])
    def test_grammar_range_it_cannot_honour_rejected(self, fields):
        with pytest.raises(ValueError, match="range"):
            GrammarConfig(**fields)

    def test_grammar_bounds_respected(self):
        g = GrammarConfig(min_entities=2, max_entities=2, min_steps=2, max_steps=3)
        for p in generate_synthetic(3, 20, g):
            assert 2 <= p.n_steps <= 3

    def test_candidate_spans_cover_gold_spans(self):
        for p in generate_synthetic(5, 10):
            cands = set(p.candidate_spans)
            para = p.paragraph
            for tl in p.grid.values():
                for v in tl:
                    if v in ("-", "?"):
                        continue
                    assert any(para[s:e + 1] == [v] for s, e in cands)
