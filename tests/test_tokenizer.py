import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proctrack.encoder import EncoderConfig
from proctrack.model import TrackerModel
from proctrack.tokenizer import CLS, PAD, RESERVED, SEP, UNK, Vocab, build_vocab, tokenize


class TestTokenize:
    def test_simple_sentence(self):
        assert tokenize("Roots absorb water from soil") == \
            ["roots", "absorb", "water", "from", "soil"]

    def test_empty(self):
        assert tokenize("") == []

    def test_question_mark_detached(self):
        assert tokenize("Where is water?") == ["where", "is", "water", "?"]

    def test_comma_detached(self):
        assert tokenize("The water, light, and CO2") == \
            ["the", "water", ",", "light", ",", "and", "co2"]

    def test_stacked_punctuation_keeps_order(self):
        assert tokenize("done?!") == ["done", "?", "!"]

    @given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)),
                   max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_idempotent_on_own_output(self, text):
        once = tokenize(text)
        assert tokenize(" ".join(once)) == once


class TestVocab:
    def test_first_seen_order(self):
        v = build_vocab([["a", "b", "a"]])
        assert v.encode_all(["a", "b"]) == [4, 5]

    def test_empty_corpus_only_reserved(self):
        v = build_vocab([])
        assert len(v) == 4
        assert v.encode_all(RESERVED) == list(RESERVED.values())

    def test_unknown_maps_to_unk(self):
        v = build_vocab([["a"]])
        assert v.encode_all(["zzz", UNK, "a", "yy"]) == [1, 1, 4, 1]

    def test_reserved_ids(self):
        v = build_vocab([["x"]])
        assert v.encode_all([PAD, CLS, SEP]) == [0, 2, 3]

    def test_round_trip_save_load(self, tmp_path):
        """A checkpoint's header keeps each token, non-ASCII ones too, with
        its id and in its order."""
        v = build_vocab([["roots", "absorb", "wässer", "→"]])
        cfg = EncoderConfig(d_model=4, n_heads=1, n_layers=1, d_ff=4, max_len=8)
        TrackerModel.fresh(v, cfg, seed=0).save(tmp_path / "ckpt")
        loaded = TrackerModel.load(tmp_path / "ckpt").vocab
        assert list(loaded.token_to_id.items()) == list(v.token_to_id.items())

    @pytest.mark.parametrize("mapping", [
        ["[PAD]", "[UNK]"], {**RESERVED, "a": "4"}, {**RESERVED, "a": 4.0},
        {**RESERVED, "a": True}, None,
    ], ids=["list", "string-id", "float-id", "bool-id", "none"])
    def test_rejects_what_is_not_an_object_of_integer_ids(self, mapping):
        with pytest.raises(ValueError, match="object mapping each token"):
            Vocab(mapping)

    @pytest.mark.parametrize("extra, message", [
        ({"a": 4, "b": 4}, "unique"), ({"a": 5}, "0 .. size - 1"),
    ], ids=["repeated-id", "id-past-the-end"])
    def test_rejects_repeated_or_out_of_range_ids(self, extra, message):
        with pytest.raises(ValueError, match=message):
            Vocab({**RESERVED, **extra})

    def test_rejects_bad_reserved_mapping(self):
        with pytest.raises(ValueError):
            Vocab({"[PAD]": 0, "[UNK]": 1, "[CLS]": 5, "[SEP]": 3})

    def test_stable_across_runs(self):
        corpus = [["b", "a"], ["c", "a"]]
        assert build_vocab(corpus).encode_all("abc") == [5, 4, 6]
