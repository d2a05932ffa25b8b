import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proctrack.inputs import (
    TS_CURRENT, TS_FUTURE, TS_PAST, TS_QUESTION, build_query, time_ids, timestamp,
)
from proctrack.tokenizer import CLS, SEP, build_vocab, tokenize
from proctrack.fixtures import photosynthesis


@pytest.fixture
def photo():
    return photosynthesis()


@pytest.fixture
def photo_vocab(photo):
    return build_vocab([["where", "is", "?"]] + photo.sentences
                       + [[e] for e in photo.entities])


class TestBuildQuery:
    def test_fixture_layout_prefix(self, photo, photo_vocab):
        layout = build_query("water", photo.sentences, photo_vocab)
        assert list(layout.tokens[:12]) == [
            CLS, "where", "is", "water", "?", SEP,
            "roots", "absorb", "water", "from", "soil", SEP,
        ]

    def test_multi_word_entity_in_question_region(self, photo, photo_vocab):
        layout = build_query("carbon dioxide", photo.sentences, photo_vocab)
        assert list(layout.tokens[3:5]) == ["carbon", "dioxide"]
        assert layout.sentence_index[3] == layout.sentence_index[4] == 0

    def test_token_count_identity(self, photo, photo_vocab):
        layout = build_query("water", photo.sentences, photo_vocab)
        question_words = ["where", "is", "water", "?"]
        expected = 1 + 1 + len(question_words) + \
            sum(len(s) for s in photo.sentences) + photo.n_steps
        assert len(layout.tokens) == expected

    def test_sep_count_and_single_cls(self, photo, photo_vocab):
        layout = build_query("water", photo.sentences, photo_vocab)
        assert layout.tokens.count(SEP) == photo.n_steps + 1
        assert layout.tokens.count(CLS) == 1 and layout.tokens[0] == CLS

    def test_sentence_indices_non_decreasing(self, photo, photo_vocab):
        layout = build_query("water", photo.sentences, photo_vocab)
        assert list(layout.sentence_index) == sorted(layout.sentence_index)

    def test_alias_uses_first_surface_form(self, photo, photo_vocab):
        layout = build_query("water; liquid", photo.sentences, photo_vocab)
        assert "liquid" not in layout.tokens
        assert layout.tokens[3] == "water"

    def test_empty_procedure_rejected(self, photo_vocab):
        with pytest.raises(ValueError):
            build_query("water", [], photo_vocab)

    def test_max_len_enforced(self, photo, photo_vocab):
        with pytest.raises(ValueError, match="max length"):
            build_query("water", photo.sentences, photo_vocab, max_len=10)

    def test_paragraph_pos_places_each_paragraph_word(self, photo, photo_vocab):
        layout = build_query("water", photo.sentences, photo_vocab)
        assert [layout.tokens[i] for i in layout.paragraph_pos] == photo.paragraph
        off = set(range(len(layout.tokens))) - set(layout.paragraph_pos)
        assert {layout.tokens[i] for i in off if layout.sentence_index[i]} == {SEP}


def _ts_by_sentence(layout, inp):
    by_sent = {}
    for s, ts in zip(layout.sentence_index, inp.timestamp_ids):
        by_sent.setdefault(s, set()).add(ts)
    return by_sent


class TestTimestamp:
    def test_middle_step(self, photo, photo_vocab):
        layout = build_query("water", photo.sentences, photo_vocab)
        inp = timestamp(layout, 2)
        by_sent = _ts_by_sentence(layout, inp)
        assert by_sent[0] == {TS_QUESTION}
        assert by_sent[1] == {TS_PAST}
        assert by_sent[2] == {TS_CURRENT}
        for j in (3, 4, 5):
            assert by_sent[j] == {TS_FUTURE}

    def test_step_zero_all_current(self, photo, photo_vocab):
        layout = build_query("water", photo.sentences, photo_vocab)
        by_sent = _ts_by_sentence(layout, timestamp(layout, 0))
        assert by_sent[0] == {TS_QUESTION}
        for j in range(1, 6):
            assert by_sent[j] == {TS_CURRENT}

    def test_single_sentence_step_one_has_no_past_or_future(self, photo_vocab):
        layout = build_query("water", [tokenize("water boils")], photo_vocab)
        ids = set(timestamp(layout, 1).timestamp_ids)
        assert TS_PAST not in ids and TS_FUTURE not in ids

    def test_step_out_of_range(self, photo, photo_vocab):
        layout = build_query("water", photo.sentences, photo_vocab)
        for bad in (-1, 6):
            with pytest.raises(ValueError):
                timestamp(layout, bad)

    def test_step_changes_only_timestamp_ids(self, photo, photo_vocab):
        layout = build_query("water", photo.sentences, photo_vocab)
        a, b = timestamp(layout, 1), timestamp(layout, 4)
        assert a.token_ids is b.token_ids is layout.token_ids
        assert not np.array_equal(a.timestamp_ids, b.timestamp_ids)


@st.composite
def random_layout(draw):
    n_sent = draw(st.integers(1, 6))
    words = st.sampled_from(["rock", "melt", "flow", "rain", "cool", "dust"])
    sentences = [draw(st.lists(words, min_size=1, max_size=5))
                 for _ in range(n_sent)]
    entity = draw(words)
    return entity, sentences


class TestTimestampInvariants:
    @given(random_layout(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_partition_invariants(self, ent_sents, data):
        entity, sentences = ent_sents
        vocab = build_vocab(sentences + [[entity]])
        layout = build_query(entity, sentences, vocab)
        step = data.draw(st.integers(0, len(sentences)))
        inp = timestamp(layout, step)
        assert len(inp.timestamp_ids) == len(layout.tokens)
        for s, ts in zip(layout.sentence_index, inp.timestamp_ids):
            if s == 0:
                assert ts == TS_QUESTION
            elif step == 0 or s == step:
                assert ts == TS_CURRENT
            elif s < step:
                assert ts == TS_PAST
            else:
                assert ts == TS_FUTURE

    @given(random_layout())
    @settings(max_examples=40, deadline=None)
    def test_monotone_shift_over_steps(self, ent_sents):
        entity, sentences = ent_sents
        vocab = build_vocab(sentences + [[entity]])
        layout = build_query(entity, sentences, vocab)
        prev_past, prev_future = -1, float("inf")
        for step in range(1, len(sentences) + 1):
            ids = timestamp(layout, step).timestamp_ids
            n_past = np.count_nonzero(ids == TS_PAST)
            n_future = np.count_nonzero(ids == TS_FUTURE)
            n_current = np.count_nonzero(ids == TS_CURRENT)
            assert n_past >= prev_past
            assert n_future <= prev_future
            assert n_current == len(sentences[step - 1]) + 1  # words + its SEP
            prev_past, prev_future = n_past, n_future


def rule(sentence: int, step: int) -> int:
    """The documented time id of a token of `sentence` at `step`."""
    if sentence == 0:
        return TS_QUESTION
    if step == 0 or sentence == step:
        return TS_CURRENT
    return TS_PAST if sentence < step else TS_FUTURE


class TestTimeIds:
    @given(random_layout())
    @settings(max_examples=100, deadline=None)
    def test_every_row_follows_the_rule(self, ent_sents):
        entity, sentences = ent_sents
        vocab = build_vocab(sentences + [[entity]])
        layout = build_query(entity, sentences, vocab)
        ids = time_ids(layout)
        assert ids.shape == (len(sentences) + 1, len(layout.tokens))
        for step, row in enumerate(ids):
            assert row.tolist() == [rule(s, step) for s in layout.sentence_index]
            np.testing.assert_array_equal(timestamp(layout, step).timestamp_ids, row)
        question = np.array(layout.sentence_index) == 0
        assert question.sum() == 5 + len(tokenize(entity))  # [CLS] where is ? [SEP]
        assert np.all(ids[:, question] == TS_QUESTION)
        assert np.all(ids[0, ~question] == TS_CURRENT)
