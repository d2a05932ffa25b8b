import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proctrack.autodiff import Tensor
from proctrack.heads import SpanPrediction, StatusPrediction
from proctrack.inference import (
    decode_step, decode_step_unfiltered, repair_timeline, violates_rules,
)


def preds(status, start, end):
    """Predictions whose softmax probabilities are the given (normalised)
    rows; zeros become -inf logits."""
    with np.errstate(divide="ignore"):
        status, start, end = (Tensor(np.log(np.asarray(v, float)))
                              for v in (status, start, end))
    return StatusPrediction(status), SpanPrediction(start, end)


def join(s, e):
    return f"{s}:{e}"


class TestDecodeStep:
    def test_gone_ignores_span(self):
        status, span = preds([0.8, 0.1, 0.1], [1.0] + [0.0] * 9, [1.0] + [0.0] * 9)
        state = decode_step(status, span, [(2, 3)], join)
        assert state.value == "-" and state.span is None

    def test_unknown(self):
        status, span = preds([0.1, 0.8, 0.1], [0.1] * 10, [0.1] * 10)
        assert decode_step(status, span, [(2, 3)], join).value == "?"

    def test_candidate_restriction_beats_raw_argmax(self):
        # raw start argmax sits at token 7, which is not a candidate
        start = np.full(12, 0.01)
        start[7] = 0.5
        start[5], start[9] = 0.2, 0.1
        end = np.full(12, 0.01)
        end[6], end[9] = 0.3, 0.2
        status, span = preds([0.1, 0.1, 0.8], start, end)
        candidates = [(5, 6), (9, 9)]
        scores = {c: start[c[0]] * end[c[1]] for c in candidates}
        best = max(scores, key=scores.get)
        state = decode_step(status, span, candidates, join)
        assert state.span == best
        assert state.span[0] != 7

    def test_exhaustive_product_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            start = rng.dirichlet(np.ones(10))
            end = rng.dirichlet(np.ones(10))
            candidates = [(2, 3), (4, 4), (6, 8), (1, 1)]
            status, span = preds([0.0, 0.0, 1.0], start, end)
            state = decode_step(status, span, candidates, join)
            best = max(start[s] * end[e] for s, e in candidates)
            assert start[state.span[0]] * end[state.span[1]] == pytest.approx(best)
            assert state.span in candidates

    def test_single_candidate_always_chosen(self):
        status, span = preds([0.0, 0.0, 1.0], [0.1] * 10, [0.1] * 10)
        assert decode_step(status, span, [(4, 5)], join).value == "4:5"

    def test_tie_break_earliest_then_shortest(self):
        start = np.full(10, 0.1)
        end = np.full(10, 0.1)
        status, span = preds([0.0, 0.0, 1.0], start, end)
        state = decode_step(status, span, [(5, 6), (3, 5), (3, 4)], join)
        assert state.span == (3, 4)

    def test_empty_candidates_falls_back_to_unknown_flagged(self):
        status, span = preds([0.0, 0.0, 1.0], [0.5, 0.5], [0.5, 0.5])
        state = decode_step(status, span, [], join)
        assert state.value == "?" and state.flagged


class TestDecodeStepUnfiltered:
    def test_status_branch_matches_filtered(self):
        for status in ([0.8, 0.1, 0.1], [0.1, 0.8, 0.1]):
            st, span = preds(status, [0.1] * 10, [0.1] * 10)
            assert (decode_step_unfiltered(st, span, join, [2, 3])
                    == decode_step(st, span, [(2, 3)], join))

    def test_no_paragraph_positions_flagged(self):
        status, span = preds([0.0, 0.0, 1.0], [0.5, 0.5], [0.5, 0.5])
        state = decode_step_unfiltered(status, span, join, [])
        assert state.value == "?" and state.flagged

    def test_independent_argmax_within_paragraph(self):
        start = np.full(10, 0.05)
        start[0], start[4] = 0.4, 0.2  # position 0 is off-paragraph
        end = np.full(10, 0.05)
        end[6] = 0.3
        status, span = preds([0.0, 0.0, 1.0], start, end)
        state = decode_step_unfiltered(status, span, join, list(range(3, 9)))
        assert state.value == "4:6" and state.span == (4, 6)

    def test_end_before_start_flagged(self):
        start = np.full(10, 0.05)
        start[7] = 0.5
        end = np.full(10, 0.05)
        end[3] = 0.5
        status, span = preds([0.0, 0.0, 1.0], start, end)
        state = decode_step_unfiltered(status, span, join, list(range(10)))
        assert state.value == "?" and state.flagged


TIMELINE_VALUES = ["-", "?", "soil", "leaf"]


def brute_force_valid(timeline):
    """Rule predicate by explicit event enumeration (independent of the
    implementation's counters)."""
    exists = [v != "-" for v in timeline]
    creations = [i for i in range(1, len(exists)) if exists[i] and not exists[i - 1]]
    destructions = [i for i in range(1, len(exists)) if not exists[i] and exists[i - 1]]
    if len(creations) > 1 or len(destructions) > 1:
        return False
    for c, d in itertools.product(creations, destructions):
        if c > d:
            return False
    return True


class TestRepairTimeline:
    def test_second_creation_suppressed(self):
        assert repair_timeline(["-", "soil", "-", "soil"]) == ["-", "soil", "-", "-"]

    def test_consistent_timeline_unchanged(self):
        for tl in (["?", "soil", "leaf", "-"], ["-", "-", "soil", "soil"],
                   ["soil"], [], ["-", "-"]):
            assert repair_timeline(list(tl)) == list(tl)

    def test_recreation_after_destruction_suppressed(self):
        assert repair_timeline(["soil", "-", "soil", "-"]) == ["soil", "-", "-", "-"]

    def test_double_destruction_suppressed(self):
        # second destroy blocked: the state carries forward instead
        assert repair_timeline(["soil", "-", "leaf", "-"]) == ["soil", "-", "-", "-"]

    @given(st.lists(st.sampled_from(TIMELINE_VALUES), min_size=1, max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_repaired_output_satisfies_rules(self, timeline):
        repaired = repair_timeline(timeline)
        assert brute_force_valid(repaired)
        assert not violates_rules(repaired)

    @given(st.lists(st.sampled_from(TIMELINE_VALUES), min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_idempotent(self, timeline):
        once = repair_timeline(timeline)
        assert repair_timeline(once) == once

    @given(st.lists(st.sampled_from(TIMELINE_VALUES), min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_valid_timelines_are_fixed_points(self, timeline):
        if brute_force_valid(timeline):
            assert repair_timeline(timeline) == timeline

    def test_state_zero_never_modified(self):
        for first in TIMELINE_VALUES:
            assert repair_timeline([first, "-", "soil", "-"])[0] == first


class TestViolatesRules:
    @given(st.lists(st.sampled_from(TIMELINE_VALUES), min_size=1, max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_brute_force(self, timeline):
        assert violates_rules(timeline) == (not brute_force_valid(timeline))
