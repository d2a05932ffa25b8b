import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from proctrack.autodiff import ShapeMismatchError, softmax_array
from proctrack.heads import STATUS_GONE, STATUS_KNOWN, STATUS_UNKNOWN
from proctrack.inference import decode_step, repair_timeline, violates_rules


def logits(status, start, end):
    """One row of status logits and, as `decode_step` takes them, one row
    each of start and end logits if its argmax is known-location, else none;
    their softmax probabilities are the given (normalised) rows, and zeros
    become -inf."""
    with np.errstate(divide="ignore"):
        status, start, end = (np.log(np.asarray(v, float))[None]
                              for v in (status, start, end))
    known = status.argmax(-1) == STATUS_KNOWN
    return status, start[known], end[known]


def oracle_row(status, start, end, candidates, paragraph_positions):
    """The per-step decode rules, one row at a time, in paragraph words, word
    i at logit column paragraph_positions[i]: the status argmax; then the
    candidate minimising (-start*end, start, length), or with
    candidates=None the independent start and end argmax over the words,
    flagged when the end comes before the start.
    Returns (value, flagged)."""
    cls = int(np.argmax(status))
    if cls == STATUS_GONE:
        return "-", False
    if cls == STATUS_UNKNOWN:
        return "?", False
    pos = paragraph_positions
    start_p, end_p = softmax_array(start), softmax_array(end)
    if candidates is None:
        if not pos:
            return "?", True
        s = int(np.argmax([start_p[p] for p in pos]))
        e = int(np.argmax([end_p[p] for p in pos]))
        return ("?", True) if e < s else ((s, e), False)
    if not candidates:
        return "?", True
    best = min(candidates,
               key=lambda se: (-float(start_p[pos[se[0]]] * end_p[pos[se[1]]]),
                               se[0], se[1] - se[0]))
    return tuple(best), False


@st.composite
def entity_logits(draw):
    """(n+1, 3) status and (n+1, T) start/end logits, drawn partly from a few
    values so that exact probability and product ties and -inf logits (zero
    probabilities) are common, plus paragraph positions, which may be empty,
    and candidate word spans over them."""
    rows, T = draw(st.integers(1, 5)), draw(st.integers(1, 8))
    value = st.one_of(st.sampled_from([-np.inf, 0.0, 1.0, np.log(2.0)]),
                      st.floats(-4.0, 4.0))

    def block(width):
        x = draw(hnp.arrays(float, (rows, width), elements=value))
        x[~np.isfinite(x).any(-1), 0] = 0.0  # a finite model: some mass per row
        return x

    status, start, end = block(3), block(T), block(T)
    positions = draw(st.lists(st.integers(0, T - 1), unique=True, max_size=T))
    word = st.integers(0, max(len(positions) - 1, 0))
    span = st.tuples(word, word).map(lambda se: (min(se), max(se)))
    candidates = draw(st.lists(span, max_size=6 if positions else 0))
    return status, start, end, candidates, positions


class TestDecodeStep:
    def test_gone_ignores_span(self):
        rows = logits([0.8, 0.1, 0.1], [1.0] + [0.0] * 9, [1.0] + [0.0] * 9)
        assert decode_step(*rows, [(2, 3)], list(range(10))) == (["-"], 0)

    def test_unknown(self):
        rows = logits([0.1, 0.8, 0.1], [0.1] * 10, [0.1] * 10)
        assert decode_step(*rows, [(2, 3)], list(range(10))) == (["?"], 0)

    def test_candidate_restriction_beats_raw_argmax(self):
        # raw start argmax sits at token 7, which is not a candidate
        start = np.full(12, 0.01)
        start[7] = 0.5
        start[5], start[9] = 0.2, 0.1
        end = np.full(12, 0.01)
        end[6], end[9] = 0.3, 0.2
        candidates = [(5, 6), (9, 9)]
        scores = {c: start[c[0]] * end[c[1]] for c in candidates}
        best = max(scores, key=scores.get)
        values, _ = decode_step(*logits([0.1, 0.1, 0.8], start, end),
                                candidates, list(range(12)))
        assert values == [best]
        assert values[0][0] != 7

    def test_exhaustive_product_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            start = rng.dirichlet(np.ones(10))
            end = rng.dirichlet(np.ones(10))
            candidates = [(2, 3), (4, 4), (6, 8), (1, 1)]
            (span,), flagged = decode_step(*logits([0.0, 0.0, 1.0], start, end),
                                           candidates, list(range(10)))
            best = max(start[s] * end[e] for s, e in candidates)
            assert start[span[0]] * end[span[1]] == pytest.approx(best)
            assert span in candidates and flagged == 0

    def test_single_candidate_always_chosen(self):
        rows = logits([0.0, 0.0, 1.0], [0.1] * 10, [0.1] * 10)
        assert decode_step(*rows, [(4, 5)], list(range(10))) == ([(4, 5)], 0)

    def test_tie_break_earliest_then_shortest(self):
        rows = logits([0.0, 0.0, 1.0], np.full(10, 0.1), np.full(10, 0.1))
        assert (decode_step(*rows, [(5, 6), (3, 5), (3, 4)], list(range(10)))
                == ([(3, 4)], 0))

    def test_empty_candidates_falls_back_to_unknown_flagged(self):
        rows = logits([0.0, 0.0, 1.0], [0.5, 0.5], [0.5, 0.5])
        assert decode_step(*rows, [], [0, 1]) == (["?"], 1)

    def test_span_rows_must_be_the_known_rows(self):
        status = np.log([[0.1, 0.1, 0.8], [0.8, 0.1, 0.1], [0.1, 0.1, 0.8]])
        for n in (0, 1, 3):
            span = np.zeros((n, 4))
            with pytest.raises(ShapeMismatchError, match="2 known-location rows"):
                decode_step(status, span, span, [(0, 1)], [0, 1, 2, 3])
        with pytest.raises(ShapeMismatchError):
            decode_step(status, np.zeros((2, 4)), np.zeros((2, 3)), None, [0, 1])


class TestDecodeStepUnfiltered:
    """candidates=None: the --no-np-filter ablation."""

    def test_status_branch_matches_filtered(self):
        for status in ([0.8, 0.1, 0.1], [0.1, 0.8, 0.1]):
            rows = logits(status, [0.1] * 10, [0.1] * 10)
            assert (decode_step(*rows, None, [2, 3])
                    == decode_step(*rows, [(0, 1)], [2, 3]))

    def test_no_paragraph_positions_flagged(self):
        rows = logits([0.0, 0.0, 1.0], [0.5, 0.5], [0.5, 0.5])
        assert decode_step(*rows, None, []) == (["?"], 1)

    def test_independent_argmax_within_paragraph(self):
        start = np.full(10, 0.05)
        start[0], start[4] = 0.4, 0.2  # position 0 is off-paragraph
        end = np.full(10, 0.05)
        end[6] = 0.3
        rows = logits([0.0, 0.0, 1.0], start, end)
        # Words 0..5 sit at positions 3..8: position 4 is word 1, 6 is word 3.
        assert decode_step(*rows, None, list(range(3, 9))) == ([(1, 3)], 0)

    def test_end_before_start_flagged(self):
        start = np.full(10, 0.05)
        start[7] = 0.5
        end = np.full(10, 0.05)
        end[3] = 0.5
        rows = logits([0.0, 0.0, 1.0], start, end)
        assert decode_step(*rows, None, list(range(10))) == (["?"], 1)


class TestDecodeMatchesPerStepOracle:
    @given(entity_logits())
    @example(logits([0.0, 0.0, 1.0], [0.5, 0.5, 0.0], [0.0, 0.5, 0.5])
             + ([(1, 2), (0, 1), (0, 2), (1, 1)], [0, 1, 2]))
    @example(logits([0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0])
             + ([(0, 0), (2, 2)], [0, 1, 2]))
    @settings(max_examples=400, deadline=None)
    def test_rows_equal_the_oracle_in_both_modes(self, case):
        """decode_step gets the start and end rows of the known-location
        rows only; the oracle reads every row's own."""
        status, start, end, candidates, positions = case
        known = status.argmax(-1) == STATUS_KNOWN
        for cands in (candidates, None):
            values, flagged = decode_step(status, start[known], end[known],
                                          cands, positions)
            rows = [oracle_row(status[i], start[i], end[i], cands, positions)
                    for i in range(len(status))]
            assert values == [v for v, _ in rows]
            assert flagged == sum(f for _, f in rows)


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


def counter_repair(states):
    """The greedy repair written out with its own existence tests and event
    counters, as `repair_timeline` was before it read `derive_action`."""
    if not states:
        return []
    out = [states[0]]
    created = destroyed = 0
    for value in states[1:]:
        prev = out[-1]
        was, now = prev != "-", value != "-"
        if not was and now:  # creation
            if created >= 1 or destroyed >= 1:
                out.append(prev)
                continue
            created += 1
        elif was and not now:  # destruction
            if destroyed >= 1:
                out.append(prev)
                continue
            destroyed += 1
        out.append(value)
    return out


def test_repair_matches_the_counter_repair_on_every_small_timeline():
    """All 21,845 timelines of length 0..7 over "-", "?" and two locations."""
    for n in range(8):
        for states in itertools.product(["-", "?", "a", "b"], repeat=n):
            states = list(states)
            expected = counter_repair(states)
            assert repair_timeline(states) == expected, states
            assert violates_rules(states) == (expected != states), states


class TestViolatesRules:
    @given(st.lists(st.sampled_from(TIMELINE_VALUES), min_size=1, max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_brute_force(self, timeline):
        assert violates_rules(timeline) == (not brute_force_valid(timeline))
