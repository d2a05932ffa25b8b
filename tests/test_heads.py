import math

import numpy as np
import pytest

from proctrack import autodiff as ad
from proctrack.autodiff import ShapeMismatchError, Tensor
from proctrack.heads import (
    STATUS_GONE, STATUS_KNOWN, STATUS_UNKNOWN, joint_loss, span_head,
    status_class_of, status_head,
)

from conftest import check_gradients, cls_rows, leaf


def hidden_states(arr):
    return Tensor(arr, requires_grad=True)


def logits_of(probs):
    """Logits whose softmax is `probs` (zeros become -inf)."""
    with np.errstate(divide="ignore"):
        return Tensor(np.log(probs))


class TestStatusHead:
    def test_zero_weights_uniform(self, rng):
        out = hidden_states(rng.normal(0, 1, (5, 8)))
        logits = status_head(cls_rows(out), Tensor(np.zeros((8, 3))))
        np.testing.assert_allclose(ad.softmax_array(logits.data), [[1 / 3] * 3],
                                   atol=1e-12)

    def test_analytic_softmax(self):
        # CLS row picks out logits (ln2, ln1, ln1) -> (0.5, 0.25, 0.25)
        hidden = np.zeros((4, 3))
        hidden[0] = [1.0, 0.0, 0.0]
        w = np.array([[math.log(2), 0.0, 0.0]] + [[0.0, 0.0, 0.0]] * 2)
        logits = status_head(cls_rows(hidden_states(hidden)), Tensor(w))
        np.testing.assert_allclose(ad.softmax_array(logits.data),
                                   [[0.5, 0.25, 0.25]], atol=1e-12)

    def test_argmax_shift_invariant(self, rng):
        hidden = rng.normal(0, 1, (5, 8))
        w = rng.normal(0, 1, (8, 3))
        base = np.argmax(status_head(cls_rows(hidden_states(hidden)), Tensor(w)).data)
        # add a constant column: logits all shift by c
        cls = hidden[0]
        shifted = w + np.outer(cls / (cls @ cls), np.full(3, 3.7))
        assert np.argmax(status_head(cls_rows(hidden_states(hidden)),
                                     Tensor(shifted)).data) == base

    def test_shape_check(self, rng):
        cls = hidden_states(rng.normal(0, 1, (2, 1, 8)))
        status_head(cls, Tensor(np.zeros((8, 3))))  # the shapes it takes
        with pytest.raises(ShapeMismatchError):
            status_head(cls, Tensor(np.zeros((8, 4))))
        # full (..., T, d) hidden states, T > 1, or no row axis: not [CLS] rows
        for shape in ((2, 5, 8), (5, 8), (8,)):
            with pytest.raises(ShapeMismatchError, match=r"\[CLS\] rows"):
                status_head(hidden_states(rng.normal(0, 1, shape)),
                            Tensor(np.zeros((8, 3))))

    def test_gradient_wrt_weights(self, rng):
        out = hidden_states(rng.normal(0, 1, (5, 8)))
        w = leaf(rng, 8, 3)
        check_gradients(lambda: ad.cross_entropy(
            status_head(cls_rows(out), w), [1]), [w])


class TestSpanHead:
    def test_zero_weights_uniform(self, rng):
        out = hidden_states(rng.normal(0, 1, (6, 8)))
        for logits in span_head(out, Tensor(np.zeros((8, 1))),
                                Tensor(np.zeros((8, 1)))):
            np.testing.assert_allclose(ad.softmax_array(logits.data),
                                       np.full((1, 6), 1 / 6), atol=1e-12)

    def test_identical_rows_identical_probs(self, rng):
        hidden = rng.normal(0, 1, (6, 8))
        hidden[2] = hidden[4]
        start, _ = span_head(hidden_states(hidden), leaf(rng, 8, 1), leaf(rng, 8, 1))
        start_p = ad.softmax_array(start.data)
        assert start_p[0, 2] == pytest.approx(start_p[0, 4], abs=1e-12)

    def test_matches_direct_formula(self, rng):
        hidden = rng.normal(0, 1, (6, 8))
        ws, we = rng.normal(0, 1, (8, 1)), rng.normal(0, 1, (8, 1))
        start, end = span_head(hidden_states(hidden), Tensor(ws), Tensor(we))
        for w, t in [(ws, start), (we, end)]:
            probs = ad.softmax_array(t.data)
            logits = (hidden @ w).T
            oracle = np.exp(logits) / np.exp(logits).sum()
            np.testing.assert_allclose(probs, oracle, atol=1e-9)
            assert probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_shape_check(self, rng):
        out = hidden_states(rng.normal(0, 1, (6, 8)))
        with pytest.raises(ShapeMismatchError):
            span_head(out, Tensor(np.zeros((7, 1))), Tensor(np.zeros((8, 1))))


class TestRows:
    """The heads give one logit row per input, whatever its leading axes."""

    def test_one_row_per_entity_and_step(self, rng):
        E, B, T = 2, 4, 6
        hidden = rng.normal(0, 1, (E, B, T, 8))
        w_status, w_start, w_end = (rng.normal(0, 1, (8, k)) for k in (3, 1, 1))
        status = status_head(cls_rows(hidden_states(hidden)), Tensor(w_status))
        start, end = span_head(hidden_states(hidden), Tensor(w_start), Tensor(w_end))
        assert status.shape == (E * B, 3)
        assert start.shape == end.shape == (E * B, T)
        rows = hidden.reshape(E * B, T, 8)
        for got, want in ((status, rows[:, 0] @ w_status),
                          (start, (rows @ w_start)[..., 0]),
                          (end, (rows @ w_end)[..., 0])):
            np.testing.assert_allclose(got.data, want, rtol=0, atol=1e-12)


def span_logits(hidden, rows, w_start, w_end):
    """Start and end logits of the `rows` of `hidden`, as a status-first pass
    computes them."""
    rows = np.array(rows, dtype=np.intp)
    idx = np.unravel_index(rows, hidden.shape[:-2])
    return span_head(ad.slice_rows(hidden, idx), w_start, w_end)


class TestJointLoss:
    """One step: status logits with a leading row axis of one, span logits
    with one row when the step has a gold span and none otherwise, its status
    class and its gold spans, one or none."""

    def _one_hot_preds(self, status_class, spans):
        status = np.zeros((1, 3))
        status[0, status_class] = 1.0
        start = np.zeros((len(spans), 6))
        end = np.zeros_like(start)
        for row, (s, e) in enumerate(spans):
            start[row, s] = 1.0
            end[row, e] = 1.0
        return logits_of(status), logits_of(start), logits_of(end)

    def test_perfect_prediction_zero(self):
        spans = [(2, 4)]
        loss = joint_loss(*self._one_hot_preds(STATUS_KNOWN, spans),
                          [STATUS_KNOWN], spans)
        assert float(loss.data) == pytest.approx(0.0)

    def test_uniform_status_gone_is_ln3(self):
        loss = joint_loss(Tensor(np.zeros((1, 3))), Tensor(np.zeros((0, 6))),
                          Tensor(np.zeros((0, 6))), [STATUS_GONE], [])
        assert float(loss.data) == pytest.approx(math.log(3), abs=1e-12)

    def test_random_case_matches_hand_sum(self, rng):
        sp = rng.dirichlet(np.ones(3))
        st = rng.dirichlet(np.ones(6))
        en = rng.dirichlet(np.ones(6))
        loss = joint_loss(logits_of(sp[None]), logits_of(st[None]),
                          logits_of(en[None]), [STATUS_KNOWN], [(1, 3)])
        expected = -math.log(sp[2]) - math.log(st[1]) - math.log(en[3])
        assert float(loss.data) == pytest.approx(expected, abs=1e-9)

    def status_term_alone(self, rng, status_class):
        """A step with no gold span gives the status cross-entropy alone with
        no span logits, and refuses a span logit row."""
        status = logits_of(rng.dirichlet(np.ones(3))[None])
        none = Tensor(np.zeros((0, 6)))
        loss = joint_loss(status, none, none, [status_class], [])
        assert float(loss.data) == pytest.approx(
            -math.log(ad.softmax_array(status.data)[0, status_class]), abs=1e-9)
        one = logits_of(rng.dirichlet(np.ones(6))[None])
        with pytest.raises(ShapeMismatchError, match="one row per gold span, 0"):
            joint_loss(status, one, one, [status_class], [])

    def test_span_terms_skipped_for_gone_and_unknown(self, rng):
        for cls in (STATUS_GONE, STATUS_UNKNOWN):
            self.status_term_alone(rng, cls)

    def test_unresolvable_gold_span_skips_span_terms(self, rng):
        self.status_term_alone(rng, STATUS_KNOWN)

    def test_loss_nonnegative(self, rng):
        for _ in range(20):
            cls = int(rng.integers(0, 3))
            spans = [(0, 2)] if cls == STATUS_KNOWN else []
            loss = joint_loss(logits_of(rng.dirichlet(np.ones(3))[None]),
                              logits_of(rng.dirichlet(np.ones(5), size=len(spans))),
                              logits_of(rng.dirichlet(np.ones(5), size=len(spans))),
                              [cls], spans)
            assert float(loss.data) >= 0.0

    def test_span_gradient_only_for_known_gold(self, rng):
        out = hidden_states(rng.normal(0, 1, (1, 6, 8)))
        w_status, w_start, w_end = leaf(rng, 8, 3), leaf(rng, 8, 1), leaf(rng, 8, 1)

        def run(status_class, spans):
            for w in (w_status, w_start, w_end):
                w.grad = None
            loss = joint_loss(status_head(cls_rows(out), w_status),
                              *span_logits(out, range(len(spans)), w_start, w_end),
                              [status_class], spans)
            loss.backward()

        run(STATUS_GONE, [])
        assert w_start.grad is None and w_end.grad is None
        run(STATUS_KNOWN, [(2, 3)])
        assert np.any(w_start.grad != 0) and np.any(w_end.grad != 0)


class TestBatchedJointLoss:
    # Row 3 is known, but its text is not in the paragraph: it has no span.
    CLASSES = [STATUS_GONE, STATUS_UNKNOWN, STATUS_KNOWN, STATUS_KNOWN,
               STATUS_KNOWN]
    ROWS, SPANS = [2, 4], [(1, 3), (4, 4)]

    def test_matches_hand_sum_over_rows(self, rng):
        B, T = len(self.CLASSES), 6
        sp = rng.dirichlet(np.ones(3), size=B)
        st, en = (rng.dirichlet(np.ones(T), size=2) for _ in range(2))
        loss = joint_loss(logits_of(sp), logits_of(st), logits_of(en),
                          self.CLASSES, self.SPANS)
        expected = sum(-math.log(sp[i, c]) for i, c in enumerate(self.CLASSES))
        expected -= math.log(st[0, 1]) + math.log(en[0, 3])
        expected -= math.log(st[1, 4]) + math.log(en[1, 4])
        assert float(loss.data) == pytest.approx(expected, abs=1e-9)

    def test_a_span_logit_row_per_batch_row_is_refused(self, rng):
        B = len(self.CLASSES)
        logits = [logits_of(rng.dirichlet(np.ones(n), size=B)) for n in (3, 6, 6)]
        with pytest.raises(ShapeMismatchError, match="one row per gold span, 2"):
            joint_loss(*logits, self.CLASSES, self.SPANS)

    def test_gradient_through_a_batch(self, rng):
        out = hidden_states(rng.normal(0, 1, (len(self.CLASSES), 6, 8)))
        w_status, w_start, w_end = leaf(rng, 8, 3), leaf(rng, 8, 1), leaf(rng, 8, 1)
        check_gradients(lambda: joint_loss(status_head(cls_rows(out), w_status),
                                           *span_logits(out, self.ROWS,
                                                        w_start, w_end),
                                           self.CLASSES, self.SPANS),
                        [out, w_status, w_start, w_end])


class TestStatusClassOf:
    def test_mapping(self):
        assert status_class_of("-") == STATUS_GONE
        assert status_class_of("?") == STATUS_UNKNOWN
        assert status_class_of("leaf") == STATUS_KNOWN
