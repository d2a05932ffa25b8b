import math

import numpy as np
import pytest

from proctrack import autodiff as ad
from proctrack.autodiff import ShapeMismatchError, Tensor
from proctrack.encoder import EncoderOutput
from proctrack.heads import (
    GoldStep, STATUS_GONE, STATUS_KNOWN, STATUS_UNKNOWN, init_head_params,
    SpanPrediction, StatusPrediction, joint_loss, span_head, status_class_of,
    status_head,
)

from conftest import check_gradients, leaf


def enc_out(arr):
    return EncoderOutput(hidden=Tensor(arr, requires_grad=True))


def logits_of(probs):
    """Logits whose softmax is `probs` (zeros become -inf)."""
    with np.errstate(divide="ignore"):
        return Tensor(np.log(probs))


class TestStatusHead:
    def test_zero_weights_uniform(self, rng):
        out = enc_out(rng.normal(0, 1, (5, 8)))
        pred = status_head(out, Tensor(np.zeros((8, 3))))
        np.testing.assert_allclose(pred.probs, [1 / 3] * 3, atol=1e-12)

    def test_analytic_softmax(self):
        # CLS row picks out logits (ln2, ln1, ln1) -> (0.5, 0.25, 0.25)
        hidden = np.zeros((4, 3))
        hidden[0] = [1.0, 0.0, 0.0]
        w = np.array([[math.log(2), 0.0, 0.0]] + [[0.0, 0.0, 0.0]] * 2)
        pred = status_head(enc_out(hidden), Tensor(w))
        np.testing.assert_allclose(pred.probs, [0.5, 0.25, 0.25], atol=1e-12)

    def test_argmax_shift_invariant(self, rng):
        hidden = rng.normal(0, 1, (5, 8))
        w = rng.normal(0, 1, (8, 3))
        base = status_head(enc_out(hidden), Tensor(w)).argmax
        # add a constant column: logits all shift by c
        cls = hidden[0]
        shifted = w + np.outer(cls / (cls @ cls), np.full(3, 3.7))
        assert status_head(enc_out(hidden), Tensor(shifted)).argmax == base

    def test_shape_check(self, rng):
        with pytest.raises(ShapeMismatchError):
            status_head(enc_out(rng.normal(0, 1, (5, 8))), Tensor(np.zeros((8, 4))))

    def test_gradient_wrt_weights(self, rng):
        out = enc_out(rng.normal(0, 1, (5, 8)))
        w = leaf(rng, 8, 3)
        check_gradients(lambda: ad.cross_entropy(
            status_head(out, w).logits_t, 1), [w])


class TestSpanHead:
    def test_zero_weights_uniform(self, rng):
        out = enc_out(rng.normal(0, 1, (6, 8)))
        pred = span_head(out, Tensor(np.zeros((8, 1))), Tensor(np.zeros((8, 1))))
        np.testing.assert_allclose(pred.start_probs, np.full(6, 1 / 6), atol=1e-12)
        np.testing.assert_allclose(pred.end_probs, np.full(6, 1 / 6), atol=1e-12)

    def test_identical_rows_identical_probs(self, rng):
        hidden = rng.normal(0, 1, (6, 8))
        hidden[2] = hidden[4]
        pred = span_head(enc_out(hidden), leaf(rng, 8, 1), leaf(rng, 8, 1))
        assert pred.start_probs[2] == pytest.approx(pred.start_probs[4], abs=1e-12)

    def test_matches_direct_formula(self, rng):
        hidden = rng.normal(0, 1, (6, 8))
        ws, we = rng.normal(0, 1, (8, 1)), rng.normal(0, 1, (8, 1))
        pred = span_head(enc_out(hidden), Tensor(ws), Tensor(we))
        for w, probs in [(ws, pred.start_probs), (we, pred.end_probs)]:
            logits = (hidden @ w).ravel()
            oracle = np.exp(logits) / np.exp(logits).sum()
            np.testing.assert_allclose(probs, oracle, atol=1e-9)
            assert probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_shape_check(self, rng):
        out = enc_out(rng.normal(0, 1, (6, 8)))
        with pytest.raises(ShapeMismatchError):
            span_head(out, Tensor(np.zeros((7, 1))), Tensor(np.zeros((8, 1))))


class TestJointLoss:
    def _one_hot_preds(self, gold):
        status = np.zeros(3)
        status[gold.status_class] = 1.0
        start = np.zeros(6)
        end = np.zeros(6)
        if gold.span:
            start[gold.span[0]] = 1.0
            end[gold.span[1]] = 1.0
        return (StatusPrediction(logits_of(status)),
                SpanPrediction(logits_of(start), logits_of(end)))

    def test_perfect_prediction_zero(self):
        gold = GoldStep(status_class=STATUS_KNOWN, span=(2, 4))
        status, span = self._one_hot_preds(gold)
        assert float(joint_loss(status, span, gold).data) == pytest.approx(0.0)

    def test_uniform_status_gone_is_ln3(self):
        status = StatusPrediction(Tensor(np.zeros(3)))
        span = SpanPrediction(Tensor(np.zeros(6)), Tensor(np.zeros(6)))
        loss = joint_loss(status, span, GoldStep(status_class=STATUS_GONE))
        assert float(loss.data) == pytest.approx(math.log(3), abs=1e-12)

    def test_random_case_matches_hand_sum(self, rng):
        sp = rng.dirichlet(np.ones(3))
        st = rng.dirichlet(np.ones(6))
        en = rng.dirichlet(np.ones(6))
        gold = GoldStep(status_class=STATUS_KNOWN, span=(1, 3))
        loss = joint_loss(StatusPrediction(logits_of(sp)),
                          SpanPrediction(logits_of(st), logits_of(en)), gold)
        expected = -math.log(sp[2]) - math.log(st[1]) - math.log(en[3])
        assert float(loss.data) == pytest.approx(expected, abs=1e-9)

    def test_span_terms_skipped_for_gone_and_unknown(self, rng):
        status = StatusPrediction(logits_of(rng.dirichlet(np.ones(3))))
        span = SpanPrediction(logits_of(rng.dirichlet(np.ones(6))),
                              logits_of(rng.dirichlet(np.ones(6))))
        for cls in (STATUS_GONE, STATUS_UNKNOWN):
            loss = joint_loss(status, span, GoldStep(status_class=cls, span=(0, 1)))
            assert float(loss.data) == pytest.approx(
                -math.log(status.probs[cls]), abs=1e-9)

    def test_unresolvable_gold_span_skips_span_terms(self, rng):
        status = StatusPrediction(logits_of(rng.dirichlet(np.ones(3))))
        span = SpanPrediction(logits_of(rng.dirichlet(np.ones(6))),
                              logits_of(rng.dirichlet(np.ones(6))))
        loss = joint_loss(status, span, GoldStep(status_class=STATUS_KNOWN, span=None))
        assert float(loss.data) == pytest.approx(-math.log(status.probs[2]), abs=1e-9)

    def test_loss_nonnegative(self, rng):
        for _ in range(20):
            gold = GoldStep(status_class=int(rng.integers(0, 3)), span=(0, 2))
            loss = joint_loss(
                StatusPrediction(logits_of(rng.dirichlet(np.ones(3)))),
                SpanPrediction(logits_of(rng.dirichlet(np.ones(5))),
                               logits_of(rng.dirichlet(np.ones(5)))), gold)
            assert float(loss.data) >= 0.0

    def test_span_gradient_only_for_known_gold(self, rng):
        out = enc_out(rng.normal(0, 1, (6, 8)))
        w_status, w_start, w_end = leaf(rng, 8, 3), leaf(rng, 8, 1), leaf(rng, 8, 1)

        def run(gold):
            for w in (w_status, w_start, w_end):
                w.grad = None
            loss = joint_loss(status_head(out, w_status),
                              span_head(out, w_start, w_end), gold)
            loss.backward()

        run(GoldStep(status_class=STATUS_GONE))
        assert w_start.grad is None and w_end.grad is None
        run(GoldStep(status_class=STATUS_KNOWN, span=(2, 3)))
        assert np.any(w_start.grad != 0) and np.any(w_end.grad != 0)


class TestBatchedJointLoss:
    GOLDS = [GoldStep(STATUS_GONE, span=(0, 1)),  # a span on a non-known row
             GoldStep(STATUS_UNKNOWN),
             GoldStep(STATUS_KNOWN, span=(1, 3)),
             GoldStep(STATUS_KNOWN, span=None),  # text not in the paragraph
             GoldStep(STATUS_KNOWN, span=(4, 4))]

    def test_matches_hand_sum_over_rows(self, rng):
        B, T = len(self.GOLDS), 6
        sp, st, en = (rng.dirichlet(np.ones(n), size=B) for n in (3, T, T))
        loss = joint_loss(StatusPrediction(logits_of(sp)),
                          SpanPrediction(logits_of(st), logits_of(en)), self.GOLDS)
        expected = sum(-math.log(sp[i, g.status_class])
                       for i, g in enumerate(self.GOLDS))
        expected -= math.log(st[2, 1]) + math.log(en[2, 3])
        expected -= math.log(st[4, 4]) + math.log(en[4, 4])
        assert float(loss.data) == pytest.approx(expected, abs=1e-9)

    def test_gradient_through_a_batch(self, rng):
        out = enc_out(rng.normal(0, 1, (len(self.GOLDS), 6, 8)))
        w_status, w_start, w_end = leaf(rng, 8, 3), leaf(rng, 8, 1), leaf(rng, 8, 1)
        check_gradients(lambda: joint_loss(status_head(out, w_status),
                                           span_head(out, w_start, w_end),
                                           self.GOLDS),
                        [out.hidden, w_status, w_start, w_end])


class TestStatusClassOf:
    def test_mapping(self):
        assert status_class_of("-") == STATUS_GONE
        assert status_class_of("?") == STATUS_UNKNOWN
        assert status_class_of("leaf") == STATUS_KNOWN
