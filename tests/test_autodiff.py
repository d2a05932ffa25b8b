import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proctrack import autodiff as ad
from proctrack.autodiff import (
    NonFiniteGradientError, SgdConfig, ShapeMismatchError, Tensor,
    load_checkpoint, save_checkpoint, sgd_step,
)

from conftest import check_gradients, leaf


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = ad.matmul(Tensor(np.eye(2)), a)
        np.testing.assert_array_equal(out.data, a.data)

    def test_hand_arithmetic(self):
        out = ad.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[0.0], [1.0]]))
        np.testing.assert_array_equal(out.data, [[2.0], [4.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeMismatchError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_gradient_matches_finite_differences(self, rng):
        a, b = leaf(rng, 3, 4), leaf(rng, 4, 2)

        def loss():
            prod = ad.matmul(a, b)
            return ad.reshape(ad.matmul(ad.matmul(Tensor(np.ones((1, 3))), prod),
                                        Tensor(np.ones((2, 1)))), ())

        check_gradients(loss, [a, b])

    def test_batched_gradient_broadcasts_leading_axes(self, rng):
        a, b, c = leaf(rng, 2, 3, 4), leaf(rng, 4, 5), leaf(rng, 1, 5, 2)
        out = ad.matmul(ad.matmul(a, b), c)
        np.testing.assert_allclose(out.data, a.data @ b.data @ c.data, atol=1e-12)
        check_gradients(lambda: total(ad.matmul(ad.matmul(a, b), c)), [a, b, c])

    def test_bias_gradient_with_two_leading_axes(self, rng):
        x, w, b = leaf(rng, 2, 3, 4), leaf(rng, 4, 5), leaf(rng, 5)
        weights = rng.normal(0, 1, (2, 3, 5))
        check_gradients(
            lambda: TestAttention.weighted_sum(ad.matmul(x, w, b), weights),
            [x, w, b])

    def test_bias_is_the_last_parent(self, rng):
        x, w, b = leaf(rng, 3, 4), leaf(rng, 4, 5), leaf(rng, 5)
        assert ad.matmul(x, w)._parents == (x, w)
        assert ad.matmul(x, w, b)._parents == (x, w, b)

    @pytest.mark.parametrize("a, b, bias", [
        ((3, 4), (5, 6), (6,)),  # the product's own axes
        ((3, 4), (4, 5), (4,)),  # a bias of the wrong length
        ((3, 4), (2, 4, 5), (5,)),  # a batched b
    ], ids=["inner-axes", "wrong-length", "batched-weight"])
    def test_bias_shape_mismatch_names_the_shapes(self, a, b, bias):
        match = ".*".join(re.escape(str(s)) for s in (a, b, bias))
        with pytest.raises(ShapeMismatchError, match=match):
            ad.matmul(*(Tensor(np.zeros(s)) for s in (a, b, bias)))


def total(t):
    """Scalar sum of a tensor's entries, built from tape ops."""
    flat = ad.reshape(t, (1, t.data.size))
    return ad.reshape(ad.matmul(flat, Tensor(np.ones((t.data.size, 1)))), ())


class TestSoftmax:
    def test_uniform_on_zeros(self):
        out = ad.softmax(Tensor([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-12)

    def test_no_overflow_on_large_logits(self):
        out = ad.softmax(Tensor([1000.0, 0.0, 0.0]))
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, [1.0, 0.0, 0.0], atol=1e-12)

    def test_matches_naive_oracle(self, rng):
        x = rng.normal(0, 2, 5)
        naive = np.exp(x) / np.exp(x).sum()
        out = ad.softmax(Tensor(x))
        assert abs(out.data.sum() - 1.0) < 1e-9
        np.testing.assert_allclose(out.data, naive, atol=1e-9)

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=8),
           st.floats(-100, 100))
    @settings(max_examples=50, deadline=None)
    def test_shift_invariance(self, xs, c):
        a = ad.softmax(Tensor(xs)).data
        b = ad.softmax(Tensor(np.asarray(xs) + c)).data
        np.testing.assert_allclose(a, b, atol=1e-9)

    @given(st.permutations(list(range(5))))
    @settings(max_examples=30, deadline=None)
    def test_permutation_equivariance(self, perm):
        x = np.array([0.3, -1.2, 2.5, 0.0, 1.1])
        perm = np.asarray(perm)
        direct = ad.softmax(Tensor(x[perm])).data
        permuted = ad.softmax(Tensor(x)).data[perm]
        np.testing.assert_allclose(direct, permuted, atol=1e-12)

    def test_gradient(self, rng):
        x = leaf(rng, 6)
        w = rng.normal(0, 1, 6)
        check_gradients(lambda: ad.reshape(
            ad.matmul(ad.reshape(ad.softmax(x), (1, 6)),
                      Tensor(w.reshape(6, 1))), ()), [x])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("axis", [-1, 0])
    def test_array_in_place_keeps_the_bits(self, rng, dtype, axis):
        x = rng.normal(0, 3, (4, 7)).astype(dtype)
        want = ad.softmax_array(x, axis)
        assert want.dtype == dtype and not np.shares_memory(want, x)
        assert ad.softmax_array(x, axis, out=x) is x
        np.testing.assert_array_equal(x, want)


class TestAttention:
    @staticmethod
    def weighted_sum(out, w):
        """A scalar that weighs every output entry differently."""
        flat = ad.reshape(out, (1, -1))
        return ad.reshape(ad.matmul(flat, Tensor(w.reshape(-1, 1))), ())

    @staticmethod
    def split(qkv, n_heads):
        """q, k and v of each head, sliced out of the head-major columns."""
        dh = qkv.shape[-1] // (3 * n_heads)
        cols = [qkv[..., i * dh:(i + 1) * dh] for i in range(3 * n_heads)]
        return (np.stack(cols[i::3], axis=-3) for i in range(3))

    def test_matches_softmax_of_scaled_scores(self, rng):
        qkv = rng.normal(0, 1, (2, 3, 5, 24))  # two heads of width 4
        q, k, v = self.split(qkv, 2)
        out, probs = ad.attention(Tensor(qkv), 2)
        want = ad.softmax_array(q @ np.swapaxes(k, -1, -2) * 0.5)
        heads = want @ v
        np.testing.assert_allclose(probs, want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            out.data, np.concatenate([heads[..., 0, :, :], heads[..., 1, :, :]], -1),
            rtol=0, atol=1e-12)
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-12)

    def test_gradient_on_q_k_v_with_two_leading_axes(self, rng):
        qkv = leaf(rng, 2, 3, 5, 24)  # two heads of q, k, v of width 4
        w = rng.normal(0, 1, (2, 3, 5, 8))
        check_gradients(
            lambda: self.weighted_sum(ad.attention(qkv, 2)[0], w), [qkv])

    def test_one_tape_node(self, rng):
        qkv = leaf(rng, 2, 5, 12)
        out, _ = ad.attention(qkv, 1)
        assert out._parents == (qkv,)

    @pytest.mark.parametrize("dtype, atol", [(np.float64, 1e-12),
                                             (np.float32, 1e-5)])
    def test_cls_only_is_row_0_of_the_full_call(self, rng, dtype, atol):
        qkv = rng.normal(0, 1, (2, 3, 5, 24)).astype(dtype)
        full_out, full_probs = (a.copy() if isinstance(a, np.ndarray)
                                else a.data for a in ad.attention(Tensor(qkv), 2))
        out, probs = ad.attention(Tensor(qkv), 2, cls_only=True)
        assert out.data.shape == (2, 3, 1, 8) and probs.shape == (2, 3, 2, 1, 5)
        assert out.data.dtype == probs.dtype == dtype
        np.testing.assert_allclose(out.data, full_out[..., :1, :], rtol=0, atol=atol)
        np.testing.assert_allclose(probs, full_probs[..., :1, :], rtol=0, atol=atol)

    @pytest.mark.parametrize("n_heads", [1, 2])
    @pytest.mark.parametrize("lead", [(), (2, 3)])
    def test_cls_only_gradient_matches_finite_differences(self, rng, n_heads,
                                                          lead):
        qkv = leaf(rng, *lead, 5, 24)  # q, k and v of width 8 in all
        w = rng.normal(0, 1, (*lead, 1, 8))
        out = ad.attention(qkv, n_heads, cls_only=True)[0]
        assert out.shape == (*lead, 1, 8) and out._parents == (qkv,)
        check_gradients(lambda: self.weighted_sum(
            ad.attention(qkv, n_heads, cls_only=True)[0], w), [qkv])
        self.weighted_sum(ad.attention(qkv, n_heads, cls_only=True)[0],
                          w).backward()
        q_cols = np.arange(24).reshape(n_heads, 3, -1)[:, 0].ravel()
        assert not np.any(qkv.grad[..., 1:, q_cols])  # q past [CLS]
        assert np.all(np.any(qkv.grad != 0, axis=-1))  # k and v everywhere


class TestScoreBuffer:
    """Tape-free attention writes its scores into one buffer per thread,
    kept across calls; the taped path allocates fresh scores."""

    # Growing, then shrinking, then float64 after float32 of the same shape.
    SHAPES = [((4, 24), np.float32), ((3, 7, 24), np.float32),
              ((2, 3, 11, 24), np.float32), ((2, 5, 24), np.float32),
              ((9, 24), np.float32), ((2, 3, 11, 24), np.float64),
              ((3, 7, 24), np.float64)]

    def test_same_bits_as_fresh_scores(self, rng):
        for shape, dtype in self.SHAPES:
            qkv = rng.normal(0, 1, shape).astype(dtype)
            want_out, want_p = ad.attention(Tensor(qkv, requires_grad=True), 2)
            out, p = ad.attention(Tensor(qkv), 2)
            assert out.data.dtype == p.dtype == dtype
            np.testing.assert_array_equal(out.data, want_out.data)
            np.testing.assert_array_equal(p, want_p)

    def test_calls_share_one_buffer(self, rng):
        qkv = rng.normal(0, 1, (3, 7, 24))
        _, first = ad.attention(Tensor(qkv), 2)
        _, second = ad.attention(Tensor(qkv + 1.0), 2)
        _, smaller = ad.attention(Tensor(qkv[:1]), 2)
        assert np.shares_memory(first, second)
        assert np.shares_memory(first, smaller)
        _, taped = ad.attention(Tensor(qkv, requires_grad=True), 2)
        assert not np.shares_memory(first, taped)

    def test_a_tape_free_call_leaves_a_taped_backward_whole(self, rng):
        w = rng.normal(0, 1, (3, 7, 8))
        values = rng.normal(0, 1, (3, 7, 24))
        grads = []
        for between in (False, True):
            qkv = Tensor(values.copy(), requires_grad=True)
            loss = TestAttention.weighted_sum(ad.attention(qkv, 2)[0], w)
            if between:
                ad.attention(Tensor(rng.normal(0, 1, (3, 7, 24))), 2)
            loss.backward()
            grads.append(qkv.grad)
        np.testing.assert_array_equal(grads[1], grads[0])


def parent_gelu(a):
    """`ad.gelu` as written out before its chain was computed in place."""
    x = a.data
    t = np.tanh(ad._GELU_C * (x + 0.044715 * x * x * x))

    def bw(g):
        d_inner = ad._GELU_C * (1.0 + 3 * 0.044715 * x * x)
        a._accumulate(g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * d_inner))

    return ad._result(0.5 * x * (1.0 + t), (a,), bw)


def parent_layer_norm(x, gain, bias, eps=1e-5):
    """`ad.layer_norm` as written out with `mean` and fresh temporaries."""
    d = x.data.shape[-1]
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    istd = 1.0 / np.sqrt((xc**2).mean(axis=-1, keepdims=True) + eps)
    xhat = xc * istd

    def bw(g):
        gain._accumulate((g * xhat).reshape(-1, d).sum(axis=0))
        bias._accumulate(g.reshape(-1, d).sum(axis=0))
        dxhat = g * gain.data
        x._accumulate(istd * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                              - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)))

    return ad._result(gain.data * xhat + bias.data, (x, gain, bias), bw)


def parent_affine(x, w, b):
    return ad.add(ad.matmul(x, w), b)


def parent_attention(qkv, n_heads):
    """`ad.attention` with fresh scores and the backward that stacked dq, dk
    and dv and moved them into qkv's layout."""
    *lead, T, d3 = qkv.data.shape
    dh = d3 // (3 * n_heads)
    scale = 1.0 / math.sqrt(dh)
    split = qkv.data.reshape(*lead, T, n_heads, 3, dh)
    q, k, v = np.moveaxis(split, -2, 0).swapaxes(-3, -2)
    p = q @ np.swapaxes(k, -1, -2)
    p *= scale
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)

    def bw(g):
        g = g.reshape(*lead, T, n_heads, dh).swapaxes(-3, -2)
        ds = g @ np.swapaxes(v, -1, -2)
        ds -= (ds * p).sum(axis=-1, keepdims=True)
        ds *= p
        ds *= scale
        dqkv = np.stack((ds @ k, np.swapaxes(np.swapaxes(q, -1, -2) @ ds, -1, -2),
                         np.swapaxes(p, -1, -2) @ g))
        qkv._accumulate(np.moveaxis(dqkv.swapaxes(-3, -2), 0, -2).reshape(qkv.shape))

    merged = (p @ v).swapaxes(-3, -2).reshape(*lead, T, d3 // 3)
    return ad._result(merged, (qkv,), bw)


class TestInPlaceChains:
    """gelu, layer_norm, matmul with a bias (an affine map) and attention give
    the same bits as the expressions written out, taped and tape-free, on
    inputs with two leading axes."""

    # A last axis of 6, not a power of two, so that dividing by it rounds;
    # attention's heads are 6 and 3 wide.
    CASES = {
        "gelu": (ad.gelu, parent_gelu, [(2, 3, 5, 6)]),
        "layer_norm": (ad.layer_norm, parent_layer_norm, [(2, 3, 5, 6), (6,), (6,)]),
        "affine": (ad.matmul, parent_affine, [(2, 3, 5, 6), (6, 4), (4,)]),
        "attention-1-head": (lambda qkv: ad.attention(qkv, 1)[0],
                             lambda qkv: parent_attention(qkv, 1), [(2, 3, 5, 18)]),
        "attention-2-heads": (lambda qkv: ad.attention(qkv, 2)[0],
                              lambda qkv: parent_attention(qkv, 2), [(2, 3, 5, 18)]),
    }

    @staticmethod
    def run(op, arrays, taped):
        inputs = [Tensor(a.copy(), requires_grad=taped) for a in arrays]
        out = op(*inputs)
        if not taped:
            assert out._backward is None
            return out.data, []
        w = np.random.default_rng(1).normal(0, 1, out.data.size)
        TestAttention.weighted_sum(out, w).backward()
        return out.data, [t.grad for t in inputs]

    @pytest.mark.parametrize("name", CASES)
    @pytest.mark.parametrize("taped", [True, False])
    def test_same_bits_as_the_written_out_expression(self, rng, name, taped):
        op, reference, shapes = self.CASES[name]
        # Wide enough that gelu's tanh saturates on some entries.
        arrays = [rng.normal(0, 3, shape) for shape in shapes]
        got, got_grads = self.run(op, arrays, taped)
        want, want_grads = self.run(reference, arrays, taped)
        np.testing.assert_array_equal(got, want)
        assert len(got_grads) == len(want_grads)
        for g, w in zip(got_grads, want_grads):
            np.testing.assert_array_equal(g, w)


class TestCrossEntropy:
    def test_perfect_prediction_is_zero(self):
        assert float(ad.cross_entropy(Tensor([0.0, -np.inf, -np.inf]), 0).data) == 0.0

    def test_uniform_three_way_is_ln3(self):
        for gold in range(3):
            loss = ad.cross_entropy(Tensor(np.zeros(3)), gold)
            assert abs(float(loss.data) - math.log(3)) < 1e-12

    def test_matches_direct_formula(self, rng):
        p = rng.dirichlet(np.ones(7))
        for gold in range(7):
            loss = ad.cross_entropy(Tensor(np.log(p)), gold)
            assert abs(float(loss.data) - (-math.log(p[gold]))) < 1e-12

    def test_large_logit_gap_is_not_clamped(self):
        loss = ad.cross_entropy(Tensor([1000.0, 0.0, 0.0]), 1)
        assert float(loss.data) == pytest.approx(1000.0, abs=1e-9)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            ad.cross_entropy(Tensor([0.5, 0.5]), 2)

    def test_gradient_through_softmax(self, rng):
        x = leaf(rng, 5)
        check_gradients(lambda: ad.cross_entropy(x, 2), [x])

    def test_leading_axes_sum_the_rows(self, rng):
        x = leaf(rng, 2, 3, 4)
        gold = np.array([[0, 3, 1], [2, 2, 0]])
        rows = sum(float(ad.cross_entropy(Tensor(x.data[i, j]), int(gold[i, j])).data)
                   for i in range(2) for j in range(3))
        assert float(ad.cross_entropy(x, gold).data) == pytest.approx(rows, abs=1e-12)
        check_gradients(lambda: ad.cross_entropy(x, gold), [x])

    def test_gold_must_match_the_leading_shape(self, rng):
        x = leaf(rng, 2, 4)
        for gold in (1, [1, 2, 3]):
            with pytest.raises(ShapeMismatchError):
                ad.cross_entropy(x, gold)
        with pytest.raises(IndexError):
            ad.cross_entropy(x, [0, -1])


class TestAdd:
    """Three terms summed in one node, at the shapes `embed` sums: token rows
    (E, 1, T, d), position rows (T, d) and time-id rows (B, T, d)."""

    SHAPES = ((2, 1, 5, 4), (5, 4), (3, 5, 4))

    @staticmethod
    def loss(total):
        """A cross-entropy that gives every element of `total` its own
        gradient."""
        rows = total.data.size // 4
        return ad.cross_entropy(ad.reshape(total, (rows, 4)), np.arange(rows) % 4)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("E", [1, 2])
    def test_three_terms_are_the_nested_binary_adds_to_the_bit(self, rng, dtype, E):
        """Bit-equal in the forward and in every gradient when E is 1, as in
        a pass of one layout. With E > 1, as in a stack of several, the (T, d)
        term's gradient sums the leading axes E first, where the nested adds
        sum B first, so it agrees within rounding only."""
        values = [rng.normal(0, 1, s).astype(dtype)
                  for s in ((E, 1, 5, 4), *self.SHAPES[1:])]

        def run(one_node):
            a, b, c = (Tensor(v.copy(), requires_grad=True) for v in values)
            total = ad.add(a, b, c) if one_node else ad.add(ad.add(a, b), c)
            self.loss(total).backward()
            return total, [total.data, a.grad, c.grad, b.grad]

        total, got = run(True)
        assert len(total._parents) == 3  # one node over the three leaves
        assert all(p._backward is None for p in total._parents)
        assert total.shape == (E, 3, 5, 4) and total.data.dtype == dtype
        want = run(False)[1]
        for g, w in zip(got[:3], want):
            np.testing.assert_array_equal(g, w)
        if E == 1:
            np.testing.assert_array_equal(got[3], want[3])
        else:
            np.testing.assert_allclose(got[3], want[3], rtol=1e-5, atol=0)

    def test_gradient_matches_finite_differences(self, rng):
        terms = [leaf(rng, *s) for s in self.SHAPES]
        check_gradients(lambda: self.loss(ad.add(*terms)), terms)


class TestOtherOps:
    def test_gelu_gradient(self, rng):
        x = leaf(rng, 4, 3)
        check_gradients(lambda: ad.reshape(ad.matmul(
            Tensor(np.ones((1, 4))), ad.matmul(ad.gelu(x), Tensor(np.ones((3, 1))))
        ), ()), [x])

    def test_layer_norm_gradient(self, rng):
        x, g, b = leaf(rng, 3, 8), leaf(rng, 8), leaf(rng, 8)
        w = Tensor(np.ones((8, 1)))
        check_gradients(lambda: ad.reshape(ad.matmul(
            Tensor(np.ones((1, 3))), ad.matmul(ad.layer_norm(x, g, b), w)), ()),
            [x, g, b])

    def test_embedding_gradient_accumulates_repeats(self, rng):
        table = leaf(rng, 5, 3)
        ids = [1, 1, 4]
        out = ad.embedding(table, ids)
        ad.reshape(ad.matmul(Tensor(np.ones((1, 3))),
                             ad.matmul(out, Tensor(np.ones((3, 1))))), ()).backward()
        assert table.grad[1].sum() == pytest.approx(6.0)
        assert table.grad[4].sum() == pytest.approx(3.0)
        assert table.grad[0].sum() == 0.0

    def test_embedding_out_of_bounds(self, rng):
        with pytest.raises(IndexError):
            ad.embedding(leaf(rng, 5, 3), [5])

    def test_concat_and_slice_gradients(self, rng):
        a, b = leaf(rng, 3, 2), leaf(rng, 3, 2)

        def loss():
            merged = ad.concat([a, b], axis=1)
            top = ad.slice_rows(merged, np.s_[:2])
            return ad.reshape(ad.matmul(ad.matmul(Tensor(np.ones((1, 2))), top),
                                        Tensor(np.ones((4, 1)))), ())

        check_gradients(loss, [a, b])

    def test_slice_rows_along_an_inner_axis(self, rng):
        a = leaf(rng, 2, 5, 3)
        top = ad.slice_rows(a, np.s_[:, 1:3])
        np.testing.assert_array_equal(top.data, a.data[:, 1:3])
        check_gradients(lambda: total(ad.slice_rows(a, np.s_[:, 1:3])), [a])

    @pytest.mark.parametrize("shape", [(5, 3), (2, 3, 5, 4)])
    def test_slice_rows_takes_the_cls_rows_of_any_rank(self, rng, shape):
        a = leaf(rng, *shape)
        cls = ad.slice_rows(a, np.s_[..., :1, :])
        np.testing.assert_array_equal(cls.data, a.data[..., :1, :])
        assert cls.shape == (*shape[:-2], 1, shape[-1])
        check_gradients(lambda: total(ad.slice_rows(a, np.s_[..., :1, :])), [a])

    def test_slice_rows_gathers_flat_rows_over_two_leading_axes(self, rng):
        """Index arrays from flat row indices over (E, B) give the rows of
        the (E·B, T, d) reshape, and the backward fills those rows alone."""
        E, B, T, d = 2, 3, 4, 5
        a = leaf(rng, E, B, T, d)
        rows = np.array([4, 0, 3], dtype=np.intp)
        idx = np.unravel_index(rows, (E, B))
        picked = ad.slice_rows(a, idx)
        np.testing.assert_array_equal(picked.data, a.data.reshape(-1, T, d)[rows])
        total(picked).backward()
        grad = a.grad.reshape(-1, T, d)
        np.testing.assert_array_equal(grad[rows], np.ones((len(rows), T, d)))
        assert not np.delete(grad, rows, axis=0).any()
        a.grad = None
        w = rng.normal(0, 1, (len(rows), T, d))
        check_gradients(lambda: total(ad.scale(ad.slice_rows(a, idx), w)), [a])

    def test_transpose_axes_gradient(self, rng):
        x = leaf(rng, 2, 3, 4)
        w = Tensor(rng.normal(0, 1, (24, 1)))
        np.testing.assert_array_equal(ad.transpose(x).data, np.swapaxes(x.data, 1, 2))
        check_gradients(lambda: ad.reshape(ad.matmul(ad.reshape(
            ad.transpose(x, (2, 0, 1)), (1, 24)), w), ()), [x])

    def test_mean_of_is_one_node(self, rng):
        xs = [Tensor(v, requires_grad=True) for v in rng.normal(0, 1, 3)]
        m = ad.mean_of(xs, len(xs))
        assert m._parents == tuple(xs)
        assert float(m.data) == pytest.approx(np.mean([x.data for x in xs]))
        m.backward()
        assert [float(x.grad) for x in xs] == [pytest.approx(1 / 3)] * 3

    def test_first_gradient_is_a_copy(self, rng):
        """A leaf fed by a pass-through op (reshape, add) gets an array of its
        own: no later += into the gradient it came from, or into the other
        operand's, can change it."""
        for op in ("reshape", "add"):
            x, other = leaf(rng, 2, 3), leaf(rng, 2, 3)
            y = ad.reshape(x, (3, 2)) if op == "reshape" else ad.add(x, other)
            handed, inner = [], y._backward  # keep the array y's backward gets
            y._backward = lambda g: (handed.append(g), inner(g))
            ad.cross_entropy(y, np.ones(y.shape[0], dtype=int)).backward()
            g, want = handed[0], x.grad.copy()
            assert x.grad.flags.owndata and x.grad.dtype == np.float64, op
            np.testing.assert_array_equal(want.ravel(), g.ravel())
            g += 1.0
            if op == "add":
                assert not np.shares_memory(x.grad, other.grad)
                other.grad += 1.0
            np.testing.assert_array_equal(x.grad, want)

    def test_float32_graph_gives_float32_leaf_gradients(self, rng):
        """A taped float32 graph leaves float32 gradients on its leaves; gelu's
        in-place backward gives the bits of the expression written out."""
        values = rng.normal(0, 3, (2, 3, 6)).astype(np.float32)
        table = rng.normal(0, 1, (5, 6)).astype(np.float32)
        grads = []
        for op in (ad.gelu, parent_gelu):
            x = Tensor(values.copy(), requires_grad=True)
            emb = Tensor(table.copy(), requires_grad=True)
            h = ad.add(op(x), ad.embedding(emb, [1, 4, 1]))
            ad.cross_entropy(h, np.zeros((2, 3), dtype=int)).backward()
            assert x.grad.dtype == emb.grad.dtype == np.float32
            grads.append((x.grad, emb.grad))
        for got, want in zip(*grads):
            np.testing.assert_array_equal(got, want)

    def test_float32_losses_stay_float32(self, rng):
        """Scalar results of a float32 graph are float32 0-d arrays, not numpy
        scalars that `Tensor` would widen to float64."""
        logits = Tensor(rng.normal(0, 1, (3, 4)).astype(np.float32),
                        requires_grad=True)
        ce = ad.cross_entropy(logits, [0, 2, 3])
        both = ad.add(ce, ad.scale(ce, 2.0))
        mean = ad.mean_of([ce, both], 4)
        for t in (ce, both, mean):
            assert type(t.data) is np.ndarray and t.data.shape == ()
            assert t.data.dtype == np.float32
        mean.backward()
        assert logits.grad.dtype == np.float32

    def test_cast_hands_the_gradient_back_in_the_leaf_dtype(self, rng):
        w = leaf(rng, 3, 2)
        w32 = ad.cast(w, np.float32)
        assert w32.data.dtype == np.float32 and w32._parents == (w,)
        np.testing.assert_array_equal(w32.data, w.data.astype(np.float32))
        ad.cross_entropy(w32, [1, 0, 1]).backward()
        assert w.grad.dtype == np.float64
        w.grad = None
        check_gradients(lambda: ad.cross_entropy(ad.cast(w, np.float64),
                                                 [1, 0, 1]), [w])

    def test_two_losses_through_a_shared_node_count_it_once(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        h = ad.scale(x, 3.0)
        l1, l2 = total(h), total(h)
        l1.backward()
        l2.backward()
        np.testing.assert_array_equal(x.grad, [6.0, 6.0])

    def test_backward_frees_every_intermediate_gradient(self, rng):
        x, w, b = leaf(rng, 2, 3, 4), leaf(rng, 4, 6), leaf(rng, 6)
        gain, bias, const = leaf(rng, 6), leaf(rng, 6), Tensor(np.ones(6))
        h = ad.gelu(ad.matmul(x, w, b))
        logits = ad.layer_norm(ad.add(ad.scale(h, 0.5), ad.add(h, const)), gain, bias)
        loss = ad.cross_entropy(logits, np.array([[0, 5, 2], [1, 1, 4]]))
        nodes, stack = set(), [loss]
        while stack:
            node = stack.pop()
            if node not in nodes:
                nodes.add(node)
                stack.extend(node._parents)
        leaves = [x, w, b, gain, bias]
        assert {n for n in nodes if n._backward is None} == {*leaves, const}
        loss.backward()
        assert all(n.grad is None for n in nodes if n._backward is not None)
        assert all(t.grad is not None for t in leaves) and const.grad is None
        first = [t.grad.copy() for t in leaves]
        loss.backward()  # the same graph again doubles every leaf's gradient
        for t, g in zip(leaves, first):
            np.testing.assert_array_equal(t.grad, 2 * g)

    def test_grad_accumulation_is_additive(self, rng):
        x = leaf(rng, 3)
        for _ in range(2):
            ad.cross_entropy(x, 0).backward()
        double = x.grad.copy()
        x.grad = None
        ad.cross_entropy(x, 0).backward()
        np.testing.assert_allclose(double, 2 * x.grad, atol=1e-12)


class TestSgd:
    def test_effective_lr_at_step_zero(self):
        cfg = SgdConfig(learning_rate=3e-4, decay_factor=0.5, decay_every=50)
        assert cfg.effective_lr(0) == 3e-4

    def test_schedule_formula(self):
        cfg = SgdConfig(learning_rate=3e-4, decay_factor=0.5, decay_every=50)
        assert cfg.effective_lr(120) == pytest.approx(3e-4 * 0.25)
        for k in range(300):
            assert cfg.effective_lr(k) == pytest.approx(3e-4 * 0.5 ** (k // 50))

    def test_zero_gradient_is_noop(self):
        p = Tensor([1.0, 2.0], requires_grad=True)
        p.grad = np.zeros(2)
        sgd_step({"p": p}, SgdConfig(learning_rate=0.1), 0)
        np.testing.assert_array_equal(p.data, [1.0, 2.0])
        q = Tensor([3.0], requires_grad=True)  # no grad at all
        sgd_step({"q": q}, SgdConfig(learning_rate=0.1), 0)
        np.testing.assert_array_equal(q.data, [3.0])

    def test_update_and_grad_reset(self):
        p = Tensor([1.0], requires_grad=True)
        p.grad = np.array([2.0])
        sgd_step({"p": p}, SgdConfig(learning_rate=0.5), 0)
        np.testing.assert_array_equal(p.data, [0.0])
        assert p.grad is None

    def test_nonfinite_gradient_names_parameter(self):
        p = Tensor([1.0], requires_grad=True)
        p.grad = np.array([np.nan])
        with pytest.raises(NonFiniteGradientError, match="my_param"):
            sgd_step({"my_param": p}, SgdConfig(learning_rate=0.1), 0)

    def test_nonfinite_gradient_applies_no_update(self):
        """The NaN is in the last parameter, after one that would step."""
        a = Tensor([1.0], requires_grad=True)
        a.grad = np.array([1.0])
        b = Tensor([2.0, 3.0], requires_grad=True)
        b.grad = np.array([0.5, np.nan])
        with pytest.raises(NonFiniteGradientError, match="'b'"):
            sgd_step({"a": a, "b": b}, SgdConfig(learning_rate=0.1), 0)
        np.testing.assert_array_equal(a.data, [1.0])
        np.testing.assert_array_equal(a.grad, [1.0])
        np.testing.assert_array_equal(b.data, [2.0, 3.0])
        np.testing.assert_array_equal(b.grad, [0.5, np.nan])

    def test_nonfinite_new_value_applies_no_update(self):
        """A finite gradient at a huge learning rate overflows in the last
        parameter, after one that would step in range: no parameter moves
        and every gradient stays."""
        a = Tensor([1.0], requires_grad=True)
        a.grad = np.array([1e-300])
        b = Tensor([2.0, 3.0], requires_grad=True)
        b.grad = np.array([0.5, -1e10])
        with pytest.raises(NonFiniteGradientError, match="'b'"):
            sgd_step({"a": a, "b": b}, SgdConfig(learning_rate=1e300), 0)
        np.testing.assert_array_equal(a.data, [1.0])
        np.testing.assert_array_equal(a.grad, [1e-300])
        np.testing.assert_array_equal(b.data, [2.0, 3.0])
        np.testing.assert_array_equal(b.grad, [0.5, -1e10])

    def test_finite_new_value_beyond_float32_applies_no_update(self):
        """-1e300 is finite, but float32 cannot hold it."""
        a = Tensor([1.0], requires_grad=True)
        a.grad = np.array([1.0])
        b = Tensor([2.0], requires_grad=True)
        b.grad = np.array([0.5])
        with pytest.raises(NonFiniteGradientError,
                           match=r"'a'.*beyond float32's range"):
            sgd_step({"a": a, "b": b}, SgdConfig(learning_rate=1e300), 0)
        np.testing.assert_array_equal(a.data, [1.0])
        np.testing.assert_array_equal(a.grad, [1.0])
        np.testing.assert_array_equal(b.data, [2.0])
        np.testing.assert_array_equal(b.grad, [0.5])

    def test_value_beyond_float32_without_gradient_applies_no_update(self):
        """A parameter that no loss reached is checked at its current value."""
        a = Tensor([1.0], requires_grad=True)
        a.grad = np.array([1.0])
        b = Tensor([0.0, 1e39], requires_grad=True)
        with pytest.raises(NonFiniteGradientError, match="'b'"):
            sgd_step({"a": a, "b": b}, SgdConfig(learning_rate=0.1), 0)
        np.testing.assert_array_equal(a.data, [1.0])
        np.testing.assert_array_equal(a.grad, [1.0])
        np.testing.assert_array_equal(b.data, [0.0, 1e39])
        assert b.grad is None

    def test_float32_max_with_zero_gradient_steps(self):
        p = Tensor([ad.FLOAT32_MAX, -ad.FLOAT32_MAX], requires_grad=True)
        p.grad = np.zeros(2)
        sgd_step({"p": p}, SgdConfig(learning_rate=0.1), 0)
        np.testing.assert_array_equal(p.data, [ad.FLOAT32_MAX, -ad.FLOAT32_MAX])
        assert p.grad is None

    def test_update_is_in_place_with_the_written_out_bits(self):
        rng = np.random.default_rng(3)
        p = Tensor(rng.normal(0, 1, (4, 5)), requires_grad=True)
        p.grad = rng.normal(0, 1, (4, 5))
        data, want = p.data, p.data - 0.37 * p.grad
        sgd_step({"p": p}, SgdConfig(learning_rate=0.37), 0)
        assert p.data is data
        np.testing.assert_array_equal(p.data, want)

    @pytest.mark.parametrize("lr", [math.inf, -math.inf, math.nan])
    def test_nonfinite_learning_rate_rejected(self, lr):
        with pytest.raises(ValueError, match="learning_rate must be finite"):
            SgdConfig(learning_rate=lr)

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            SgdConfig(learning_rate=-1.0)
        with pytest.raises(ValueError):
            SgdConfig(learning_rate=0.1, decay_factor=0.0)
        with pytest.raises(ValueError):
            SgdConfig(learning_rate=0.1, decay_every=0)

    @pytest.mark.parametrize("field, value", [
        ("learning_rate", True), ("decay_factor", True), ("decay_every", True),
        ("decay_every", 2.5), ("decay_every", 50.0)])
    def test_bool_or_fractional_setting_rejected(self, field, value):
        """As `EncoderConfig` rejects a bool size: JSON's `true` is not 1."""
        with pytest.raises(ValueError, match=f"{field} must be"):
            SgdConfig(**{"learning_rate": 0.1, field: value})


class TestTensorDtype:
    def test_float32_array_keeps_its_dtype(self):
        data = np.arange(6, dtype=np.float32).reshape(2, 3)
        t = Tensor(data)
        assert t.data.dtype == np.float32 and t.data is data

    @pytest.mark.parametrize("data", [
        1.5, 2, [1, 2, 3], [[0.5, 1.5]], np.arange(3),
        np.arange(3, dtype=np.int32), np.ones(2, dtype=np.float16),
        np.float32(1.5), np.ones(2),
    ], ids=["float", "int", "list", "nested-list", "int64-array",
            "int32-array", "float16-array", "float32-scalar", "float64-array"])
    def test_everything_else_becomes_float64(self, data):
        t = Tensor(data)
        assert t.data.dtype == np.float64
        np.testing.assert_array_equal(t.data, np.asarray(data, dtype=np.float64))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_checkpoint_is_little_endian_float64(self, tmp_path, dtype):
        values = np.array([[0.1, -2.5, 3.0]], dtype=dtype)
        save_checkpoint({"w": Tensor(values)}, tmp_path / "params.bin")
        head, body = (tmp_path / "params.bin").read_bytes().split(b"\n", 1)
        assert json.loads(head)["bytes"] == len(body) == 8 * values.size
        np.testing.assert_array_equal(np.frombuffer(body, dtype="<f8"),
                                      values.astype(np.float64).ravel())


class TestCheckpoint:
    @pytest.mark.parametrize("value", [1e39, -np.inf, np.nan])
    def test_value_beyond_float32_rejected_naming_its_tensor(self, tmp_path,
                                                             value):
        path = tmp_path / "params.bin"
        save_checkpoint({"a": Tensor([1.0]), "b.c": Tensor([[0.0, value]])}, path)
        with pytest.raises(ValueError, match=r"b\.c: holds a value beyond "
                                             r"float32's range, or NaN"):
            load_checkpoint(path)

    def test_round_trip_bit_exact(self, rng, tmp_path):
        params = {"a": leaf(rng, 3, 4), "b.c": leaf(rng, 7)}
        path = tmp_path / "ckpt.json"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert set(loaded) == {"a", "b.c"}
        for name in params:
            assert loaded[name].data.shape == params[name].data.shape
            assert np.array_equal(loaded[name].data, params[name].data)
        save_checkpoint(loaded, tmp_path / "ckpt2.json")
        assert (tmp_path / "ckpt.json").read_bytes() == \
            (tmp_path / "ckpt2.json").read_bytes()

    def test_failed_save_leaves_the_old_file_whole(self, rng, tmp_path,
                                                   monkeypatch):
        path = tmp_path / "params.bin"
        save_checkpoint({"a": leaf(rng, 3, 4)}, path)
        before = path.read_bytes()

        class DiskFull(io.FileIO):
            """A file that takes 100 bytes and then fails."""

            def write(self, data):
                super().write(bytes(data)[:100])
                raise OSError("disk full")

        monkeypatch.setattr(ad, "open", DiskFull, raising=False)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint({"a": leaf(rng, 3, 4)}, path)
        monkeypatch.undo()
        assert [f.name for f in tmp_path.iterdir()] == ["params.bin"]
        assert path.read_bytes() == before
