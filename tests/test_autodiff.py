import json
import math

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


class TestAttention:
    @staticmethod
    def weighted_sum(out, w):
        """A scalar that weighs every output entry differently."""
        flat = ad.reshape(out, (1, -1))
        return ad.reshape(ad.matmul(flat, Tensor(w.reshape(-1, 1))), ())

    def test_matches_softmax_of_scaled_scores(self, rng):
        q, k, v = qkv = rng.normal(0, 1, (3, 2, 3, 5, 4))
        out, probs = ad.attention(Tensor(qkv), 0.5)
        want = ad.softmax_array(q @ np.swapaxes(k, -1, -2) * 0.5)
        np.testing.assert_allclose(probs, want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(out.data, want @ v, rtol=0, atol=1e-12)
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-12)

    def test_gradient_on_q_k_v_with_two_leading_axes(self, rng):
        qkv = leaf(rng, 3, 2, 3, 5, 4)  # q, k, v of shape (2, 3, 5, 4)
        w = rng.normal(0, 1, (2, 3, 5, 4))
        check_gradients(
            lambda: self.weighted_sum(ad.attention(qkv, 0.5)[0], w), [qkv])

    def test_one_tape_node(self, rng):
        qkv = leaf(rng, 3, 2, 5, 4)
        out, _ = ad.attention(qkv, 0.5)
        assert out._parents == (qkv,)


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


class TestInPlaceChains:
    """gelu, layer_norm and affine give the same bits as the expressions
    written out, taped and tape-free, on inputs with two leading axes."""

    # A last axis of 6, not a power of two, so that dividing by it rounds.
    CASES = {
        "gelu": (ad.gelu, parent_gelu, [(2, 3, 5, 6)]),
        "layer_norm": (ad.layer_norm, parent_layer_norm, [(2, 3, 5, 6), (6,), (6,)]),
        "affine": (ad.affine, parent_affine, [(2, 3, 5, 6), (6, 4), (4,)]),
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


class TestAffine:
    def test_gradient_with_two_leading_axes(self, rng):
        x, w, b = leaf(rng, 2, 3, 4), leaf(rng, 4, 5), leaf(rng, 5)
        weights = rng.normal(0, 1, (2, 3, 5))
        check_gradients(
            lambda: TestAttention.weighted_sum(ad.affine(x, w, b), weights),
            [x, w, b])

    def test_one_tape_node(self, rng):
        x, w, b = leaf(rng, 3, 4), leaf(rng, 4, 5), leaf(rng, 5)
        assert ad.affine(x, w, b)._parents == (x, w, b)

    def test_shape_mismatch_names_the_shapes(self):
        with pytest.raises(ShapeMismatchError, match=r"\(3, 4\).*\(4, 5\).*\(4,\)"):
            ad.affine(Tensor(np.zeros((3, 4))), Tensor(np.zeros((4, 5))),
                      Tensor(np.zeros(4)))


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
            top = ad.slice_rows(merged, 0, 2)
            return ad.reshape(ad.matmul(ad.matmul(Tensor(np.ones((1, 2))), top),
                                        Tensor(np.ones((4, 1)))), ())

        check_gradients(loss, [a, b])

    def test_slice_rows_along_an_inner_axis(self, rng):
        a = leaf(rng, 2, 5, 3)
        top = ad.slice_rows(a, 1, 3, axis=-2)
        np.testing.assert_array_equal(top.data, a.data[:, 1:3])
        check_gradients(lambda: total(ad.slice_rows(a, 1, 3, axis=-2)), [a])

    def test_transpose_axes_gradient(self, rng):
        x = leaf(rng, 2, 3, 4)
        w = Tensor(rng.normal(0, 1, (24, 1)))
        np.testing.assert_array_equal(ad.transpose(x).data, np.swapaxes(x.data, 1, 2))
        check_gradients(lambda: ad.reshape(ad.matmul(ad.reshape(
            ad.transpose(x, (2, 0, 1)), (1, 24)), w), ()), [x])

    def test_mean_of_is_one_node(self, rng):
        xs = [Tensor(v, requires_grad=True) for v in rng.normal(0, 1, 3)]
        m = ad.mean_of(xs)
        assert m._parents == tuple(xs)
        assert float(m.data) == pytest.approx(np.mean([x.data for x in xs]))
        m.backward()
        assert [float(x.grad) for x in xs] == [pytest.approx(1 / 3)] * 3

    def test_first_gradient_is_a_copy(self, rng):
        x = leaf(rng, 2, 3)
        y = ad.reshape(x, (6,))  # backward hands x a view of y's gradient
        ad.cross_entropy(y, 4).backward()
        assert not np.shares_memory(x.grad, y.grad)
        np.testing.assert_array_equal(x.grad, y.grad.reshape(2, 3))

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

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            SgdConfig(learning_rate=-1.0)
        with pytest.raises(ValueError):
            SgdConfig(learning_rate=0.1, decay_factor=0.0)
        with pytest.raises(ValueError):
            SgdConfig(learning_rate=0.1, decay_every=0)


class TestCheckpoint:
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
