import math

import numpy as np
import pytest

from proctrack import autodiff as ad
from proctrack.encoder import (
    EncoderConfig, embed, encode, init_encoder_params, param_count, param_shapes,
)
from proctrack.heads import init_head_params, joint_loss, span_head, status_head, GoldStep
from proctrack.inputs import TimestampedInput, build_query, time_ids, timestamp
from proctrack.tokenizer import build_vocab

from conftest import check_gradients


SENTS = [["rain", "falls", "down"], ["water", "pools", "up"], ["pools", "dry"]]


@pytest.fixture
def vocab():
    return build_vocab([["where", "is", "?", "water"]] + SENTS)


def make_input(vocab, step=1):
    layout = build_query("water", SENTS, vocab)
    return timestamp(layout, step)


def tiny_config(vocab, **kw):
    defaults = dict(d_model=8, n_heads=1, n_layers=1, d_ff=16,
                    vocab_size=len(vocab), max_len=32)
    defaults.update(kw)
    return EncoderConfig(**defaults)


class TestConfig:
    def test_d_model_divisible_by_heads(self):
        with pytest.raises(ValueError):
            EncoderConfig(d_model=10, n_heads=3)

    def test_timestamp_table_fixed_at_four(self):
        with pytest.raises(ValueError):
            EncoderConfig(n_timestamps=5)

    def test_config_file_round_trip(self, tmp_path):
        cfg = EncoderConfig(d_model=16, n_heads=2, n_layers=3, d_ff=24,
                            vocab_size=99, max_len=64)
        cfg.save(tmp_path / "cfg.json")
        assert EncoderConfig.load(tmp_path / "cfg.json") == cfg


def drawn_layer_by_layer(config, rng):
    """Every tensor of a fresh model, drawn as written out before the shapes
    were listed in one place."""
    d, dh, ff = config.d_model, config.d_model // config.n_heads, config.d_ff

    def normal(*shape):
        return rng.normal(0.0, 0.02, size=shape)

    params = {"token_emb": normal(config.vocab_size, d),
              "pos_emb": normal(config.max_len, d), "ts_emb": np.zeros((4, d))}
    for l in range(config.n_layers):
        p = f"layer{l}."
        params[p + "ln1.gain"], params[p + "ln1.bias"] = np.ones(d), np.zeros(d)
        params[p + "attn.qkv"] = np.concatenate(
            [normal(d, dh) for _ in range(3 * config.n_heads)], axis=1)
        params[p + "attn.out"], params[p + "attn.out_bias"] = normal(d, d), np.zeros(d)
        params[p + "ln2.gain"], params[p + "ln2.bias"] = np.ones(d), np.zeros(d)
        params[p + "ff.w1"], params[p + "ff.b1"] = normal(d, ff), np.zeros(ff)
        params[p + "ff.w2"], params[p + "ff.b2"] = normal(ff, d), np.zeros(d)
    params["final_ln.gain"], params["final_ln.bias"] = np.ones(d), np.zeros(d)
    for name, cols in (("head.status", 3), ("head.start", 1), ("head.end", 1)):
        params[name] = normal(d, cols)
    return params


class TestParamShapes:
    @pytest.mark.parametrize("n_layers, n_heads", [(1, 1), (3, 2), (2, 4)])
    def test_fresh_draw_is_unchanged_and_listed_in_order(self, n_layers, n_heads):
        cfg = EncoderConfig(d_model=8, n_heads=n_heads, n_layers=n_layers, d_ff=12,
                            vocab_size=7, max_len=20)
        rng = np.random.default_rng(0)
        params = init_encoder_params(cfg, rng)
        params.update(init_head_params(cfg, rng))
        want = drawn_layer_by_layer(cfg, np.random.default_rng(0))
        assert list(params) == list(want) == list(param_shapes(cfg))
        assert param_count(cfg) == len(want)
        for name, value in want.items():
            assert params[name].shape == param_shapes(cfg)[name]
            np.testing.assert_array_equal(params[name].data, value, err_msg=name)


class TestEmbed:
    def test_zero_timestamp_table_step_independent(self, vocab):
        cfg = tiny_config(vocab)
        params = init_encoder_params(cfg, np.random.default_rng(0))
        a = embed(make_input(vocab, 1), params)
        b = embed(make_input(vocab, 3), params)
        np.testing.assert_array_equal(a.data, b.data)

    def test_rows_differ_exactly_where_timestamps_differ(self, vocab):
        cfg = tiny_config(vocab)
        params = init_encoder_params(cfg, np.random.default_rng(0))
        params["ts_emb"].data[:] = np.random.default_rng(1).normal(0, 1, (4, cfg.d_model))
        i1, i2 = make_input(vocab, 1), make_input(vocab, 2)
        a, b = embed(i1, params), embed(i2, params)
        same_ts = np.array([x == y for x, y in
                            zip(i1.timestamp_ids, i2.timestamp_ids)])
        row_equal = np.all(a.data == b.data, axis=1)
        np.testing.assert_array_equal(row_equal, same_ts)

    def test_is_sum_of_three_tables(self, vocab):
        cfg = tiny_config(vocab)
        params = init_encoder_params(cfg, np.random.default_rng(0))
        params["ts_emb"].data[:] = 0.5
        inp = make_input(vocab, 1)
        out = embed(inp, params)
        t = inp.layout.token_ids
        expected = (params["token_emb"].data[list(t)]
                    + params["pos_emb"].data[:len(t)]
                    + params["ts_emb"].data[list(inp.timestamp_ids)])
        np.testing.assert_allclose(out.data, expected, atol=1e-12)


def straight_line_forward(inp, params, cfg):
    """Independent numpy re-derivation for a 1-layer encoder, one head at a
    time, slicing each head's q, k, v columns out of the head-major qkv."""
    P = {k: v.data for k, v in params.items()}
    ids = list(inp.layout.token_ids)
    x = P["token_emb"][ids] + P["pos_emb"][:len(ids)] + \
        P["ts_emb"][list(inp.timestamp_ids)]

    def ln(v, g, b):
        mu = v.mean(axis=-1, keepdims=True)
        var = ((v - mu) ** 2).mean(axis=-1, keepdims=True)
        return g * (v - mu) / np.sqrt(var + 1e-5) + b

    def sm(v):
        e = np.exp(v - v.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True)

    def gelu(v):
        return 0.5 * v * (1 + np.tanh(math.sqrt(2 / math.pi)
                                      * (v + 0.044715 * v ** 3)))

    h = ln(x, P["layer0.ln1.gain"], P["layer0.ln1.bias"])
    dh = cfg.d_model // cfg.n_heads
    heads = []
    for hd in range(cfg.n_heads):
        col = 3 * dh * hd
        q, k, v = (h @ P["layer0.attn.qkv"][:, col + i * dh:col + (i + 1) * dh]
                   for i in range(3))
        heads.append(sm(q @ k.T / math.sqrt(dh)) @ v)
    attn = np.concatenate(heads, axis=1)
    x = x + attn @ P["layer0.attn.out"] + P["layer0.attn.out_bias"]
    h = ln(x, P["layer0.ln2.gain"], P["layer0.ln2.bias"])
    x = x + gelu(h @ P["layer0.ff.w1"] + P["layer0.ff.b1"]) @ P["layer0.ff.w2"] \
        + P["layer0.ff.b2"]
    return ln(x, P["final_ln.gain"], P["final_ln.bias"])


class TestEncode:
    def test_attention_rows_sum_to_one(self, vocab):
        cfg = tiny_config(vocab, n_heads=2, n_layers=2, d_model=16)
        params = init_encoder_params(cfg, np.random.default_rng(3))
        out = encode(embed(make_input(vocab), params), params, cfg,
                     collect_attn=True)
        assert len(out.attn_probs) == cfg.n_layers * cfg.n_heads
        for probs in out.attn_probs:
            np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-9)

    def test_matches_straight_line_oracle(self, vocab):
        inp = make_input(vocab, 2)
        for n_heads in (1, 2):
            cfg = tiny_config(vocab, n_heads=n_heads)
            params = init_encoder_params(cfg, np.random.default_rng(4))
            params["ts_emb"].data[:] = np.random.default_rng(5).normal(0, 0.3, (4, 8))
            # Large enough that a wrong head split or merge shows at 1e-9.
            params["layer0.attn.qkv"].data[:] = np.random.default_rng(6).normal(
                0, 0.5, (8, 24))
            ours = encode(embed(inp, params), params, cfg).hidden.data
            oracle = straight_line_forward(inp, params, cfg)
            np.testing.assert_allclose(ours, oracle, atol=1e-9)

    def test_identical_tokens_symmetric_when_positions_zeroed(self, vocab):
        cfg = tiny_config(vocab)
        params = init_encoder_params(cfg, np.random.default_rng(6))
        params["pos_emb"].data[:] = 0.0
        layout = build_query("water", [["pools", "pools"]], vocab)
        inp = timestamp(layout, 1)
        out = encode(embed(inp, params), params, cfg).hidden.data
        i, j = 6, 7  # the two identical paragraph tokens
        assert layout.tokens[i] == layout.tokens[j] == "pools"
        np.testing.assert_allclose(out[i], out[j], atol=1e-9)

    def test_max_len_enforced(self, vocab):
        cfg = tiny_config(vocab, max_len=4)
        params = init_encoder_params(cfg, np.random.default_rng(0))
        with pytest.raises(ValueError, match="max length"):
            encode(ad.Tensor(np.zeros((10, 8))), params, cfg)

    def test_step_sensitivity_with_nonzero_table(self, vocab):
        cfg = tiny_config(vocab)
        params = init_encoder_params(cfg, np.random.default_rng(7))
        params["ts_emb"].data[:] = np.random.default_rng(8).normal(0, 0.5, (4, 8))
        outs = [encode(embed(make_input(vocab, s), params), params, cfg).hidden.data
                for s in range(4)]
        for a in range(4):
            for b in range(a + 1, 4):
                assert not np.array_equal(outs[a], outs[b])

    def test_zero_table_makes_outputs_step_invariant(self, vocab):
        cfg = tiny_config(vocab)
        params = init_encoder_params(cfg, np.random.default_rng(9))
        outs = [encode(embed(make_input(vocab, s), params), params, cfg).hidden.data
                for s in range(4)]
        for o in outs[1:]:
            np.testing.assert_array_equal(outs[0], o)

    def test_tape_size_independent_of_head_count(self, vocab):
        def tape_nodes(n_heads):
            cfg = tiny_config(vocab, n_heads=n_heads)
            params = init_encoder_params(cfg, np.random.default_rng(0))
            out = encode(embed(make_input(vocab), params), params, cfg).hidden
            seen, stack = set(), [out]
            while stack:
                node = stack.pop()
                if id(node) not in seen and node._backward is not None:
                    seen.add(id(node))
                    stack.extend(node._parents)
            return len(seen)

        assert tape_nodes(1) == tape_nodes(2) == tape_nodes(4)

    def test_determinism_fixed_seed(self, vocab):
        cfg = tiny_config(vocab)
        runs = []
        for _ in range(2):
            params = init_encoder_params(cfg, np.random.default_rng(42))
            runs.append(encode(embed(make_input(vocab), params), params, cfg)
                        .hidden.data)
        np.testing.assert_array_equal(runs[0], runs[1])


class TestStepBatch:
    """All n+1 time-stamped copies of one query as one (n+1, T, d) pass."""

    def test_rows_match_steps_run_alone(self, vocab):
        layout = build_query("water", SENTS, vocab)
        steps = TimestampedInput(layout, time_ids(layout))
        for n_heads in (1, 2):
            cfg = tiny_config(vocab, n_heads=n_heads, n_layers=2)
            rng = np.random.default_rng(11)
            params = init_encoder_params(cfg, rng)
            params.update(init_head_params(cfg, rng))
            for t in params.values():  # large enough that a mixed-up row shows
                if t.data.ndim == 2:
                    t.data[:] = rng.normal(0, 0.5, t.data.shape)
            assert np.all(params["ts_emb"].data != 0.0)

            def heads(inp):
                out = encode(embed(inp, params), params, cfg)
                status = status_head(out, params["head.status"])
                span = span_head(out, params["head.start"], params["head.end"])
                return (out.hidden.data, status.logits_t.data,
                        span.start_t.data, span.end_t.data)

            batched = heads(steps)
            n_steps = layout.n_sentences + 1
            assert batched[0].shape == (n_steps, len(layout), cfg.d_model)
            for s in range(n_steps):
                for got, alone in zip(batched, heads(timestamp(layout, s))):
                    np.testing.assert_allclose(got[s], alone, rtol=0, atol=1e-12)


def chain_attention(qkv, scale):
    """Attention as the separate tape ops the fused op replaced: slices,
    `matmul(q, kᵀ)`, `scale`, `softmax` and `matmul(·, v)`."""
    q, k, v = (ad.slice_rows(qkv, i, i + 1) for i in range(3))
    probs = ad.softmax(ad.scale(ad.matmul(q, ad.transpose(k)), scale), axis=-1)
    out = ad.matmul(probs, v)
    return ad.reshape(out, out.shape[1:]), probs.data[0]


class TestFusedAttention:
    def taped_entity_pass(self, vocab, cfg, seed=12):
        """A batch of every step of one query with every weight nonzero, and
        the logits of both heads on one tape."""
        layout = build_query("water", SENTS, vocab)
        steps = TimestampedInput(layout, time_ids(layout))
        rng = np.random.default_rng(seed)
        params = init_encoder_params(cfg, rng)
        params.update(init_head_params(cfg, rng))
        for t in params.values():
            t.data += rng.normal(0, 0.3, t.data.shape)
        out = encode(embed(steps, params), params, cfg, collect_attn=True)
        status = status_head(out, params["head.status"])
        span = span_head(out, params["head.start"], params["head.end"])
        return params, out, (status.logits_t, span.start_t, span.end_t)

    def run(self, vocab, cfg):
        params, out, logits = self.taped_entity_pass(vocab, cfg)
        assert np.all(params["ts_emb"].data != 0.0)
        loss = ad.mean_of([ad.cross_entropy(logits[0], np.arange(4) % 3),
                           ad.cross_entropy(logits[1], np.arange(4) + 4),
                           ad.cross_entropy(logits[2], np.arange(4) + 5)])
        loss.backward()
        return ([out.hidden.data, *out.attn_probs, *(t.data for t in logits),
                 loss.data], {k: t.grad for k, t in params.items()})

    def test_equals_the_unfused_chain_exactly(self, vocab, monkeypatch):
        for n_heads in (1, 2, 4):
            cfg = tiny_config(vocab, n_heads=n_heads, n_layers=2)
            fused, fused_grads = self.run(vocab, cfg)
            with monkeypatch.context() as m:
                m.setattr(ad, "attention", chain_attention)
                chain, chain_grads = self.run(vocab, cfg)
            assert len(fused) == len(chain)
            for got, want in zip(fused, chain):
                np.testing.assert_array_equal(got, want)
            assert fused_grads.keys() == chain_grads.keys()
            for name, want in chain_grads.items():
                np.testing.assert_array_equal(fused_grads[name], want,
                                              err_msg=name)

    def test_tape_nodes_of_one_entity_pass(self, vocab):
        # Per layer: ln1, the qkv matmul, reshape, transpose, attention,
        # transpose, reshape, the out affine, residual add, ln2, and the
        # feed-forward affine, gelu, affine and residual add make 14; embed
        # adds 5, the final layer norm 1, the [CLS] slice and the heads 7.
        _, _, logits = self.taped_entity_pass(vocab, EncoderConfig(
            d_model=8, n_heads=2, n_layers=2, d_ff=16, vocab_size=len(vocab),
            max_len=32))
        seen, stack = set(), list(logits)
        while stack:
            node = stack.pop()
            if id(node) not in seen and node._backward is not None:
                seen.add(id(node))
                stack.extend(node._parents)
        assert len(seen) == 41


class TestEndToEndGradient:
    def test_finite_difference_through_embed_encode_heads(self, vocab):
        cfg = tiny_config(vocab)
        rng = np.random.default_rng(10)
        params = init_encoder_params(cfg, rng)
        params.update(init_head_params(cfg, rng))
        params["ts_emb"].data[:] = rng.normal(0, 0.3, (4, 8))
        # At the 0.02 init the k gradients are ~2e-5, below what central
        # differences resolve at this tolerance.
        params["layer0.attn.qkv"].data[:] = rng.normal(0, 0.3, (8, 24))
        inp = make_input(vocab, 2)
        gold = GoldStep(status_class=2, span=(7, 8))

        def loss():
            out = encode(embed(inp, params), params, cfg)
            status = status_head(out, params["head.status"])
            span = span_head(out, params["head.start"], params["head.end"])
            return joint_loss(status, span, gold)

        checked = [params[k] for k in
                   ["ts_emb", "token_emb", "layer0.attn.qkv", "layer0.ff.w1",
                    "layer0.ln1.gain", "head.status", "head.start"]]
        check_gradients(loss, checked)
