import json
import math
import sys
import threading

import numpy as np
import pytest

from proctrack import autodiff as ad
from proctrack.encoder import (
    EncoderConfig, embed, encode, init_encoder_params, param_count, param_shapes,
)
from proctrack.heads import (
    STATUS_KNOWN, joint_loss, span_head, status_head,
)
from proctrack.inputs import TimestampedInput, build_query, time_ids, timestamp
from proctrack.cli import EXIT_CONFIG, main
from proctrack.fixtures import photosynthesis
from proctrack.model import TrackerModel, targets, vocab_from_procedures
from proctrack.tokenizer import build_vocab

from conftest import check_gradients, cls_rows, tape_ops


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

    def test_timestamp_table_fixed_at_four(self, tmp_path):
        """The time-id table has four rows and no setting: a run config
        that names n_timestamps, even at 4, is a config error."""
        with pytest.raises(TypeError, match="n_timestamps"):
            EncoderConfig(n_timestamps=4)
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"encoder": {"n_timestamps": 4}}))
        assert main(["train", "--data", "x.json", "--out", str(tmp_path / "o"),
                     "--config", str(path)]) == EXIT_CONFIG

    def test_config_file_round_trip(self, tmp_path):
        """The config goes through a checkpoint's header unchanged."""
        vocab = build_vocab([[f"w{i}" for i in range(95)]])
        cfg = EncoderConfig(d_model=16, n_heads=2, n_layers=3, d_ff=24,
                            max_len=64, dropout=0.125)
        model = TrackerModel.fresh(vocab, cfg, seed=0)
        model.save(tmp_path / "ckpt")
        loaded = TrackerModel.load(tmp_path / "ckpt").config
        assert loaded == model.config and loaded.vocab_size == 99


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
        params = init_encoder_params(cfg, np.random.default_rng(0))
        want = drawn_layer_by_layer(cfg, np.random.default_rng(0))
        assert list(params) == list(want) == list(param_shapes(cfg))
        assert param_count(cfg) == len(want)
        for name, value in want.items():
            assert params[name].shape == param_shapes(cfg)[name]
            np.testing.assert_array_equal(params[name].data, value, err_msg=name)


class TestEmbed:
    def test_input_longer_than_the_position_table_raises(self, vocab):
        """The `pos_emb` lookup is the length rule for a direct caller: an
        input one token longer than the table raises, one that fills it
        embeds."""
        inp = make_input(vocab)
        T = len(inp.token_ids)
        short = init_encoder_params(tiny_config(vocab, max_len=T - 1),
                                    np.random.default_rng(0))
        with pytest.raises(IndexError, match=f"table with {T - 1} rows"):
            embed(inp, short)
        full = init_encoder_params(tiny_config(vocab, max_len=T),
                                   np.random.default_rng(0))
        assert embed(inp, full).data.shape == (T, 8)

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
        t = inp.token_ids
        expected = (params["token_emb"].data[list(t)]
                    + params["pos_emb"].data[:len(t)]
                    + params["ts_emb"].data[list(inp.timestamp_ids)])
        np.testing.assert_allclose(out.data, expected, atol=1e-12)


def straight_line_forward(inp, params, cfg):
    """Independent numpy re-derivation for a 1-layer encoder, one head at a
    time, slicing each head's q, k, v columns out of the head-major qkv."""
    P = {k: v.data for k, v in params.items()}
    ids = list(inp.token_ids)
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
    def test_dropout_applies_exactly_when_an_rng_is_given(self, vocab):
        cfg = tiny_config(vocab, n_heads=2, n_layers=1, d_model=16, dropout=0.5)
        params = init_encoder_params(cfg, np.random.default_rng(3))
        x = embed(make_input(vocab), params)
        plain = encode(x, params, cfg).hidden.data
        np.testing.assert_array_equal(encode(x, params, cfg).hidden.data, plain)
        dropped = encode(x, params, cfg, rng=np.random.default_rng(0)).hidden.data
        assert not np.allclose(dropped, plain)

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
            return tape_ops(encode(embed(make_input(vocab), params), params,
                                   cfg).hidden)

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
        steps = TimestampedInput(layout.token_ids, time_ids(layout))
        for n_heads in (1, 2):
            cfg = tiny_config(vocab, n_heads=n_heads, n_layers=2)
            rng = np.random.default_rng(11)
            params = init_encoder_params(cfg, rng)
            for t in params.values():  # large enough that a mixed-up row shows
                if t.data.ndim == 2:
                    t.data[:] = rng.normal(0, 0.5, t.data.shape)
            assert np.all(params["ts_emb"].data != 0.0)

            def heads(inp):
                """The hidden states and logits, one row per input."""
                hidden = encode(embed(inp, params), params, cfg).hidden
                status = status_head(cls_rows(hidden), params["head.status"])
                start, end = span_head(hidden, params["head.start"], params["head.end"])
                rows = hidden.data.reshape(-1, *hidden.shape[-2:])
                return rows, status.data, start.data, end.data

            batched = heads(steps)
            n_steps = layout.sentence_index[-1] + 1
            assert batched[0].shape == (n_steps, len(layout.tokens), cfg.d_model)
            for s in range(n_steps):
                for got, alone in zip(batched, heads(timestamp(layout, s))):
                    np.testing.assert_allclose(got[s:s + 1], alone, rtol=0,
                                               atol=1e-12)


class TestScoreBuffer:
    """Tape-free passes share one attention score buffer per thread."""

    def test_threads_predicting_at_once_match_one_thread(self):
        proc = photosynthesis()
        model = TrackerModel.fresh(vocab_from_procedures([proc]), EncoderConfig(
            d_model=16, n_heads=2, n_layers=2, d_ff=32), seed=0)
        rng = np.random.default_rng(0)
        for t in model.params.values():  # so that the decisions vary
            if t.data.ndim == 2:
                t.data[...] = rng.normal(0.0, 0.5, t.data.shape)
        want = model.predict_procedure(proc, np_filter=False, repair=False)
        statuses = {v for tl in want[0].values() for v in tl}
        assert {"-", "?"} < statuses  # and a location
        results = [[], [], []]

        def predict(out):
            for _ in range(20):
                out.append(model.predict_procedure(proc, np_filter=False,
                                                   repair=False))

        threads = [threading.Thread(target=predict, args=(out,))
                   for out in results]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # so that the threads' passes interleave
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for out in results:
            assert out == [want] * 20


class TestSelect:
    """`encode(select=...)`: the last layer for [CLS] alone, then in full for
    the inputs `select` picks."""

    def pass_and_selection(self, vocab, n_layers, rows):
        cfg = tiny_config(vocab, n_heads=2, n_layers=n_layers, d_model=16)
        params = {k: ad.Tensor(t.data.astype(np.float32)) for k, t in
                  init_encoder_params(cfg, np.random.default_rng(3)).items()}
        rng = np.random.default_rng(4)
        for t in params.values():
            t.data += rng.normal(0, 0.3, t.data.shape).astype(np.float32)
        layout = build_query("water", SENTS, vocab)
        x = embed(TimestampedInput(np.array([layout.token_ids] * 2)[:, None],
                                   time_ids(layout)), params)
        full = encode(x, params, cfg).hidden.data
        seen = []
        part = encode(x, params, cfg, select=lambda cls: seen.append(
            cls.data.copy()) or np.array(rows, dtype=int)).hidden.data
        return full, seen, part

    @pytest.mark.parametrize("n_layers", [1, 2])
    def test_selected_inputs_equal_the_full_pass_to_the_bit(self, vocab, n_layers):
        full, (cls,), part = self.pass_and_selection(vocab, n_layers, [5, 0, 2])
        assert full.shape[:2] == (2, 4) and cls.shape == (2, 4, 1, 16)
        np.testing.assert_allclose(cls, full[..., :1, :], rtol=0, atol=1e-5)
        flat = full.reshape(-1, *full.shape[-2:])
        assert part.dtype == np.float32
        assert np.array_equal(part, flat[[5, 0, 2]])

    def test_no_selected_input_gives_no_rows(self, vocab):
        full, _, part = self.pass_and_selection(vocab, 2, [])
        assert part.shape == (0, *full.shape[-2:])

    @staticmethod
    def nudged_model(n_layers):
        """A photosynthesis model whose weights, `ts_emb` included, are all
        nonzero, its statuses a mix of known-location and other rows, and its
        queries in stacks of one length."""
        proc = photosynthesis()
        model = TrackerModel.fresh(vocab_from_procedures([proc]), EncoderConfig(
            d_model=16, n_heads=2, n_layers=n_layers, d_ff=32, max_len=96), seed=5)
        rng = np.random.default_rng(1)
        for t in model.params.values():
            t.data += rng.normal(0, 0.3, t.data.shape)
        stacks = {}
        for entity in proc.entities:
            layout = model.layout_for(entity, proc)
            stacks.setdefault(len(layout.tokens), []).append(layout)
        return model, proc, list(stacks.values())

    @pytest.mark.parametrize("n_layers", [1, 2])
    def test_a_taped_pass_finishing_the_same_rows_gives_the_same_bits(
            self, n_layers):
        """A taped float32 `forward_steps` told to finish the rows a tape-free
        pass selected gives that pass's logits to the bit."""
        model, _, stacks = self.nudged_model(n_layers)
        copies = {k: ad.Tensor(t.data.astype(np.float32))
                  for k, t in model.params.items()}
        casts = {k: ad.cast(t, np.float32) for k, t in model.params.items()}
        finished = total = 0
        for layouts in stacks:
            free = [t.data for t in model.forward_steps(layouts, copies)]
            rows = np.flatnonzero(free[0].argmax(-1) == STATUS_KNOWN)
            taped = model.forward_steps(layouts, casts, rows=rows)
            for got, want in zip(taped, free):
                assert got.requires_grad and got.data.dtype == np.float32
                np.testing.assert_array_equal(got.data, want)
            finished, total = finished + len(rows), total + len(free[0])
        assert 0 < finished < total
        assert max(map(len, stacks)) > 1

    @pytest.mark.parametrize("n_layers", [1, 2])
    def test_a_taped_select_pass_has_the_full_pass_loss_and_gradients(
            self, n_layers):
        """On float64 parameters, the joint loss of status-first passes that
        finish the gold-span rows, and its gradients, are within 1e-12
        relative of a full pass's."""
        model, proc, _ = self.nudged_model(n_layers)
        params, cfg = model.params, model.config

        def loss(status_first):
            losses = []
            for entity in proc.entities:
                layout = model.layout_for(entity, proc)
                classes, rows, spans = targets(proc, [entity], layout)
                if status_first:
                    logits = model.forward_steps([layout], params, rows=rows)
                else:
                    inp = TimestampedInput(np.array(layout.token_ids)[None, None],
                                           time_ids(layout))
                    hidden = encode(embed(inp, params), params, cfg).hidden
                    start, end = span_head(hidden, params["head.start"],
                                           params["head.end"])
                    logits = (status_head(cls_rows(hidden), params["head.status"]),
                              ad.embedding(start, rows), ad.embedding(end, rows))
                losses.append(joint_loss(*logits, classes, spans))
            total = ad.mean_of(losses, len(losses))
            total.backward()
            grads = {k: t.grad for k, t in params.items()}
            for t in params.values():
                t.grad = None
            return float(total.data), grads

        got, got_grads = loss(True)
        want, want_grads = loss(False)
        assert got == pytest.approx(want, rel=1e-12, abs=0)
        for name, g in want_grads.items():
            np.testing.assert_allclose(got_grads[name], g, rtol=0,
                                       atol=1e-12 * np.abs(g).max(), err_msg=name)


def chain_attention(qkv, n_heads):
    """Attention as the separate tape ops the fused op replaced: a `reshape`
    and `transpose` split into heads, slices, `matmul(q, kᵀ)`, `scale`,
    `softmax`, `matmul(·, v)`, and a `transpose` and `reshape` merge. Taped
    passes, the only ones it stands in for, query from every position."""
    *lead, T, d3 = qkv.shape
    L, dh = len(lead), d3 // (3 * n_heads)
    heads = ad.transpose(ad.reshape(qkv, (*lead, T, n_heads, 3, dh)),
                         (L + 2, *range(L), L + 1, L, L + 3))
    q, k, v = (ad.slice_rows(heads, np.s_[i:i + 1]) for i in range(3))
    probs = ad.softmax(ad.scale(ad.matmul(q, ad.transpose(k)), 1.0 / np.sqrt(dh)),
                       axis=-1)
    out = ad.reshape(ad.matmul(probs, v), (*lead, n_heads, T, dh))
    merged = ad.reshape(ad.transpose(out, (*range(L), L + 1, L, L + 2)),
                        (*lead, T, d3 // 3))
    return merged, probs.data[0]


class TestFusedAttention:
    def taped_entity_pass(self, vocab, cfg, seed=12):
        """A batch of every step of one query with every weight nonzero, and
        the logits of both heads on one tape."""
        layout = build_query("water", SENTS, vocab)
        steps = TimestampedInput(layout.token_ids, time_ids(layout))
        rng = np.random.default_rng(seed)
        params = init_encoder_params(cfg, rng)
        for t in params.values():
            t.data += rng.normal(0, 0.3, t.data.shape)
        out = encode(embed(steps, params), params, cfg)
        status = status_head(cls_rows(out.hidden), params["head.status"])
        start, end = span_head(out.hidden, params["head.start"], params["head.end"])
        return params, out, (status, start, end)

    def run(self, vocab, cfg):
        params, out, logits = self.taped_entity_pass(vocab, cfg)
        assert np.all(params["ts_emb"].data != 0.0)
        loss = ad.mean_of([ad.cross_entropy(logits[0], np.arange(4) % 3),
                           ad.cross_entropy(logits[1], np.arange(4) + 4),
                           ad.cross_entropy(logits[2], np.arange(4) + 5)], 3)
        loss.backward()
        return ([out.hidden.data, *(t.data for t in logits),
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
        _, _, logits = self.taped_entity_pass(vocab, EncoderConfig(
            d_model=8, n_heads=2, n_layers=2, d_ff=16, vocab_size=len(vocab),
            max_len=32))
        # embed: three lookups and one add. Per layer: ln1, the qkv matmul,
        # attention (split, heads and merge), the out matmul with its bias,
        # residual add, ln2, and the feed-forward matmul with bias, gelu,
        # matmul with bias and residual add. Then the final layer norm, the
        # [CLS] slice that `cls_rows` takes, and the heads: a matmul each and
        # three reshapes.
        assert tape_ops(*logits) == {
            "embedding": 3, "add": 1 + 2 * 2, "layer_norm": 2 * 2 + 1,
            "matmul": 2 * 4 + 3, "attention": 2, "gelu": 2, "slice_rows": 1,
            "reshape": 3}
        assert sum(tape_ops(*logits).values()) == 32


class TestEndToEndGradient:
    def test_finite_difference_through_embed_encode_heads(self, vocab):
        cfg = tiny_config(vocab)
        rng = np.random.default_rng(10)
        params = init_encoder_params(cfg, rng)
        params["ts_emb"].data[:] = rng.normal(0, 0.3, (4, 8))
        # At the 0.02 init the k gradients are ~2e-5, below what central
        # differences resolve at this tolerance.
        params["layer0.attn.qkv"].data[:] = rng.normal(0, 0.3, (8, 24))
        inp = make_input(vocab, 2)

        def loss():
            hidden = encode(embed(inp, params), params, cfg).hidden
            status = status_head(cls_rows(hidden), params["head.status"])
            start, end = span_head(hidden, params["head.start"], params["head.end"])
            # One unbatched step: the heads give one row of each.
            return joint_loss(status, start, end, [STATUS_KNOWN], [(7, 8)])

        checked = [params[k] for k in
                   ["ts_emb", "token_emb", "layer0.attn.qkv", "layer0.ff.w1",
                    "layer0.ln1.gain", "head.status", "head.start"]]
        check_gradients(loss, checked)
