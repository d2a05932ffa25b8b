import json

import numpy as np
import pytest

from proctrack import autodiff as ad
from proctrack.autodiff import SgdConfig, Tensor
from proctrack.data import DataError, GrammarConfig, Procedure, generate_synthetic
from proctrack.encoder import EncoderConfig
from proctrack.fixtures import photosynthesis
from proctrack.heads import STATUS_KNOWN, joint_loss
from proctrack.inference import violates_rules
from proctrack.model import TrackerModel, vocab_from_procedures
from proctrack.train import TrainingDiverged, status_accuracy, train_model


@pytest.fixture(scope="module")
def procs():
    return generate_synthetic(17, 3, GrammarConfig(min_steps=2, max_steps=3))


@pytest.fixture(scope="module")
def model(procs):
    cfg = EncoderConfig(d_model=16, n_heads=2, n_layers=1, d_ff=32, max_len=96)
    return TrackerModel.fresh(vocab_from_procedures(procs), cfg, seed=5)


class TestForward:
    def test_probability_outputs(self, model, procs):
        proc = procs[0]
        layout = model.layout_for(proc.entities[0], proc)
        status, span = model.forward(layout, 1)
        assert status.probs.sum() == pytest.approx(1.0, abs=1e-9)
        assert span.start_probs.sum() == pytest.approx(1.0, abs=1e-9)
        assert len(span.start_probs) == len(layout)

    def test_gold_steps_alignment(self, model):
        proc = photosynthesis()
        layout = model.layout_for("water", proc)
        golds, unaligned = model.gold_steps(proc, "water", layout)
        assert len(golds) == proc.n_steps + 1
        # state 0 "soil" resolves; state 1 "root" does not (text says "roots")
        assert golds[0].status_class == STATUS_KNOWN and golds[0].span is not None
        assert golds[1].span is None
        assert unaligned == 1
        s, e = golds[0].span
        assert layout.tokens[s:e + 1] == ("soil",)

    def test_step_batch_is_tape_free_and_matches_single_steps(self, model, procs):
        params = {k: Tensor(t.data.copy(), requires_grad=True)
                  for k, t in model.params.items()}
        params["ts_emb"].data[:] = np.random.default_rng(2).normal(0, 0.5, (4, 16))
        model = TrackerModel(model.vocab, model.config, params)
        proc = procs[0]
        layout = model.layout_for(proc.entities[0], proc)
        statuses, spans = model.forward_steps(layout)
        for t in (statuses.logits_t, spans.start_t, spans.end_t):
            assert t._backward is None and t._parents == ()
            assert not t.requires_grad
        for step in range(proc.n_steps + 1):
            status, span = model.forward(layout, step)
            np.testing.assert_allclose(statuses.row(step).logits_t.data,
                                       status.logits_t.data, rtol=0, atol=1e-12)
            np.testing.assert_allclose(spans.row(step).start_t.data,
                                       span.start_t.data, rtol=0, atol=1e-12)
            np.testing.assert_allclose(spans.row(step).end_t.data,
                                       span.end_t.data, rtol=0, atol=1e-12)

    def test_prediction_leaves_no_gradients(self, model, procs):
        model.predict_procedure(procs[0])
        assert all(p.grad is None for p in model.params.values())

    def test_procedure_loss_positive_scalar(self, model, procs):
        loss = model.procedure_loss(procs[0], train=False)
        assert loss.data.shape == ()
        assert float(loss.data) > 0


class TestBatchedLoss:
    """`procedure_loss` runs each entity's steps as one batch; the oracle runs
    one pass per (entity, step) and averages the per-pass losses."""

    @pytest.fixture
    def nudged(self):
        """A model whose weights, `ts_emb` included, are all nonzero."""
        cfg = EncoderConfig(d_model=16, n_heads=2, n_layers=2, d_ff=32, max_len=96)
        model = TrackerModel.fresh(vocab_from_procedures([photosynthesis()]),
                                   cfg, seed=5)
        rng = np.random.default_rng(4)
        for t in model.params.values():
            t.data += rng.normal(0, 0.3, t.data.shape)
        return model

    @staticmethod
    def loss_and_grads(model, build_loss):
        loss = build_loss()
        loss.backward()
        grads = {k: t.grad for k, t in model.params.items()}
        for t in model.params.values():
            t.grad = None
        return float(loss.data), grads

    def per_pass_loss(self, model, proc):
        losses = []
        for entity in proc.entities:
            layout = model.layout_for(entity, proc)
            golds, _ = model.gold_steps(proc, entity, layout)
            for step, gold in enumerate(golds):
                status, span = model.forward(layout, step)
                losses.append(joint_loss(status, span, gold))
        return ad.mean_of(losses)

    def test_matches_per_pass_oracle(self, nudged):
        proc = photosynthesis()  # all three statuses; water's "root" unaligned
        assert np.any(nudged.params["ts_emb"].data != 0)
        assert {g.status_class for e in proc.entities for g in nudged.gold_steps(
            proc, e, nudged.layout_for(e, proc))[0]} == {0, 1, 2}
        batched, got = self.loss_and_grads(
            nudged, lambda: nudged.procedure_loss(proc, train=False))
        oracle, want = self.loss_and_grads(
            nudged, lambda: self.per_pass_loss(nudged, proc))
        assert batched == pytest.approx(oracle, rel=0, abs=1e-12)
        assert want.keys() == got.keys()
        for name, g in want.items():
            assert g is not None, name
            np.testing.assert_allclose(got[name], g, rtol=0, atol=1e-12,
                                       err_msg=name)

    def test_dropout_training_repeats_under_a_seed(self, procs):
        cfg = EncoderConfig(d_model=16, n_heads=2, n_layers=1, d_ff=32,
                            max_len=96, dropout=0.2)
        runs = []
        for _ in range(2):
            m = TrackerModel.fresh(vocab_from_procedures(procs), cfg, seed=1)
            result = train_model(m, procs, SgdConfig(learning_rate=0.1),
                                 epochs=2, seed=7)
            runs.append((result.epoch_losses, m.params))
        (losses_a, params_a), (losses_b, params_b) = runs
        assert losses_a == losses_b
        for name, t in params_a.items():
            assert np.array_equal(t.data, params_b[name].data), name


class TestGoldSpanResolution:
    # Paragraph: the water flows | to the leaf | near the leaf
    PROC = Procedure(id="p", sentences=[["the", "water", "flows"],
                                        ["to", "the", "leaf"],
                                        ["near", "the", "leaf"]],
                     entities=["water"],
                     grid={"water": ["the leaf", "water", "root", ""]})

    def golds(self, model):
        layout = model.layout_for("water", self.PROC)
        golds, unaligned = model.gold_steps(self.PROC, "water", layout)
        return golds, unaligned, layout.layout_pos_of_paragraph()

    def test_first_occurrence_wins(self, model):
        golds, _, g2l = self.golds(model)
        assert golds[0].span == (g2l[4], g2l[5])

    def test_single_token(self, model):
        golds, _, g2l = self.golds(model)
        assert golds[1].span == (g2l[1], g2l[1])

    def test_absent_returns_none(self, model):
        golds, unaligned, _ = self.golds(model)
        assert golds[2].span is None  # absent location
        assert golds[3].span is None  # empty location
        assert unaligned == 2


class TestPredict:
    def test_timeline_shape_and_domain(self, model, procs):
        for proc in procs:
            timelines, stats = model.predict_procedure(proc)
            for e in proc.entities:
                assert len(timelines[e]) == proc.n_steps + 1
                for v in timelines[e]:
                    assert v == "-" or v == "?" or isinstance(v, str)

    def test_repaired_predictions_satisfy_rules(self, model, procs):
        for proc in procs:
            timelines, _ = model.predict_procedure(proc, repair=True)
            for tl in timelines.values():
                assert not violates_rules(tl)

    def test_known_predictions_are_candidate_texts(self, model, procs):
        for proc in procs:
            candidate_texts = {proc.span_text(s, e) for s, e in proc.candidate_spans}
            timelines, _ = model.predict_procedure(proc, repair=False)
            for tl in timelines.values():
                for v in tl:
                    if v not in ("-", "?"):
                        assert v in candidate_texts

    def test_deterministic(self, model, procs):
        a, _ = model.predict_procedure(procs[0])
        b, _ = model.predict_procedure(procs[0])
        assert a == b


class TestPersistence:
    def test_save_load_round_trip(self, model, procs, tmp_path):
        model.save(tmp_path / "ckpt")
        loaded = TrackerModel.load(tmp_path / "ckpt")
        assert loaded.config == model.config
        for name, p in model.params.items():
            assert np.array_equal(loaded.params[name].data, p.data)
        a, _ = model.predict_procedure(procs[0])
        b, _ = loaded.predict_procedure(procs[0])
        assert a == b

    def test_failed_save_keeps_previous_checkpoint(self, model, procs, tmp_path,
                                                   monkeypatch):
        ckpt = tmp_path / "ckpt"
        model.save(ckpt)
        before = {f.name: f.read_bytes() for f in ckpt.iterdir()}
        changed = TrackerModel(model.vocab, model.config,
                               {k: Tensor(t.data + 1.0) for k, t in model.params.items()})

        def dump_half_then_fail(obj, f):
            f.write(json.dumps(obj)[:100])
            raise OSError("disk full")

        monkeypatch.setattr(ad.json, "dump", dump_half_then_fail)
        with pytest.raises(OSError, match="disk full"):
            changed.save(ckpt)
        monkeypatch.undo()
        assert {f.name: f.read_bytes() for f in ckpt.iterdir()} == before
        loaded = TrackerModel.load(ckpt)
        for name, p in model.params.items():
            assert np.array_equal(loaded.params[name].data, p.data)

    def test_vocab_mismatch_rejected(self, model, tmp_path):
        model.save(tmp_path / "ckpt")
        import json
        vpath = tmp_path / "ckpt" / "vocab.json"
        vocab = json.loads(vpath.read_text())
        vocab["extra_token"] = len(vocab)
        vpath.write_text(json.dumps(vocab))
        with pytest.raises(ValueError, match="vocab"):
            TrackerModel.load(tmp_path / "ckpt")

    def test_tensor_shape_checked_against_config(self, model, tmp_path):
        model.save(tmp_path / "ckpt")
        ppath = tmp_path / "ckpt" / "params.json"
        blob = json.loads(ppath.read_text())
        blob["head.status"] = {"shape": [16, 4], "data": [0.0] * 64}
        blob["head.extra"] = {"shape": [1], "data": [0.0]}
        del blob["final_ln.bias"]
        ppath.write_text(json.dumps(blob))
        with pytest.raises(DataError) as err:
            TrackerModel.load(tmp_path / "ckpt")
        for part in ("final_ln.bias: found nothing, expected (16,)",
                     "head.extra: found (1,), expected nothing",
                     "head.status: found (16, 4), expected (16, 3)"):
            assert part in str(err.value)

    def test_load_draws_no_fresh_model(self, model, tmp_path, monkeypatch):
        model.save(tmp_path / "ckpt")

        def refuse(*args, **kwargs):
            raise AssertionError("load must not draw a model")

        monkeypatch.setattr(TrackerModel, "fresh", refuse)
        loaded = TrackerModel.load(tmp_path / "ckpt")
        assert list(loaded.params) == list(model.params)
        for name, p in model.params.items():
            np.testing.assert_array_equal(loaded.params[name].data, p.data)

    def test_tensor_count_checked_before_shapes(self, model, tmp_path):
        model.save(tmp_path / "ckpt")
        cpath = tmp_path / "ckpt" / "config.json"
        cfg = json.loads(cpath.read_text())
        cfg["n_layers"] = 3
        cpath.write_text(json.dumps(cfg))
        with pytest.raises(DataError, match="holds 19 tensors, config.json "
                                            "implies 41"):
            TrackerModel.load(tmp_path / "ckpt")

    def test_unknown_config_key_is_data_error(self, model, tmp_path):
        model.save(tmp_path / "ckpt")
        cpath = tmp_path / "ckpt" / "config.json"
        cfg = json.loads(cpath.read_text())
        cfg["bogus"] = 1
        cpath.write_text(json.dumps(cfg))
        with pytest.raises(DataError, match="bogus"):
            TrackerModel.load(tmp_path / "ckpt")


class TestTraining:
    def test_one_procedure_one_epoch_one_step(self, procs):
        cfg = EncoderConfig(d_model=16, n_heads=2, n_layers=1, d_ff=32, max_len=96)
        m = TrackerModel.fresh(vocab_from_procedures(procs), cfg, seed=1)
        result = train_model(m, procs[:1], SgdConfig(learning_rate=0.01),
                             epochs=1)
        assert result.steps == 1

    def test_loss_decreases_over_epochs(self, procs):
        cfg = EncoderConfig(d_model=16, n_heads=2, n_layers=1, d_ff=32, max_len=96)
        m = TrackerModel.fresh(vocab_from_procedures(procs), cfg, seed=1)
        result = train_model(m, procs, SgdConfig(learning_rate=0.1),
                             epochs=30)
        assert result.epoch_losses[-1] < result.epoch_losses[0]

    def test_divergence_keeps_last_checkpoint(self, procs, tmp_path):
        cfg = EncoderConfig(d_model=16, n_heads=2, n_layers=1, d_ff=32, max_len=96)
        m = TrackerModel.fresh(vocab_from_procedures(procs), cfg, seed=1)
        ckpt = tmp_path / "ckpt"
        # poison the parameters after the first epoch's save
        calls = {"n": 0}
        orig = m.procedure_loss

        def wrapped(proc, train=True, rng=None):
            calls["n"] += 1
            if calls["n"] > len(procs):
                m.params["head.status"].data[:] = np.nan
            return orig(proc, train=train, rng=rng)

        m.procedure_loss = wrapped
        with pytest.raises(TrainingDiverged):
            train_model(m, procs, SgdConfig(learning_rate=0.01), epochs=3,
                        checkpoint_dir=ckpt)
        assert (ckpt / "params.json").exists()
        restored = TrackerModel.load(ckpt)
        assert all(np.all(np.isfinite(p.data)) for p in restored.params.values())

    def test_frozen_timestamps_stay_zero(self, procs):
        cfg = EncoderConfig(d_model=16, n_heads=2, n_layers=1, d_ff=32, max_len=96)
        m = TrackerModel.fresh(vocab_from_procedures(procs), cfg, seed=1)
        train_model(m, procs, SgdConfig(learning_rate=0.1), epochs=2,
                    freeze_timestamps=True)
        assert np.all(m.params["ts_emb"].data == 0.0)

    def test_unaligned_spans_counted_once_per_corpus(self, caplog):
        proc = photosynthesis()  # water's state 1 "root": the text has "roots"
        cfg = EncoderConfig(d_model=16, n_heads=2, n_layers=1, d_ff=32, max_len=96)
        m = TrackerModel.fresh(vocab_from_procedures([proc]), cfg, seed=1)
        with caplog.at_level("INFO", logger="proctrack.train"):
            result = train_model(m, [proc], SgdConfig(learning_rate=0.01),
                                 epochs=3)
        assert result.unaligned_spans == 1
        epoch_lines = [r.getMessage() for r in caplog.records
                       if r.getMessage().startswith("epoch ")]
        assert len(epoch_lines) == 3
        assert all("1 gold spans not in the paragraph" in line
                   for line in epoch_lines)

    def test_status_accuracy_bounds(self, model, procs):
        acc = status_accuracy(model, procs)
        assert 0.0 <= acc <= 1.0
