import hashlib
import importlib
import io
import json
import math
import os
import pkgutil
import sys
import threading
from dataclasses import asdict, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import proctrack
from proctrack import autodiff as ad
from proctrack import model as model_module
from proctrack.autodiff import SgdConfig, Tensor
from proctrack.data import DataError, GrammarConfig, Procedure, generate_synthetic
from proctrack.encoder import EncoderConfig, embed, encode
from proctrack.fixtures import photosynthesis
from proctrack.heads import (
    STATUS_KNOWN, joint_loss, span_head, status_class_of, status_head,
)
from proctrack.inference import decode_step, repair_timeline, violates_rules
from proctrack.inputs import TimestampedInput, time_ids, timestamp
from proctrack.model import (
    STACK_SCORES, TrackerModel, targets, vocab_from_procedures,
)
from proctrack.tokenizer import RESERVED, SEP, UNK, build_vocab
from proctrack.train import status_accuracy, train_model

from conftest import cls_rows, see_cpus, stacks_side_by_side, tape_ops


def forward(model, layout, step):
    """Status, start and end logits, one row each, of one taped pass for one
    step."""
    params = model.params
    hidden = encode(embed(timestamp(layout, step), params), params,
                    model.config).hidden
    return (status_head(cls_rows(hidden), params["head.status"]),
            *span_head(hidden, params["head.start"], params["head.end"]))


def full_pass(model, layouts, params):
    """Status, start and end logits of every row (layout, step 0..n) from
    `encode` with no selector and the heads: every layer at every position,
    the pass a status-first prediction is checked against."""
    tokens = np.array([layout.token_ids for layout in layouts])[:, None]
    inp = TimestampedInput(tokens, time_ids(layouts[0]))
    hidden = encode(embed(inp, params), params, model.config).hidden
    return tuple(t.data for t in (
        status_head(cls_rows(hidden), params["head.status"]),
        *span_head(hidden, params["head.start"], params["head.end"])))


def known_rows(status):
    return np.flatnonzero(status.argmax(-1) == STATUS_KNOWN)


def float32_params(model):
    return {k: Tensor(t.data.astype(np.float32)) for k, t in model.params.items()}


def views(params):
    """Tensors on the same float64 arrays that need no gradient."""
    return {k: Tensor(t.data) for k, t in params.items()}


def redraw_matrices(model, seed=0):
    """Draw every matrix of `model` from N(0, 0.5), as the benchmark's
    checkpoints are drawn, so that its logits and decisions vary as theirs
    do."""
    rng = np.random.default_rng(seed)
    for t in model.params.values():
        if t.data.ndim == 2:
            t.data[...] = rng.normal(0.0, 0.5, t.data.shape)
    return model


def stacks(model, proc):
    """The layouts of `proc`'s entities, in lists of one length."""
    by_length = {}
    for entity in proc.entities:
        layout = model.layout_for(entity, proc)
        by_length.setdefault(len(layout.tokens), []).append(layout)
    return list(by_length.values())


def edit_header(ckpt, edit):
    """Apply `edit` to the JSON header of the params.bin in `ckpt`."""
    path = ckpt / "params.bin"
    head, body = path.read_bytes().split(b"\n", 1)
    header = json.loads(head)
    edit(header)
    path.write_bytes(json.dumps(header).encode() + b"\n" + body)


def unaligned(classes, rows):
    """Known-location steps whose text is not in the paragraph: the known rows
    of `targets` less its span rows."""
    return classes.count(STATUS_KNOWN) - len(rows)


@pytest.fixture(scope="module")
def procs():
    return generate_synthetic(17, 3, GrammarConfig(min_steps=2, max_steps=3))


@pytest.fixture(scope="module")
def model(procs):
    cfg = EncoderConfig(d_model=16, n_heads=2, n_layers=1, d_ff=32, max_len=96)
    return TrackerModel.fresh(vocab_from_procedures(procs), cfg, seed=5)


class TestVocabFromProcedures:
    def test_question_tokens_are_in_the_vocabulary(self):
        """The vocabulary takes an entity's question tokens from the helper
        `build_query` uses, so none of them encodes as [UNK]."""
        entities = ["CO2", "salt.", "Water; liquid"]
        proc = Procedure(id="p", sentences=[["co2", "and", "salt", "mix", "."]],
                         entities=entities, grid={e: ["?", "?"] for e in entities})
        cfg = EncoderConfig(d_model=16, n_heads=2, n_layers=1, d_ff=32, max_len=96)
        m = TrackerModel.fresh(vocab_from_procedures([proc]), cfg, seed=1)
        for e in entities:
            layout = m.layout_for(e, proc)
            assert RESERVED[UNK] not in layout.token_ids, layout.tokens


class TestForward:
    def test_probability_outputs(self, model, procs):
        proc = procs[0]
        layout = model.layout_for(proc.entities[0], proc)
        status, start, end = (ad.softmax_array(t.data)
                              for t in forward(model, layout, 1))
        assert status.sum() == pytest.approx(1.0, abs=1e-9)
        assert start.sum() == pytest.approx(1.0, abs=1e-9)
        assert start.shape == (1, len(layout.tokens))

    def test_targets_alignment(self, model):
        proc = photosynthesis()
        layout = model.layout_for("water", proc)
        classes, rows, spans = targets(proc, ["water"], layout)
        assert len(classes) == proc.n_steps + 1
        # state 0 "soil" resolves; state 1 "root" does not (text says "roots")
        assert classes[0] == STATUS_KNOWN and rows[0] == 0
        assert 1 not in rows
        assert unaligned(classes, rows) == 1
        s, e = spans[0]
        assert layout.tokens[s:e + 1] == ("soil",)

    def test_step_batch_is_tape_free_and_matches_single_steps(self, model, procs):
        params = {k: Tensor(t.data.copy(), requires_grad=True)
                  for k, t in model.params.items()}
        # Every matrix, ts_emb too, redrawn so that the steps differ and
        # their statuses mix known-location and other rows.
        model = redraw_matrices(TrackerModel(model.vocab, model.config, params),
                                seed=2)
        proc = procs[0]
        layout = model.layout_for(proc.entities[0], proc)
        batched = model.forward_steps([layout], views(model.params))
        for t in batched:
            assert t._backward is None and t._parents == ()
            assert not t.requires_grad
        status, start, end = (t.data for t in batched)
        assert len(status) == proc.n_steps + 1
        known = known_rows(status)
        assert 0 < len(known) < len(status)
        assert len(start) == len(end) == len(known)
        alone = [forward(model, layout, step) for step in range(len(status))]
        for step, logits in enumerate(alone):
            assert len(logits) == len(batched) == 3
            np.testing.assert_allclose(status[step:step + 1], logits[0].data,
                                       rtol=0, atol=1e-12)
        for row, step in enumerate(known):
            for got, want in zip((start, end), alone[step][1:]):
                np.testing.assert_allclose(got[row:row + 1], want.data,
                                           rtol=0, atol=1e-12)

    def test_float32_steps_match_float64_within_bound(self, procs):
        """The float32 pass prediction runs stays within 1e-4 of the full
        float64 pass in every logit it computes (8.1e-5 was the largest
        difference over the benchmark's corpora, with logits up to 10.3 in
        size), on a model of the benchmark's shape and weight scale."""
        model = redraw_matrices(TrackerModel.fresh(
            vocab_from_procedures(procs), EncoderConfig(max_len=96), seed=5))
        single = float32_params(model)
        double = views(model.params)
        for proc in procs:
            for layouts in stacks(model, proc):
                got = [t.data for t in model.forward_steps(layouts, single)]
                want = full_pass(model, layouts, double)
                known = known_rows(got[0])
                for g, w in zip(got, (want[0], *(w[known] for w in want[1:]))):
                    assert g.dtype == np.float32 and w.dtype == np.float64
                    np.testing.assert_allclose(g, w, rtol=0, atol=1e-4)

    def test_prediction_leaves_no_gradients(self, model, procs):
        model.predict_procedure(procs[0])
        assert all(p.grad is None for p in model.params.values())
        assert all(p.data.dtype == np.float64 for p in model.params.values())

    def test_procedure_loss_positive_scalar(self, model, procs):
        loss = model.procedure_loss(procs[0])
        assert loss.data.shape == ()
        assert float(loss.data) > 0


class TestBatchedLoss:
    """Training runs each of `stacks(proc)` as one status-first batch; the
    oracle runs one full pass per (entity, step) and averages the per-pass
    losses, in float64."""

    # "carbon dioxide" queries a token longer than "water": two stacks.
    MIXED = Procedure(
        id="mixed", sentences=[["water", "and", "carbon", "dioxide", "enter",
                                "the", "leaf", "."], ["the", "leaf", "makes",
                                                      "sugar", "."]],
        entities=["water", "carbon dioxide"],
        grid={"water": ["?", "leaf", "-"], "carbon dioxide": ["-", "?", "leaf"]})

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
            classes, rows, spans = targets(proc, [entity], layout)
            span_of = dict(zip(rows, spans))
            for step, status_class in enumerate(classes):
                status, start, end = forward(model, layout, step)
                span = [span_of[step]] if step in span_of else []
                n = len(span)  # the span row, if the step has a span
                losses.append(joint_loss(status, ad.slice_rows(start, np.s_[:n]),
                                         ad.slice_rows(end, np.s_[:n]),
                                         [status_class], span))
        return ad.mean_of(losses, len(losses))

    @staticmethod
    def batched_loss(model, proc):
        """`procedure_loss` as it runs, one batched pass per stack, but on
        the float64 parameters themselves."""
        losses = []
        for entities, layouts in model.stacks(proc):
            classes, rows, spans = targets(proc, entities, layouts[0])
            losses.append(joint_loss(*model.forward_steps(
                layouts, model.params, rows=rows), classes, spans))
        return ad.mean_of(losses, len(proc.entities) * (proc.n_steps + 1))

    def test_matches_per_pass_oracle(self, nudged):
        proc = photosynthesis()  # all three statuses; water's "root" unaligned
        assert np.any(nudged.params["ts_emb"].data != 0)
        # one taped stack of all five entities
        assert [len(e) for e, _ in nudged.stacks(proc)] == [len(proc.entities)]
        assert {c for entities, layouts in nudged.stacks(proc)
                for c in targets(proc, entities, layouts[0])[0]} == {0, 1, 2}
        batched, got = self.loss_and_grads(
            nudged, lambda: self.batched_loss(nudged, proc))
        oracle, want = self.loss_and_grads(
            nudged, lambda: self.per_pass_loss(nudged, proc))
        assert batched == pytest.approx(oracle, rel=0, abs=1e-12)
        assert want.keys() == got.keys()
        for name, g in want.items():
            assert g is not None, name
            np.testing.assert_allclose(got[name], g, rtol=0, atol=1e-12,
                                       err_msg=name)

    def test_float32_training_within_bound_of_float64_oracle(self, nudged,
                                                             procs):
        """`procedure_loss` computes in float32. Its loss is within 1e-6
        relative of the float64 oracle's, and each parameter's gradient
        within 1e-5 of that gradient's largest magnitude (the worst seen:
        8.3e-8 and 1.0e-6 on photosynthesis, 1.6e-9 and 1.3e-6 on MIXED,
        1.4e-7 and 2.2e-6 on the benchmark's 20-procedure training corpus at
        seed 1)."""
        fresh = TrackerModel.fresh(vocab_from_procedures(procs),
                                   EncoderConfig(max_len=96), seed=1)
        assert len(list(nudged.stacks(self.MIXED))) == 2
        for model, corpus in ((nudged, [photosynthesis(), self.MIXED]),
                              (fresh, procs)):
            for proc in corpus:
                loss, got = self.loss_and_grads(
                    model, lambda: model.procedure_loss(proc))
                oracle, want = self.loss_and_grads(
                    model, lambda: self.per_pass_loss(model, proc))
                assert loss == pytest.approx(oracle, rel=1e-6, abs=0)
                assert want.keys() == got.keys()
                for name, g in want.items():
                    assert g is not None, name
                    assert got[name].dtype == np.float64, name
                    np.testing.assert_allclose(got[name], g, rtol=0,
                                               atol=1e-5 * np.abs(g).max(),
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

    def spans(self, model):
        """{row: span} of the water rows with a span, the unaligned count and
        the paragraph's layout positions."""
        layout = model.layout_for("water", self.PROC)
        classes, rows, spans = targets(self.PROC, ["water"], layout)
        return dict(zip(rows, spans)), unaligned(classes, rows), layout.paragraph_pos

    def test_first_occurrence_wins(self, model):
        spans, _, pos = self.spans(model)
        assert spans[0] == (pos[4], pos[5])

    def test_single_token(self, model):
        spans, _, pos = self.spans(model)
        assert spans[1] == (pos[1], pos[1])

    def test_absent_has_no_span_row(self, model):
        spans, unaligned, _ = self.spans(model)
        assert 2 not in spans  # absent location
        assert 3 not in spans  # empty location
        assert unaligned == 2

    def test_span_rows_are_the_known_rows_whose_text_occurs(self, model):
        """Over a stack of several entities, rows run entity by entity, step
        0..n; a row has a span when it is a known location whose text is in
        the paragraph, and its span reads that text back from the layout."""
        proc = photosynthesis()  # all three statuses; water's "root" unaligned
        (entities, layouts), = model.stacks(proc)
        values = [v for e in entities for v in proc.grid[e]]
        classes, rows, spans = targets(proc, entities, layouts[0])
        assert classes == [status_class_of(v) for v in values]
        assert rows == [i for i, v in enumerate(values)
                        if status_class_of(v) == STATUS_KNOWN and v != "root"]
        assert len(rows) < classes.count(STATUS_KNOWN)
        tokens = layouts[0].tokens
        assert [tokens[s:e + 1] for s, e in spans] == [(values[i],) for i in rows]


class TestPredict:
    def test_timeline_shape_and_domain(self, model, procs):
        for proc in procs:
            timelines, stats = model.predict_procedure(proc)
            for e in proc.entities:
                assert len(timelines[e]) == proc.n_steps + 1
                for v in timelines[e]:
                    assert v == "-" or v == "?" or isinstance(v, str)

    def test_a_procedure_with_no_entities_has_no_timelines(self, model):
        """The Python API takes a procedure the loaders would reject: no
        entities means no stacks, no threads and nothing flagged."""
        proc = Procedure(id="x", sentences=[["a", "b", "."]], entities=[], grid={})
        for np_filter in (True, False):
            assert model.predict_procedure(proc, np_filter) == (
                {}, {"flagged": 0, "rule_violations": 0})

    def test_repaired_predictions_satisfy_rules(self, model, procs):
        for proc in procs:
            timelines, _ = model.predict_procedure(proc, repair=True)
            for tl in timelines.values():
                assert not violates_rules(tl)

    def test_known_predictions_are_candidate_texts(self, model, procs):
        for proc in procs:
            para = proc.paragraph
            candidate_texts = {" ".join(para[s:e + 1])
                               for s, e in proc.candidate_spans}
            timelines, _ = model.predict_procedure(proc, repair=False)
            for tl in timelines.values():
                for v in tl:
                    if v not in ("-", "?"):
                        assert v in candidate_texts

    def test_deterministic(self, model, procs):
        a, _ = model.predict_procedure(procs[0])
        b, _ = model.predict_procedure(procs[0])
        assert a == b


def one_entity_prediction(model, proc, entity, params, np_filter, repair):
    """(timeline, flagged, violations) of `entity` from a full pass of its
    own, decoded alone."""
    layout = model.layout_for(entity, proc)
    status, start, end = full_pass(model, [layout], params)
    known = known_rows(status)
    states, flagged = decode_step(
        status, start[known], end[known],
        proc.candidate_spans if np_filter else None, layout.paragraph_pos)
    raw = [v if isinstance(v, str) else " ".join(proc.paragraph[v[0]:v[1] + 1])
           for v in states]
    return (repair_timeline(raw) if repair else raw), flagged, int(violates_rules(raw))


class TestStackedPrediction:
    """`predict_procedure` stacks the entities whose queries have one length
    into one pass; the oracle runs and decodes each entity alone."""

    # "water; liquid" queries as "water": a stack of three with "sugar",
    # beside a longer "carbon dioxide" of its own.
    PROC = Procedure(
        id="p", sentences=[["water", "and", "carbon", "dioxide", "enter", "the",
                            "leaf", "."], ["the", "leaf", "makes", "sugar", "."],
                           ["sugar", "moves", "to", "the", "root", "."]],
        entities=["water", "carbon dioxide", "water; liquid", "sugar"],
        grid={"water": ["soil", "leaf", "-", "-"],
              "carbon dioxide": ["?", "leaf", "-", "-"],
              "water; liquid": ["-", "leaf", "leaf", "root"],
              "sugar": ["-", "-", "leaf", "root"]})

    @staticmethod
    def bench_like(procs, max_len=96, seed=0):
        """A model of the benchmark's shape and weight scale, so that its
        decisions mix statuses and spans (on PROC with seed 7, in every
        mode, with "water" and "sugar" decoded differently)."""
        return redraw_matrices(TrackerModel.fresh(
            vocab_from_procedures(procs), EncoderConfig(max_len=max_len), seed=5),
            seed)

    @staticmethod
    def count_encodes(monkeypatch):
        calls = []
        encode = model_module.encode
        monkeypatch.setattr(model_module, "encode",
                            lambda *a, **k: calls.append(1) or encode(*a, **k))
        return calls

    def oracle(self, model, proc, np_filter, repair):
        params = float32_params(model)
        timelines, flagged, violations = {}, 0, 0
        for entity in proc.entities:
            timelines[entity], fl, vi = one_entity_prediction(
                model, proc, entity, params, np_filter, repair)
            flagged += fl
            violations += vi
        return timelines, {"flagged": flagged, "rule_violations": violations}

    def test_stacked_logits_equal_one_entity_passes(self):
        """Each entity's status rows, and the span rows of its known-location
        rows, are the same to the bit stacked as in a pass of its own."""
        model = self.bench_like([self.PROC], seed=7)
        params = float32_params(model)
        groups = stacks(model, self.PROC)
        assert [len(g) for g in groups] == [3, 1]
        assert len({len(g[0].tokens) for g in groups}) == 2
        rows = self.PROC.n_steps + 1
        for layouts in groups:
            status, start, end = (t.data for t in
                                  model.forward_steps(layouts, params))
            known = known_rows(status)
            for j, layout in enumerate(layouts):
                alone = [t.data for t in model.forward_steps([layout], params)]
                mine = (known >= j * rows) & (known < (j + 1) * rows)
                for got, want in zip((status[j * rows:(j + 1) * rows],
                                      start[mine], end[mine]), alone):
                    assert got.dtype == np.float32
                    assert np.array_equal(got, want)

    @pytest.mark.parametrize("np_filter", [True, False])
    @pytest.mark.parametrize("repair", [True, False])
    def test_timelines_match_one_entity_passes(self, monkeypatch, np_filter,
                                               repair):
        model = self.bench_like([self.PROC], seed=7)
        calls = self.count_encodes(monkeypatch)
        got = model.predict_procedure(self.PROC, np_filter=np_filter,
                                      repair=repair)
        assert len(calls) == 2  # one per stack
        assert got == self.oracle(model, self.PROC, np_filter, repair)
        assert list(got[0]) == self.PROC.entities

    def test_over_the_cap_runs_several_passes_with_the_same_timelines(
            self, monkeypatch):
        """One entity of 14 steps holds more than STACK_SCORES scores, so
        each runs alone; with no cap they all stack in one pass."""
        procs = generate_synthetic(3, 1, GrammarConfig(
            min_entities=3, max_entities=3, min_steps=14, max_steps=14))
        proc = procs[0]
        model = self.bench_like(procs, max_len=128, seed=5)
        (layouts,) = stacks(model, proc)
        assert (proc.n_steps + 1) * len(layouts[0].tokens) ** 2 > STACK_SCORES
        oracle = self.oracle(model, proc, True, True)
        calls = self.count_encodes(monkeypatch)
        capped = model.predict_procedure(proc)
        assert len(calls) == len(layouts) > 1
        assert capped == oracle
        monkeypatch.setattr(model_module, "STACK_SCORES", 10 ** 9)
        assert model.predict_procedure(proc) == capped
        assert len(calls) == len(layouts) + 1

    def test_a_small_procedure_runs_one_pass_per_stack(self, monkeypatch,
                                                       model, procs):
        calls = self.count_encodes(monkeypatch)
        for proc in procs:
            before = len(calls)
            model.predict_procedure(proc)
            assert len(calls) - before == len(stacks(model, proc))


class TestThreadedPrediction:
    """`predict_procedure` runs a procedure's stacks on up to one thread per
    CPU: a per-call pool takes them from the front, the caller from the back."""

    OVER_THE_CAP = generate_synthetic(3, 1, GrammarConfig(
        min_entities=3, max_entities=3, min_steps=14, max_steps=14))[0]
    # "zinc" and "carbon" each occur in one stack's queries alone: (water,
    # sugar, zinc) is the first stack, (carbon dioxide,) the last.
    TWO_STACKS = Procedure(
        id="p", sentences=[["water", "and", "gas", "enter", "the", "leaf", "."],
                           ["the", "leaf", "makes", "sugar", "."]],
        entities=["water", "carbon dioxide", "sugar", "zinc"],
        grid={e: ["?", "leaf", "leaf"]
              for e in ["water", "carbon dioxide", "sugar", "zinc"]})

    def two_stack_model(self):
        return TrackerModel.fresh(vocab_from_procedures([self.TWO_STACKS]),
                                  EncoderConfig(max_len=96), seed=5)

    @pytest.mark.parametrize("np_filter", [True, False])
    @pytest.mark.parametrize("repair", [True, False])
    def test_threads_give_the_one_thread_result_to_the_bit(
            self, monkeypatch, np_filter, repair):
        """One thread per stack, switching the GIL often, as one thread."""
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-5)
            for proc in (TestStackedPrediction.PROC, self.OVER_THE_CAP):
                model = TestStackedPrediction.bench_like([proc], max_len=128,
                                                         seed=7)
                n = len(list(model.stacks(proc)))
                see_cpus(monkeypatch, 1)
                oracle = model.predict_procedure(proc, np_filter=np_filter,
                                                 repair=repair)
                see_cpus(monkeypatch, n)
                calls = stacks_side_by_side(monkeypatch, n)
                assert model.predict_procedure(proc, np_filter=np_filter,
                                               repair=repair) == oracle
                assert len({thread for thread, _ in calls}) == n > 1
                monkeypatch.undo()
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("cpu_count, threads", [(2, 2), (None, 1)])
    def test_cpus_without_sched_getaffinity_are_the_machines(
            self, monkeypatch, cpu_count, threads):
        """Where the OS has no `sched_getaffinity`, as on macOS and Windows,
        prediction threads over `os.cpu_count()`, or one CPU if unknown."""
        model = self.two_stack_model()
        oracle = model.predict_procedure(self.TWO_STACKS)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        calls = stacks_side_by_side(monkeypatch, threads)
        assert model.predict_procedure(self.TWO_STACKS) == oracle
        assert len({thread for thread, _ in calls}) == threads

    def test_one_stack_or_one_cpu_starts_no_thread(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("predict_procedure started a thread pool")

        monkeypatch.setattr(model_module, "ThreadPoolExecutor", refuse)
        monkeypatch.setattr(model_module, "THREAD_SCORES", 0)
        one_stack = replace(self.TWO_STACKS, entities=["water", "sugar", "zinc"])
        model = self.two_stack_model()
        for proc, n_cpus, n_stacks in ((one_stack, 4, 1), (self.TWO_STACKS, 1, 2)):
            see_cpus(monkeypatch, n_cpus)
            assert len(list(model.stacks(proc))) == n_stacks
            model.predict_procedure(proc)

    def test_only_stacks_over_thread_scores_run_on_threads(self, monkeypatch):
        """A procedure's stacks run on threads only when each holds more than
        THREAD_SCORES attention scores, (n+1)·E·T²."""
        model, proc = self.two_stack_model(), self.TWO_STACKS
        smallest = min((proc.n_steps + 1) * len(layouts) * len(layouts[0].tokens) ** 2
                       for _, layouts in model.stacks(proc))
        pools, pool = [], model_module.ThreadPoolExecutor
        monkeypatch.setattr(model_module, "ThreadPoolExecutor",
                            lambda n: pools.append(n) or pool(n))
        see_cpus(monkeypatch, 4)
        for limit, started in ((smallest, []), (smallest - 1, [1])):
            monkeypatch.setattr(model_module, "THREAD_SCORES", limit)
            pools.clear()
            model.predict_procedure(proc)
            assert pools == started

    def test_a_pass_failing_on_a_worker_raises_here_and_leaves_no_thread(
            self, monkeypatch):
        caller, workers = threading.current_thread(), []
        encode = model_module.encode

        class Failed(Exception):
            pass

        def failing(*args, **kwargs):
            if threading.current_thread() is not caller:
                workers.append(threading.current_thread())
                raise Failed
            return encode(*args, **kwargs)

        monkeypatch.setattr(model_module, "encode", failing)
        see_cpus(monkeypatch, 2)
        stacks_side_by_side(monkeypatch, 2)
        with pytest.raises(Failed):
            self.two_stack_model().predict_procedure(self.TWO_STACKS)
        assert workers and not any(thread.is_alive() for thread in workers)

    @pytest.mark.parametrize("token, on_worker", [("zinc", True),
                                                  ("carbon", False)])
    def test_an_overflow_in_one_stack_raises_under_errstate(self, monkeypatch,
                                                            token, on_worker):
        """numpy's error state is a context variable, which a pool thread
        does not inherit: the pool runs each stack in the caller's context."""
        model = self.two_stack_model()
        model.params["token_emb"].data[model.vocab.token_to_id[token]] = 3e38
        see_cpus(monkeypatch, 2)
        calls = stacks_side_by_side(monkeypatch, 2)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            model.predict_procedure(self.TWO_STACKS)
        (poisoned,) = [thread for thread, huge in calls if huge]
        assert (poisoned is not threading.current_thread()) == on_worker


class TestStacks:
    """`stacks` is the one grouping of a procedure's entities into passes,
    in training and prediction alike."""

    MODEL = TrackerModel(build_vocab([]), EncoderConfig(max_len=96), {})

    @given(entities=st.lists(
               st.lists(st.sampled_from(["co2", "water", "the", "leaf"]),
                        min_size=1, max_size=4).map(" ".join),
               min_size=1, max_size=8, unique=True),
           n_steps=st.integers(1, 6), cap=st.integers(1, 20000))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_each_entity_once_in_order_of_one_length_within_the_cap(
            self, entities, n_steps, cap):
        proc = Procedure(id="p", sentences=[["it", "moves", "."]] * n_steps,
                         entities=entities,
                         grid={e: ["?"] * (n_steps + 1) for e in entities})
        rows = n_steps + 1
        with mock.patch.object(model_module, "STACK_SCORES", cap):
            got = list(self.MODEL.stacks(proc))
        by_length = {}
        for names, layouts in got:
            assert len(names) == len(layouts) > 0
            # each entity whole, its own query in its stack
            assert list(layouts) == [self.MODEL.layout_for(e, proc) for e in names]
            (T,) = {len(layout.tokens) for layout in layouts}
            assert len(names) == 1 or len(names) * rows * T * T <= cap
            by_length.setdefault(T, []).append(names)
        assert sorted(e for names, _ in got for e in names) == sorted(entities)
        for T, runs in by_length.items():
            assert [e for names in runs for e in names] == [
                e for e in entities
                if len(self.MODEL.layout_for(e, proc).tokens) == T]
            # every stack but a length's last is full
            assert all((len(names) + 1) * rows * T * T > cap for names in runs[:-1])


class TestStatusFirst:
    """A tape-free `forward_steps` gives every row's status, then runs the
    last layer in full, and the span head, only for the rows whose status
    argmax is known-location."""

    PROC = TestStackedPrediction.PROC

    def bench_like(self, n_layers):
        procs = [self.PROC] + generate_synthetic(3, 4)
        return redraw_matrices(TrackerModel.fresh(
            vocab_from_procedures(procs),
            EncoderConfig(n_layers=n_layers, max_len=96), seed=5), 7)

    @pytest.mark.parametrize("n_layers", [1, 2])
    def test_decoded_span_logits_are_exact_and_status_within_1e_5(self,
                                                                  n_layers):
        model = self.bench_like(n_layers)
        params = float32_params(model)
        decoded = total = 0
        for proc in [self.PROC] + generate_synthetic(3, 4):
            for layouts in stacks(model, proc):
                status, start, end = (t.data for t in
                                      model.forward_steps(layouts, params))
                want = full_pass(model, layouts, params)
                np.testing.assert_allclose(status, want[0], rtol=0, atol=1e-5)
                known = known_rows(status)
                assert np.array_equal(known, known_rows(want[0]))
                assert np.array_equal(start, want[1][known])
                assert np.array_equal(end, want[2][known])
                decoded, total = decoded + len(known), total + len(status)
        assert 0 < decoded < total
        assert max(len(g) for g in stacks(model, self.PROC)) > 1

    @pytest.mark.parametrize("np_filter", [True, False])
    @pytest.mark.parametrize("repair", [True, False])
    def test_one_layer_timelines_match_one_entity_passes(self, np_filter, repair):
        model = self.bench_like(1)
        got = model.predict_procedure(self.PROC, np_filter=np_filter,
                                      repair=repair)
        assert got == TestStackedPrediction().oracle(model, self.PROC,
                                                      np_filter, repair)

    @pytest.mark.parametrize("n_layers", [1, 2])
    def test_rows_not_decoded_never_reach_the_span_head(self, monkeypatch,
                                                        n_layers):
        model = self.bench_like(n_layers)
        params = float32_params(model)
        rows = {}
        span_head = model_module.span_head

        def counted(hidden, *weights):
            # the stacks may run on several threads, in any order, but each
            # has a query length of its own
            rows[hidden.shape[-2]] = len(hidden.data.reshape(-1, *hidden.shape[-2:]))
            return span_head(hidden, *weights)

        monkeypatch.setattr(model_module, "span_head", counted)
        model.predict_procedure(self.PROC)
        known = {len(layouts[0].tokens):
                 len(known_rows(full_pass(model, layouts, params)[0]))
                 for layouts in stacks(model, self.PROC)}
        assert len(known) == 2
        assert rows == known
        assert sum(known.values()) < len(self.PROC.entities) * (self.PROC.n_steps + 1)


    @pytest.mark.parametrize("n_layers", [1, 2])
    def test_the_last_layer_projects_and_norms_each_row_once(self, monkeypatch,
                                                             n_layers):
        """The [CLS] query and the decoded rows share one LN1 and one qkv
        product of the last layer."""
        model = self.bench_like(n_layers)
        params = float32_params(model)
        last = f"layer{n_layers - 1}."
        named = {"attn.qkv": params[last + "attn.qkv"],
                 "ln1.gain": params[last + "ln1.gain"]}
        calls = []

        def counting(op):
            def run(x, weight, *rest):
                calls.extend(k for k, t in named.items() if t is weight)
                return op(x, weight, *rest)
            return run

        monkeypatch.setattr(ad, "matmul", counting(ad.matmul))
        monkeypatch.setattr(ad, "layer_norm", counting(ad.layer_norm))
        decoded = 0
        for layouts in stacks(model, self.PROC):
            calls.clear()
            decoded += len(model.forward_steps(layouts, params)[1].data)
            assert sorted(calls) == ["attn.qkv", "ln1.gain"]
        assert decoded > 0

    def test_a_negative_row_is_rejected(self, model, procs):
        """`rows` are flat indices over the pass's rows, so -1 names none,
        on a tape-free pass as on a taped one."""
        layout = model.layout_for(procs[0].entities[0], procs[0])
        for params in (float32_params(model), model.params):
            with pytest.raises(ValueError):
                model.forward_steps([layout], params, rows=[-1])

    def test_a_repeated_row_is_rejected(self, model, procs):
        """A taped pass would give a repeated row one gradient, not two."""
        layout = model.layout_for(procs[0].entities[0], procs[0])
        for params in (float32_params(model), model.params):
            with pytest.raises(ValueError, match="twice"):
                model.forward_steps([layout], params, rows=[1, 1])
            status, start, end = model.forward_steps([layout], params, rows=[])
            assert len(status.data) == procs[0].n_steps + 1
            assert len(start.data) == len(end.data) == 0


class TestOneForwardPass:
    """Training and prediction share `forward_steps`."""

    def test_procedure_loss_runs_one_forward_steps_call_per_stack(
            self, model, procs, monkeypatch):
        calls = []
        forward_steps = TrackerModel.forward_steps

        def counted(self, layouts, params, rng=None, rows=None):
            calls.append((layouts, params, rows))
            return forward_steps(self, layouts, params, rng, rows)

        monkeypatch.setattr(TrackerModel, "forward_steps", counted)
        sizes = []
        for proc in procs + [TestBatchedLoss.MIXED]:
            calls.clear()
            loss = model.procedure_loss(proc)
            stacked = list(model.stacks(proc))
            sizes.append([len(entities) for entities, _ in stacked])
            assert [layouts for layouts, _, _ in calls] == [
                layouts for _, layouts in stacked]
            # each pass finishes the span rows of its stack's targets
            assert [rows for _, _, rows in calls] == [
                targets(proc, entities, layouts[0])[1]
                for entities, layouts in stacked]
            casts = calls[0][1]  # one float32 cast per parameter, for every pass
            assert all(params is casts for _, params, _ in calls)
            assert casts.keys() == model.params.keys()
            for name, t in casts.items():
                assert t.data.dtype == np.float32, name
                assert t._parents == (model.params[name],), name
                np.testing.assert_array_equal(t.data, model.params[name].data.astype(
                    np.float32), err_msg=name)
            loss.backward()
            assert all(p.grad is not None for p in model.params.values())
            for p in model.params.values():
                p.grad = None
        # stacks of several entities, and a procedure of two stacks
        assert max(map(max, sizes)) > 1 and sizes[-1] == [1, 1]

    def test_a_taped_entity_pass_has_43_tape_nodes(self, procs):
        cfg = EncoderConfig(d_model=8, n_heads=2, n_layers=2, d_ff=16, max_len=96)
        m = TrackerModel.fresh(vocab_from_procedures(procs), cfg, seed=1)
        proc = procs[0]
        for entity in proc.entities:  # the first with a gold span
            layout = m.layout_for(entity, proc)
            classes, rows, spans = targets(proc, [entity], layout)
            if rows:
                break
        logits = m.forward_steps([layout], m.params, rows=rows)
        # embed: three lookups and one add. Layer 0: ln1, the qkv matmul,
        # attention and the 7 nodes after it (out matmul with bias, residual
        # add, ln2, matmul with bias, gelu, matmul with bias, residual add).
        # The last layer: ln1 and the qkv matmul once, then attention, the 7
        # nodes and the final layer norm twice, for the [CLS] query and for
        # the finished rows. The [CLS] query also slices the layer's input,
        # and the status head is a matmul and a reshape; the finished rows
        # are two row gathers, and the span head two matmuls and two
        # reshapes.
        assert tape_ops(*logits) == {
            "embedding": 3, "add": 1 + 3 * 2, "layer_norm": 2 + 3 + 2,
            "matmul": 2 + 3 * 3 + 1 + 2, "attention": 3, "gelu": 3,
            "slice_rows": 1 + 2, "reshape": 1 + 2}
        assert sum(tape_ops(*logits).values()) == 43
        # the loss: three cross-entropies summed by one add
        loss_ops = tape_ops(joint_loss(*logits, classes, spans))
        assert sum(loss_ops.values()) - 43 == 4
        assert loss_ops["cross_entropy"] == 3 and loss_ops["add"] == 7 + 1
        assert 0 < len(rows) < proc.n_steps + 1
        assert [t.shape[0] for t in logits] == [proc.n_steps + 1] + [len(rows)] * 2


class TestNoGoldSpan:
    """An entity with no gold-span row, every step gone or unknown or at a
    location whose text is not in the paragraph ("root", with "roots" in
    the text), is scored on its status alone."""

    PROC = Procedure(id="p", sentences=[["roots", "absorb", "water", "."],
                                        ["the", "water", "flows", "."]],
                     entities=["water", "co2"],
                     grid={"water": ["?", "root", "-"], "co2": ["-", "?", "?"]})

    @pytest.fixture
    def model(self):
        cfg = EncoderConfig(d_model=16, n_heads=2, n_layers=2, d_ff=32, max_len=96)
        model = TrackerModel.fresh(vocab_from_procedures([self.PROC]), cfg, seed=5)
        rng = np.random.default_rng(4)
        for t in model.params.values():
            t.data += rng.normal(0, 0.3, t.data.shape)
        return model

    def test_loss_is_the_status_cross_entropy_alone(self, model):
        want, passes = 0.0, 0
        for entity in self.PROC.entities:
            layout = model.layout_for(entity, self.PROC)
            classes, rows, spans = targets(self.PROC, [entity], layout)
            assert rows == spans == []
            status = full_pass(model, [layout], views(model.params))[0]
            want += float(ad.cross_entropy(Tensor(status), classes).data)
            passes += len(classes)
        loss = model.procedure_loss(self.PROC)
        assert float(loss.data) == pytest.approx(want / passes, rel=1e-6, abs=0)
        loss.backward()
        grads = {k: t.grad for k, t in model.params.items()}
        for t in model.params.values():
            t.grad = None
        assert grads["head.start"] is None and grads["head.end"] is None
        assert all(g is not None and np.any(g != 0) for k, g in grads.items()
                   if k not in ("head.start", "head.end")), grads.keys()

    def test_training_still_steps(self, model):
        before = {k: t.data.copy() for k, t in model.params.items()}
        result = train_model(model, [self.PROC], SgdConfig(learning_rate=0.1),
                             epochs=1)
        assert result.steps == 1 and result.unaligned_spans == 1
        moved = {k for k, t in model.params.items()
                 if not np.array_equal(t.data, before[k])}
        assert moved == model.params.keys() - {"head.start", "head.end"}


class TestAnswerText:
    """A decoded span is a run of paragraph words, read from the paragraph,
    so no [SEP] of the query reaches a prediction."""

    # "the leaf" straddles the two sentences.
    PROC = Procedure(id="p", sentences=[["water", "flows", "to", "the"],
                                        ["leaf", "."]],
                     entities=["water"], grid={"water": ["?", "the leaf", "-"]})

    @pytest.mark.parametrize("np_filter", [True, False])
    def test_a_span_across_sentences_reads_as_its_words(self, monkeypatch,
                                                        np_filter):
        model = TrackerModel.fresh(vocab_from_procedures([self.PROC]),
                                   EncoderConfig(max_len=96), seed=1)
        layout = model.layout_for("water", self.PROC)
        s, e = (layout.paragraph_pos[i] for i in (3, 4))
        assert layout.tokens[s:e + 1] == ("the", SEP, "leaf")
        assert self.PROC.candidate_spans == [(3, 4)]
        rows, T = self.PROC.n_steps + 1, len(layout.tokens)
        status = np.tile([0.0, 0.0, 5.0], (rows, 1))  # known at every step
        start, end = np.zeros((rows, T)), np.zeros((rows, T))
        start[:, s] = end[:, e] = 5.0
        monkeypatch.setattr(model, "forward_steps", lambda layouts, params: (
            Tensor(status), Tensor(start), Tensor(end)))
        timelines, stats = model.predict_procedure(self.PROC, np_filter=np_filter)
        assert timelines == {"water": ["the leaf"] * rows}
        assert stats == {"flagged": 0, "rule_violations": 0}

    def test_unfiltered_predictions_are_paragraph_words(self):
        procs = generate_synthetic(3, 6)
        model = TestStackedPrediction.bench_like(procs, seed=4)
        known = 0
        for proc in procs:
            para = proc.paragraph
            runs = {" ".join(para[i:j + 1]) for i in range(len(para))
                    for j in range(i, len(para))}
            timelines, _ = model.predict_procedure(proc, np_filter=False,
                                                   repair=False)
            for value in (v for tl in timelines.values() for v in tl):
                if value not in ("-", "?"):
                    known += 1
                    assert SEP not in value and value in runs, value
        assert known >= 20  # 21 of the 26 held a [SEP] when read from the query


class TestPersistence:
    def test_two_models_from_one_config_both_save_and_load(self, tmp_path):
        """`fresh` sizes a copy of the config: the second model's vocabulary
        does not reach the first's checkpoint."""
        cfg = EncoderConfig(d_model=8, n_heads=2, n_layers=1, d_ff=16)
        small = TrackerModel.fresh(vocab_from_procedures(generate_synthetic(1, 3)),
                                   cfg, 0)
        large = TrackerModel.fresh(vocab_from_procedures(generate_synthetic(2, 30)),
                                   cfg, 0)
        assert cfg.vocab_size == 0
        for name, m in (("small", small), ("large", large)):
            assert m.config.vocab_size == len(m.vocab)
            m.save(tmp_path / name)
            assert TrackerModel.load(tmp_path / name).config == m.config

    def test_save_load_round_trip(self, model, procs, tmp_path):
        model.save(tmp_path / "ckpt")
        assert [f.name for f in (tmp_path / "ckpt").iterdir()] == ["params.bin"]
        loaded = TrackerModel.load(tmp_path / "ckpt")
        assert loaded.config == model.config
        assert loaded.vocab.token_to_id == model.vocab.token_to_id
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

        class DiskFull(io.FileIO):
            """A file that takes 100 bytes and then fails."""

            def write(self, data):
                super().write(bytes(data)[:100])
                raise OSError("disk full")

        monkeypatch.setattr(ad, "open", DiskFull, raising=False)
        with pytest.raises(OSError, match="disk full"):
            changed.save(ckpt)
        monkeypatch.undo()
        assert {f.name: f.read_bytes() for f in ckpt.iterdir()} == before
        loaded = TrackerModel.load(ckpt)
        for name, p in model.params.items():
            assert np.array_equal(loaded.params[name].data, p.data)

    def test_the_temporary_file_is_synced_before_its_rename(self, model, tmp_path,
                                                            monkeypatch):
        ckpt = tmp_path / "ckpt"
        tmp = str(ckpt / "params.bin.tmp")
        fsync, replace, calls = os.fsync, os.replace, []

        def synced(fd):  # records the bytes the file holds when it is synced
            assert os.path.samestat(os.fstat(fd), os.stat(tmp))
            calls.append(("fsync", os.fstat(fd).st_size))
            fsync(fd)

        def renamed(src, dst):
            calls.append(("replace", src == tmp))
            replace(src, dst)

        monkeypatch.setattr(os, "fsync", synced)
        monkeypatch.setattr(os, "replace", renamed)
        model.save(ckpt)
        size = (ckpt / "params.bin").stat().st_size
        assert calls == [("fsync", size), ("replace", True)]

    def test_interrupted_save_cannot_mix_two_checkpoints(self, tmp_path,
                                                         monkeypatch):
        """Model B's save over model A, whose vocabulary has the same size
        but other tokens, is interrupted while it writes, then just before
        each rename it makes. Each time the checkpoint loads as A, whole,
        and no temporary file is left."""
        cfg = dict(d_model=8, n_heads=2, n_layers=1, d_ff=8, max_len=96)
        a, b = (TrackerModel.fresh(vocab_from_procedures(generate_synthetic(s, 3)),
                                   EncoderConfig(**cfg), seed=s) for s in (1, 9))
        assert len(a.vocab) == len(b.vocab)
        assert a.vocab.token_to_id != b.vocab.token_to_id

        class Interrupted(io.FileIO):
            def write(self, data):
                super().write(bytes(data)[:100])
                raise KeyboardInterrupt

        replace, renames = os.replace, []

        def rename_or_interrupt(at):
            def rename(src, dst):
                if len(renames) == at:
                    raise KeyboardInterrupt
                renames.append(dst)
                replace(src, dst)
            return rename

        monkeypatch.setattr(os, "replace", rename_or_interrupt(None))
        b.save(tmp_path / "counted")
        interrupts = [(ad, "open", Interrupted)] + [
            (os, "replace", rename_or_interrupt(k)) for k in range(len(renames))]
        for i, (owner, name, fake) in enumerate(interrupts):
            monkeypatch.undo()
            ckpt = tmp_path / f"ck{i}"
            a.save(ckpt)
            renames.clear()
            monkeypatch.setattr(owner, name, fake, raising=False)
            with pytest.raises(KeyboardInterrupt):
                b.save(ckpt)
            monkeypatch.undo()
            assert [f.name for f in ckpt.iterdir()] == ["params.bin"], i
            loaded = TrackerModel.load(ckpt)
            assert loaded.vocab.token_to_id == a.vocab.token_to_id, i
            for key, p in a.params.items():
                np.testing.assert_array_equal(loaded.params[key].data, p.data)

    def test_vocab_mismatch_rejected(self, model, tmp_path):
        model.save(tmp_path / "ckpt")
        edit_header(tmp_path / "ckpt", lambda h: h["vocab"].update(
            extra_token=len(h["vocab"])))
        with pytest.raises(DataError, match="does not match the vocab's"):
            TrackerModel.load(tmp_path / "ckpt")

    def test_tensor_shape_checked_against_config(self, model, tmp_path):
        model.save(tmp_path / "ckpt")
        ppath = tmp_path / "ckpt" / "params.bin"
        header, params = ad.read_checkpoint(ppath)
        params["head.status"] = Tensor(np.zeros((16, 4)))
        params["head.extra"] = Tensor(np.zeros(1))
        del params["final_ln.bias"]
        ad.save_checkpoint(params, ppath, config=header["config"],
                           vocab=header["vocab"])
        with pytest.raises(DataError) as err:
            TrackerModel.load(tmp_path / "ckpt")
        for part in ("final_ln.bias: found nothing, expected (16,)",
                     "head.extra: found (1,), expected nothing",
                     "head.status: found (16, 4), expected (16, 3)"):
            assert part in str(err.value)

    def test_values_must_fit_float32(self, model, tmp_path):
        """float32's largest value loads; the next float64 above it does not."""
        ppath = tmp_path / "ckpt" / "params.bin"
        for value, ok in ((ad.FLOAT32_MAX, True),
                          (-np.nextafter(ad.FLOAT32_MAX, np.inf), False)):
            model.save(tmp_path / "ckpt")
            header, params = ad.read_checkpoint(ppath)
            params["head.end"].data[2, 0] = value
            ad.save_checkpoint(params, ppath, config=header["config"],
                               vocab=header["vocab"])
            if ok:
                assert TrackerModel.load(tmp_path / "ckpt").params[
                    "head.end"].data[2, 0] == value
            else:
                with pytest.raises(DataError, match=r"head\.end: holds a value "
                                                    r"beyond float32's range"):
                    TrackerModel.load(tmp_path / "ckpt")

    def test_fresh_draws_every_tensor_in_one_call(self, procs, monkeypatch):
        calls = []
        draw = model_module.init_encoder_params
        monkeypatch.setattr(model_module, "init_encoder_params",
                            lambda *a: calls.append(1) or draw(*a))
        cfg = EncoderConfig(d_model=16, n_heads=2, n_layers=1, d_ff=32, max_len=96)
        m = TrackerModel.fresh(vocab_from_procedures(procs), cfg, seed=4)
        assert len(calls) == 1
        want = draw(m.config, np.random.default_rng(4))
        assert list(m.params) == list(want)
        for name, t in want.items():
            np.testing.assert_array_equal(m.params[name].data, t.data, err_msg=name)

    def test_load_draws_no_fresh_model(self, model, tmp_path, monkeypatch):
        model.save(tmp_path / "ckpt")

        def refuse(*args, **kwargs):
            raise AssertionError("load must not draw a model")

        monkeypatch.setattr(TrackerModel, "fresh", refuse)
        loaded = TrackerModel.load(tmp_path / "ckpt")
        assert list(loaded.params) == list(model.params)
        for name, p in model.params.items():
            np.testing.assert_array_equal(loaded.params[name].data, p.data)

    def test_loaded_params_take_an_sgd_step(self, model, procs, tmp_path):
        model.save(tmp_path / "ckpt")
        loaded = TrackerModel.load(tmp_path / "ckpt")
        for p in loaded.params.values():
            assert p.data.flags.writeable and p.data.flags.owndata
        loaded.procedure_loss(procs[0]).backward()
        ad.sgd_step(loaded.params, SgdConfig(learning_rate=0.1), 0)
        assert not np.array_equal(loaded.params["head.status"].data,
                                  model.params["head.status"].data)

    def test_params_bin_reads_as_documented(self, model, tmp_path):
        """The layout README's "Checkpoint format" gives, read with json and
        np.frombuffer alone."""
        model.save(tmp_path / "ckpt")
        head, body = (tmp_path / "ckpt" / "params.bin").read_bytes().split(b"\n", 1)
        header = json.loads(head)
        assert (header["format"], header["version"]) == ("proctrack-params", 3)
        assert header["config"] == asdict(model.config)
        assert header["vocab"] == model.vocab.token_to_id
        assert header["bytes"] == len(body)
        assert [r["name"] for r in header["tensors"]] == list(model.params)
        for rec in header["tensors"]:
            values = np.frombuffer(body, dtype="<f8", offset=rec["offset"],
                                   count=math.prod(rec["shape"]))
            np.testing.assert_array_equal(values.reshape(rec["shape"]),
                                          model.params[rec["name"]].data)

    def test_tensor_count_checked_before_shapes(self, model, tmp_path):
        model.save(tmp_path / "ckpt")
        edit_header(tmp_path / "ckpt", lambda h: h["config"].update(n_layers=3))
        with pytest.raises(DataError, match="holds 19 tensors, its config "
                                            "implies 41"):
            TrackerModel.load(tmp_path / "ckpt")

    def test_unknown_config_key_is_data_error(self, model, tmp_path):
        model.save(tmp_path / "ckpt")
        edit_header(tmp_path / "ckpt", lambda h: h["config"].update(bogus=1))
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

        def wrapped(proc, rng=None):
            calls["n"] += 1
            if calls["n"] > len(procs):
                m.params["head.status"].data[:] = np.nan
            return orig(proc, rng=rng)

        m.procedure_loss = wrapped
        with pytest.raises(ad.NonFiniteGradientError):
            train_model(m, procs, SgdConfig(learning_rate=0.01), epochs=3,
                        checkpoint_dir=ckpt)
        assert (ckpt / "params.bin").exists()
        restored = TrackerModel.load(ckpt)
        assert all(np.all(np.isfinite(p.data)) for p in restored.params.values())

    # At lr 1e30 the weights after the first step are ~7e29, within float32's
    # range, so the next procedure's float32 activations overflow instead.
    @pytest.mark.parametrize("lr, poison, stop", [
        (0.01, 1e39, r"'pos_emb' would hold a value beyond float32's range"),
        (1e30, None, r"non-finite loss at epoch 0"),
    ], ids=["finite-beyond-float32", "lr-1e30"])
    def test_no_checkpoint_that_load_rejects_is_saved(self, procs, tmp_path,
                                                      lr, poison, stop):
        cfg = EncoderConfig(d_model=16, n_heads=2, n_layers=1, d_ff=32, max_len=96)
        m = TrackerModel.fresh(vocab_from_procedures(procs), cfg, seed=1)
        ckpt = tmp_path / "ckpt"
        m.save(ckpt)
        good = (ckpt / "params.bin").read_bytes()
        if poison is not None:  # a position row that no query reaches
            m.params["pos_emb"].data[-1, 0] = poison
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ad.NonFiniteGradientError, match=stop):
                train_model(m, procs, SgdConfig(learning_rate=lr), epochs=2,
                            checkpoint_dir=ckpt)
        assert (ckpt / "params.bin").read_bytes() == good
        TrackerModel.load(ckpt)

    def test_frozen_timestamps_stay_zero(self, procs):
        cfg = EncoderConfig(d_model=16, n_heads=2, n_layers=1, d_ff=32, max_len=96)
        m = TrackerModel.fresh(vocab_from_procedures(procs), cfg, seed=1)
        train_model(m, procs, SgdConfig(learning_rate=0.1), epochs=2,
                    freeze_timestamps=True)
        assert np.all(m.params["ts_emb"].data == 0.0)

    def test_frozen_then_unfrozen_training_moves_timestamps(self, procs):
        cfg = EncoderConfig(d_model=16, n_heads=2, n_layers=1, d_ff=32, max_len=96)
        m = TrackerModel.fresh(vocab_from_procedures(procs), cfg, seed=1)
        train_model(m, procs, SgdConfig(learning_rate=0.1), epochs=1,
                    freeze_timestamps=True)
        assert m.params["ts_emb"].requires_grad
        train_model(m, procs, SgdConfig(learning_rate=0.1), epochs=2)
        assert np.any(m.params["ts_emb"].data != 0.0)

    def test_frozen_training_equals_a_table_off_the_tape(self):
        """On the benchmark's `train` corpus and optimizer at seed 1, two
        frozen epochs give the same parameter bytes as two epochs in which the
        (fresh, zero) time-id table needs no gradient at all."""
        procs = generate_synthetic(1, 20, GrammarConfig(min_steps=5, max_steps=8))
        sgd = SgdConfig(learning_rate=3e-4, decay_factor=0.5, decay_every=50)
        digests = []
        for freeze in (True, False):
            m = TrackerModel.fresh(vocab_from_procedures(procs), EncoderConfig(),
                                   seed=1)
            m.params["ts_emb"].requires_grad = freeze
            train_model(m, procs, sgd, epochs=2, seed=1, freeze_timestamps=freeze)
            digests.append(hashlib.sha256(b"".join(
                t.data.tobytes() for t in m.params.values())).hexdigest())
        assert digests[0] == digests[1]

    def test_no_procedures_rejected(self, procs):
        cfg = EncoderConfig(d_model=16, n_heads=2, n_layers=1, d_ff=32, max_len=96)
        m = TrackerModel.fresh(vocab_from_procedures(procs), cfg, seed=1)
        with pytest.raises(ValueError, match="no procedures to train on"):
            train_model(m, [], SgdConfig(learning_rate=0.1), epochs=1)

    def test_negative_eval_every_rejected(self, procs):
        cfg = EncoderConfig(d_model=16, n_heads=2, n_layers=1, d_ff=32, max_len=96)
        m = TrackerModel.fresh(vocab_from_procedures(procs), cfg, seed=1)
        before = {k: t.data.copy() for k, t in m.params.items()}
        with pytest.raises(ValueError, match="eval_every"):
            train_model(m, procs, SgdConfig(learning_rate=0.1), epochs=2,
                        dev_procs=procs, eval_every=-1)
        assert all(np.array_equal(t.data, before[k]) for k, t in m.params.items())

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

    def test_unaligned_spans_are_the_known_rows_without_a_span(self):
        """The count training reports and the rows its loss leaves without a
        span follow one rule: over every stack of the corpus, the known rows
        of `targets` less its span rows are `unaligned_spans`."""
        corpus = [photosynthesis(), TestNoGoldSpan.PROC,
                  TestGoldSpanResolution.PROC, TestBatchedLoss.MIXED]
        cfg = EncoderConfig(d_model=16, n_heads=2, n_layers=1, d_ff=32, max_len=96)
        m = TrackerModel.fresh(vocab_from_procedures(corpus), cfg, seed=1)
        want = sum(unaligned(*targets(proc, entities, layouts[0])[:2])
                   for proc in corpus for entities, layouts in m.stacks(proc))
        assert len(list(m.stacks(TestBatchedLoss.MIXED))) == 2
        assert want == 1 + 1 + 2 + 0
        result = train_model(m, corpus, SgdConfig(learning_rate=0.01), epochs=1)
        assert result.unaligned_spans == want

    def test_too_long_query_raises_before_the_first_step(self):
        """Counting `unaligned_spans` builds every query of the corpus first,
        so a query over `max_len` in a later procedure raises before any
        step, and the parameters stay as they were."""
        first = photosynthesis()
        later = Procedure(id="later", sentences=first.sentences * 2,
                          entities=["water"],
                          grid={"water": first.grid["water"] + ["-"] * 5})
        cfg = EncoderConfig(d_model=16, n_heads=2, n_layers=1, d_ff=32, max_len=64)
        m = TrackerModel.fresh(vocab_from_procedures([first, later]), cfg, seed=1)
        list(m.stacks(first))  # every query of the first procedure fits
        before = {k: t.data.copy() for k, t in m.params.items()}
        with pytest.raises(ValueError, match="'water' has .* tokens"):
            train_model(m, [first, later], SgdConfig(learning_rate=0.1), epochs=1)
        assert all(np.array_equal(t.data, before[k]) for k, t in m.params.items())

    def test_training_searches_no_paragraph(self, procs, monkeypatch):
        """Gold spans come from `Procedure.occurrences`, found when each
        procedure was built; training never searches a paragraph itself."""
        calls = []

        def counted(orig):
            def wrapper(*args):
                calls.append(args)
                return orig(*args)
            return wrapper

        for info in pkgutil.iter_modules(proctrack.__path__):
            module = importlib.import_module(f"proctrack.{info.name}")
            if hasattr(module, "find_token_occurrences"):
                monkeypatch.setattr(module, "find_token_occurrences",
                                    counted(module.find_token_occurrences))
        generate_synthetic(3, 1)
        assert calls, "the counter must see the search a build makes"
        calls.clear()
        cfg = EncoderConfig(d_model=16, n_heads=2, n_layers=1, d_ff=32, max_len=96)
        m = TrackerModel.fresh(vocab_from_procedures(procs), cfg, seed=1)
        train_model(m, procs, SgdConfig(learning_rate=0.1), epochs=2)
        assert calls == []

    def test_status_accuracy_bounds(self, model, procs):
        acc = status_accuracy(model, procs)
        assert 0.0 <= acc <= 1.0


class TestPrecision:
    """Prediction runs in float32 on copies of the parameters made per
    `predict_procedure` call, and training on float32 casts made per
    `procedure_loss` call; the parameters, their gradients, the SGD step and
    the checkpoints stay float64."""

    CFG = dict(d_model=16, n_heads=2, n_layers=1, d_ff=32, max_len=96)

    def test_backward_and_sgd_step_stay_float64(self, procs, tmp_path):
        m = TrackerModel.fresh(vocab_from_procedures(procs),
                               EncoderConfig(**self.CFG), seed=1)
        m.predict_procedure(procs[0])
        m.procedure_loss(procs[0]).backward()
        for name, p in m.params.items():
            assert p.data.dtype == np.float64, name
            assert p.grad is not None and p.grad.dtype == np.float64, name
        ad.sgd_step(m.params, SgdConfig(learning_rate=0.1), 0)
        assert all(p.data.dtype == np.float64 for p in m.params.values())
        m.save(tmp_path / "ckpt")
        loaded = TrackerModel.load(tmp_path / "ckpt")
        for name, p in m.params.items():
            assert loaded.params[name].data.dtype == np.float64, name
            np.testing.assert_array_equal(loaded.params[name].data, p.data)

    def test_training_loss_and_every_intermediate_gradient_are_float32(
            self, procs, monkeypatch):
        m = TrackerModel.fresh(vocab_from_procedures(procs),
                               EncoderConfig(**self.CFG), seed=1)
        handed = []
        accumulate = Tensor._accumulate

        def recorded(self, g, copy=False):
            handed.append((self._backward is None, self.data.dtype,
                           np.asarray(g).dtype))
            accumulate(self, g, copy)

        monkeypatch.setattr(Tensor, "_accumulate", recorded)
        loss = m.procedure_loss(procs[0])
        assert loss.data.dtype == np.float32 and loss.data.shape == ()
        loss.backward()
        inner = {(node, g) for leaf, node, g in handed if not leaf}
        assert inner == {(np.dtype(np.float32), np.dtype(np.float32))}
        assert all(p.grad.dtype == np.float64 for p in m.params.values())

    def test_prediction_during_training_sees_the_current_weights(
            self, procs, tmp_path):
        """Dev evaluation predicts between SGD steps. Each prediction, the
        one after training too, equals that of the checkpoint of the same
        weights, so none runs on weights from an earlier epoch."""
        m = redraw_matrices(TrackerModel.fresh(
            vocab_from_procedures(procs), EncoderConfig(**self.CFG), seed=1))
        seen = []

        def record(model, epoch):
            model.save(tmp_path / f"epoch{epoch}")
            seen.append([model.predict_procedure(p) for p in procs])
            return False

        train_model(m, procs, SgdConfig(learning_rate=0.05), epochs=4,
                    checkpoint_dir=tmp_path / "ckpt", dev_procs=procs,
                    eval_every=1, stop_fn=record)
        assert seen[0] != seen[-1], "training must move the predictions"
        for epoch, predictions in enumerate(seen):
            loaded = TrackerModel.load(tmp_path / f"epoch{epoch}")
            assert [loaded.predict_procedure(p) for p in procs] == predictions
        loaded = TrackerModel.load(tmp_path / "ckpt")
        assert ([m.predict_procedure(p) for p in procs]
                == [loaded.predict_procedure(p) for p in procs] == seen[-1])
