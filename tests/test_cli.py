import json
import math
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from proctrack.autodiff import SgdConfig, Tensor, read_checkpoint, save_checkpoint
from proctrack.cli import (
    EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, ConfigError, gold_tables,
    load_run_config, main,
)
from proctrack.data import (
    GrammarConfig, Procedure, generate_synthetic, load_procedures,
    save_procedures,
)
from proctrack.encoder import EncoderConfig
from proctrack.fixtures import photosynthesis
from proctrack.inputs import build_query
from proctrack.model import TrackerModel, vocab_from_procedures
from proctrack.state_table import build_table, read_tsv, write_tsv

from conftest import see_cpus, stacks_side_by_side


TINY_CONFIG = {
    "encoder": {"d_model": 16, "n_heads": 2, "n_layers": 1, "d_ff": 32,
                "max_len": 96},
    "sgd": {"learning_rate": 0.05, "decay_factor": 0.5, "decay_every": 500},
    "epochs": 2,
    "seed": 3,
}


@pytest.fixture
def workspace(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(TINY_CONFIG))
    data = tmp_path / "data.json"
    assert main(["generate-data", "--seed", "4", "--n", "3",
                 "--min-steps", "2", "--max-steps", "3",
                 "--out", str(data)]) == 0
    return tmp_path, cfg, data


class TestRunConfig:
    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"encoder": {}, "bogus": 1}))
        assert main(["train", "--data", "x.json", "--out", str(tmp_path / "o"),
                     "--config", str(path)]) == EXIT_CONFIG

    def test_invalid_encoder_field_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"encoder": {"d_model": 10, "n_heads": 3}}))
        assert main(["train", "--data", "x.json", "--out", str(tmp_path / "o"),
                     "--config", str(path)]) == EXIT_CONFIG

    def test_defaults_follow_halving_schedule(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({}))
        cfg = load_run_config(path)
        assert cfg["sgd"].learning_rate == pytest.approx(3e-4)
        assert cfg["sgd"].effective_lr(120) == pytest.approx(3e-4 * 0.25)
        assert load_run_config(None) == cfg  # `train` without --config

    def test_sgd_defaults_are_sgd_configs(self):
        """`SgdConfig()` is the schedule `train` runs with no config, so a
        learning rate set in Python halves as the CLI's does."""
        assert SgdConfig() == load_run_config(None)["sgd"]
        assert SgdConfig(learning_rate=0.1).effective_lr(50) == 0.05

    def test_partial_sgd_object_keeps_the_other_defaults(self, tmp_path):
        """Writing out the default learning rate leaves the decay on."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"sgd": {"learning_rate": 3e-4}}))
        assert load_run_config(path) == load_run_config(None)
        path.write_text(json.dumps({"sgd": {"decay_every": 7}}))
        sgd = load_run_config(path)["sgd"]
        assert (sgd.learning_rate, sgd.decay_factor, sgd.decay_every) == (
            3e-4, 0.5, 7)

    def test_non_integer_epochs_or_seed_is_config_error(self, tmp_path):
        path = tmp_path / "cfg.json"
        for bad in ({"epochs": "x"}, {"epochs": 2.5}, {"seed": "0"},
                    {"seed": True}, {"epochs": 0}, {"epochs": -1}, [],
                    {"sgd": []}, {"sgd": 0.1}, {"sgd": None},
                    "{not json", {"encoder": {"vocab_size": 5}}):
            path.write_text(bad if isinstance(bad, str) else json.dumps(bad))
            assert main(["train", "--data", "x.json", "--out",
                         str(tmp_path / "o"), "--config", str(path)]) == EXIT_CONFIG
        # The corpus sets the vocabulary size; the message names the key.
        with pytest.raises(ConfigError, match="encoder.vocab_size"):
            load_run_config(path)
        path.write_text(json.dumps({"sgd": [0.1]}))
        with pytest.raises(ConfigError, match=r"sgd must be an object, got \[0.1\]"):
            load_run_config(path)

    @pytest.mark.parametrize("lr", ["Infinity", "-Infinity", "NaN"])
    def test_non_finite_learning_rate_is_config_error(self, workspace, caplog,
                                                      lr):
        """Python's json reads these literals; none reaches a checkpoint."""
        tmp_path, cfg, data = workspace
        cfg.write_text(cfg.read_text().replace('"learning_rate": 0.05',
                                               f'"learning_rate": {lr}'))
        assert main(["train", "--data", str(data), "--config", str(cfg),
                     "--out", str(tmp_path / "ckpt")]) == EXIT_CONFIG
        assert "learning_rate must be finite" in caplog.text
        assert not (tmp_path / "ckpt").exists()

    def test_missing_data_file_is_data_error(self, tmp_path):
        assert main(["train", "--data", str(tmp_path / "none.json"),
                     "--out", str(tmp_path / "o")]) == EXIT_DATA


def read_params(path):
    """The header and a mutable copy of the tensor bytes of a params.bin."""
    head, body = path.read_bytes().split(b"\n", 1)
    return json.loads(head), bytearray(body)


def write_params(path, header, body):
    path.write_bytes(json.dumps(header).encode() + b"\n" + bytes(body))


def tensor_values(rec, body):
    """A writable view of the float64 bytes of the record `rec`."""
    return np.frombuffer(body, dtype="<f8", count=math.prod(rec["shape"]),
                         offset=rec["offset"])


class TestCheckpointLayout:
    def test_per_head_qkv_checkpoint_is_data_error(self, workspace, caplog):
        """A checkpoint with separate attn.q{h}/k{h}/v{h} matrices, the layout
        before the fused attn.qkv, is rejected instead of crashing."""
        tmp_path, _, data = workspace
        cfg = EncoderConfig(**TINY_CONFIG["encoder"])
        ckpt = tmp_path / "ckpt"
        TrackerModel.fresh(vocab_from_procedures(load_procedures(data)), cfg,
                           seed=0).save(ckpt)
        header, params = read_checkpoint(ckpt / "params.bin")
        d, dh = cfg.d_model, cfg.d_model // cfg.n_heads
        qkv = params.pop("layer0.attn.qkv").data
        for h in range(cfg.n_heads):
            for i, part in enumerate("qkv"):
                params[f"layer0.attn.{part}{h}"] = Tensor(
                    qkv[:, (3 * h + i) * dh:(3 * h + i + 1) * dh])
        save_checkpoint(params, ckpt / "params.bin", config=header["config"],
                        vocab=header["vocab"])
        assert main(["predict", "--data", str(data), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "pred.tsv")]) == EXIT_DATA
        assert "params.bin: holds 24 tensors, its config implies 19" in caplog.text

    def test_v1_json_checkpoint_is_data_error(self, workspace, caplog):
        """A directory holding only the JSON params.json of format v1 exits 3
        with a message naming that format."""
        tmp_path, _, data = workspace
        ckpt = tmp_path / "ckpt"
        model = TrackerModel.fresh(vocab_from_procedures(load_procedures(data)),
                                   EncoderConfig(**TINY_CONFIG["encoder"]), seed=0)
        model.save(ckpt)
        (ckpt / "params.bin").unlink()
        (ckpt / "params.json").write_text(json.dumps(
            {k: {"shape": list(t.data.shape), "data": t.data.ravel().tolist()}
             for k, t in model.params.items()}))
        assert main(["predict", "--data", str(data), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "pred.tsv")]) == EXIT_DATA
        assert "params.json is a v1 JSON checkpoint" in caplog.text

    def test_v2_checkpoint_is_data_error(self, workspace, caplog):
        """A version 2 directory (params.bin without config or vocab, and
        config.json and vocab.json beside it) exits 3 with one error line
        naming version 2 and asking for a new training run."""
        tmp_path, _, data = workspace
        ckpt = tmp_path / "ckpt"
        TrackerModel.fresh(vocab_from_procedures(load_procedures(data)),
                           EncoderConfig(**TINY_CONFIG["encoder"]), seed=0).save(ckpt)
        header, body = read_params(ckpt / "params.bin")
        for part in ("config", "vocab"):
            (ckpt / f"{part}.json").write_text(json.dumps(header.pop(part)))
        write_params(ckpt / "params.bin", {**header, "version": 2}, body)
        assert main(["predict", "--data", str(data), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "pred.tsv")]) == EXIT_DATA
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1
        assert "checkpoint version 2;" in errors[0] and "train again" in errors[0]

    @pytest.mark.parametrize("record", [
        {"shape": None},  # no shape
        {"offset": None},  # no offset
        {"shape": [16, 4]},  # a shape its bytes do not fill
        {"offset": 0.5},
        {"data": [float("nan")] * 48},
        {"data": [0.0] * 47 + [float("inf")]},
        ["head.status", [16, 3], 0],
    ])
    def test_malformed_record_is_data_error(self, workspace, caplog, record):
        """The head.status record of the params.bin header with each key set
        (None: deleted; data: its bytes), or replaced by a list, exits 3 with
        a message naming head.status."""
        def edit(records, i, body):
            if isinstance(record, list):
                records[i] = record
                return
            for key, value in record.items():
                if key == "data":
                    tensor_values(records[i], body)[:] = value
                elif value is None:
                    del records[i][key]
                else:
                    records[i][key] = value

        self.assert_head_status_rejected(workspace, caplog, edit)

    @pytest.mark.parametrize("edit", [
        lambda recs, i, body: recs[i + 1].update(name="head.status"),
        lambda recs, i, body: recs[i + 1].update(offset=recs[i]["offset"] + 8),
        lambda recs, i, body: recs[i + 1].update(offset=0),
    ], ids=["repeated-name", "overlapping-offsets", "out-of-order-offsets"])
    def test_repeated_name_or_misplaced_offset_is_data_error(
            self, workspace, caplog, edit):
        """The record after head.status repeats its name, starts inside it,
        or starts before it."""
        self.assert_head_status_rejected(workspace, caplog, edit)

    @staticmethod
    def assert_head_status_rejected(workspace, caplog, edit):
        tmp_path, _, data = workspace
        cfg = EncoderConfig(**TINY_CONFIG["encoder"])
        ckpt = tmp_path / "ckpt"
        TrackerModel.fresh(vocab_from_procedures(load_procedures(data)), cfg,
                           seed=0).save(ckpt)
        header, body = read_params(ckpt / "params.bin")
        records = header["tensors"]
        edit(records, [r["name"] for r in records].index("head.status"), body)
        write_params(ckpt / "params.bin", header, body)
        assert main(["predict", "--data", str(data), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "pred.tsv")]) == EXIT_DATA
        assert "head.status" in caplog.text

    @pytest.mark.parametrize("cut, pad", [(8, b""), (0, bytes(8))],
                             ids=["truncated", "padded"])
    def test_tensor_bytes_not_the_header_count_is_data_error(
            self, workspace, caplog, cut, pad):
        tmp_path, _, data = workspace
        ckpt = tmp_path / "ckpt"
        TrackerModel.fresh(vocab_from_procedures(load_procedures(data)),
                           EncoderConfig(**TINY_CONFIG["encoder"]), seed=0).save(ckpt)
        header, body = read_params(ckpt / "params.bin")
        write_params(ckpt / "params.bin", header, body[:len(body) - cut] + pad)
        assert main(["predict", "--data", str(data), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "pred.tsv")]) == EXIT_DATA
        assert f"header gives {len(body)} tensor bytes" in caplog.text

    def test_value_beyond_float32_is_data_error(self, workspace, caplog):
        """Prediction runs in float32: a checkpoint value it cannot hold is
        rejected, naming its tensor, rather than cast to infinity."""
        tmp_path, _, data = workspace
        ckpt = tmp_path / "ckpt"
        TrackerModel.fresh(vocab_from_procedures(load_procedures(data)),
                           EncoderConfig(**TINY_CONFIG["encoder"]), seed=0).save(ckpt)
        header, body = read_params(ckpt / "params.bin")
        rec = next(r for r in header["tensors"] if r["name"] == "layer0.ff.w2")
        tensor_values(rec, body)[5] = -1e39
        write_params(ckpt / "params.bin", header, body)
        pred = tmp_path / "pred.tsv"
        assert main(["predict", "--data", str(data), "--checkpoint", str(ckpt),
                     "--out", str(pred)]) == EXIT_DATA
        assert "layer0.ff.w2: holds a value beyond float32's range" in caplog.text
        assert not pred.exists()

    def test_vocab_not_an_object_is_data_error(self, workspace, caplog):
        tmp_path, _, data = workspace
        ckpt = tmp_path / "ckpt"
        TrackerModel.fresh(vocab_from_procedures(load_procedures(data)),
                           EncoderConfig(**TINY_CONFIG["encoder"]), seed=0).save(ckpt)
        header, body = read_params(ckpt / "params.bin")
        write_params(ckpt / "params.bin", {**header, "vocab": ["a", "b"]}, body)
        assert main(["predict", "--data", str(data), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "pred.tsv")]) == EXIT_DATA
        assert "params.bin: vocab must be an object mapping" in caplog.text


class TestMalformedCorpus:
    RECORD = {"id": "p", "sentences": [["roots", "absorb", "water"]],
              "entities": ["water"], "grid": {"water": ["?", "roots"]}}

    def train(self, tmp_path, corpus):
        data = tmp_path / "data.json"
        data.write_text(json.dumps(corpus))
        return main(["train", "--data", str(data), "--epochs", "1",
                     "--out", str(tmp_path / "ckpt")])

    def test_sentence_as_string_is_data_error(self, tmp_path, caplog):
        bad = dict(self.RECORD, sentences=["roots absorb water"])
        assert self.train(tmp_path, [self.RECORD, bad]) == EXIT_DATA
        assert "$[1].sentences[0]" in caplog.text

    def test_grid_value_not_a_string_is_data_error(self, tmp_path, caplog):
        bad = dict(self.RECORD, grid={"water": ["?", 7]})
        assert self.train(tmp_path, [bad]) == EXIT_DATA
        assert "$[0].grid.water" in caplog.text

    def test_id_not_a_string_is_data_error(self, tmp_path, caplog):
        bad = dict(self.RECORD, id=["x"])
        assert self.train(tmp_path, [self.RECORD, bad]) == EXIT_DATA
        assert "$[1].id: expected a string" in caplog.text

    def test_duplicate_entity_is_data_error(self, tmp_path, caplog):
        bad = dict(self.RECORD, entities=["water", "water"])
        assert self.train(tmp_path, [bad]) == EXIT_DATA
        assert "$[0].entities[1]: duplicate entity 'water'" in caplog.text

    def test_tab_in_id_or_entity_is_data_error(self, tmp_path, caplog):
        """Such a corpus used to train and predict, and then `evaluate`
        could not read the TSV `predict` wrote."""
        bad = dict(self.RECORD, id="p\t1", entities=["sa\tlt"],
                   grid={"sa\tlt": ["?", "roots"]})
        assert self.train(tmp_path, [bad]) == EXIT_DATA
        assert r"$[0].id: 'p\t1' holds a tab or line break" in caplog.text

    def test_blank_entity_is_data_error(self, tmp_path, caplog):
        bad = dict(self.RECORD, entities=["  "], grid={"  ": ["?", "roots"]})
        assert self.train(tmp_path, [bad]) == EXIT_DATA
        assert "$[0].entities[0]: entity name '  ' gives no question tokens" \
            in caplog.text

    def test_duplicate_entity_in_grid_tsv_is_data_error(self, tmp_path, caplog):
        tsv = tmp_path / "grid.tsv"
        tsv.write_text("p1\twater\twater\nstate0\t\t?\t?\n"
                       "state1\troots absorb water\troots\troots\n")
        assert main(["convert", "--tsv", str(tsv),
                     "--out", str(tmp_path / "out.json")]) == EXIT_DATA
        assert "block0.entities[1]: duplicate entity 'water'" in caplog.text

    def test_repeated_id_is_data_error(self, tmp_path, caplog):
        """Such a corpus used to train, and `predict` then wrote one
        process for two."""
        other = dict(self.RECORD, grid={"water": ["?", "water"]})
        assert self.train(tmp_path, [self.RECORD, other]) == EXIT_DATA
        assert "$[1].id: 'p' repeats $[0]" in caplog.text

    def test_repeated_id_in_grid_tsv_is_data_error(self, tmp_path, caplog):
        tsv = tmp_path / "grid.tsv"
        block = "p1\twater\nstate0\t\t?\nstate1\troots absorb water\troots\n"
        tsv.write_text(block + "\n" + block)
        assert main(["convert", "--tsv", str(tsv),
                     "--out", str(tmp_path / "out.json")]) == EXIT_DATA
        assert "block1.id: 'p1' repeats " in caplog.text
        assert caplog.text.rstrip().endswith("grid.tsv:block0")
        assert not (tmp_path / "out.json").exists()


class TestPipeline:
    def test_generate_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert main(["generate-data", "--seed", "7", "--n", "2",
                         "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_generate_without_step_flags_uses_the_grammar_defaults(
            self, tmp_path):
        cli, api = tmp_path / "cli.json", tmp_path / "api.json"
        assert main(["generate-data", "--seed", "7", "--n", "4",
                     "--out", str(cli)]) == 0
        save_procedures(generate_synthetic(7, 4), api)
        assert cli.read_bytes() == api.read_bytes()

    @pytest.mark.parametrize("command", ["train", "predict"])
    def test_query_longer_than_max_len_is_data_error_naming_the_entity(
            self, workspace, caplog, capsys, command):
        """`build_query` is the CLI's length rule: a model whose `max_len`
        is one short of a corpus query exits 3, naming the first entity in
        corpus order whose query is too long, before writing a checkpoint
        or a TSV."""
        tmp_path, cfg, data = workspace
        procs = load_procedures(data)
        vocab = vocab_from_procedures(procs)
        lengths = [(len(build_query(e, p.sentences, vocab).tokens), e)
                   for p in procs for e in p.entities]
        longest = max(n for n, _ in lengths)
        entity = next(e for n, e in lengths if n == longest)
        encoder = {**TINY_CONFIG["encoder"], "max_len": longest - 1}
        ckpt, pred = tmp_path / "ckpt", tmp_path / "pred.tsv"
        if command == "train":
            cfg.write_text(json.dumps({**TINY_CONFIG, "encoder": encoder}))
            argv = ["train", "--data", str(data), "--config", str(cfg),
                    "--out", str(ckpt)]
        else:
            TrackerModel.fresh(vocab, EncoderConfig(**encoder), seed=0).save(ckpt)
            argv = ["predict", "--data", str(data), "--checkpoint", str(ckpt),
                    "--out", str(pred)]
        assert main(argv) == EXIT_DATA
        error = one_error_line(caplog)
        assert f"entity {entity!r} has {longest} tokens" in error, error
        assert "Traceback" not in capsys.readouterr().err
        assert (ckpt / "params.bin").exists() == (command == "predict")
        assert not pred.exists()

    def test_an_overflow_in_one_stack_is_numeric_failure(self, tmp_path,
                                                         monkeypatch, caplog,
                                                         capsys):
        """A pass that overflows on a worker thread exits 4, as one on the
        calling thread does: "sugar" occurs only in the queries of (water,
        sugar), the first of the procedure's two stacks, which the pool runs."""
        entities = ["water", "carbon dioxide", "sugar"]
        proc = Procedure(id="p", sentences=[["water", "and", "gas", "enter",
                                             "the", "leaf", "."]],
                         entities=entities, grid={e: ["?", "leaf"] for e in entities})
        data, ckpt, pred = (tmp_path / "data.json", tmp_path / "ckpt",
                            tmp_path / "pred.tsv")
        save_procedures([proc], data)
        model = TrackerModel.fresh(vocab_from_procedures([proc]),
                                   EncoderConfig(**TINY_CONFIG["encoder"]), seed=0)
        assert len(list(model.stacks(proc))) == 2
        model.params["token_emb"].data[model.vocab.token_to_id["sugar"]] = 3e38
        model.save(ckpt)
        see_cpus(monkeypatch, 2)
        calls = stacks_side_by_side(monkeypatch, 2)
        assert main(["predict", "--data", str(data), "--checkpoint", str(ckpt),
                     "--out", str(pred)]) == EXIT_NUMERIC
        assert [huge for thread, huge in calls
                if thread is not threading.current_thread()] == [True]
        assert one_error_line(caplog).startswith("numeric failure: ")
        assert "Traceback" not in capsys.readouterr().err
        assert not pred.exists()

    def test_train_predict_evaluate(self, workspace):
        tmp_path, cfg, data = workspace
        ckpt = tmp_path / "ckpt"
        assert main(["train", "--data", str(data), "--out", str(ckpt),
                     "--config", str(cfg)]) == 0
        assert (ckpt / "params.bin").exists()
        pred = tmp_path / "pred.tsv"
        assert main(["predict", "--data", str(data), "--checkpoint", str(ckpt),
                     "--out", str(pred)]) == 0
        metrics = tmp_path / "metrics.json"
        assert main(["evaluate", "--pred", str(pred), "--gold", str(data),
                     "--mode", "document", "--out", str(metrics)]) == 0
        report = json.loads(metrics.read_text())
        assert set(report["criteria"]) == {"inputs", "outputs",
                                           "conversions", "moves"}
        assert 0.0 <= report["f1"] <= 1.0

    def test_recipe_file_trains_predicts_and_evaluates(self, workspace, caplog):
        """A recipe corpus goes wherever a procedure corpus does: a string
        sentence is tokenized, an unannotated ingredient is skipped, and a
        capitalised location still finds its gold span."""
        tmp_path, cfg, _ = workspace
        recipes = tmp_path / "recipes.json"
        recipes.write_text(json.dumps([
            {"id": "r1",
             "sentences": ["Melt the butter in the Pan.",
                           ["add", "flour", "to", "the", "bowl"],
                           "Bake the dough in the oven."],
             "ingredients": ["butter", "flour", "salt"],
             "locations": {"butter": {"1": "Pan", "3": "oven"},
                           "flour": {"2": "bowl", "3": "oven"}}},
            {"id": "r2", "sentences": ["Pour the milk into the Bowl.", "Stir."],
             "ingredients": ["milk"], "locations": {"milk": {"0": "jug", "1": "bowl"}}},
        ]))
        ckpt, pred = tmp_path / "ckpt", tmp_path / "pred.tsv"
        with caplog.at_level("INFO"):
            assert main(["train", "--data", str(recipes), "--out", str(ckpt),
                         "--config", str(cfg)]) == 0
        assert "ingredient 'salt' has no location annotations" in caplog.text
        assert "1 gold spans not in the paragraph" in caplog.text  # only "jug"
        assert main(["predict", "--data", str(recipes), "--checkpoint", str(ckpt),
                     "--out", str(pred)]) == 0
        assert set(read_tsv(pred)) == {"r1", "r2"}
        metrics = tmp_path / "metrics.json"
        assert main(["evaluate", "--pred", str(pred), "--gold", str(recipes),
                     "--mode", "npn", "--out", str(metrics)]) == 0
        assert 0.0 <= json.loads(metrics.read_text())["location_change_accuracy"] <= 1.0

    def test_predict_deterministic_byte_identical(self, workspace):
        tmp_path, cfg, data = workspace
        ckpt = tmp_path / "ckpt"
        assert main(["train", "--data", str(data), "--out", str(ckpt),
                     "--config", str(cfg)]) == 0
        outs = []
        for name in ("p1.tsv", "p2.tsv"):
            path = tmp_path / name
            assert main(["predict", "--data", str(data),
                         "--checkpoint", str(ckpt), "--out", str(path)]) == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_predict_known_locations_are_candidate_texts(self, workspace):
        tmp_path, cfg, data = workspace
        ckpt = tmp_path / "ckpt"
        main(["train", "--data", str(data), "--out", str(ckpt),
              "--config", str(cfg)])
        pred = tmp_path / "pred.tsv"
        main(["predict", "--data", str(data), "--checkpoint", str(ckpt),
              "--out", str(pred)])
        procs = {p.id: p for p in load_procedures(data)}
        for pid, rows in read_tsv(pred).items():
            para = procs[pid].paragraph
            texts = {" ".join(para[s:e + 1]) for s, e in procs[pid].candidate_spans}
            for r in rows:
                for v in (r.before, r.after):
                    if v not in ("-", "?"):
                        assert v in texts

    def test_no_constraints_flag_skips_repair(self, workspace, caplog):
        tmp_path, cfg, data = workspace
        ckpt = tmp_path / "ckpt"
        main(["train", "--data", str(data), "--out", str(ckpt),
              "--config", str(cfg)])
        pred = tmp_path / "pred.tsv"
        with caplog.at_level("INFO"):
            assert main(["predict", "--data", str(data),
                         "--checkpoint", str(ckpt), "--out", str(pred),
                         "--no-constraints"]) == 0
        assert "constraints disabled" in caplog.text

    def test_zero_timestamp_predicts_as_a_checkpoint_with_zeroed_time_ids(
            self, workspace):
        """`predict --zero-timestamp` zeroes `ts_emb` after the load; the
        prediction must see that, as it sees a checkpoint saved that way."""
        tmp_path, _, data = workspace
        procs = load_procedures(data)
        model = TrackerModel.fresh(vocab_from_procedures(procs),
                                   EncoderConfig(**TINY_CONFIG["encoder"]), seed=2)
        rng = np.random.default_rng(0)
        for t in model.params.values():  # ts_emb among them
            if t.data.ndim == 2:
                t.data[...] = rng.normal(0.0, 0.5, t.data.shape)
        model.save(tmp_path / "ckpt")
        model.params["ts_emb"].data[:] = 0.0
        model.save(tmp_path / "zeroed")
        tsv = {}
        for name, ckpt, flags in (("plain", "ckpt", []),
                                  ("flag", "ckpt", ["--zero-timestamp"]),
                                  ("zeroed", "zeroed", [])):
            out = tmp_path / f"{name}.tsv"
            assert main(["predict", "--data", str(data), "--checkpoint",
                         str(tmp_path / ckpt), "--out", str(out), *flags]) == 0
            tsv[name] = out.read_bytes()
        assert tsv["flag"] == tsv["zeroed"]
        assert tsv["plain"] != tsv["zeroed"], "the time ids must change something"

    def test_train_out_file_fails_before_the_first_epoch(self, workspace, caplog):
        tmp_path, cfg, data = workspace
        out = tmp_path / "a-file"
        out.write_text("x")
        with caplog.at_level("INFO"):
            assert main(["train", "--data", str(data), "--config", str(cfg),
                         "--out", str(out)]) == EXIT_DATA
        assert "epoch 0:" not in caplog.text
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and str(out) in errors[0]
        assert out.read_text() == "x"

    @pytest.mark.parametrize("argv, code", [
        (["train", "--data", "{data}", "--epochs", "0", "--out", "{out}"],
         EXIT_CONFIG),
        (["train", "--data", "{data}", "--epochs", "-1", "--out", "{out}"],
         EXIT_CONFIG),
        (["train", "--data", "{data}", "--eval-every", "-1", "--out", "{out}"],
         EXIT_CONFIG),
        (["train", "--data", "{empty}", "--out", "{out}"], EXIT_DATA),
        (["train", "--data", "{data}", "--dev", "{empty}", "--eval-every", "1",
          "--out", "{out}"], EXIT_DATA),
        *((["evaluate", "--pred", "{pred}", "--gold", "{empty}", "--mode", mode],
           EXIT_DATA) for mode in ("sentence", "document", "npn")),
    ], ids=["epochs-0", "epochs-minus-1", "eval-every-minus-1", "empty-corpus",
            "empty-dev", "empty-gold-sentence", "empty-gold-document",
            "empty-gold-npn"])
    def test_no_epochs_or_no_procedures_exit_with_a_contract_code(
            self, workspace, caplog, argv, code):
        tmp_path, _, data = workspace
        paths = {"data": data, "empty": tmp_path / "empty.json",
                 "pred": tmp_path / "empty.tsv", "out": tmp_path / "ckpt"}
        paths["empty"].write_text("[]")
        paths["pred"].write_text("")
        assert main([a.format(**paths) for a in argv]) == code
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1
        if code == EXIT_DATA:
            assert str(paths["empty"]) in errors[0]

    def test_evaluate_rejects_unaligned_ids(self, workspace):
        tmp_path, cfg, data = workspace
        pred = tmp_path / "pred.tsv"
        pred.write_text("otherproc\t1\te\tNONE\t-\t-\n")
        assert main(["evaluate", "--pred", str(pred),
                     "--gold", str(data)]) == EXIT_DATA

    @pytest.mark.parametrize("argv, culprit", [
        (["generate-data", "--out", "{dir}"], "dir"),
        (["evaluate", "--pred", "{dir}", "--gold", "{data}"], "dir"),
        (["train", "--data", "{data}", "--config", "{cfg}", "--out", "{file}"],
         "file"),
        (["train", "--data", "{data}", "--config", "{dir}", "--out", "{out}"],
         "dir"),
        (["predict", "--data", "{data}", "--checkpoint", "{file}",
          "--out", "{out}"], "file"),
    ], ids=["generate-out-dir", "evaluate-pred-dir", "train-out-file",
            "train-config-dir", "predict-checkpoint-file"])
    def test_io_failure_is_data_error_naming_the_path(
            self, workspace, caplog, capsys, argv, culprit):
        tmp_path, cfg, data = workspace
        paths = {"data": data, "cfg": cfg, "dir": tmp_path / "a-dir",
                 "file": tmp_path / "a-file", "out": tmp_path / "out"}
        paths["dir"].mkdir()
        paths["file"].write_text("x")
        assert main([a.format(**paths) for a in argv]) == EXIT_DATA
        errors = [r for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and errors[0].exc_info is None
        assert str(paths[culprit]) in errors[0].getMessage()
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--min-steps", "5", "--max-steps", "3"],
        ["--min-steps", "0", "--max-steps", "0"],
        ["--n", "-3"],
        ["--n", "0"],
    ], ids=["steps-reversed", "no-steps", "negative-n", "zero-n"])
    def test_generate_data_range_it_cannot_honour_is_config_error(
            self, tmp_path, caplog, flags):
        out = tmp_path / "data.json"
        assert main(["generate-data", *flags, "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and errors[0].startswith("config error:")


class TestEvaluateGolden:
    def test_gold_vs_gold_all_ones(self, tmp_path):
        p = photosynthesis()
        gold = tmp_path / "gold.json"
        save_procedures([p], gold)
        pred = tmp_path / "pred.tsv"
        write_tsv(gold_tables([p]), pred)
        for mode in ("sentence", "document", "npn"):
            metrics = tmp_path / f"m_{mode}.json"
            assert main(["evaluate", "--pred", str(pred), "--gold", str(gold),
                         "--mode", mode, "--out", str(metrics)]) == 0
            report = json.loads(metrics.read_text())
            for v in report.values():
                if isinstance(v, float):
                    assert v == 1.0

    @pytest.mark.parametrize("mode", ["sentence", "document", "npn"])
    @pytest.mark.parametrize("old, new, culprit", [
        ("photosynthesis\t1\twater\tMOVE\tsoil\troot\n",
         "photosynthesis\t1\twater\tNONE\tsoil\troot\n",
         "pred.tsv:21: action 'NONE'"),
        ("photosynthesis\t2\twater\tMOVE\troot\tleaf\n",
         "photosynthesis\t2\twater\tMOVE\tpot\tleaf\n",
         "process 'photosynthesis': broken chaining for 'water' at step 2"),
        ("photosynthesis\t3\twater\tNONE\tleaf\tleaf\n", "",
         "process 'photosynthesis': steps for 'water' are not 1 .. 4"),
    ], ids=["relabelled", "broken-chain", "gap"])
    def test_malformed_pred_rows_are_data_errors_in_every_mode(
            self, tmp_path, caplog, mode, old, new, culprit):
        """The gold TSV of the fixture with water's step-1 move relabelled
        as none, its step-2 before moved to `pot`, or its step-3 row
        deleted: one error line naming the line or the process."""
        p = photosynthesis()
        gold = tmp_path / "gold.json"
        save_procedures([p], gold)
        pred = tmp_path / "pred.tsv"
        write_tsv(gold_tables([p]), pred)
        text = pred.read_text()
        assert text.count(old) == 1
        pred.write_text(text.replace(old, new))
        assert main(["evaluate", "--pred", str(pred), "--gold", str(gold),
                     "--mode", mode]) == EXIT_DATA
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and culprit in errors[0]

    def test_pred_entities_or_steps_unlike_gold_are_data_errors(self, tmp_path,
                                                               caplog):
        """A pred table that chains and counts its steps 1..n, but misses an
        entity or a last step, or adds an entity, names the process."""
        p = photosynthesis()
        gold = tmp_path / "gold.json"
        save_procedures([p], gold)
        pred = tmp_path / "pred.tsv"
        rows = gold_tables([p])[p.id]
        for kept in ([r for r in rows if r.entity != "sugar"],
                     [r for r in rows if r.step < p.n_steps],
                     rows + build_table({"oxygen": ["-"] * (p.n_steps + 1)},
                                        p.n_steps)):
            write_tsv({p.id: kept}, pred)
            assert main(["evaluate", "--pred", str(pred), "--gold", str(gold),
                         "--mode", "npn"]) == EXIT_DATA
            assert "process 'photosynthesis': predicted entities" in caplog.text
            caplog.clear()

    def test_corrupted_move_lowers_moves_recall_only(self, tmp_path):
        p = photosynthesis()
        gold = tmp_path / "gold.json"
        save_procedures([p], gold)
        tables = gold_tables([p])
        # water's step-2 move (root -> leaf) flattened into staying at root,
        # then jumping at step 3; this perturbs only the moves criterion
        broken = dict(p.grid)
        broken["water"] = ["soil", "root", "root", "leaf", "-", "-"]
        tables[p.id] = build_table({e: (broken[e] if e == "water"
                                        else p.timeline(e))
                                    for e in p.entities}, p.n_steps)
        pred = tmp_path / "pred.tsv"
        write_tsv(tables, pred)
        metrics = tmp_path / "m.json"
        assert main(["evaluate", "--pred", str(pred), "--gold", str(gold),
                     "--mode", "document", "--out", str(metrics)]) == 0
        report = json.loads(metrics.read_text())
        assert report["criteria"]["moves"]["recall"] < 1.0
        for name in ("inputs", "outputs", "conversions"):
            assert report["criteria"][name]["recall"] == 1.0
            assert report["criteria"][name]["precision"] == 1.0

    def test_npn_mode_matches_hand_count(self, tmp_path):
        p = photosynthesis()
        gold = tmp_path / "gold.json"
        save_procedures([p], gold)
        tables = gold_tables([p])
        pred_grid = {e: p.timeline(e) for e in p.entities}
        pred_grid["water"] = ["soil", "pot", "leaf", "leaf", "-", "-"]  # 1 wrong
        tables[p.id] = build_table(pred_grid, p.n_steps)
        pred = tmp_path / "pred.tsv"
        write_tsv(tables, pred)
        metrics = tmp_path / "m.json"
        assert main(["evaluate", "--pred", str(pred), "--gold", str(gold),
                     "--mode", "npn", "--out", str(metrics)]) == 0
        report = json.loads(metrics.read_text())
        # gold change steps: water 1,2,4; light 3,4; co2 3,4; mixture 4,5;
        # sugar 5 -> 10 total, exactly one mispredicted
        assert report["location_change_accuracy"] == pytest.approx(9 / 10)

    def test_convert_round_trip(self, tmp_path):
        from proctrack.data import save_grid_tsv
        p = photosynthesis()
        tsv = tmp_path / "grid.tsv"
        save_grid_tsv([p], tsv)
        out = tmp_path / "converted.json"
        assert main(["convert", "--tsv", str(tsv), "--out", str(out)]) == 0
        direct = tmp_path / "direct.json"
        save_procedures([p], direct)
        assert out.read_bytes() == direct.read_bytes()


# ---------------------------------------------------------------------------
# Fuzzing: `predict` and `evaluate` on mutated corpus and checkpoint files
# end with a contract exit code and never raise.
# ---------------------------------------------------------------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 200) | st.floats()
    | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)


class Files(dict):
    """File name -> text, shown by name only in a failing example."""

    def __repr__(self):
        return f"Files({sorted(self)})"


@pytest.fixture(scope="module")
def clean_run(tmp_path_factory):
    """A two-procedure corpus, a tiny checkpoint and its predicted TSV."""
    root = tmp_path_factory.mktemp("fuzz")
    data = root / "data.json"
    procs = generate_synthetic(8, 2, GrammarConfig(min_steps=2, max_steps=3))
    save_procedures(procs, data)
    cfg = EncoderConfig(d_model=8, n_heads=2, n_layers=1, d_ff=8, max_len=64)
    TrackerModel.fresh(vocab_from_procedures(procs), cfg, seed=0).save(root / "ckpt")
    assert main(["predict", "--data", str(data), "--checkpoint",
                 str(root / "ckpt"), "--out", str(root / "pred.tsv")]) == 0
    files = Files({name: (root / name).read_text()
                   for name in ("data.json", "pred.tsv")})
    files["ckpt/params.bin"] = (root / "ckpt/params.bin").read_bytes()
    return files


NEST = "<nest>"  # where `mutated` splices its nested lists into the text


@st.composite
def mutated(draw, text):
    """`text` (JSON) cut short, or with one value at a random depth deleted
    or replaced: by a drawn value, or, as text, by lists nested to a depth
    near or far beyond what Python's parser follows."""
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return text[:draw(st.integers(0, len(text) - 1))]
    root = node = json.loads(text)
    while True:
        keys = list(node) if isinstance(node, dict) else range(len(node))
        key = draw(st.sampled_from(keys)) if keys else None
        child = None if key is None else node[key]
        if key is None or not isinstance(child, (dict, list)) \
                or draw(st.integers(0, 2)) == 0:
            break
        node = child
    if kind == 1:
        depth = draw(st.integers(1, 1000) | st.just(100000))
        if key is None:
            return "[" * depth + "]" * depth
        node[key] = NEST
        return json.dumps(root).replace(json.dumps(NEST),
                                        "[" * depth + "]" * depth, 1)
    if key is None:
        return json.dumps(draw(JSON_VALUES))
    if draw(st.booleans()):
        del node[key]
    else:
        node[key] = draw(JSON_VALUES)
    return json.dumps(root)


@st.composite
def mutated_params(draw, blob):
    """The params.bin `blob` with its header line, or the config or the
    vocab in it, mutated as by `mutated`, or its tensor bytes cut short or
    padded."""
    head, body = blob.split(b"\n", 1)
    kind = draw(st.sampled_from(["header", "config", "vocab", "cut", "pad"]))
    if kind == "header":
        head = draw(mutated(head.decode())).encode()
    elif kind in ("config", "vocab"):
        part = json.dumps(json.loads(head)[kind])
        head = head.replace(part.encode(), draw(mutated(part)).encode(), 1)
    elif kind == "cut":
        body = body[:draw(st.integers(0, len(body) - 1))]
    else:
        body += draw(st.binary(min_size=1, max_size=16))
    return head + b"\n" + body


def with_header_edit(blob, path, value):
    """The params.bin `blob` with the header value at `path` set to `value`."""
    head, body = blob.split(b"\n", 1)
    header = node = json.loads(head)
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return json.dumps(header).encode() + b"\n" + body


def write_files(root, files):
    for rel, content in files.items():
        (root / rel).parent.mkdir(exist_ok=True)
        if isinstance(content, bytes):
            (root / rel).write_bytes(content)
        else:
            (root / rel).write_text(content)


def one_error_line(caplog):
    """The text of the one ERROR record, checked to be one line."""
    (error,) = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert "\n" not in error
    return error


class TestTooDeepOrTooLarge:
    """Input that Python's parser or numpy's allocator refuses is a one-line
    contract error, not a traceback."""

    DEEP = "[" * 100000 + "]" * 100000

    @pytest.mark.parametrize("site, code", [
        ("predict-data", EXIT_DATA), ("evaluate-gold", EXIT_DATA),
        ("train-config", EXIT_CONFIG), ("checkpoint-header", EXIT_DATA)])
    def test_deeply_nested_json(self, clean_run, tmp_path, caplog, site, code):
        files = dict(clean_run)
        if site == "checkpoint-header":
            body = clean_run["ckpt/params.bin"].split(b"\n", 1)[1]
            files["ckpt/params.bin"] = self.DEEP.encode() + b"\n" + body
        else:
            files["config.json" if site == "train-config" else "data.json"] = self.DEEP
        write_files(tmp_path, files)
        data, ckpt = str(tmp_path / "data.json"), str(tmp_path / "ckpt")
        argv = {
            "predict-data": ["predict", "--data", data, "--checkpoint", ckpt,
                             "--out", str(tmp_path / "out.tsv")],
            "evaluate-gold": ["evaluate", "--pred", str(tmp_path / "pred.tsv"),
                              "--gold", data],
            "train-config": ["train", "--data", data, "--out", str(tmp_path / "t"),
                             "--config", str(tmp_path / "config.json")],
        }
        argv["checkpoint-header"] = argv["predict-data"]
        assert main(argv[site]) == code
        assert "nested too deeply to read" in one_error_line(caplog)

    def test_encoder_too_large_to_allocate_is_config_error(self, workspace,
                                                           caplog):
        """numpy refuses a (10¹², 32) position table at once."""
        tmp_path, cfg, data = workspace
        cfg.write_text(json.dumps({"encoder": {"max_len": 10**12}, "epochs": 1}))
        assert main(["train", "--data", str(data), "--config", str(cfg),
                     "--out", str(tmp_path / "ckpt")]) == EXIT_CONFIG
        assert "too large to allocate" in one_error_line(caplog)
        assert not (tmp_path / "ckpt" / "params.bin").exists()


class TestFuzz:
    RECIPE = {"id": "proc0000", "sentences": ["the water moves to the pot ."],
              "ingredients": ["water"], "locations": {"water": {"1": "pot"}}}

    @pytest.mark.parametrize("name, path, value, where", [
        ("data.json", [0], None, "$[0]: expected"),
        ("data.json", [0, "entities"], [{"x": 1}], "$[0].entities:"),
        ("data.json", [0, "candidate_spans"], 0.5, "$[0].candidate_spans:"),
        ("data.json", [0, "candidate_spans"], [[1.5, 2]], "$[0].candidate_spans:"),
        ("ckpt/params.bin", ["config", "n_heads"], 0, "params.bin"),
        ("ckpt/params.bin", ["config", "n_heads"], True, "params.bin"),
        ("ckpt/params.bin", ["config", "max_len"], 64.0, "params.bin"),
        ("ckpt/params.bin", ["config", "n_layers"], [1], "params.bin"),
        ("ckpt/params.bin", ["vocab", "the"], -3, "params.bin"),
        ("data.json", [0], dict(RECIPE, locations=["water"]), "$[0].locations:"),
        ("data.json", [0], dict(RECIPE, locations={"water": {"one": "pot"}}),
         "$[0].locations.water.one:"),
        ("data.json", [0], dict(RECIPE, locations={"water": {"1": 5}}),
         "$[0].locations.water.1:"),
        ("data.json", [0], dict(RECIPE, grid={}), "$[0]: unknown keys ['grid']"),
        ("data.json", [0], dict(RECIPE, locations={"water": {"1": "pot"},
                                                   "watr": {"1": "pan"}}),
         "$[0].locations.watr:"),
        ("data.json", [0], dict(RECIPE, locations={"water": {" 1": "pot"}}),
         "$[0].locations.water. 1:"),
        ("data.json", [0], dict(RECIPE, locations={"water": {"\u0661": "pot"}}),
         "$[0].locations.water.\u0661:"),
    ], ids=["non-object-procedure", "non-string-entity", "number-spans",
            "float-span", "zero-heads", "bool-heads", "float-max-len",
            "list-layers", "vocab-id-out-of-range", "recipe-list-locations",
            "recipe-word-step", "recipe-number-location", "recipe-unknown-key",
            "recipe-unlisted-ingredient", "recipe-padded-step",
            "recipe-non-ascii-digit-step"])
    def test_escapes_found_by_fuzzing_are_data_errors(self, clean_run, tmp_path,
                                                      caplog, name, path, value,
                                                      where):
        if name == "ckpt/params.bin":
            edited = with_header_edit(clean_run[name], path, value)
        else:
            doc = node = json.loads(clean_run[name])
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
            edited = json.dumps(doc)
        write_files(tmp_path, {**clean_run, name: edited})
        assert main(["predict", "--data", str(tmp_path / "data.json"),
                     "--checkpoint", str(tmp_path / "ckpt"),
                     "--out", str(tmp_path / "out.tsv")]) == EXIT_DATA
        assert where in caplog.text

    @pytest.mark.parametrize("lr", ["1e30", "1e308"])
    def test_huge_learning_rate_is_one_line_numeric_failure(self, workspace, lr):
        """The overflow is the CLI's one-line numeric failure: no numpy
        warning reaches stderr and no checkpoint that predict rejects is
        written."""
        tmp_path, cfg, data = workspace
        cfg.write_text(cfg.read_text().replace('"learning_rate": 0.05',
                                               f'"learning_rate": {lr}'))
        src = str(Path(__file__).resolve().parents[1] / "src")
        run = subprocess.run(
            [sys.executable, "-m", "proctrack.cli", "train", "--data", str(data),
             "--config", str(cfg), "--out", str(tmp_path / "ckpt")],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src})
        assert run.returncode == EXIT_NUMERIC
        assert run.stderr.startswith("ERROR numeric failure: ")
        assert run.stderr.count("\n") == 1, run.stderr
        assert not (tmp_path / "ckpt" / "params.bin").exists()

    def test_a_huge_bad_value_gives_a_short_error_line(self, clean_run,
                                                       tmp_path):
        """The loader's message quotes at most the start of the value: the
        whole list read as one 689 KB line."""
        write_files(tmp_path, {**clean_run,
                               "data.json": json.dumps([list(range(100000))])})
        src = str(Path(__file__).resolve().parents[1] / "src")
        run = subprocess.run(
            [sys.executable, "-m", "proctrack.cli", "evaluate",
             "--pred", str(tmp_path / "pred.tsv"),
             "--gold", str(tmp_path / "data.json"),
             "--out", str(tmp_path / "metrics.json")],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src})
        assert run.returncode == EXIT_DATA
        assert "$[0]: expected a procedure or recipe object" in run.stderr
        assert run.stderr.count("\n") == 1 and len(run.stderr) < 1024, \
            len(run.stderr)

    @pytest.mark.parametrize("key, value", [
        ("learning_rate", True), ("decay_factor", True), ("decay_every", 2.5)])
    def test_bool_or_fractional_sgd_setting_is_config_error(
            self, workspace, caplog, key, value):
        """JSON's `true` is not a rate of 1.0, nor 2.5 a step count."""
        tmp_path, cfg, data = workspace
        doc = json.loads(cfg.read_text())
        doc["sgd"][key] = value
        cfg.write_text(json.dumps(doc))
        assert main(["train", "--data", str(data), "--config", str(cfg),
                     "--out", str(tmp_path / "ckpt")]) == EXIT_CONFIG
        assert f"{key} must be" in caplog.text
        assert not (tmp_path / "ckpt").exists()

    def test_state0_sentence_in_grid_tsv_is_data_error(self, tmp_path, caplog):
        tsv = tmp_path / "grid.tsv"
        tsv.write_text("p1\twater\nstate0\tsome dropped text\t?\n"
                       "state1\troots absorb water\troots\n")
        assert main(["convert", "--tsv", str(tsv),
                     "--out", str(tmp_path / "out.json")]) == EXIT_DATA
        assert "grid.tsv:block0.state0: the sentence cell" in caplog.text
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("key", ["max_len", "n_layers", "d_model", "d_ff"])
    def test_huge_config_size_is_data_error_without_allocating(
            self, clean_run, tmp_path, monkeypatch, key):
        """A header config implying a model of 10⁹ rows or layers is checked
        against the tensors without building that model."""
        def refuse(*args, **kwargs):
            raise AssertionError("load must not build a model to learn shapes")

        import proctrack.encoder
        import proctrack.model
        monkeypatch.setattr(TrackerModel, "fresh", refuse)
        monkeypatch.setattr(proctrack.model, "init_encoder_params", refuse)
        monkeypatch.setattr(proctrack.encoder, "init_encoder_params", refuse)
        blob = with_header_edit(clean_run["ckpt/params.bin"], ["config", key], 10**9)
        write_files(tmp_path, {**clean_run, "ckpt/params.bin": blob})
        assert main(["predict", "--data", str(tmp_path / "data.json"),
                     "--checkpoint", str(tmp_path / "ckpt"),
                     "--out", str(tmp_path / "out.tsv")]) == EXIT_DATA

    @given(data=st.data())
    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    def test_predict_and_evaluate_exit_with_a_contract_code(self, clean_run, data):
        name = data.draw(st.sampled_from(["data.json", "ckpt/params.bin"]))
        mutate = mutated_params if name == "ckpt/params.bin" else mutated
        files = dict(clean_run, **{name: data.draw(mutate(clean_run[name]))})
        mode = data.draw(st.sampled_from(["sentence", "document", "npn"]))
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            write_files(root, files)
            codes = [
                main(["predict", "--data", str(root / "data.json"), "--checkpoint",
                      str(root / "ckpt"), "--out", str(root / "out.tsv")]),
                main(["evaluate", "--pred", str(root / "pred.tsv"), "--gold",
                      str(root / "data.json"), "--mode", mode,
                      "--out", str(root / "metrics.json")]),
            ]
        assert set(codes) <= {0, EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC}, (name, codes)
