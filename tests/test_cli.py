import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from proctrack.cli import (
    EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, gold_tables, load_run_config, main,
)
from proctrack.data import (
    GrammarConfig, generate_synthetic, load_procedures, save_procedures,
)
from proctrack.encoder import EncoderConfig
from proctrack.fixtures import photosynthesis
from proctrack.model import TrackerModel, vocab_from_procedures
from proctrack.state_table import read_tsv, write_tsv


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

    def test_non_integer_epochs_or_seed_is_config_error(self, tmp_path):
        path = tmp_path / "cfg.json"
        for bad in ({"epochs": "x"}, {"epochs": 2.5}, {"seed": "0"},
                    {"seed": True}):
            path.write_text(json.dumps(bad))
            assert main(["train", "--data", "x.json", "--out",
                         str(tmp_path / "o"), "--config", str(path)]) == EXIT_CONFIG

    def test_missing_data_file_is_data_error(self, tmp_path):
        assert main(["train", "--data", str(tmp_path / "none.json"),
                     "--out", str(tmp_path / "o")]) == EXIT_DATA


class TestCheckpointLayout:
    def test_per_head_qkv_checkpoint_is_data_error(self, workspace):
        """A checkpoint with separate attn.q{h}/k{h}/v{h} matrices, the layout
        before the fused attn.qkv, is rejected instead of crashing."""
        tmp_path, _, data = workspace
        cfg = EncoderConfig(**TINY_CONFIG["encoder"])
        ckpt = tmp_path / "ckpt"
        TrackerModel.fresh(vocab_from_procedures(load_procedures(data)), cfg,
                           seed=0).save(ckpt)
        ppath = ckpt / "params.json"
        blob = json.loads(ppath.read_text())
        d, dh = cfg.d_model, cfg.d_model // cfg.n_heads
        qkv = np.reshape(blob.pop("layer0.attn.qkv")["data"], (d, 3 * d))
        for h in range(cfg.n_heads):
            for i, part in enumerate("qkv"):
                cols = qkv[:, (3 * h + i) * dh:(3 * h + i + 1) * dh]
                blob[f"layer0.attn.{part}{h}"] = {"shape": [d, dh],
                                                  "data": cols.ravel().tolist()}
        ppath.write_text(json.dumps(blob))
        assert main(["predict", "--data", str(data), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "pred.tsv")]) == EXIT_DATA

    @pytest.mark.parametrize("record", [
        {"data": [0.0] * 48},  # no shape
        {"shape": [16, 3]},  # no data
        {"shape": [16, 3], "data": [0.0] * 47},  # data does not fit the shape
        {"shape": [16, 3], "data": ["x"] * 48},
        {"shape": [16, 3], "data": [float("nan")] * 48},
        {"shape": [16, 3], "data": [0.0] * 47 + [float("inf")]},
        [0.0] * 48,
    ])
    def test_malformed_record_is_data_error(self, workspace, caplog, record):
        tmp_path, _, data = workspace
        cfg = EncoderConfig(**TINY_CONFIG["encoder"])
        ckpt = tmp_path / "ckpt"
        TrackerModel.fresh(vocab_from_procedures(load_procedures(data)), cfg,
                           seed=0).save(ckpt)
        ppath = ckpt / "params.json"
        blob = json.loads(ppath.read_text())
        blob["head.status"] = record
        ppath.write_text(json.dumps(blob))
        assert main(["predict", "--data", str(data), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "pred.tsv")]) == EXIT_DATA
        assert "head.status" in caplog.text

    def test_vocab_not_an_object_is_data_error(self, workspace, caplog):
        tmp_path, _, data = workspace
        ckpt = tmp_path / "ckpt"
        TrackerModel.fresh(vocab_from_procedures(load_procedures(data)),
                           EncoderConfig(**TINY_CONFIG["encoder"]), seed=0).save(ckpt)
        (ckpt / "vocab.json").write_text(json.dumps(["a", "b"]))
        assert main(["predict", "--data", str(data), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "pred.tsv")]) == EXIT_DATA
        assert "vocab.json: expected an object" in caplog.text


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

    def test_duplicate_entity_in_grid_tsv_is_data_error(self, tmp_path, caplog):
        tsv = tmp_path / "grid.tsv"
        tsv.write_text("p1\twater\twater\nstate0\t\t?\t?\n"
                       "state1\troots absorb water\troots\troots\n")
        assert main(["convert", "--tsv", str(tsv),
                     "--out", str(tmp_path / "out.json")]) == EXIT_DATA
        assert "block0.entities[1]: duplicate entity 'water'" in caplog.text


class TestPipeline:
    def test_generate_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert main(["generate-data", "--seed", "7", "--n", "2",
                         "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_train_predict_evaluate(self, workspace):
        tmp_path, cfg, data = workspace
        ckpt = tmp_path / "ckpt"
        assert main(["train", "--data", str(data), "--out", str(ckpt),
                     "--config", str(cfg)]) == 0
        assert (ckpt / "params.json").exists()
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
            texts = {procs[pid].span_text(s, e)
                     for s, e in procs[pid].candidate_spans}
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

    def test_evaluate_rejects_unaligned_ids(self, workspace):
        tmp_path, cfg, data = workspace
        pred = tmp_path / "pred.tsv"
        pred.write_text("otherproc\t1\te\tNONE\t-\t-\n")
        assert main(["evaluate", "--pred", str(pred),
                     "--gold", str(data)]) == EXIT_DATA


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

    def test_corrupted_move_lowers_moves_recall_only(self, tmp_path):
        p = photosynthesis()
        gold = tmp_path / "gold.json"
        save_procedures([p], gold)
        tables = gold_tables([p])
        # water's step-2 move (root -> leaf) flattened into staying at root,
        # then jumping at step 3; this perturbs only the moves criterion
        broken = dict(p.grid)
        broken["water"] = ["soil", "root", "root", "leaf", "-", "-"]
        from proctrack.state_table import build_table
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
        from proctrack.state_table import build_table
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
    return Files({name: (root / name).read_text() for name in (
        "data.json", "pred.tsv", "ckpt/config.json", "ckpt/params.json",
        "ckpt/vocab.json")})


@st.composite
def mutated(draw, text):
    """`text` (JSON) with one value replaced or deleted at a random depth,
    or cut short."""
    if draw(st.integers(0, 9)) == 0:
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
    if key is None:
        return json.dumps(draw(JSON_VALUES))
    if draw(st.booleans()):
        del node[key]
    else:
        node[key] = draw(JSON_VALUES)
    return json.dumps(root)


def write_files(root, files):
    for rel, text in files.items():
        (root / rel).parent.mkdir(exist_ok=True)
        (root / rel).write_text(text)


class TestFuzz:
    @pytest.mark.parametrize("name, path, value", [
        ("data.json", [0], None),
        ("data.json", [0, "entities"], [{"x": 1}]),
        ("data.json", [0, "candidate_spans"], 0.5),
        ("data.json", [0, "candidate_spans"], [[1.5, 2]]),
        ("ckpt/config.json", ["n_heads"], 0),
        ("ckpt/config.json", ["n_heads"], True),
        ("ckpt/config.json", ["max_len"], 64.0),
        ("ckpt/config.json", ["n_layers"], [1]),
        ("ckpt/vocab.json", ["the"], -3),
    ], ids=["non-object-procedure", "non-string-entity", "number-spans",
            "float-span", "zero-heads", "bool-heads", "float-max-len",
            "list-layers", "vocab-id-out-of-range"])
    def test_escapes_found_by_fuzzing_are_data_errors(self, clean_run, tmp_path,
                                                      name, path, value):
        doc = node = json.loads(clean_run[name])
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        write_files(tmp_path, {**clean_run, name: json.dumps(doc)})
        assert main(["predict", "--data", str(tmp_path / "data.json"),
                     "--checkpoint", str(tmp_path / "ckpt"),
                     "--out", str(tmp_path / "out.tsv")]) == EXIT_DATA

    @pytest.mark.parametrize("key", ["max_len", "n_layers", "d_model", "d_ff"])
    def test_huge_config_size_is_data_error_without_allocating(
            self, clean_run, tmp_path, monkeypatch, key):
        """A config.json implying a model of 10⁹ rows or layers is checked
        against params.json without building that model."""
        def refuse(*args, **kwargs):
            raise AssertionError("load must not build a model to learn shapes")

        import proctrack.encoder
        import proctrack.model
        monkeypatch.setattr(TrackerModel, "fresh", refuse)
        monkeypatch.setattr(proctrack.model, "init_encoder_params", refuse)
        monkeypatch.setattr(proctrack.encoder, "init_encoder_params", refuse)
        doc = json.loads(clean_run["ckpt/config.json"])
        doc[key] = 10**9
        write_files(tmp_path, {**clean_run, "ckpt/config.json": json.dumps(doc)})
        assert main(["predict", "--data", str(tmp_path / "data.json"),
                     "--checkpoint", str(tmp_path / "ckpt"),
                     "--out", str(tmp_path / "out.tsv")]) == EXIT_DATA

    @given(data=st.data())
    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    def test_predict_and_evaluate_exit_with_a_contract_code(self, clean_run, data):
        name = data.draw(st.sampled_from(["data.json", "ckpt/config.json",
                                          "ckpt/params.json", "ckpt/vocab.json"]))
        files = dict(clean_run, **{name: data.draw(mutated(clean_run[name]))})
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
