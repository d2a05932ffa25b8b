"""Command-line interface: generate-data, convert, train, predict, evaluate.

Exit codes: 0 success, 2 config error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

import numpy as np

from .autodiff import NonFiniteGradientError, SgdConfig
from .data import (
    DataError, GrammarConfig, generate_synthetic, load_grid_tsv,
    load_procedures, save_procedures,
)
from .encoder import EncoderConfig
from .evaluation import (
    MetricsReport, document_level, location_change_accuracy, sentence_level,
)
from .model import TrackerModel, vocab_from_procedures
from .state_table import build_table, read_tsv, timelines_from_table, write_tsv
from .train import train_model

log = logging.getLogger("proctrack")

EXIT_OK, EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC = 0, 2, 3, 4

# Each run-config key with the value a config that leaves it out gets. An
# "sgd" object gets the values here for the keys that it leaves out.
_DEFAULTS = {"encoder": {}, "epochs": 50, "seed": 0, "sgd": {
    "learning_rate": 3e-4, "decay_factor": 0.5, "decay_every": 50}}


class ConfigError(ValueError):
    pass


def load_run_config(path, **overrides) -> dict:
    """The run config in the JSON file at `path` (defaults for all it omits,
    or for all with no path), with the `overrides` that are not None."""
    cfg = {}
    if path is not None:
        with open(path, encoding="utf-8") as f:
            try:
                cfg = json.load(f)
            except ValueError as exc:
                raise ConfigError(f"{path}: not JSON: {exc}") from exc
            except RecursionError:
                raise ConfigError(f"{path}: JSON nested too deeply to read") from None
        if not isinstance(cfg, dict):
            raise ConfigError(f"{path}: expected a JSON object")
    cfg.update((k, v) for k, v in overrides.items() if v is not None)
    unknown = set(cfg) - set(_DEFAULTS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    cfg = {**_DEFAULTS, **cfg}
    for key in ("encoder", "sgd"):
        if not isinstance(cfg[key], dict):
            raise ConfigError(f"{key} must be an object, got {cfg[key]!r:.40}")
    if "vocab_size" in cfg["encoder"]:
        raise ConfigError("encoder.vocab_size is set by the training corpus")
    try:
        encoder = EncoderConfig(**cfg["encoder"])
        sgd = SgdConfig(**{**_DEFAULTS["sgd"], **cfg["sgd"]})
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    epochs, seed = cfg["epochs"], cfg["seed"]
    if type(epochs) is not int or type(seed) is not int or epochs < 1:
        raise ConfigError(f"epochs must be a positive integer and seed an "
                          f"integer, got {epochs!r}, {seed!r}")
    return {"encoder": encoder, "sgd": sgd, "epochs": epochs, "seed": seed}


def gold_tables(procs):
    return {p.id: build_table(p.grid, p.n_steps) for p in procs}


def cmd_generate_data(args) -> int:
    if args.n < 1:
        raise ConfigError(f"--n must be >= 1, got {args.n}")
    try:
        grammar = GrammarConfig(min_steps=args.min_steps, max_steps=args.max_steps)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    procs = generate_synthetic(args.seed, args.n, grammar)
    save_procedures(procs, args.out)
    log.info("wrote %d procedures to %s", len(procs), args.out)
    return EXIT_OK


def cmd_convert(args) -> int:
    procs = load_grid_tsv(args.tsv)
    save_procedures(procs, args.out)
    log.info("converted %d procedures to %s", len(procs), args.out)
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = load_run_config(args.config, epochs=args.epochs, seed=args.seed)
    if args.eval_every < 0:
        raise ConfigError(f"--eval-every must be >= 0, got {args.eval_every}")
    procs = load_procedures(args.data)
    if not procs:
        raise DataError(f"{args.data}: no procedures to train on")
    dev = load_procedures(args.dev) if args.dev else procs
    if not dev:
        raise DataError(f"{args.dev}: no procedures to evaluate on")
    # Made now, so an --out that cannot be a directory fails before training.
    os.makedirs(args.out, exist_ok=True)
    vocab = vocab_from_procedures(procs)
    try:
        model = TrackerModel.fresh(vocab, cfg["encoder"], cfg["seed"])
    except MemoryError as exc:
        raise ConfigError(f"encoder config too large to allocate: {exc}") from exc
    result = train_model(
        model, procs, cfg["sgd"], cfg["epochs"], seed=cfg["seed"],
        checkpoint_dir=args.out, dev_procs=dev,
        freeze_timestamps=args.zero_timestamp,
        eval_every=args.eval_every,
    )
    log.info("finished %d steps; final epoch loss %.4f",
             result.steps, result.epoch_losses[-1])
    return EXIT_OK


def cmd_predict(args) -> int:
    model = TrackerModel.load(args.checkpoint)
    if args.zero_timestamp:
        model.params["ts_emb"].data[:] = 0.0
    procs = load_procedures(args.data)
    tables = {}
    flagged = violations = 0
    for proc in procs:
        timelines, stats = model.predict_procedure(
            proc, np_filter=not args.no_np_filter,
            repair=not args.no_constraints)
        tables[proc.id] = build_table(timelines, proc.n_steps)
        flagged += stats["flagged"]
        violations += stats["rule_violations"]
    write_tsv(tables, args.out)
    if args.no_constraints:
        log.info("constraints disabled: %d/%d entity timelines violated rules",
                 violations, sum(len(p.entities) for p in procs))
    if flagged:
        log.warning("%d known-location steps had no usable span candidate", flagged)
    log.info("wrote predictions for %d processes to %s", len(tables), args.out)
    return EXIT_OK


def cmd_evaluate(args) -> int:
    gold_procs = load_procedures(args.gold)
    if not gold_procs:
        raise DataError(f"{args.gold}: no procedures to score against")
    gold = gold_tables(gold_procs)
    pred = read_tsv(args.pred)
    unmatched = set(pred) ^ set(gold)
    if unmatched:
        raise DataError(f"process ids do not align: {sorted(unmatched)}")
    pred_tl = {}
    for p in gold_procs:
        try:
            pred_tl[p.id] = timelines_from_table(pred[p.id])
        except ValueError as exc:
            raise DataError(f"{args.pred}: process {p.id!r}: {exc}") from exc
        lengths = {e: len(tl) for e, tl in pred_tl[p.id].items()}
        if lengths != dict.fromkeys(p.entities, p.n_steps + 1):
            raise DataError(f"{args.pred}: process {p.id!r}: predicted entities "
                            f"or step count differ from the gold "
                            f"{len(p.entities)} entities over {p.n_steps} steps")

    if args.mode == "sentence":
        report = sentence_level(pred, gold)
        print(f"{'Cat1':>8} {'Cat2':>8} {'Cat3':>8} {'Macro':>8} {'Micro':>8}",
              file=sys.stderr)
        print(f"{report.cat1:8.3f} {report.cat2:8.3f} {report.cat3:8.3f} "
              f"{report.macro_avg:8.3f} {report.micro_avg:8.3f}", file=sys.stderr)
    elif args.mode == "document":
        report = document_level(pred, gold)
        print(f"{'criterion':>12} {'P':>8} {'R':>8} {'F1':>8}", file=sys.stderr)
        for name, m in report.criteria.items():
            print(f"{name:>12} {m['precision']:8.3f} {m['recall']:8.3f} "
                  f"{m['f1']:8.3f}", file=sys.stderr)
        print(f"{'overall':>12} {report.precision:8.3f} {report.recall:8.3f} "
              f"{report.f1:8.3f}", file=sys.stderr)
    else:  # npn
        acc = location_change_accuracy(pred_tl, {p.id: p.grid for p in gold_procs})
        report = MetricsReport(location_change_accuracy=acc)
        print(f"location-change accuracy: {acc:.3f}", file=sys.stderr)

    payload = json.dumps(report.to_dict(), indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(payload + "\n")
    else:
        print(payload)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="proctrack")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate-data", help="write a synthetic corpus")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--min-steps", type=int, default=GrammarConfig.min_steps)
    p.add_argument("--max-steps", type=int, default=GrammarConfig.max_steps)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_generate_data)

    p = sub.add_parser("convert", help="grid TSV -> canonical JSON")
    p.add_argument("--tsv", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_convert)

    p = sub.add_parser("train", help="train a model and write checkpoints")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="checkpoint directory")
    p.add_argument("--config", help="run-config JSON")
    p.add_argument("--epochs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--dev", help="dev-set JSON for status accuracy logging")
    p.add_argument("--eval-every", type=int, default=0)
    p.add_argument("--zero-timestamp", action="store_true",
                   help="freeze the time-id table at zero (step-blind ablation)")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("predict", help="emit a state-change TSV")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--no-constraints", action="store_true")
    p.add_argument("--no-np-filter", action="store_true")
    p.add_argument("--zero-timestamp", action="store_true")
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("evaluate", help="score predictions against gold")
    p.add_argument("--pred", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--mode", choices=["sentence", "document", "npn"],
                   default="document")
    p.add_argument("--out", help="metrics JSON path (default: stdout)")
    p.set_defaults(fn=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(levelname)s %(message)s")
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        # An overflow or invalid value is a numeric failure, not a warning.
        with np.errstate(over="raise", invalid="raise"):
            return args.fn(args)
    except ConfigError as exc:
        log.error("config error: %s", exc)
        return EXIT_CONFIG
    except (NonFiniteGradientError, FloatingPointError) as exc:
        log.error("numeric failure: %s", exc)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:  # DataError among them
        log.error("data error: %s", exc)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
