"""The benchmark's workloads: set-up, the measured closed loop, and checks.

Every workload runs in one process with one client: the next call starts
when the previous one has returned. A sweep is one pass over the workload's
corpus (every procedure predicted once, or one training epoch); runs stop at
a sweep boundary once the run length is reached, so every sweep is whole.
"""

from __future__ import annotations

import hashlib
import math
import os
import resource
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import proctrack.data as data
import proctrack.encoder as encoder
import proctrack.evaluation as evaluation
import proctrack.inputs as inputs
import proctrack.model as model_mod
import proctrack.state_table as state_table
import proctrack.train as train
from proctrack.autodiff import SgdConfig
from proctrack.encoder import EncoderConfig
# Bound here, not looked up through the module, so that the traced run
# counts only the program's own calls of it.
from proctrack.inference import violates_rules
from proctrack.model import TrackerModel
from refclock import ReferenceClock


@dataclass(frozen=True)
class Spec:
    kind: str  # "predict" or "train"
    n_procedures: int
    grammar: data.GrammarConfig


# Why each workload was chosen is in BENCHMARK.json and README.md.
WORKLOADS = {
    "predict-short": Spec("predict", 120,
                          data.GrammarConfig(min_steps=3, max_steps=4)),
    "predict-long": Spec("predict", 20,
                         data.GrammarConfig(min_entities=3, max_entities=4,
                                            min_steps=14, max_steps=16)),
    "train": Spec("train", 20, data.GrammarConfig(min_steps=5, max_steps=8)),
}

SETUP_REPEATS = 5
EPOCHS_PER_ROUND = 2
SYNTHETIC_WEIGHT_STD = 0.5
PROBE_PASSES = 16
# The CLI's default optimizer (`proctrack train` with no config file).
TRAIN_SGD = SgdConfig(learning_rate=3e-4, decay_factor=0.5, decay_every=50)


def passes_of(proc) -> int:
    """Encoder passes for one procedure: one per (entity, step 0..n)."""
    return len(proc.entities) * (proc.n_steps + 1)


def percentile(values, q) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def checkpoint_bytes(directory) -> int:
    return sum(os.path.getsize(os.path.join(directory, f))
               for f in os.listdir(directory))


@dataclass
class Outcome:
    """What one measured phase did: its timed calls, failures and wall time."""
    calls: list = field(default_factory=list)  # (start, end, passes)
    sweeps: int = 0
    wall: tuple = (0.0, 0.0)  # (start, end) of the phase
    ref_s: float = 0.0  # time spent in the reference kernel during the phase
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    @property
    def last_call_s(self) -> float:
        return self.calls[-1][1] - self.calls[-1][0] if self.calls else 0.0

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.problems) < 10:
            self.problems.append(message)


def _report_exception(outcome: Outcome, count: int, what: str) -> None:
    traceback.print_exc(file=sys.stderr)
    exc = sys.exc_info()[1]
    outcome.fail(count, f"{what}: {type(exc).__name__}: {exc}")


# ---------------------------------------------------------------------------
# Predict workloads
# ---------------------------------------------------------------------------

def synthetic_checkpoint(procs, seed: int, directory) -> TrackerModel:
    """A checkpoint whose predictions mix all three statuses and often break
    the consistency rules, so span decoding and repair do real work.

    A fresh model has every weight matrix redrawn from N(0, 0.5). The [CLS]
    vectors of all inputs then share a large common part, which alone would
    make one status win almost everywhere on some seeds; so the status head is
    projected to give equal logits to the mean [CLS] vector of PROBE_PASSES
    passes, one from each of the first procedures. The checkpoint is saved
    and loaded back.
    """
    model = TrackerModel.fresh(model_mod.vocab_from_procedures(procs),
                               EncoderConfig(), seed)
    params = model.params
    rng = np.random.default_rng(seed)
    for tensor in params.values():
        if tensor.data.ndim == 2:
            tensor.data[...] = rng.normal(0.0, SYNTHETIC_WEIGHT_STD,
                                          tensor.data.shape)
    cls = []
    for i, proc in enumerate(procs[:PROBE_PASSES]):
        layout = model.layout_for(proc.entities[0], proc)
        embedded = encoder.embed(inputs.timestamp(layout, i % (proc.n_steps + 1)),
                                 params)
        cls.append(encoder.encode(embedded, params, model.config).hidden.data[0])
    mean_cls = np.mean(cls, axis=0)
    w = params["head.status"].data
    w -= np.outer(mean_cls, mean_cls @ w) / (mean_cls @ mean_cls)
    model.save(directory)
    return TrackerModel.load(directory)


def smallest(procs):
    """The procedure with the fewest passes: its cost varies least from seed
    to seed, which keeps set-up time steady."""
    return min(procs, key=passes_of)


def setup_predict(spec: Spec, seed: int, workdir):
    procs = data.generate_synthetic(seed, spec.n_procedures, spec.grammar)
    model = synthetic_checkpoint(procs, seed, os.path.join(workdir, "ckpt"))
    model.predict_procedure(smallest(procs))  # warm-up
    return procs, model


def check_timelines(proc, timelines) -> list[str]:
    problems = []
    if list(timelines) != list(proc.entities):
        return [f"{proc.id}: entities {list(timelines)} != {proc.entities}"]
    for entity, tl in timelines.items():
        if len(tl) != proc.n_steps + 1:
            problems.append(f"{proc.id}/{entity}: {len(tl)} states")
        elif violates_rules(tl):
            problems.append(f"{proc.id}/{entity}: repaired timeline breaks a rule")
    return problems


def round_trip(tables, timelines_by_pid, path) -> dict[str, str]:
    """Write the sweep's tables as TSV, read them back and rebuild every
    timeline from its chained rows. Returns pid -> problem."""
    state_table.write_tsv(tables, path)
    back = state_table.read_tsv(path)
    problems = {}
    for pid, timelines in timelines_by_pid.items():
        per_entity: dict[str, list] = {}
        for row in back.get(pid, []):
            per_entity.setdefault(row.entity, []).append(row)
        try:
            rebuilt = {e: state_table.timeline_from_rows(rows)
                       for e, rows in per_entity.items()}
        except ValueError as exc:
            problems[pid] = f"{pid}: {exc}"
            continue
        if rebuilt != timelines:
            problems[pid] = f"{pid}: TSV round trip changed the timelines"
    return problems


@dataclass
class PredictState:
    """Across sweeps: the first sweep's results, which later sweeps must
    repeat exactly, and its TSV digest and status counts."""
    first: dict = field(default_factory=dict)
    digest: str = ""
    status: dict = field(default_factory=lambda: {"-": 0, "?": 0, "known": 0})
    timelines: int = 0
    repaired: int = 0
    flagged: int = 0
    last_tables: dict = field(default_factory=dict)


def predict_sweep(procs, model, out: Outcome, state: PredictState, path,
                  ref: ReferenceClock):
    clock = time.perf_counter
    tables, timelines_by_pid, failed = {}, {}, set()
    first_sweep = not state.first
    for proc in procs:
        out.attempted += 1
        ref.calibrate(out.last_call_s)
        t0 = clock()
        try:
            timelines, stats = model.predict_procedure(proc)
        except Exception:  # a failed call is counted, the loop goes on
            _report_exception(out, 1, proc.id)
            failed.add(proc.id)
            continue
        out.calls.append((t0, clock(), passes_of(proc)))
        problems = check_timelines(proc, timelines)
        if not problems:
            rows = state_table.build_table(timelines, proc.n_steps)
            if len(rows) != len(proc.entities) * proc.n_steps:
                problems.append(f"{proc.id}: table has {len(rows)} rows")
        if first_sweep:
            state.first[proc.id] = timelines
            state.timelines += len(timelines)
            state.repaired += stats["rule_violations"]
            state.flagged += stats["flagged"]
            for tl in timelines.values():
                for value in tl:
                    state.status[value if value in ("-", "?") else "known"] += 1
        elif timelines != state.first.get(proc.id):
            problems.append(f"{proc.id}: differs from the first sweep")
        if problems:
            out.fail(1, problems[0])
            failed.add(proc.id)
            continue
        tables[proc.id] = rows
        timelines_by_pid[proc.id] = timelines
    for pid, problem in round_trip(tables, timelines_by_pid, path).items():
        if pid not in failed:
            out.fail(1, problem)
    if first_sweep:
        with open(path, "rb") as f:
            state.digest = hashlib.sha256(f.read()).hexdigest()
    state.last_tables = tables
    out.sweeps += 1


def score_once(procs, tables) -> dict:
    """Score the last sweep against gold, once per run."""
    gold = {p.id: state_table.build_table({e: p.timeline(e) for e in p.entities},
                                          p.n_steps)
            for p in procs if p.id in tables}
    doc = evaluation.document_level(tables, gold)
    sent = evaluation.sentence_level(tables, gold)
    scores = {"document_f1": doc.f1, "sentence_macro": sent.macro_avg}
    for name, value in scores.items():
        if not (math.isfinite(value) and 0.0 <= value <= 1.0):
            raise ValueError(f"{name} = {value} outside [0, 1]")
    return scores


# ---------------------------------------------------------------------------
# Train workload
# ---------------------------------------------------------------------------

def setup_train(spec: Spec, seed: int, workdir):
    procs = data.generate_synthetic(seed, spec.n_procedures, spec.grammar)
    start = os.path.join(workdir, "start")
    TrackerModel.fresh(model_mod.vocab_from_procedures(procs), EncoderConfig(),
                       seed).save(start)
    warm = TrackerModel.load(start)
    train.train_model(warm, [smallest(procs)], TRAIN_SGD, 1, seed=seed)  # warm-up
    return procs, start


@dataclass
class TrainState:
    losses: list = field(default_factory=list)  # first round's epoch losses


def train_round(procs, start, seed, out: Outcome, state: TrainState, workdir,
                ref: ReferenceClock):
    """Train a fresh copy of the start checkpoint for EPOCHS_PER_ROUND epochs,
    saving a checkpoint each epoch; every round must repeat the first."""
    clock = time.perf_counter
    ckpt = os.path.join(workdir, "ckpt")
    passes = sum(map(passes_of, procs))
    steps = EPOCHS_PER_ROUND * len(procs)
    out.attempted += steps
    model = TrackerModel.load(start)
    epochs = []

    def stop_fn(_model, _epoch):  # epoch boundary: after its checkpoint save
        end = clock()
        epochs.append((begin[0], end, passes))
        ref.calibrate(end - begin[0])
        begin[0] = clock()
        return False

    ref.calibrate(out.last_call_s)
    begin = [clock()]
    try:
        result = train.train_model(model, procs, TRAIN_SGD, EPOCHS_PER_ROUND,
                                   seed=seed, checkpoint_dir=ckpt,
                                   stop_fn=stop_fn)
    except Exception:  # a failed round is counted, the loop goes on
        _report_exception(out, steps, "train_model")
        return
    losses = result.epoch_losses
    problem = None
    if len(losses) != EPOCHS_PER_ROUND or not all(map(math.isfinite, losses)):
        problem = f"epoch losses {losses}"
    elif state.losses and losses != state.losses:
        problem = f"epoch losses {losses} differ from the first round {state.losses}"
    else:
        saved = TrackerModel.load(ckpt)
        if any(not np.array_equal(saved.params[k].data, t.data)
               for k, t in model.params.items()):
            problem = "last checkpoint does not match the trained parameters"
    if problem:
        out.fail(steps, problem)
        return
    if not state.losses:
        state.losses = losses
    out.calls.extend(epochs)
    out.sweeps += EPOCHS_PER_ROUND


# ---------------------------------------------------------------------------
# Running a workload
# ---------------------------------------------------------------------------

def run_phase(step, seconds: float, out: Outcome, ref: ReferenceClock) -> None:
    """Call `step()` until `seconds` have passed, at least once."""
    spent = ref.spent_s
    t0 = time.perf_counter()
    step()
    while time.perf_counter() - t0 < seconds:
        step()
    ref.calibrate(out.last_call_s)  # so the last call has kernel runs after it
    out.wall = (t0, time.perf_counter())
    out.ref_s = ref.spent_s - spent


def run(name: str, seed: int, seconds: float, tracer, workdir) -> dict:
    """Set up `name` SETUP_REPEATS times, then measure it for `seconds`.

    With a tracer, the first half of the time is measured untraced and the
    second half traced, which gives the tracing overhead; set-up and the
    once-per-run scoring are traced too.
    """
    spec = WORKLOADS[name]
    setup = setup_predict if spec.kind == "predict" else setup_train
    ref = ReferenceClock()
    if tracer is not None:
        tracer.install()
    setup_calls = []
    for _ in range(SETUP_REPEATS):
        ref.calibrate(setup_calls[-1][1] - setup_calls[-1][0] if setup_calls else 0.0)
        t0 = time.perf_counter()
        procs, target = setup(spec, seed, workdir)
        setup_calls.append((t0, time.perf_counter(), None))
    ref.calibrate(setup_calls[-1][1] - setup_calls[-1][0])
    if tracer is not None:
        tracer.remove()

    outcomes = [Outcome()]
    if spec.kind == "predict":
        state = PredictState()
        tsv = os.path.join(workdir, "pred.tsv")
        step = lambda: predict_sweep(procs, target, outcomes[-1], state, tsv,
                                     ref)
    else:
        state = TrainState()
        step = lambda: train_round(procs, target, seed, outcomes[-1], state,
                                   workdir, ref)
    window = None
    if tracer is None:
        run_phase(step, seconds, outcomes[0], ref)
    else:
        run_phase(step, seconds / 2, outcomes[0], ref)
        outcomes.append(Outcome())
        tracer.install()
        first = tracer.mark()
        run_phase(step, seconds / 2, outcomes[1], ref)
        window = (first, tracer.mark())

    scores = {}
    if spec.kind == "predict":
        try:
            scores = score_once(procs, state.last_tables)
        except Exception:
            _report_exception(outcomes[-1], 1, "scoring")
    if tracer is not None:
        tracer.remove()
    return {"spec": spec, "procs": procs, "setup_calls": setup_calls,
            "outcomes": outcomes, "state": state, "scores": scores,
            "window": window, "ref": ref,
            "checkpoint_bytes": checkpoint_bytes(os.path.join(workdir, "ckpt")),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
