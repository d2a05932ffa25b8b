"""Full model: vocabulary + encoder + heads, with procedure-level helpers."""

from __future__ import annotations

import contextvars
import os
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import DataError, Procedure
from .encoder import (
    EncoderConfig, embed, encode, init_encoder_params, param_count, param_shapes,
)
from .heads import STATUS_KNOWN, joint_loss, span_head, status_class_of, status_head
from .inference import decode_step, repair_timeline, violates_rules
from .inputs import (
    QueryLayout, TimestampedInput, build_query, question_tokens, time_ids,
    timestamp,  # unused here: the benchmark's tracer patches it in this module
)
from .tokenizer import Vocab, build_vocab

# The most attention scores, entities x (n+1) steps x T², in one stacked pass,
# taped or not: a predict-short procedure (57,600 at most) fits one pass, while
# one predict-long entity (88,935 or more) runs alone, as stacking those ran
# 0.79x as fast. An entity is never split (0.63-0.95x as fast). Under
# status-first prediction, lifting the cap ran 0.93-0.96x as fast. The cap
# also sets how many passes a prediction call has to spread over the CPUs.
STACK_SCORES = 2 ** 16
# The fewest scores in each of a procedure's stacks for prediction to run them
# on several threads. A smaller pass holds the GIL for most of its ops: on 2
# CPUs, procedures whose stacks held 40,000-74,000 scores ran 0.78-1.02x as
# fast on two threads as on one (median 0.84x, 17 procedures), and 80,000-
# 221,000 ran 0.87-1.49x (median 1.15x, 37). Every predict-long entity is over.
THREAD_SCORES = 80_000


def vocab_from_procedures(procs: list[Procedure]) -> Vocab:
    corpus = []
    for p in procs:
        for e in p.entities:
            corpus.append(["where", "is", "?"])
            corpus.append(question_tokens(e))
        corpus.extend(p.sentences)
    return build_vocab(corpus)


def targets(proc: Procedure, entities: Sequence[str], layout: QueryLayout
            ) -> tuple[list[int], list[int], list[tuple[int, int]]]:
    """Training targets of a stack's rows (entity, step 0..n), in row order:
    each row's status class; the rows whose location text occurs in the
    paragraph; and for each of those, its first occurrence at the positions
    of `layout`, which the stack's layouts share, inclusive. A known location
    whose text never occurs there is a row with no span."""
    pos = layout.paragraph_pos
    classes, rows, spans = [], [], []
    for row, value in enumerate(v for e in entities for v in proc.grid[e]):
        classes.append(status_class_of(value))
        found = proc.occurrences.get(value)
        if found:
            rows.append(row)
            spans.append((pos[found[0][0]], pos[found[0][1]]))
    return classes, rows, spans


@dataclass
class TrackerModel:
    vocab: Vocab
    config: EncoderConfig
    params: dict

    @classmethod
    def fresh(cls, vocab: Vocab, config: EncoderConfig, seed: int) -> "TrackerModel":
        config = replace(config, vocab_size=len(vocab))
        params = init_encoder_params(config, np.random.default_rng(seed))
        return cls(vocab=vocab, config=config, params=params)

    # -- persistence --------------------------------------------------------

    def save(self, directory) -> None:
        """Write `params.bin` in `directory`, its header holding the config and
        vocabulary, with `ad.save_checkpoint`, so a failed save leaves the
        previous checkpoint whole."""
        os.makedirs(directory, exist_ok=True)
        ad.save_checkpoint(self.params, os.path.join(directory, "params.bin"),
                           config=asdict(self.config), vocab=self.vocab.token_to_id)

    @classmethod
    def load(cls, directory) -> "TrackerModel":
        """Load a checkpoint; DataError if `ad.read_checkpoint` rejects it
        (a value beyond float32's range among its checks), if its header's
        vocabulary or config is malformed, or if its tensors are not the
        names and shapes that config implies."""
        path = os.path.join(directory, "params.bin")
        if (not os.path.exists(path)
                and os.path.exists(os.path.join(directory, "params.json"))):
            raise DataError(f"{directory}: params.json is a v1 JSON checkpoint, "
                            f"which this version no longer reads; train again "
                            f"to write params.bin")
        try:
            header, params = ad.read_checkpoint(path)
        except ValueError as exc:
            raise DataError(str(exc)) from exc
        try:
            vocab = Vocab(header.get("vocab"))
            config = EncoderConfig(**header.get("config"))
        except (TypeError, ValueError) as exc:
            raise DataError(f"{path}: {exc}") from exc
        if config.vocab_size != len(vocab):
            raise DataError(f"{path}: config vocab_size {config.vocab_size} "
                            f"does not match the vocab's {len(vocab)} entries")
        # A count first: a config with a huge n_layers must not be listed.
        count = param_count(config)
        if len(params) != count:
            raise DataError(f"{path}: holds {len(params)} tensors, its config "
                            f"implies {count}")
        found = {k: t.shape for k, t in params.items()}
        implied = param_shapes(config)
        if found != implied:
            raise DataError(f"{path}: tensors do not match its config: "
                            + "; ".join(f"{k}: found {found.get(k, 'nothing')}, "
                                        f"expected {implied.get(k, 'nothing')}"
                                        for k in sorted(found.keys() | implied.keys())
                                        if found.get(k) != implied.get(k)))
        return cls(vocab=vocab, config=config, params=params)

    # -- forward ------------------------------------------------------------

    def layout_for(self, entity: str, proc: Procedure) -> QueryLayout:
        return build_query(entity, proc.sentences, self.vocab,
                           max_len=self.config.max_len)

    def stacks(self, proc: Procedure):
        """(entities, layouts) of each pass over `proc`, training's and
        prediction's alike: its entities by query length, in entity order,
        cut into stacks of at most STACK_SCORES scores or of one entity."""
        groups = {}
        for entity in proc.entities:
            layout = self.layout_for(entity, proc)
            groups.setdefault(len(layout.tokens), []).append((entity, layout))
        for T, group in groups.items():
            size = max(1, STACK_SCORES // ((proc.n_steps + 1) * T * T))
            for i in range(0, len(group), size):
                yield tuple(zip(*group[i:i + size]))

    def forward_steps(self, layouts: Sequence[QueryLayout], params: dict,
                      rng: np.random.Generator | None = None,
                      rows: Sequence[int] | None = None
                      ) -> tuple[Tensor, Tensor, Tensor]:
        """Status, start and end logits of one batched pass over the rows
        (layout, step 0..n), with dropout when `rng` is given. The layouts
        must have one length, so that they share positions and time ids.
        The pass runs in the dtype of `params`, and is taped when they need
        a gradient (training: float32 casts of the model's own); otherwise
        (prediction: float32 copies) it records no tape and frees each
        intermediate once used. Both pass the layouts of a `stacks` entry.

        The pass is status first. The last layer's attention runs for each
        row's [CLS] query alone, for the (rows, 3) status logits of every
        row; then in full only for the rows to finish, and only those rows,
        in that order, get (rows, T) start and end logits. The rows to finish
        are `rows` (training: the span rows of `targets`), flat row indices,
        where a negative or repeated one raises ValueError, or else those
        whose status argmax is known-location, in row order, as `decode_step`
        takes them. Their span logits are the same to the bit as the full
        pass's; the status logits are within 1e-5 of it, as BLAS rounds the
        one-row [CLS] product differently.
        """
        if rows is not None:
            rows = np.asarray(rows, dtype=np.intp)
            if np.unique(rows).size != rows.size:
                raise ValueError(f"rows names a row twice: {rows.tolist()}")
        tokens = np.array([layout.token_ids for layout in layouts])[:, None]
        inp = TimestampedInput(tokens, time_ids(layouts[0]))
        status = None

        def finish(cls: Tensor) -> np.ndarray:
            nonlocal status
            status = status_head(cls, params["head.status"])
            if rows is not None:
                return rows
            return np.flatnonzero(status.data.argmax(-1) == STATUS_KNOWN)

        hidden = encode(embed(inp, params), params, self.config, rng=rng,
                        select=finish).hidden
        return status, *span_head(hidden, params["head.start"], params["head.end"])

    def procedure_loss(self, proc: Procedure,
                       rng: np.random.Generator | None = None) -> Tensor:
        """Mean joint loss over every (entity, step 0..n) pair, with dropout
        when `rng` is given, as a float32 tensor.

        The passes run on float32 casts of the parameters, one `ad.cast`
        tape node each, made once for this call, so `backward()` leaves
        float64 gradients on the float64 parameters themselves. Each entry of
        `stacks(proc)` runs as one batched, status-first pass on the tape,
        scored by one loss over its rows against the stack's `targets`, built
        once: each row's status from the [CLS] query alone, as prediction
        computes it, and span logits only for the span rows, the only rows
        the last layer finishes."""
        params = {k: ad.cast(t, np.float32) for k, t in self.params.items()}
        losses = []
        for entities, layouts in self.stacks(proc):
            classes, rows, spans = targets(proc, entities, layouts[0])
            losses.append(joint_loss(*self.forward_steps(
                layouts, params, rng, rows), classes, spans))
        return ad.mean_of(losses, len(proc.entities) * (proc.n_steps + 1))

    # -- prediction ---------------------------------------------------------

    def predict_procedure(self, proc: Procedure, np_filter: bool = True,
                          repair: bool = True):
        """Timelines for all entities, one float32 pass per `stacks(proc)` entry
        on copies of the parameters made for this call. Returns (timelines, stats).

        The passes are independent, so `in_threads` runs them at the same time
        on up to one thread per CPU this process may use: a per-call pool
        takes stacks from the front, in copies of the caller's context so that
        `np.errstate` holds there too, and the calling thread takes them from
        the back. Every pass has ended when the call returns or raises, and a
        pass's exception is raised here. The outputs are decoded in stack
        order, so the result is the same to the bit whatever the thread count.
        A procedure with a stack of THREAD_SCORES scores or fewer, with one
        stack, or in a process of one CPU, starts no thread."""
        params = {k: Tensor(t.data.astype(np.float32))
                  for k, t in self.params.items()}
        stacks = list(self.stacks(proc))

        def forward(stack):
            return [t.data for t in self.forward_steps(stack[1], params)]

        scores = [(proc.n_steps + 1) * len(ls) * len(ls[0].tokens) ** 2
                  for _, ls in stacks]
        logits = in_threads(forward, stacks,
                            cpus() if min(scores, default=0) > THREAD_SCORES else 1)
        timelines = dict.fromkeys(proc.entities)
        flagged = violations = 0
        rows = proc.n_steps + 1
        words = proc.paragraph
        candidates = proc.candidate_spans if np_filter else None
        for (entities, layouts), outputs in zip(stacks, logits):
            states, fl = decode_step(*outputs, candidates,
                                     layouts[0].paragraph_pos)  # shared by the stack
            flagged += fl
            raw = [v if isinstance(v, str) else " ".join(words[v[0]:v[1] + 1])
                   for v in states]
            for j, entity in enumerate(entities):
                steps = raw[j * rows:(j + 1) * rows]
                violations += violates_rules(steps)
                timelines[entity] = repair_timeline(steps) if repair else steps
        return timelines, {"flagged": flagged, "rule_violations": violations}


def cpus() -> int:
    """The CPUs this process may use, or the machine's where the OS cannot
    tell a process's own (`os.sched_getaffinity` is Linux-only)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def in_threads(fn, items: Sequence, n: int) -> list:
    """[fn(item) for item in items] on up to `n` threads. A pool made for this
    call takes the items from the front, each in a copy of this thread's
    `contextvars` context, while this thread takes them from the back until
    the two meet. Fewer than two items or threads start no pool. Returns, or
    raises a call's error, once every call has ended."""
    n = min(n, len(items))
    if n < 2:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(n - 1) as pool:
        futures = [pool.submit(contextvars.copy_context().run, fn, item)
                   for item in items]
        mine = {i: fn(items[i]) for i in reversed(range(len(items)))
                if futures[i].cancel()}
        return [mine[i] if i in mine else f.result()
                for i, f in enumerate(futures)]
