"""Benchmark for proctrack. Run from the repository root:

    python3 bench/run.py --workload predict-short --seed 1 --seconds 30 --trace 0

It imports proctrack from ./src, runs one workload (see workloads.py), checks
its outputs and prints two JSON lines: a report with every metric under its
descriptive name, the corpus and the environment; then, last, the result
`{"correct", "attempted", "failed", "metrics"}` whose metrics are the
end-to-end ones of BENCHMARK.json with `--trace 0` and its per-layer ones with
`--trace 1`. Exits 0 when every check passed, 1 when one failed, 2 when the
sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Per-layer names measured once per call rather than per sweep.
PER_CALL = ("data.generate_synthetic", "model.load", "model.save",
            "evaluation.document_level", "evaluation.sentence_level")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_name,
            "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
            "nproc": len(os.sched_getaffinity(0))}


def metric(value, unit, **extra) -> dict:
    return {"value": value, "unit": unit, **extra}


def scaled(ref, calls) -> list[tuple[float, int]]:
    """(reference seconds, passes) of each (start, end, passes) call."""
    return [((end - start) * ref.scale(start, end), passes)
            for start, end, passes in calls]


def timing_metrics(calls) -> dict:
    """Throughput and per-pass latency of (seconds, passes) calls."""
    from workloads import percentile

    per_pass_ms = [1000 * s / p for s, p in calls]
    n = len(calls)
    return {
        "passes_per_s": metric(sum(p for _, p in calls) / sum(s for s, _ in calls),
                               "1/s", samples=n),
        "pass_ms_p50": metric(percentile(per_pass_ms, 50), "ms", samples=n),
        "pass_ms_p90": metric(percentile(per_pass_ms, 90), "ms", samples=n),
    }


def end_to_end(res) -> dict:
    """Descriptive end-to-end metrics, from an untraced run. Times are in
    reference seconds (refclock.py); `wall.*` gives the same unscaled."""
    from workloads import percentile

    out, ref = res["outcomes"][0], res["ref"]
    calls = scaled(ref, out.calls)
    setup = [s for s, _ in scaled(ref, res["setup_calls"])]
    m = {
        "setup_s": metric(statistics.median(setup), "s", samples=len(setup)),
        "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
        "failed_share": metric(out.failed / out.attempted, "share",
                               samples=out.attempted),
        **timing_metrics(calls),
    }
    wall = [(end - start, p) for start, end, p in out.calls]
    for name, value in timing_metrics(wall).items():
        m[f"wall.{name}"] = value
    m["wall.setup_s"] = metric(
        statistics.median(end - start for start, end, _ in res["setup_calls"]),
        "s", samples=len(setup))
    call_s = [s for s, _ in calls]
    kind = res["spec"].kind
    m[f"{kind}.passes_per_s"] = m["passes_per_s"]
    if kind == "predict":
        m["predict.proc_ms_p50"] = metric(1000 * percentile(call_s, 50), "ms",
                                          samples=len(call_s))
        m["predict.proc_ms_p90"] = metric(1000 * percentile(call_s, 90), "ms",
                                          samples=len(call_s))
    else:
        m["train.epoch_s_p50"] = metric(percentile(call_s, 50), "s",
                                        samples=len(call_s))
        m["train.final_loss"] = metric(res["state"].losses[-1], "nats")
    return m


def per_layer(res, tracer) -> dict:
    """Descriptive per-layer metrics, from a traced run. Self times are in
    reference milliseconds: per sweep, or per call for PER_CALL names."""
    from tracing import REFERENCE_SPAN
    from workloads import passes_of

    untraced, traced = res["outcomes"]
    ref = res["ref"]
    window = tracer.summary(*res["window"])
    whole = tracer.summary()
    window_scale = ref.scale(*traced.wall)
    run_scale = ref.scale(res["setup_calls"][0][0], traced.wall[1])
    sweeps = traced.sweeps
    m = {}
    for name in tracer.names:
        if name == REFERENCE_SPAN:
            continue
        if name in PER_CALL:
            calls = whole["calls"][name]
            ms = 1000 * run_scale * whole["self_s"][name] / calls if calls else 0.0
            m[f"{name}.ms"] = metric(ms, "ms", samples=calls)
        else:
            m[f"{name}.ms"] = metric(
                1000 * window_scale * window["self_s"][name] / sweeps, "ms")
            m[f"{name}.calls"] = metric(window["calls"][name] / sweeps, "count")
    passes = sum(map(passes_of, res["procs"]))
    m["autodiff.ops_per_pass"] = metric(window["forward_ops"] / (passes * sweeps),
                                        "count")
    state = res["state"]
    if res["spec"].kind == "predict":
        m["inference.repaired_share"] = metric(state.repaired / state.timelines,
                                               "share")
        m["inference.flagged_share"] = metric(state.flagged / passes, "share")
    else:
        m["inference.repaired_share"] = metric(0.0, "share")
        m["inference.flagged_share"] = metric(0.0, "share")
    m["model.checkpoint_bytes"] = metric(res["checkpoint_bytes"], "bytes")
    layers_s = window["covered_s"] - window["self_s"][REFERENCE_SPAN]
    loop_s = traced.wall[1] - traced.wall[0] - traced.ref_s
    m["trace.covered_share"] = metric(layers_s / loop_s, "share")
    per_sweep = [sum(s for s, _ in scaled(ref, o.calls)) / o.sweeps
                 for o in (untraced, traced)]
    m["trace.overhead"] = metric(per_sweep[1] / per_sweep[0] - 1, "share")
    return m


def self_check(res) -> list[str]:
    """The synthetic checkpoint must keep decode and repair busy."""
    if res["spec"].kind != "predict":
        return []
    state = res["state"]
    problems = [f"no '{k}' states predicted" for k, v in state.status.items()
                if v == 0]
    if state.repaired == 0:
        problems.append("repair changed no timeline")
    return problems


def contract(names, descriptive: dict) -> dict:
    return {name: {"value": descriptive[name]["value"],
                   "unit": descriptive[name]["unit"]} for name in names}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "proctrack", "__init__.py")):
        print(f"error: no proctrack sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:  # before numpy loads: one thread, one core
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    tracer = Tracer() if args.trace else None
    try:
        res = workloads.run(args.workload, args.seed, args.seconds, tracer,
                            workdir)
        if tracer is not None:
            metrics = per_layer(res, tracer)
            wanted = declared["per_layer"]
        else:
            metrics = end_to_end(res)
            wanted = declared["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(o.attempted for o in res["outcomes"])
    failed = sum(o.failed for o in res["outcomes"])
    problems = [p for o in res["outcomes"] for p in o.problems] + self_check(res)
    spec, state = res["spec"], res["state"]
    why = {w["name"]: w["why"] for w in declared["workloads"]}
    report = {
        "workload": args.workload, "why": why.get(args.workload),
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "corpus": {"generator": "generate_synthetic", "seed": args.seed,
                   "n_procedures": spec.n_procedures,
                   "grammar": {k: v for k, v in vars(spec.grammar).items()
                               if not k.endswith("_pool")},
                   "passes_per_sweep": sum(map(workloads.passes_of,
                                               res["procs"]))},
        "environment": environment(),
        "sweeps": [o.sweeps for o in res["outcomes"]],
        "metrics": metrics,
        "problems": problems,
    }
    if spec.kind == "predict":
        report["tsv_sha256"] = state.digest
        report["status_mix"] = state.status
        report["scores"] = res["scores"]
    else:
        report["epoch_losses"] = state.losses
    print(json.dumps({"report": report}))
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": contract([m["name"] for m in wanted], metrics),
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
