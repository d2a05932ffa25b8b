"""Smoke test of the benchmark at a tiny run length (about a minute).

    python3 bench/smoke.py

Runs every workload untraced and traced and checks: the exit code; the
result line's keys and that its metrics are exactly the ones BENCHMARK.json
declares, with their units; that the report names every metric the benchmark
documents for that workload (README.md); that every name is well formed; that
the untraced and traced runs of one seed predict the same TSV; and that
without the proctrack sources the command fails and prints no result.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

OPS = ("matmul", "add", "scale", "softmax", "gelu", "layer_norm", "embedding",
       "concat", "transpose", "reshape", "slice_rows")
END_TO_END = {
    "all": ("setup_s", "peak_rss_mb", "failed_share"),
    "predict": ("predict.passes_per_s", "predict.proc_ms_p50",
                "predict.proc_ms_p90"),
    "train": ("train.passes_per_s", "train.epoch_s_p50", "train.final_loss"),
}
PER_LAYER = {
    "all": ("encoder.encode.ms", "encoder.embed.ms", "autodiff.ops_per_pass",
            *(f"autodiff.{op}.{k}" for op in OPS for k in ("ms", "calls")),
            "autodiff.backward.ms", "autodiff.sgd_step.ms", "autodiff.mean_of.ms",
            "heads.joint_loss.ms", "autodiff.cross_entropy.ms",
            "heads.status_head.ms", "heads.span_head.ms",
            "inputs.build_query.ms", "inputs.timestamp.ms",
            "inference.decode_step.ms", "inference.repair_timeline.ms",
            "inference.repaired_share", "inference.flagged_share",
            "state_table.build_table.ms", "state_table.write_tsv.ms",
            "evaluation.document_level.ms", "evaluation.sentence_level.ms",
            "model.save.ms", "model.checkpoint_bytes", "model.load.ms",
            "data.generate_synthetic.ms", "trace.covered_share",
            "trace.overhead"),
}
SECONDS = "0.5"


def run(cwd, workload, trace, seed="3"):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", seed,
           "--seconds", SECONDS, "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def check_run(declared, workload, kind, trace) -> dict:
    proc = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}"
    lines = proc.stdout.splitlines()
    result, report = json.loads(lines[-1]), json.loads(lines[-2])["report"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True and result["failed"] == 0, (where, report)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    wanted = declared["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted], where
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"], m
        assert isinstance(got["value"], (int, float)), m
    documented = (PER_LAYER if trace else END_TO_END)
    for name in documented["all"] + documented.get(kind, ()):
        assert name in report["metrics"], f"{where}: {name} missing"
    for name, m in report["metrics"].items():
        assert NAME.match(name), f"{where}: bad name {name!r}"
        assert isinstance(m["unit"], str) and m["unit"], name
    if trace:
        covered = report["metrics"]["trace.covered_share"]["value"]
        assert 0.0 < covered <= 1.0, covered
    return report


def check_without_sources() -> None:
    """In a directory with only BENCHMARK.json and the benchmark, fail."""
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    bare = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_work"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "predict-short", 0)
        assert proc.returncode != 0, "ran without the proctrack sources"
        assert '"correct"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)
    for group in ("end_to_end", "per_layer"):
        for m in declared[group]:
            assert NAME.match(m["name"]), m
    sys.path.insert(0, BENCH)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import WORKLOADS

    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    for workload, spec in WORKLOADS.items():
        untraced = check_run(declared, workload, spec.kind, 0)
        traced = check_run(declared, workload, spec.kind, 1)
        if spec.kind == "predict":
            assert untraced["tsv_sha256"] == traced["tsv_sha256"], workload
        else:
            assert untraced["epoch_losses"] == traced["epoch_losses"], workload
        print(f"ok {workload}", flush=True)
    check_without_sources()
    print("ok without sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
