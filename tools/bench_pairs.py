"""Run the benchmark in alternating parent/change pairs and write a BENCH file:

    python tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload predict-long \
        --pairs 10 --seconds 30 --seed 1 --out BENCH_<pr>.json

PARENT_DIR and CHANGE_DIR are two checkouts of the repository, the parent
commit and the change; give them names of equal length, so that the path
lengths cannot differ between sides. Each run is `bench/run.py --trace 0`
started from its own tree, one at a time. The parent runs first in odd pairs
and the change first in even ones. `--workload` may be given more than once.

The output holds `command`, `parent` (the short commit of PARENT_DIR, when it
is a git checkout), `protocol`, `summary` and `runs`. `summary` gives, per
workload and metric, each side's quartiles and in how many pairs the change
read better, for the end-to-end metrics of BENCHMARK.json and their unscaled
`wall.*` forms. Each entry of `runs` holds the result line the benchmark
printed and the report's `wall.*` metrics. The file is written again after
every pair, so a stopped run keeps the pairs it finished. Exits 1 if any run
failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run from `tree`: its result line and its report's
    `wall.*` metrics, or its exit code and the end of its stderr."""
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or len(lines) < 2:
        return {"exit": run.returncode, "stderr": run.stderr[-2000:]}
    report = json.loads(lines[-2])["report"]
    return {"result": json.loads(lines[-1]),
            "wall": {k: v["value"] for k, v in report["metrics"].items()
                     if k.startswith("wall.")}}


def value(run: dict, metric: str):
    if "result" not in run:
        return None
    if metric.startswith("wall."):
        return run["wall"].get(metric)
    return run["result"]["metrics"][metric]["value"]


def quartiles(values: list) -> dict:
    if len(values) < 2:
        return {"q1": None, "median": values[0] if values else None, "q3": None}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(runs: list, workload: str, metrics: list) -> dict:
    """Per (metric, better) pair: each side's quartiles over the runs of
    `workload`, and the pairs in which the change read better."""
    out = {}
    for metric, better in metrics:
        by_pair = {}
        for r in runs:
            v = value(r, metric)
            if r["workload"] == workload and v is not None:
                by_pair.setdefault(r["pair"], {})[r["side"]] = v
        sides = {side: quartiles([p[side] for p in by_pair.values() if side in p])
                 for side in SIDES}
        both = [p for p in by_pair.values() if len(p) == 2]
        wins = sum((p["change"] > p["parent"]) if better == "higher"
                   else (p["change"] < p["parent"]) for p in both)
        out[metric] = {**sides, "change_better_in": f"{wins}/{len(both)} pairs"}
    return out


def git_head(tree: Path):
    run = subprocess.run(["git", "-C", str(tree), "rev-parse", "--short", "HEAD"],
                         capture_output=True, text=True)
    return run.stdout.strip() if run.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_dir", type=Path)
    parser.add_argument("change_dir", type=Path)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent_dir.resolve(), "change": args.change_dir.resolve()}
    declared = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    metrics = [(m["name"], m["better"]) for m in declared["end_to_end"]]
    metrics += [(f"wall.{name}", better) for name, better in metrics]
    seconds = f"{args.seconds:g}"
    doc = {
        "command": f"python3 bench/run.py --workload W --seed {args.seed} "
                   f"--seconds {seconds} --trace 0",
        "parent": git_head(trees["parent"]),
        "protocol": (
            f"Alternating parent/change pairs, each side run from its own "
            f"checkout (directory names of equal length), the parent first in "
            f"odd pairs and the change first in even ones; "
            f"{len(os.sched_getaffinity(0))}-CPU host, BLAS held to one thread "
            f"by the benchmark. {args.pairs} pairs of {seconds} s runs on each "
            f"workload, at seed {args.seed}. Each entry of runs holds the "
            f"result line the benchmark printed and the report's unscaled "
            f"wall.* metrics."),
        "summary": {},
        "runs": [],
    }
    failed = False
    for workload in args.workload:
        key = f"{workload} seed {args.seed}, {seconds} s runs"
        for pair in range(1, args.pairs + 1):
            order = SIDES if pair % 2 else SIDES[::-1]
            for side in order:
                run = run_bench(trees[side], workload, args.seed, args.seconds)
                failed |= "result" not in run or not run["result"]["correct"]
                doc["runs"].append({"side": side, "pair": pair,
                                    "workload": workload,
                                    "seconds": args.seconds, **run})
                print(f"{workload} pair {pair} {side}: "
                      f"passes_per_s {value(run, 'passes_per_s')}", file=sys.stderr)
            doc["summary"][key] = summarize(doc["runs"], workload, metrics)
            args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
