"""Print the bits each benchmark workload gives, to compare across a change:

    python tools/bits.py --seed 1

It runs `bench/run.py --seconds 1 --trace 0` once per workload of
BENCHMARK.json, each in its own process, through `bench_pairs.run_bench`, and
prints the predict workloads' `tsv_sha256` and the train workload's
`train.final_loss`. Exits 1 if any run exits non-zero.
"""

import argparse
import json
import sys
from pathlib import Path

from bench_pairs import run_bench

ROOT = Path(__file__).resolve().parents[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    workloads = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    status = 0
    for name in (w["name"] for w in workloads):
        run = run_bench(ROOT, name, args.seed, 1)
        if "bits" not in run:
            print(f"{name}: exit {run['exit']}\n{run['stderr'].strip()}")
            status = 1
            continue
        print(f"{name}: " + " ".join(f"{k} {v}" for k, v in run["bits"].items()))
    return status


if __name__ == "__main__":
    sys.exit(main())
