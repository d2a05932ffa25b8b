"""Print the bits each benchmark workload gives, to compare across a change:

    python tools/bits.py --seed 1

It runs `bench/run.py --seconds 1 --trace 0` once per workload of
BENCHMARK.json, each in its own process, and prints the predict workloads'
`tsv_sha256` and the train workload's `train.final_loss`. Exits 1 if any run
exits non-zero.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    workloads = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    status = 0
    for name in (w["name"] for w in workloads):
        run = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", "1", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        if run.returncode != 0:
            print(f"{name}: exit {run.returncode}\n{run.stderr.strip()}")
            status = 1
            continue
        report = json.loads(run.stdout.splitlines()[0])["report"]
        loss = report["metrics"].get("train.final_loss")
        print(f"{name}: " + (f"tsv_sha256 {report['tsv_sha256']}" if loss is None
                             else f"train.final_loss {loss['value']!r}"))
    return status


if __name__ == "__main__":
    sys.exit(main())
