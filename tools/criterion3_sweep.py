"""Criterion 3's pass epoch under small nudges of its initialisation.

Criterion 3 (`TestCriterion3Overfit` in `tests/test_acceptance.py`) trains at
lr 0.3, and its pass epoch follows last-bit rounding, so a change to the
training arithmetic that is not bit-identical can pass or fail it by luck.
This script runs the test as written (same corpus, epochs and thresholds)
once per k, with `layer0.ff.w1[0, 0]` of every fresh model nudged by k·1e-8,
and prints each run's verdict line, the pass rate and the quartiles of the
pass epochs, to be read beside the same sweep of the parent commit:

    python tools/criterion3_sweep.py 1 10        # k = 1..10

Each run takes about as long as criterion 3 itself.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import re
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import test_acceptance  # noqa: E402
from proctrack.model import TrackerModel  # noqa: E402

NUDGE = 1e-8


def run(k: int) -> tuple[bool, int, str]:
    """Whether criterion 3 passes with the nudge k·NUDGE, its last checked
    epoch and its verdict line."""
    fresh = TrackerModel.__dict__["fresh"]

    def nudged(cls, vocab, config, seed):
        model = fresh.__func__(cls, vocab, config, seed)
        model.params["layer0.ff.w1"].data[0, 0] += k * NUDGE
        return model

    out = io.StringIO()
    TrackerModel.fresh = classmethod(nudged)
    try:
        with contextlib.redirect_stdout(out):
            test_acceptance.TestCriterion3Overfit().test_overfit_and_ablation_direction()
        passed = True
    except AssertionError:
        passed = False
    finally:
        TrackerModel.fresh = fresh
    line = out.getvalue().strip()
    return passed, int(re.search(r"\(epoch (\d+)", line).group(1)), line


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("first", type=int, help="first k")
    parser.add_argument("last", type=int, help="last k, inclusive")
    args = parser.parse_args(argv)
    epochs = []
    ks = range(args.first, args.last + 1)
    for k in ks:
        passed, epoch, line = run(k)
        print(f"k={k}: {line}", flush=True)
        if passed:
            epochs.append(epoch)
    print(f"passed {len(epochs)}/{len(ks)}")
    if epochs:
        q1, q2, q3 = np.percentile(epochs, [25, 50, 75])
        print(f"pass epochs: quartiles {q1:g} / {q2:g} / {q3:g}, "
              f"min {min(epochs)}, max {max(epochs)}")


if __name__ == "__main__":
    main()
