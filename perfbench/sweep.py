#!/usr/bin/env python3
"""Run the benchmark over several seeds, on one checkout or alternating two.

    python3 perfbench/sweep.py --workload verify-default --seeds 1-10 --out DIR
    python3 perfbench/sweep.py --workload flow-sweep --seeds 1-10 --out DIR PARENT CHANGE

Each checkout runs its own perfbench/run.py with the same arguments; with
two checkouts the one that goes first alternates from seed to seed.  The
result files land in DIR/<label>/ (label: the checkout's directory name),
ready for compare.py, which is run on them at the end.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True,
                        help="workload to run; repeat for several")
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"),
                        help="seeds as ranges, e.g. 1-10 or 3,5,8-9 (default 1-10)")
    parser.add_argument("--seconds", default=None,
                        help="--seconds for run.py (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--out", required=True, metavar="DIR")
    parser.add_argument("checkouts", nargs="*", default=[str(BENCH.parent)],
                        help="checkout roots (default: this one); at most two")
    args = parser.parse_args(argv)
    if len(args.checkouts) > 2:
        parser.error("give one or two checkouts")

    roots = [Path(c).resolve() for c in args.checkouts]
    labels = [r.name for r in roots]
    if len(set(labels)) < len(labels):
        labels = [f"{i}-{name}" for i, name in enumerate(labels)]
    seconds = args.seconds or str(
        json.loads((roots[0] / "BENCHMARK.json").read_text())["run_seconds"]
    )
    out = Path(args.out).resolve()

    failures = 0
    for workload in args.workload:
        for i, seed in enumerate(args.seeds):
            order = list(zip(roots, labels))
            if i % 2:
                order.reverse()
            for root, label in order:
                cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
                       "--seed", str(seed), "--seconds", seconds, "--trace", args.trace,
                       "--results", str(out / label)]
                proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
                try:
                    ok = proc.returncode == 0 and json.loads(proc.stdout.splitlines()[-1])["correct"]
                except (IndexError, ValueError, KeyError, TypeError):
                    ok = False
                failures += not ok
                print(f"{label} {workload} seed={seed}: "
                      f"{'ok' if ok else 'FAILED (exit %d)' % proc.returncode}", flush=True)
                if not ok:
                    sys.stderr.write(proc.stderr[-2000:])

    compare = [sys.executable, str(BENCH / "compare.py"), *(str(out / l) for l in labels)]
    subprocess.run(compare, check=False)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
