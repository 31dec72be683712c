#!/usr/bin/env python3
"""Summarise or compare result sets written by run.py.

    python3 perfbench/compare.py RESULTS_DIR
    python3 perfbench/compare.py BASE_DIR NEW_DIR

A result set is a directory of run.py result files (searched recursively).
With one set it prints, per workload and metric, the median, the first and
third quartiles and the spread (q3 - q1) / median next to the metric's bound.
With two it prints both medians with their quartiles, the ratio new/base
with the base it is taken from, and how many seeds run on both sides the new
set won.  The machine metadata of each set is printed first.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_set(directory):
    """{(workload, trace): {"runs": [...], "machines": [...]}} for one directory."""
    groups = {}
    for path in sorted(Path(directory).rglob("*.json")):
        try:
            record = json.loads(path.read_text())
            key = (record["workload"], record["trace"])
            result = record["result"]
        except (ValueError, KeyError, TypeError):
            continue
        group = groups.setdefault(key, {"runs": [], "machines": []})
        group["runs"].append((record["seed"], result))
        group["machines"].append(record.get("machine", {}))
    return groups


def metric_specs():
    spec = json.loads(SPEC.read_text())
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def series(group, name):
    return {seed: r["metrics"][name]["value"] for seed, r in group["runs"]
            if name in r["metrics"]}


def describe_machines(label, groups):
    machines = [m for g in groups.values() for m in g["machines"]]
    if not machines:
        return
    first = machines[0]
    loads = [m["loadavg_start"][0] for m in machines if "loadavg_start" in m]
    steal = [m["cpu_steal_frac"] for m in machines if "cpu_steal_frac" in m]
    print(f"{label}: {len(machines)} runs; nproc={first.get('nproc')} "
          f"cpu={first.get('cpu_model')!r} python={first.get('python')} "
          f"numpy={first.get('numpy')} scipy={first.get('scipy')} blas={first.get('blas')}")
    if loads:
        print(f"  load at start: median {statistics.median(loads):.2f}, max {max(loads):.2f}")
    if steal:
        print(f"  cpu steal: median {statistics.median(steal):.3%}, max {max(steal):.3%}")


def summarise(groups, specs):
    for (workload, trace), group in sorted(groups.items()):
        bad = sum(not r["correct"] for _, r in group["runs"])
        print(f"\n{workload} trace={trace}: {len(group['runs'])} runs, {bad} incorrect")
        print(f"  {'metric':48s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} bound")
        for name in sorted({n for _, r in group["runs"] for n in r["metrics"]}):
            values = list(series(group, name).values())
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("nan")
            bound = specs.get(name, {}).get("bound")
            flag = ""
            if bound is not None:
                flag = f"{bound:.2f}" + ("  over" if spread > bound else
                                         "  over 1/3" if spread > bound / 3 else "")
            print(f"  {name:48s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.3f} {flag}")


def compare(base, new, specs):
    for key in sorted(set(base) | set(new)):
        workload, trace = key
        if key not in base or key not in new:
            print(f"\n{workload} trace={trace}: only in {'new' if key in new else 'base'}")
            continue
        print(f"\n{workload} trace={trace}: base {len(base[key]['runs'])} runs, "
              f"new {len(new[key]['runs'])} runs")
        print(f"  {'metric':48s} {'base median [q1, q3]':>36s} {'new median [q1, q3]':>36s} "
              f"{'new/base':>9s} wins")
        names = {n for _, r in base[key]["runs"] + new[key]["runs"] for n in r["metrics"]}
        for name in sorted(names):
            b, n = series(base[key], name), series(new[key], name)
            if not b or not n:
                continue
            bq1, bmed, bq3 = quartiles(list(b.values()))
            nq1, nmed, nq3 = quartiles(list(n.values()))
            spec = specs.get(name, {})
            lower = spec.get("better", "lower") == "lower"
            shared = sorted(set(b) & set(n))
            wins = sum((n[s] < b[s]) if lower else (n[s] > b[s]) for s in shared)
            ratio = f"{nmed / bmed:9.4f}" if bmed else f"{'n/a':>9s}"
            note = ""
            bound = spec.get("bound")
            if bound is not None and bmed:
                worse = (nmed - bmed) / bmed if lower else (bmed - nmed) / bmed
                if worse > bound:
                    note = f"  worse than base by {worse:.1%} > bound {bound:.0%}"
            print(f"  {name:48s} {bmed:12.6g} [{bq1:9.4g}, {bq3:9.4g}] "
                  f"{nmed:12.6g} [{nq1:9.4g}, {nq3:9.4g}] {ratio} "
                  f"{wins}/{len(shared)}{note}")
    print("\nnew/base: ratio of the new median to the base median; "
          "wins: seeds run on both sides where new was better")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("sets", nargs="+", metavar="DIR", help="one or two result sets")
    args = parser.parse_args(argv)
    if len(args.sets) > 2:
        parser.error("give one result set to summarise or two to compare")
    specs = metric_specs()
    loaded = [load_set(d) for d in args.sets]
    labels = ("base", "new") if len(loaded) == 2 else ("set",)
    for label, directory, groups in zip(labels, args.sets, loaded):
        if not groups:
            print(f"no result files under {directory}", file=sys.stderr)
            return 2
        describe_machines(label, groups)
    if len(loaded) == 1:
        summarise(loaded[0], specs)
    else:
        compare(loaded[0], loaded[1], specs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
