"""Compare two sets of benchmark results: a parent commit's and a change's.

    python3 perfbench/compare.py PARENT CHANGE

PARENT and CHANGE are each a directory of result files written by run.py
(`.perfbench/results/` in that side's checkout). Run both sides with the
same --seconds, alternating which side goes first. For every workload and
end-to-end metric of BENCHMARK.json this prints each side's median and
quartiles and a verdict:

  improved    the change wins at least 9 in 10 of the pairs (the i-th parent
              run against the i-th change run, in run order; ties count for
              neither side) and its median is better by more than the
              parent's interquartile spread;
  unresolved  otherwise, when the parent's interquartile spread is wider than
              the metric's bound, unless every change run beats every parent
              run;
  worse       otherwise, when the change's median is worse than the parent's
              by more than the bound;
  unchanged   otherwise.

It also checks that traced runs of the same code and seed report identical
counts, and exits with 1 if any differ.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys
from collections import defaultdict

from run import EXACT_SUFFIXES, ROOT


def load(directory: str) -> list:
    results = []
    for path in glob.glob(os.path.join(directory, "*.json")):
        with open(path, encoding="utf-8") as fh:
            results.append(json.load(fh))
    return sorted(results, key=lambda r: r["started"])


def _stats(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list, change: list, better: str, bound: float) -> tuple:
    """(verdict, pairs won by the change, pairs) under the rule in the docstring."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p_q1, p_med, p_q3 = _stats(parent)
    c_med = statistics.median(change)
    gain = sign * (c_med - p_med)
    if pairs and wins >= 0.9 * len(pairs) and gain > p_q3 - p_q1:
        return "improved", wins, len(pairs)
    if (p_q3 - p_q1) > bound * abs(p_med):
        if all(sign * (c - p) > 0 for c in change for p in parent):
            return "improved", wins, len(pairs)
        return "unresolved", wins, len(pairs)
    if -gain > bound * abs(p_med):
        return "worse", wins, len(pairs)
    return "unchanged", wins, len(pairs)


def count_faults(results: list) -> list:
    """Traced runs of the same workload, seed and code whose counts differ."""
    groups = defaultdict(list)
    for r in results:
        if r["trace"]:
            groups[(r["workload"], r["seed"], r["env"]["source_sha256"])].append(r)
    faults = []
    for (workload, seed, _), runs in sorted(groups.items()):
        first = runs[0]["metrics"]
        for r in runs[1:]:
            for name, m in sorted(r["metrics"].items()):
                if name.endswith(EXACT_SUFFIXES) and m["value"] != first[name]["value"]:
                    faults.append(f"{workload} seed {seed}: {name} = {m['value']!r}, "
                                  f"earlier run {first[name]['value']!r}")
    return faults


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parent, change = load(argv[0]), load(argv[1])

    def values(results, workload, metric):
        return [r["metrics"][metric]["value"] for r in results
                if not r["trace"] and r["workload"] == workload and metric in r["metrics"]]

    workloads = [w["name"] for w in spec["workloads"]]
    print(f"{'workload':<15} {'metric':<10} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'won':>7}  verdict")
    for workload in workloads:
        for m in spec["end_to_end"]:
            p, c = values(parent, workload, m["name"]), values(change, workload, m["name"])
            if not p or not c:
                continue
            v, wins, n = verdict(p, c, m["better"], m["bound"])
            cells = []
            for side in (p, c):
                q1, med, q3 = _stats(side)
                cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}] {m['unit']} n={len(side)}")
            print(f"{workload:<15} {m['name']:<10} {cells[0]:>34} {cells[1]:>34} "
                  f"{wins:>3}/{n:<3}  {v}")
    faults = count_faults(parent) + count_faults(change)
    for fault in faults:
        print(f"BENCHMARK FAULT: {fault}")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
