"""Compare two sets of benchmark result records (parent vs change).

Usage (from the repository root)::

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the JSON records ``perfbench/run.py`` writes to
``perfbench/out/records/`` (untraced runs only are compared).  For every
workload and end-to-end metric it prints one row: each side's median and
quartiles, the change in the median, how many seed-matched pairs the change
won, and a verdict by the rule the benchmark was defined with:

* ``unresolved`` — the parent's own spread (quartile distance over median)
  exceeds the metric's bound, unless every change run beats every parent run;
* ``gain`` — the change wins at least nine tenths of the pairs (ties count
  for neither) and the medians differ by more than the parent's quartile
  distance, in the better direction;
* ``REGRESSION`` — the change's median is worse than the parent's by more
  than the bound;
* ``within bound`` — otherwise.

A gain must also hold on :data:`HELD_OUT_SEED`; the helper says when the
change's records lack it.  Exit status 1 when any row is a regression.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: A seed not to be used while developing a change; its claim must hold here too.
HELD_OUT_SEED = 97


def load(directory: Path) -> dict:
    """(workload, metric) → {seed: value} over the untraced records."""
    values: dict = defaultdict(dict)
    machines = set()
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        if record["trace"]:
            continue
        machines.add(json.dumps(record["machine"], sort_keys=True))
        for name, metric in record["metrics"].items():
            values[(record["workload"], name)][record["seed"]] = metric["value"]
    return {"values": values, "machines": machines}


def quartiles(values) -> tuple:
    ordered = sorted(values)
    if len(ordered) < 2:
        return ordered[0], ordered[0], ordered[0]
    q1, q2, q3 = statistics.quantiles(ordered, n=4)
    return q1, q2, q3


def verdict(parent: dict, change: dict, better: str, bound: float) -> tuple:
    """``(verdict, wins, pairs)`` for one workload and metric (seed → value)."""
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent.values())
    _, cm, _ = quartiles(change.values())
    seeds = sorted(set(parent) & set(change))
    wins = sum(sign * (change[s] - parent[s]) > 0 for s in seeds)
    all_better = min(sign * v for v in change.values()) > max(
        sign * v for v in parent.values())
    spread = (p3 - p1) / abs(pm) if pm else float("inf")
    if spread > bound and not all_better:
        return "unresolved", wins, len(seeds)
    if seeds and wins >= 0.9 * len(seeds) and sign * (cm - pm) > (p3 - p1):
        return "gain", wins, len(seeds)
    if sign * (cm - pm) < -bound * abs(pm):
        return "REGRESSION", wins, len(seeds)
    return "within bound", wins, len(seeds)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(Path(argv[0])), load(Path(argv[1]))
    if parent["machines"] != change["machines"]:
        print("note: the two sides ran on different machine fingerprints")
    print(f"{'workload':<20}{'metric':<16}{'parent median [q1, q3]':>34}"
          f"{'change median [q1, q3]':>34}{'delta':>9}{'wins':>8}  verdict")
    regressions = 0
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            before, after = parent["values"].get(key), change["values"].get(key)
            if not before or not after:
                continue
            text, wins, pairs = verdict(before, after, metric["better"], metric["bound"])
            regressions += text == "REGRESSION"
            p1, pm, p3 = quartiles(before.values())
            c1, cm, c3 = quartiles(after.values())
            delta = (cm - pm) / abs(pm) if pm else 0.0
            print(f"{workload:<20}{metric['name']:<16}"
                  f"{f'{pm:.5g} [{p1:.5g}, {p3:.5g}]':>34}"
                  f"{f'{cm:.5g} [{c1:.5g}, {c3:.5g}]':>34}"
                  f"{delta:>+9.1%}{f'{wins}/{pairs}':>8}  {text}")
        if not any(HELD_OUT_SEED in change["values"].get((workload, m["name"]), {})
                   for m in spec["end_to_end"]):
            print(f"note: no change record of {workload} on held-out seed {HELD_OUT_SEED}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
