"""Compare two sets of benchmark runs, metric by metric.

    python3 perfbench/compare.py BASE CHANGE

``BASE`` and ``CHANGE`` are files (or directories of ``*.jsonl`` files)
written by ``run.py --record``.  For each workload and metric, prints
each side's median and quartiles and a verdict:

* ``better``: the change wins at least 9 in 10 run pairs (runs paired
  by seed where both sides have it, else in order; ties count for
  neither), and the medians differ by more than the base's interquartile
  range;
* ``unresolved``: otherwise, when either side's interquartile range is
  wider than the metric's bound;
* ``no worse``: the change's median is within the bound of the base's;
* ``worse``: beyond it.

Bounds and directions come from ``BENCHMARK.json``.  Per-layer metrics
have no bound: they are ``better``, ``worse`` (the same rule the other
way) or ``-``.

Runs that failed the correctness gate carry no metric.  Each workload's
failed runs and failed operations are printed for both sides, and when
the change has more of either than the base, none of that workload's
metrics can be ``better`` or ``no worse``: they read ``worse (failures)``.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

from common import ROOT, quartiles


def load_runs(path: Path) -> tuple[dict, dict]:
    """From record files: {(workload, metric): {seed: [values]}}, and
    {workload: [runs, failed runs, failed operations]}."""
    files = sorted(path.glob("*.jsonl")) if path.is_dir() else [path]
    runs = defaultdict(lambda: defaultdict(list))
    failures = defaultdict(lambda: [0, 0, 0])
    for file in files:
        for line in file.read_text().splitlines():
            if not line.strip():
                continue
            record = json.loads(line)
            context, result = record["context"], record["result"]
            tally = failures[context["workload"]]
            tally[0] += 1
            tally[1] += not result["correct"]
            tally[2] += result["failed"]
            for name, m in result["metrics"].items():
                runs[(context["workload"], name)][context["seed"]].append(m["value"])
    return runs, failures


def pairs(base: dict, change: dict) -> list[tuple[float, float]]:
    common = sorted(set(base) & set(change))
    if common:
        return [(b, c) for s in common for b, c in zip(base[s], change[s])]
    flat_b = [v for s in sorted(base) for v in base[s]]
    flat_c = [v for s in sorted(change) for v in change[s]]
    return list(zip(flat_b, flat_c))


def verdict(base: dict, change: dict, better: str, bound) -> tuple[str, tuple, tuple]:
    b_vals = [v for vs in base.values() for v in vs]
    c_vals = [v for vs in change.values() for v in vs]
    qb, qc = quartiles(b_vals), quartiles(c_vals)
    sign = 1.0 if better == "higher" else -1.0
    matched = pairs(base, change)
    wins = sum(1 for b, c in matched if sign * (c - b) > 0)
    losses = sum(1 for b, c in matched if sign * (c - b) < 0)
    gap = qc[1] - qb[1]
    iqr_b = qb[2] - qb[0]
    if matched and abs(gap) > iqr_b:
        if wins >= 0.9 * len(matched) and sign * gap > 0:
            return "better", qb, qc
        if bound is None and losses >= 0.9 * len(matched) and sign * gap < 0:
            return "worse", qb, qc
    if bound is None:
        return "-", qb, qc
    scale = abs(qb[1]) or 1.0
    if max(iqr_b, qc[2] - qc[0]) / scale > bound:
        return "unresolved", qb, qc
    return ("no worse" if -sign * gap / scale <= bound else "worse"), qb, qc


def show(q) -> str:
    return "/".join(f"{v:.4g}" for v in q)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, base_fail = load_runs(args.base)
    change, change_fail = load_runs(args.change)
    failing = set()
    for workload in sorted(set(base_fail) | set(change_fail)):
        b, c = base_fail[workload], change_fail[workload]
        print(f"{workload}: base {b[0]} runs, {b[1]} failed, {b[2]} failed ops; "
              f"change {c[0]} runs, {c[1]} failed, {c[2]} failed ops")
        if c[1] > b[1] or c[2] > b[2]:
            failing.add(workload)
    fmt = "{:<14} {:<40} {:>30} {:>30}  {}"
    print(fmt.format("workload", "metric", "base q1/median/q3",
                     "change q1/median/q3", "verdict"))
    for key in sorted(set(base) | set(change)):
        workload, name = key
        if key not in base or key not in change:
            # Every run of one side failed, or only one side measured it.
            if workload in failing:
                print(fmt.format(workload, name, "-", "-", "worse (failures)"))
            continue
        info = meta.get(name, {"better": "higher"})
        word, qb, qc = verdict(base[key], change[key], info["better"],
                               info.get("bound"))
        if workload in failing and word in ("better", "no worse", "-"):
            word = "worse (failures)"
        print(fmt.format(workload, name, show(qb), show(qc), word))
    return 0


if __name__ == "__main__":
    sys.exit(main())
