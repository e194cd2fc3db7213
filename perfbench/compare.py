"""Compare a parent result set with a change result set.

Each set is a directory of result JSON files written by
``perfbench/run.py --out``.  For every end-to-end metric on every workload
the command prints both sides' median and quartiles, the share of run
pairs the change wins (runs are paired by seed) and a verdict against the
metric's bound from the benchmark spec: ``improved``, ``unchanged``,
``worse`` or ``unresolved``.  Exits 1 when any pairing is worse::

    python3 perfbench/compare.py results/parent results/change
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from perfbench import spec  # noqa: E402
from perfbench.stats import verdict  # noqa: E402

Runs = Dict[Tuple[str, str], Dict[int, float]]


def load(directory: str) -> Runs:
    """``{(workload, metric): {seed: value}}`` of the untraced results."""
    runs: Runs = {}
    for file in sorted(Path(directory).glob("*.json")):
        result = json.loads(file.read_text())
        if result.get("trace"):
            continue
        for name, metric in result["metrics"].items():
            runs.setdefault((result["workload"], name), {})[
                int(result["seed"])] = float(metric["value"])
    return runs


def pair(parent: Dict[int, float], change: Dict[int, float]
         ) -> Tuple[List[float], List[float]]:
    """Order both sides by seed; seeds on both sides come first, paired."""
    shared = sorted(set(parent) & set(change))
    rest_p = [parent[s] for s in sorted(set(parent) - set(shared))]
    rest_c = [change[s] for s in sorted(set(change) - set(shared))]
    return ([parent[s] for s in shared] + rest_p,
            [change[s] for s in shared] + rest_c)


def compare(parent: Runs, change: Runs) -> List[Dict[str, object]]:
    bounds = spec.bounds()
    rows = []
    for workload in spec.workload_names():
        for metric, info in bounds.items():
            key = (workload, metric)
            if key not in parent or key not in change:
                continue
            p, c = pair(parent[key], change[key])
            row = verdict(p, c, float(info["bound"]), str(info["better"]))
            row.update(workload=workload, metric=metric, unit=info["unit"])
            rows.append(row)
    return rows


def render(rows: List[Dict[str, object]]) -> str:
    header = ("workload", "metric", "parent median [q1, q3]",
              "change median [q1, q3]", "wins", "verdict")
    lines = [header]
    for row in rows:
        p, c = row["parent"], row["change"]
        lines.append((
            row["workload"], row["metric"],
            f"{p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}] {row['unit']}",
            f"{c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}] {row['unit']}",
            f"{row['win_fraction']:.0%}",
            f"{row['verdict']} (bound {row['bound']:.0%})"))
    widths = [max(len(line[i]) for line in lines) for i in range(len(header))]
    return "\n".join("  ".join(cell.ljust(width) for cell, width
                               in zip(line, widths)).rstrip()
                     for line in lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="directory of the parent's results")
    parser.add_argument("change", help="directory of the change's results")
    args = parser.parse_args(argv)
    rows = compare(load(args.parent), load(args.change))
    if not rows:
        print("no metric/workload pairing present on both sides",
              file=sys.stderr)
        return 2
    print(render(rows))
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
