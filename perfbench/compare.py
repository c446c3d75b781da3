"""Summarise one result set, or compare two, under the benchmark's bounds.

    python3 perfbench/compare.py OLD.jsonl [NEW.jsonl]

Result sets are the JSON lines that ``run.py --out`` (or ``collect.py``)
appends.  For each workload and end-to-end metric it prints the median and
quartiles of each side and the spread (quartile distance over the median).
With two sets it adds a verdict:

- ``worse``: the new median is worse than the old by more than the bound;
- ``unresolved``: otherwise, if either side's spread exceeds the bound;
- ``better``: the new median is better by more than the old side's quartile
  distance;
- ``same``: none of the above.

The exit code is 1 if any verdict is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load(path) -> dict:
    """{workload: {metric: [values]}} over the untraced runs of a result set."""
    out: dict = {}
    for line in Path(path).read_text().splitlines():
        row = json.loads(line)
        if row["meta"]["trace"]:
            continue
        per = out.setdefault(row["meta"]["workload"], {})
        for name, metric in row["result"]["metrics"].items():
            per.setdefault(name, []).append(metric["value"])
    return out


def stats(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(old: list[float], new: list[float], bound: float, lower_is_better: bool) -> str:
    o1, om, o3 = stats(old)
    n1, nm, n3 = stats(new)
    change = (nm - om) / om if lower_is_better else (om - nm) / om  # > 0 means worse
    if change > bound:
        return "worse"
    if (o3 - o1) / om > bound or (n3 - n1) / nm > bound:
        return "unresolved"
    if -change * om > o3 - o1:
        return "better"
    return "same"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sides = [load(p) for p in argv]
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in sides[0]:
            continue
        print(f"== {workload} ({len(sides[0][workload]['setup_s'])} runs"
              + (f" vs {len(sides[1].get(workload, {}).get('setup_s', []))})" if len(sides) == 2 else ")"))
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            cells = []
            for side in sides:
                values = side.get(workload, {}).get(name)
                if not values:
                    cells.append("missing")
                    continue
                q1, median, q3 = stats(values)
                cells.append(f"{median:.5g} [{q1:.5g}, {q3:.5g}] spread {(q3 - q1) / median:.3f}")
            line = f"  {name:<14} {metric['unit']:<5} bound {bound:<5} " + " | ".join(cells)
            if len(sides) == 2 and "missing" not in cells:
                v = verdict(sides[0][workload][name], sides[1][workload][name], bound,
                            metric["better"] == "lower")
                status = status or (v == "worse")
                line += f" -> {v}"
            print(line)
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
