"""Run the benchmark for several seeds and workloads into one result set.

    python3 perfbench/collect.py --out results.jsonl --seeds 1-10 [--workloads all] [--trace 0]

Runs ``run.py`` once per (workload, seed), one after another, each in its own
process, with ``run_seconds`` from ``BENCHMARK.json`` unless ``--seconds`` is
given.  Prints every metric of every run by name with its unit, and appends
each run's meta and result to ``--out`` for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"), help="e.g. 1-10")
    parser.add_argument("--workloads", default="all", help="comma-separated names, or all")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads = names if args.workloads == "all" else args.workloads.split(",")
    status = 0
    for workload in workloads:
        for seed in args.seeds:
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(args.seconds), "--trace", str(args.trace),
                                     "--out", str(Path(args.out).resolve())]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            shown = ", ".join(f"{k} {m['value']:.5g} {m['unit']}" for k, m in result["metrics"].items())
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}: {shown}", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
