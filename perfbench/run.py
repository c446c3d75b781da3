"""streamvox benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload stream_decode --seed 1 --seconds 55 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the run runs a closed loop from one caller for
``--seconds`` of timed work, and at least one period of the workload's cycle.
Each timing is filed under the key of the unit of work it measures; every
key keeps its fastest repeat, and the end-to-end metrics are computed over
those, each as often as it occurs in the first period (see
``workloads.py``).  The workload is also set up ``SETUP_TRIES`` times in each
of ``SETUP_ROUNDS`` rounds spread over the run; ``setup_s`` is the median
over rounds of each round's fastest set-up.  With ``--trace 1`` it instead
alternates untraced and traced passes over one period of operations and
prints the per-layer metrics (medians over passes).  Metric names, units and
directions come from ``BENCHMARK.json``.
Human-readable lines come first; the last line of standard output is the
result object.  ``--out`` appends ``{"meta": ..., "result": ...}`` to a JSON
lines file for ``compare.py``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = min(2, NPROC)
# Must be set before numpy loads its BLAS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import fields, is_dataclass  # noqa: E402
from time import perf_counter  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
MODULES = ("schedule", "numerics", "fsq", "records", "pipeline", "evalkit", "datagen", "ttslm", "cli")
SETUP_ROUNDS = 8
SETUP_TRIES = 2


class ProgramMissing(RuntimeError):
    pass


def import_program() -> SimpleNamespace:
    """Fresh import of every program module from this checkout's ``src``."""
    for name in [n for n in sys.modules if n == "streamvox" or n.startswith("streamvox.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        modules = {name: importlib.import_module(f"streamvox.{name}") for name in MODULES}
    except ImportError as exc:
        raise ProgramMissing(f"cannot import streamvox from {SRC}: {exc}") from exc
    origin = Path(modules["ttslm"].__file__).resolve()
    if SRC not in origin.parents:
        raise ProgramMissing(f"streamvox was imported from {origin}, not from {SRC}")
    return SimpleNamespace(**modules)


def digest(obj, h=None) -> str:
    """Content hash of generated inputs (arrays, dataclasses, containers, scalars)."""
    top = h is None
    h = h or hashlib.sha256()
    if isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif is_dataclass(obj):
        for f in fields(obj):
            h.update(f.name.encode())
            digest(getattr(obj, f.name), h)
    elif isinstance(obj, dict):
        for key in sorted(obj):
            h.update(repr(key).encode())
            digest(obj[key], h)
    elif isinstance(obj, (list, tuple)):
        h.update(f"[{len(obj)}".encode())
        for item in obj:
            digest(item, h)
    elif isinstance(obj, (str, int, float, bool, np.generic)) or obj is None:
        h.update(repr(obj).encode())
    else:
        raise TypeError(f"cannot hash input of type {type(obj).__name__}")
    return h.hexdigest() if top else ""


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        target = ROOT / ".git" / ref[5:]
        if target.exists():
            return target.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine_info(args, workload) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload_params": workload.params,
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
        "git_commit": git_commit(),
    }


class Loop:
    """Closed-loop runner: one caller, operation k+1 starts when k returns."""

    def __init__(self, sv, workload, inp, wrap=lambda model: model):
        self.sv, self.workload, self.inp, self.wrap = sv, workload, inp, wrap
        self.best: dict = {}  # (kind, key) -> fastest repeat
        self.count: dict = {}  # (kind, key) -> repeats
        self.per_period: dict = {}  # (kind, key) -> occurrences in the first period
        self.work_units: dict = {}  # key -> work units of one repeat
        self.extra: dict = {}
        self.attempted = 0
        self.failed = 0
        self.timed_s = 0.0

    def op(self, k: int, recorder=None) -> None:
        self.attempted += 1
        if recorder is not None:
            recorder.op = k
            recorder.enabled = True
        start = perf_counter()
        try:
            timing, out = self.workload.run(self.sv, self.inp, k, self.wrap)
        except Exception:  # an operation failure is counted, never fatal
            self.timed_s += perf_counter() - start
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return
        finally:
            if recorder is not None:
                recorder.enabled = False
        self.timed_s += perf_counter() - start
        try:
            problems = self.workload.check(self.sv, self.inp, k, out, timing)
        except Exception as exc:
            problems = [f"check raised {exc!r}"]
        if problems:
            self.failed += 1
            print(f"operation {k} failed its check: {'; '.join(problems)}", file=sys.stderr)
        for key, value in timing.extra.items():
            self.extra[key] = self.extra.get(key, 0) + value
        entries = [(("first", key), ms) for key, ms in timing.first_ms]
        entries += [(("step", key), ms) for key, ms in timing.steps_ms]
        entries += [(("work_s", key), seconds) for key, _, seconds in timing.work]
        for slot, value in entries:
            self.best[slot] = min(value, self.best.get(slot, value))
            self.count[slot] = self.count.get(slot, 0) + 1
            if k < self.workload.period:
                self.per_period[slot] = self.per_period.get(slot, 0) + 1
        for key, units, _ in timing.work:
            self.work_units[key] = units

    def fastest(self, kind: str) -> dict:
        """{key: (fastest repeat, occurrences in a period)} of one kind of timing."""
        return {key: (best, self.per_period.get((k, key), 1))
                for (k, key), best in self.best.items() if k == kind}


def setup(args, workload, work: Path, tries: int, self_check: bool = True):
    """Fresh import plus input generation, ``tries`` times; returns the last.

    With ``self_check``, also checks the input generator: every try must hash
    identically, and the next seed must hash differently.
    """
    times, digests = [], []
    for _ in range(tries):
        start = perf_counter()
        sv = import_program()
        inp = workload.build(sv, args.seed, work)
        times.append(perf_counter() - start)
        digests.append(digest(inp.data))
    ok = len(set(digests)) == 1
    if self_check:
        other = work / "other-seed"
        other.mkdir(exist_ok=True)
        ok = ok and digest(workload.build(sv, args.seed + 1, other).data) != digests[0]
    if not ok:
        print("input self-check failed: seed does not determine the inputs", file=sys.stderr)
    return sv, inp, times, ok, digests[0]


def fastest_metrics(loop: Loop) -> dict:
    """End-to-end metrics over the fastest repeat of each unit of work."""
    first, steps = ([best for best, n in loop.fastest(kind).values() for _ in range(n)]
                    for kind in ("first", "step"))
    work_s = loop.fastest("work_s")
    return {
        "work_per_s": sum(loop.work_units[key] * n for key, (_, n) in work_s.items())
        / sum(best * n for best, n in work_s.values()),
        "first_ms_p50": float(np.percentile(first, 50)),
        "first_ms_p90": float(np.percentile(first, 90)),
        "step_ms_p50": float(np.percentile(steps, 50)),
        "step_ms_p90": float(np.percentile(steps, 90)),
        "step_ms_p99": float(np.percentile(steps, 99)),
    }


def end_to_end(args, spec, workload, work: Path):
    sv, inp, tries, self_check, inputs = setup(args, workload, work, SETUP_TRIES)
    round_best = [min(tries)]
    loop = Loop(sv, workload, inp)
    gc.collect()
    k = 0
    while loop.timed_s < args.seconds or k < workload.period:
        loop.op(k)
        k += 1
        if loop.timed_s >= args.seconds * len(round_best) / SETUP_ROUNDS and len(round_best) < SETUP_ROUNDS:
            # A later set-up round, at another moment of the run; the loop
            # goes on with what it built, which hashes as the first round did.
            loop.sv, loop.inp, tries, ok, again = setup(args, workload, work, SETUP_TRIES, False)
            self_check = self_check and ok and again == inputs
            round_best.append(min(tries))
            gc.collect()
    summary = {
        "setup_s": statistics.median(round_best),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **fastest_metrics(loop),
    }
    metrics = {m["name"]: {"value": summary[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    repeats = sorted(loop.count.values())
    per_period = {kind: sum(n for _, n in loop.fastest(kind).values()) for kind in ("first", "step")}
    print(f"# {workload.name}: {loop.attempted} operations ({workload.period} per period), "
          f"{len(loop.best)} keys repeated {repeats[0]}-{repeats[-1]} times, "
          f"{per_period['first']} first outputs and {per_period['step']} steps per period, "
          f"{loop.timed_s:.2f} s timed, error_rate {loop.failed / loop.attempted}")
    for name, (value, unit) in workload.aliases(loop.extra, summary).items():
        print(f"# {name} = {value:.6g} {unit}")
    return loop, metrics, self_check


def traced(args, spec, workload, work: Path):
    sv, inp, _, self_check, _ = setup(args, workload, work, 1)
    ops = workload.period
    totals = Loop(sv, workload, inp)
    walls = {False: [], True: []}
    per_pass: list[dict] = []
    recorder = None
    start = perf_counter()
    while not walls[True] or perf_counter() - start < args.seconds:
        for tracing in (False, True):
            recorder = spans.Recorder() if tracing else None
            tracer = spans.Tracer(vars(sv), recorder) if tracing else None
            if tracer:
                tracer.install()
                recorder.enabled = True
            t = perf_counter()
            inp = workload.build(sv, args.seed, work)
            build_s = perf_counter() - t
            if tracer:
                recorder.enabled = False
            wrap = (lambda model: spans.TracedPredictor(model, recorder)) if tracing else (lambda m: m)
            loop = Loop(sv, workload, inp, wrap)
            for k in range(ops):
                loop.op(k, recorder)
            if tracer:
                tracer.uninstall()
            if digest(inp.data) != digest(totals.inp.data):
                self_check = False
            wall = build_s + loop.timed_s
            walls[tracing].append(wall)
            if tracing:
                per_pass.append(spans.layer_metrics(recorder.spans, wall))
            totals.attempted += loop.attempted
            totals.failed += loop.failed
    if args.spans:
        recorder.write(args.spans)
    overhead = (min(walls[True]) / min(walls[False]) - 1) * 100  # fastest pass of each kind
    metrics = {}
    for layer in spec["per_layer"]:
        name = layer["name"]
        value = overhead if name == "trace_overhead_pct" else statistics.median(
            p.get(name, 0) for p in per_pass)
        metrics[name] = {"value": value, "unit": layer["unit"]}
    print(f"# {workload.name}: {len(per_pass)} traced and untraced passes of {ops} operations")
    return totals, metrics, self_check


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append meta and result as one JSON line to this file")
    parser.add_argument("--spans", help="write the last traced pass's spans here (JSON lines)")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        run = traced if args.trace else end_to_end
        loop, metrics, self_check = run(args, spec, workload, work)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    result = {
        "correct": loop.failed == 0 and self_check,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }
    meta = machine_info(args, workload)
    print(json.dumps({"meta": meta}))
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": meta, "result": result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
