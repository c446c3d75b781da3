"""Span recording around calls into the program's public functions.

The traced run swaps module-level names of the program (the names callers
look up at call time, e.g. ``streamvox.ttslm.ffn_apply``) for wrappers that
record one span per call: name, start, end, parent span and the id of the
session or job being run.  Spans stay in memory; :func:`layer_metrics` turns
one pass worth of spans into ``<layer>.<function>.<stat>`` metrics; the run
reports those that ``BENCHMARK.json`` lists.  Nothing here is installed
during an untraced run.
"""

from __future__ import annotations

import json
import os
import time

# (module, function, extra stat computed from (args, kwargs, result)).
TRACED = (
    ("schedule", "build_sequence", None),
    ("numerics", "ffn_apply", lambda a, k, r: _rows(a[1] if len(a) > 1 else k["x"])),
    ("numerics", "gate_fuse", lambda a, k, r: _rows(a[1] if len(a) > 1 else k["e_hidden"])),
    ("fsq", "index_to_code", None),
    ("fsq", "dequantize", None),
    ("ttslm", "decode_stream", None),
    ("ttslm", "fused_representations", None),
    ("pipeline", "simulate_stream", None),
    ("pipeline", "calibrate_affine", None),
    ("evalkit", "edit_distance", lambda a, k, r: len(a[0]) * len(a[1])),
    ("evalkit", "normalize", None),
    ("datagen", "generate_corpus", None),
    ("records", "write_jsonl", lambda a, k, r: os.path.getsize(a[0])),
    ("records", "read_jsonl", lambda a, k, r: len(r)),
    ("cli", "main", None),
)


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    return 1 if shape is None or len(shape) < 2 else int(shape[0])


class Recorder:
    """In-memory span store with a parent stack; ``op`` tags new spans.

    While ``enabled`` is false (output checks), calls pass through unrecorded.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self.op = None
        self.enabled = False

    def call(self, name: str, fn, args, kwargs, extra=None):
        if not self.enabled:
            return fn(*args, **kwargs)
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op, 0)
        if extra is not None:
            self.spans[index] = (name, start, end, parent, self.op, extra(args, kwargs, result))
        return result

    def write(self, path) -> None:
        """Write the spans as JSON lines (times in seconds on the perf_counter clock)."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, extra in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "extra": extra}) + "\n")


class Tracer:
    """Installs and removes the wrappers on a freshly imported program."""

    def __init__(self, modules: dict, recorder: Recorder) -> None:
        self.modules = modules
        self.recorder = recorder
        self._saved: list[tuple] = []

    def install(self) -> None:
        rec = self.recorder
        for layer, func, extra in TRACED:
            original = getattr(self.modules[layer], func)
            name = f"{layer}.{func}"

            def wrapper(*args, _fn=original, _name=name, _extra=extra, **kwargs):
                return rec.call(_name, _fn, args, kwargs, _extra)

            self._rebind(original, wrapper)
        datagen = self.modules["datagen"]
        stub = datagen.StubGenerator

        class TracedStubGenerator(stub):
            def next_turn(self, history):
                return rec.call("datagen.next_turn", stub.next_turn, (self, history), {})

        self._rebind(stub, TracedStubGenerator)

    def _rebind(self, original, replacement) -> None:
        # Every program module that imported the name holds its own binding.
        for module in self.modules.values():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, replacement)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


class TracedPredictor:
    """Predictor proxy recording ``ttslm.logits`` spans; rows = visible prefix length."""

    def __init__(self, inner, recorder: Recorder) -> None:
        self.inner = inner
        self.vocab = inner.vocab
        self.recorder = recorder

    def logits(self, visible, prev_ids):
        return self.recorder.call(
            "ttslm.logits", self.inner.logits, (visible, prev_ids), {},
            lambda a, k, r: _rows(a[0]),
        )


def layer_metrics(spans: list[tuple], wall_s: float) -> dict[str, float]:
    """Aggregate one pass of spans into calls, busy, self and extra-stat totals.

    ``unattributed_ms`` is the pass wall time not covered by any top-level span.
    """
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    child: dict[int, float] = {}
    extra: dict[str, float] = {}
    top = 0.0
    for name, start, end, parent, _, value in spans:
        duration = end - start
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0.0) + duration
        extra[name] = extra.get(name, 0) + value
        if parent < 0:
            top += duration
        else:
            child[parent] = child.get(parent, 0.0) + duration
    self_time: dict[str, float] = {}
    for index, (name, start, end, *_rest) in enumerate(spans):
        self_time[name] = self_time.get(name, 0.0) + (end - start) - child.get(index, 0.0)
    out: dict[str, float] = {"unattributed_ms": (wall_s - top) * 1e3}
    # The extra stat means rows, cells, bytes or rows read depending on the
    # function; each name below is reported only where BENCHMARK.json lists it.
    for name in calls:
        n = calls[name]
        out[f"{name}.calls"] = n
        out[f"{name}.busy_ms"] = busy[name] * 1e3
        out[f"{name}.self_ms"] = self_time[name] * 1e3
        out[f"{name}.rows_per_call"] = extra[name] / n
        for stat in ("cells", "bytes", "rows"):
            out[f"{name}.{stat}"] = extra[name]
    return out
