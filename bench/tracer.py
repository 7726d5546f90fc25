"""Tracing of promisekit from outside the program.

``Tracer.install`` replaces every binding of the traced public functions
in the ``promisekit.*`` module namespaces with a timing wrapper, so calls
between modules and recursive calls through the module globals are all
seen; the source tree is not touched. Span functions (parsing, the
explorer phases, ``cli.main``) and the benchmark's own operations keep a
span each: name, start, end, parent span and operation id. Hot inner
functions are only aggregated per function: call count, total and self
time, so the trace stays small however many calls they make.

Self time is a call's duration minus the time covered by the traced
calls made inside it.
"""

from __future__ import annotations

import gc
import importlib
import json
import sys
import time
from dataclasses import dataclass

SPAN_FUNCTIONS = {
    "dsl": ("parse_scenario", "parse_trace"),
    "explorer": ("build_lts", "maximal_traces", "check_invariants", "find_deadlocks", "verify_trace"),
    "cli": ("main",),
}
HOT_FUNCTIONS = {
    "task_algebra": ("incompatible", "is_exclusive"),
    "promise_state": ("pi_enabled", "introduce", "withdraw"),
    "process_algebra": ("step", "can_terminate", "eval_condition"),
}


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    true_results: int = 0


class Tracer:
    """Collects spans and per-function statistics while installed."""

    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple[str, float, float, int | None, int | None]] = []
        self.nodes = 0
        self.edges = 0
        self.steps_in_build = 0
        self.gc_collections = 0
        self.gc_pause_s = 0.0
        self._stack: list[list] = []  # [child time, span id]
        self._op_id: int | None = None
        self._gc_start: float | None = None
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        functions = [(m, n, True) for m, names in SPAN_FUNCTIONS.items() for n in names]
        functions += [(m, n, False) for m, names in HOT_FUNCTIONS.items() for n in names]
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "promisekit" or name.startswith("promisekit."))
        ]
        for module_name, name, span in functions:
            original = getattr(importlib.import_module(f"promisekit.{module_name}"), name)
            wrapper = self._wrap(f"{module_name}.{name}", original, span)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()
        gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        # Only collections inside a traced call are the program's; the
        # harness's own (checks, calibration) happen outside any.
        if phase == "start":
            self._gc_start = time.perf_counter() if self._stack else None
        elif self._gc_start is not None:
            self.gc_collections += 1
            self.gc_pause_s += time.perf_counter() - self._gc_start

    def _wrap(self, name: str, fn, span: bool):
        stat = self.stats.setdefault(name, Stat())
        stack = self._stack
        clock = time.perf_counter
        is_build = name == "explorer.build_lts"
        step_stat = self.stats.setdefault("process_algebra.step", Stat())

        def traced(*args, **kwargs):
            frame = [0.0, None]
            if span:
                frame[1] = len(self.spans)
                self.spans.append(None)  # reserve the id; filled in on return
            parent = stack[-1] if stack else None
            stack.append(frame)
            steps_before = step_stat.calls
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[0] += duration
                stat.calls += 1
                stat.total_s += duration
                stat.self_s += duration - frame[0]
                if span:
                    parent_span = next((f[1] for f in reversed(stack) if f[1] is not None), None)
                    self.spans[frame[1]] = (name, start, end, parent_span, self._op_id)
            if result is True:
                stat.true_results += 1
            if is_build:
                self.nodes += len(result.nodes)
                self.edges += len(result.edges)
                self.steps_in_build += step_stat.calls - steps_before
            return result

        return traced

    def operation(self, name: str, op_id: int, fn):
        """Run ``fn()`` as the benchmark operation ``op_id`` under a span."""
        self._op_id = op_id
        return self._wrap(f"op.{name}", fn, True)()

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span_id, (name, start, end, parent, op_id) in enumerate(self.spans):
                record = {"id": span_id, "name": name, "start": start, "end": end,
                          "parent": parent, "op": op_id}
                out.write(json.dumps(record) + "\n")
