"""Span tracer that wraps coherence_forge's public functions from outside.

``Tracer.install()`` replaces every public function in each package module's
namespace with a wrapper named after the module the caller looks it up in, so
``oracle.apply_filter`` and ``synthesis.apply_filter`` are separate spans of
the same function. ``__post_init__`` validation of the package's dataclasses is
traced under the class name (``statecore.QState``). Spans are kept in memory as
``[name, start, end, parent, tag]`` records and written out at the end.

Work submitted to a ``ThreadPoolExecutor`` is attributed to the span that
submitted it, so worker-thread spans become children of ``trace_frontier``,
``mixed_scan`` or ``grid_search``. Only the standard library is imported here:
the CLI child bootstrap loads this module before the package.
"""

from __future__ import annotations

import importlib
import inspect
import json
import threading
import types
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

PACKAGE = "coherence_forge"
LAYERS = ("cli", "statecore", "synthesis", "oracle", "iterative", "optics", "svgplot")

NAME, START, END, PARENT, TAG = range(5)


def _grid_axis_length(grid_step: float) -> int:
    """Length of the oracle's intensity axis {0, step, ..., 1} for ``grid_step``."""
    n = int((1.0 + 0.5 * grid_step) / grid_step - 1e-12) + 1
    last = min((n - 1) * grid_step, 1.0)
    return n + (1 if last < 1.0 - 1e-12 else 0)


def _count_grid_points(bound: inspect.BoundArguments):
    state = bound.arguments["state"]
    return "oracle.grid_points_computed", _grid_axis_length(bound.arguments["grid_step"]) ** state.dim, None


def _count_tsallis_candidates(bound: inspect.BoundArguments):
    state = bound.arguments["state"]
    active = sum(1 for x in state.populations if x >= 1e-14)
    return "synthesis.tsallis.candidates_computed", 3**active, f"d{state.dim}"


# Computed counts, derived from the call's arguments (no hooks in the program).
_COUNTERS = {
    "oracle.grid_search": _count_grid_points,
    "synthesis.tsallis_optimal_filter": _count_tsallis_candidates,
}


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.defining: dict[str, str] = {}  # span name -> defining function name
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, *args, tag=None, **kwargs):
        """Run ``fn`` inside a span called ``name`` and return its result."""
        stack = self._stack()
        rec = [name, 0.0, 0.0, stack[-1] if stack else None, tag]
        self.spans.append(rec)
        stack.append(rec)
        rec[START] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[END] = perf_counter()
            stack.pop()

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished root span measured by the caller."""
        self.spans.append([name, start, end, None, None])

    def _wrap(self, name: str, fn, defining: str):
        self.defining[name] = defining
        counter = _COUNTERS.get(defining)
        signature = inspect.signature(fn) if counter else None
        tracer = self

        def wrapper(*args, **kwargs):
            tag = None
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                key, amount, tag = counter(bound)
                tracer.counters[key] += amount
            return tracer.span(name, fn, *args, tag=tag, **kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(obj, types.FunctionType) and obj.__module__.startswith(PACKAGE):
                    defining = f"{_short(obj.__module__)}.{obj.__qualname__}"
                    self._patch(module, attr, self._wrap(f"{layer}.{attr}", obj, defining))
                elif (
                    isinstance(obj, type)
                    and obj.__module__ == module.__name__
                    and "__post_init__" in vars(obj)
                ):
                    name = f"{layer}.{attr}"
                    self._patch(obj, "__post_init__", self._wrap(name, vars(obj)["__post_init__"], name))
            handlers = getattr(module, "_HANDLERS", None)
            if layer == "cli" and isinstance(handlers, dict):
                for command, fn in list(handlers.items()):
                    name = f"cli.{command}"
                    self._patch_item(handlers, command, self._wrap(name, fn, name))
        self._patch(ThreadPoolExecutor, "submit", self._attributing_submit(ThreadPoolExecutor.submit))

    def _patch_item(self, mapping: dict, key, value) -> None:
        self._undo.append((mapping, key, mapping[key]))
        mapping[key] = value

    def _attributing_submit(self, submit):
        tracer = self

        def attributed(pool, fn, /, *args, **kwargs):
            submitter = tracer._stack()
            parent = submitter[-1] if submitter else None

            def run(*a, **k):
                stack = tracer._stack()
                if parent is None:
                    return fn(*a, **k)
                stack.append(parent)
                try:
                    return fn(*a, **k)
                finally:
                    stack.pop()

            return submit(pool, run, *args, **kwargs)

        return attributed

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    # -- output ------------------------------------------------------------

    def to_json(self) -> dict:
        """Spans as ``[name index, start, end, parent index or -1, tag]`` rows."""
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        names: dict[str, int] = {}
        rows = []
        for rec in self.spans:
            parent = rec[PARENT]
            rows.append(
                [
                    names.setdefault(rec[NAME], len(names)),
                    rec[START],
                    rec[END],
                    -1 if parent is None else index[id(parent)],
                    rec[TAG],
                ]
            )
        return {
            "names": list(names),
            "defining": self.defining,
            "spans": rows,
            "counters": dict(self.counters),
        }

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh)


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Profile:
    """Per-name totals over one or more span timelines (one per process)."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.tagged_self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        self.defining: dict[str, str] = {}
        self.self_sum_s = 0.0
        self.covered_s = 0.0
        self.mixed_scan_apply_filter_calls = 0

    def add(self, timeline: dict) -> None:
        names = timeline["names"]
        spans = timeline["spans"]
        self.defining.update(timeline["defining"])
        for key, value in timeline["counters"].items():
            self.counters[key] += value
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                children[parent].append((start, end))
        under_scan = [False] * len(spans)
        for i, (name_idx, start, end, parent, tag) in enumerate(spans):
            name = names[name_idx]
            defining = self.defining.get(name, name)
            if parent >= 0:
                under_scan[i] = under_scan[parent]
            if defining == "synthesis.mixed_scan":
                under_scan[i] = True
            elif under_scan[i] and defining == "statecore.apply_filter":
                self.mixed_scan_apply_filter_calls += 1
            own = (end - start) - _union_length(children.get(i, []))
            self.calls[name] += 1
            self.self_s[name] += own
            self.total_s[name] += end - start
            if tag is not None:
                self.tagged_self_s[f"{name}.{tag}"] += own
            self.self_sum_s += own
        self.covered_s += _union_length([(s[1], s[2]) for s in spans])

    def by_defining(self, defining: str) -> tuple[int, float]:
        """Calls and self time of one function summed over every name it is looked up by."""
        calls, own = 0, 0.0
        for name, count in self.calls.items():
            if self.defining.get(name, name) == defining:
                calls += count
                own += self.self_s[name]
        return calls, own
