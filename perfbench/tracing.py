"""Span tracing of gpssim's public functions, installed from outside the package.

A Tracer replaces each function in LAYERS, at every binding through which
gpssim code looks it up, with a wrapper that records one span per call:
name, start, end, parent span and the trace id of the benchmark operation
that caused it. Spans stay in flat in-memory arrays until the caller writes
them out. Leaving the ``with`` block puts every original binding back.

Three spans have no function of their own and are opened and closed at
public-function boundaries instead, so they survive a rewrite of the
simulator's private event loop:

* ``simharness.session_one``: from ``run_scenario`` entry to the return of
  ``frame_sync.take_snapshot``;
* ``simharness.wake.<arm>``: from there (or the previous arm's end) to the
  return of that arm's ``simharness.power_savings_ratio`` call. The arms
  run in the order ``run_scenario`` uses: estimator, then hotstart.

So the snapshot write and the power-off clock advance fall in the first
wake span.
"""
from __future__ import annotations

import functools
import importlib
import sys
from array import array
from pathlib import Path
from time import perf_counter_ns

import numpy as np

# (module under gpssim, attribute path) of every traced function.
LAYERS = (
    ("constellation", "propagate"),
    ("constellation", "elevation_angle"),
    ("pvt", "solve"),
    ("pvt", "design_matrix"),
    ("pvt", "enu_errors"),
    ("nav_message", "parity_bits"),
    ("nav_message", "bits_to_word"),
    ("nav_message", "check_word"),
    ("nav_message", "encode_word"),
    ("nav_message", "build_subframe"),
    ("nav_message", "decode_subframe"),
    ("nav_message", "find_subframe_boundaries"),
    ("frame_sync", "estimate_frame_state"),
    ("frame_sync", "take_snapshot"),
    ("frame_sync", "save_snapshot"),
    ("frame_sync", "load_snapshot"),
    ("rx_clock", "compute_rco"),
    ("rx_clock", "ReceiverClockState.advance"),
    ("receiver", "LockState.step"),
    ("receiver", "hotstart_frame_lock_delay"),
    ("simharness", "parse_scenario"),
    ("simharness", "run_scenario"),
    ("simharness", "render_report_csv"),
    ("simharness", "power_savings_ratio"),
)
SESSION_ONE = "simharness.session_one"
WAKE = {"estimator": "simharness.wake.estimator", "hotstart": "simharness.wake.hotstart"}
RUN_SCENARIO = "simharness.run_scenario"
OP = "perfbench.op"
MARK = "_perfbench_span"  # attribute that identifies a wrapper


def layer_name(module: str, path: str) -> str:
    return f"{module}.{path}"


class Tracer:
    """Records spans for the wrapped functions while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.trace = array("q")
        self.parent = array("q")
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.trace_id = -1
        self.solve_iterations = 0
        self._arms: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    # --- spans ----------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, nid: int) -> int:
        i = len(self.start)
        self.trace.append(self.trace_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.name.append(nid)
        self.end.append(0)
        self.stack.append(i)
        self.start.append(perf_counter_ns())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = perf_counter_ns()
        if self.stack.pop() != i:
            raise RuntimeError("span closed out of order")

    def new_trace(self) -> None:
        self.trace_id += 1

    # --- installation ---------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            self._install()
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _install(self) -> None:
        for module, path in LAYERS:
            owner = importlib.import_module(f"gpssim.{module}")
            attr = path
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(owner, cls_name)
            original = vars(owner)[attr]
            wrapper = self._wrapper(layer_name(module, path), original)
            setattr(wrapper, MARK, layer_name(module, path))
            bindings = [(owner, attr)]
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "gpssim" and not mod_name.startswith("gpssim."):
                    continue
                bindings += [
                    (mod, a) for a, v in vars(mod).items()
                    if v is original and (mod, a) != (owner, attr)
                ]
            for obj, a in bindings:
                self._patches.append((obj, a, original))
                setattr(obj, a, wrapper)

    def _restore(self) -> None:
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    def _wrapper(self, label: str, fn):
        nid = self.name_id(label)
        begin, finish = self.begin, self.finish
        if label == RUN_SCENARIO:
            return self._run_scenario_wrapper(nid, fn)
        after = {
            "pvt.solve": self._after_solve,
            "frame_sync.take_snapshot": self._after_snapshot,
            "simharness.power_savings_ratio": self._after_power_ratio,
        }.get(label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(i)
            if after is not None:
                after(result)
            return result

        return traced

    # --- phase spans inside run_scenario ---------------------------------

    def _run_scenario_wrapper(self, nid: int, fn):
        session_one = self.name_id(SESSION_ONE)

        @functools.wraps(fn)
        def traced(config, *args, **kwargs):
            i = self.begin(nid)
            self._arms = list(WAKE) if config.arms == "both" else [config.arms]
            self.begin(session_one)
            try:
                return fn(config, *args, **kwargs)
            finally:
                while self.stack[-1] != i:
                    self.finish(self.stack[-1])
                self.finish(i)

        return traced

    def _top_is(self, name: str) -> bool:
        return bool(self.stack) and self.names[self.name[self.stack[-1]]] == name

    def _next_wake(self) -> None:
        if self._arms:
            self.begin(self.name_id(WAKE[self._arms.pop(0)]))

    def _after_snapshot(self, _result) -> None:
        if self._top_is(SESSION_ONE):
            self.finish(self.stack[-1])
            self._next_wake()

    def _after_power_ratio(self, _result) -> None:
        if any(self._top_is(w) for w in WAKE.values()):
            self.finish(self.stack[-1])
            self._next_wake()

    def _after_solve(self, solution) -> None:
        self.solve_iterations += solution.iterations

    # --- results ----------------------------------------------------------

    def summary(self) -> "SpanSummary":
        return SpanSummary(self)

    def write(self, path: Path) -> None:
        """Write the spans as arrays plus the name table (.npz)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            trace=np.frombuffer(self.trace, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            name=np.frombuffer(self.name, dtype=np.int64),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            names=np.array(self.names),
        )


def installed() -> list[str]:
    """Traced functions whose wrapper is still bound in a gpssim module."""
    left = []
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "gpssim" or mod_name.startswith("gpssim."):
            for obj in [mod] + [v for v in vars(mod).values() if isinstance(v, type)]:
                left += [f"{mod_name}.{a}" for a, v in vars(obj).items()
                         if hasattr(v, MARK)]
    return left


def self_times(parent, start, end) -> list[int]:
    """Each span's duration minus the part of it that its children cover.

    Children may overlap each other; the covered part is the union of their
    intervals, clipped to the parent's own interval.
    """
    n = len(start)
    covered = [0] * n
    reach: dict[int, int] = {}
    for i in sorted(range(n), key=start.__getitem__):
        p = parent[i]
        if p < 0:
            continue
        s, e = max(start[i], start[p]), min(end[i], end[p])
        s = max(s, reach.get(p, s))
        if e > s:
            covered[p] += e - s
            reach[p] = e
    return [end[i] - start[i] - covered[i] for i in range(n)]


class SpanSummary:
    """Per-name call counts and self time of one tracer's spans."""

    def __init__(self, tracer: Tracer) -> None:
        names, parent, name = tracer.names, tracer.parent, tracer.name
        self_ns = self_times(parent, tracer.start, tracer.end)
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        for i, nid in enumerate(name):
            label = names[nid]
            self.calls[label] = self.calls.get(label, 0) + 1
            self.self_s[label] = self.self_s.get(label, 0.0) + self_ns[i] * 1e-9
            dur = (tracer.end[i] - tracer.start[i]) * 1e-9
            self.total_s[label] = self.total_s.get(label, 0.0) + dur
        self.solve_iterations = tracer.solve_iterations
        self.subtree_mismatches = _subtree_mismatches(tracer, self_ns)


def _subtree_mismatches(tracer: Tracer, self_ns: list[int]) -> int:
    """run_scenario spans whose subtree self times do not sum to their duration."""
    if RUN_SCENARIO not in tracer.names:
        return 0
    rid = tracer.names.index(RUN_SCENARIO)
    top = [-1] * len(self_ns)
    sums: dict[int, int] = {}
    for i, nid in enumerate(tracer.name):
        p = tracer.parent[i]
        top[i] = i if nid == rid else (top[p] if p >= 0 else -1)
        if top[i] >= 0:
            sums[top[i]] = sums.get(top[i], 0) + self_ns[i]
    return sum(
        1 for r, total in sums.items() if total != tracer.end[r] - tracer.start[r]
    )
