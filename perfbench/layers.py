"""Outside-in layer tracing for the benchmark's traced run.

The traced run wraps the public entry points of each layer of the repo
(``repro.smpi``, ``repro.spatial``, the Module 4 caches, ``repro.data``,
the harness kernels, ``repro.cluster``, ``repro.edu``, ``repro.obs``,
``repro.faults``, ``repro.recovery``, ``repro.sanitize``) from here; no
file of the program changes.  Each wrapped call records a span -- name,
start, end, parent span, operation id, thread -- into a list kept in
memory and written out when the run ends.  Spans are kept per thread,
because ``smpi`` and ``spatial`` calls run on the simulated ranks'
threads.

:class:`LaunchObserver` is the one hook that stays on in untraced runs:
once per finished launch it reads the counters the runtime publishes on
``RunResult.metrics``, for the message rate and the lost-wakeup check.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterator, Optional

#: Point-to-point entry points of ``Comm`` (blocked time included).
P2P_METHODS = (
    "send", "ssend", "bsend", "isend", "recv", "irecv", "probe", "iprobe",
    "sendrecv", "sendrecv_replace", "Send", "Isend", "Recv", "Irecv",
)
#: Collective entry points of ``Comm``.
COLL_METHODS = (
    "barrier", "bcast", "scatter", "gather", "allgather", "alltoall", "reduce",
    "allreduce", "reduce_scatter", "scan", "exscan", "Bcast", "Scatter",
    "Gather", "Allgather", "Reduce", "Allreduce",
)
#: Kernels, by the module that imports each one under that name.
KERNELS = (
    ("repro.modules.module2_distance", "pairwise_block"),
    ("repro.modules.module5_kmeans", "kmeans_assign"),
    ("repro.modules.module5_kmeans", "kmeans_update"),
    ("repro.modules.module3_sort", "histogram_cuts"),
)
RUNTIME_COUNTERS = (
    "smpi.wakeups.targeted", "smpi.wakeups.broadcast", "smpi.wakeups.missed",
    "smpi.match.indexed_hits", "smpi.match.wildcard_scans",
    "smpi.match.unexpected_enqueued",
)


def metric_sum(registry, name: str) -> float:
    """Sum of one metric over all its label sets (0 when never created)."""
    return sum(s.value for s in registry.collect(name) if s.name == name)


class LaunchObserver:
    """Reads a finished world's published counters, once per launch.

    It wraps ``World.publish_runtime_counters``, which every launch calls
    once after its rank threads join, so launches made deep inside
    experiments, drills and replays are all seen.
    """

    def __init__(self) -> None:
        self.messages = 0
        self.missed_wakeups = 0
        self.recorder: Optional[Recorder] = None

    @contextlib.contextmanager
    def installed(self) -> Iterator["LaunchObserver"]:
        from repro.smpi.runtime import World

        original = vars(World)["publish_runtime_counters"]
        observer = self

        def publish_runtime_counters(world):
            original(world)
            observer.on_launch_end(world)

        with patched([(World, "publish_runtime_counters", publish_runtime_counters)]):
            yield self

    def on_launch_end(self, world) -> None:
        metrics = world.metrics
        messages = metric_sum(metrics, "smpi.messages_sent")
        missed = metric_sum(metrics, "smpi.wakeups.missed")
        self.messages += int(messages)
        self.missed_wakeups += int(missed)
        if self.recorder is not None:
            self.recorder.on_launch_end(world, messages)


@contextlib.contextmanager
def patched(replacements: list[tuple[Any, str, Any]]) -> Iterator[None]:
    """Set ``owner.attr = value`` for each triple; restore on exit, always.

    The raw attribute is read from the owner's own ``__dict__`` and put
    back as it was, so a descriptor such as a classmethod survives intact.
    """
    saved: list[tuple[Any, str, Any]] = []
    try:
        for owner, attr, value in replacements:
            saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


class Recorder:
    """Spans and counts of the traced rounds of one run.

    A span is ``(span_id, parent_id, op_id, name, start, end, thread,
    extra)``.  A span's parent is the innermost open span on its own
    thread, or else the running launch's span, or else the operation's
    span.  The benchmark issues one operation at a time and launches run
    one after another, so a rank thread's outermost span belongs to them.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.ids = itertools.count(1)
        self.local = threading.local()
        self.op_id: Optional[str] = None
        self.op_span: Optional[int] = None
        self.launch_span: Optional[int] = None
        self.world_start: dict[int, tuple[float, int, Optional[int]]] = {}
        self.counts: dict[str, float] = defaultdict(float)
        self.lock = threading.Lock()

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    @contextlib.contextmanager
    def operation(self, key: str) -> Iterator[None]:
        """The span of one operation; every other span nests under it."""
        span_id = next(self.ids)
        self.op_id, self.op_span = key, span_id
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.spans.append(
                (span_id, None, key, "op", start, end, threading.get_ident(), None)
            )
            self.op_id = self.op_span = None

    def wrap(
        self,
        name: str,
        fn: Callable,
        extra: Optional[Callable[..., Any]] = None,
        group: Optional[str] = None,
    ) -> Callable:
        """``fn`` recording a span named ``name`` per call.

        ``extra(result, *args, **kwargs)`` computes the span's payload
        (a count) after a call returns.  Calls made while a span of the
        same ``group`` is open on the thread are not recorded again:
        ``sendrecv`` waits on its own requests, and those waits belong
        to it.
        """
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local = recorder.local
            if group is not None and getattr(local, "group", None) == group:
                return fn(*args, **kwargs)
            stack = recorder._stack()
            parent = stack[-1] if stack else recorder.launch_span or recorder.op_span
            span_id = next(recorder.ids)
            stack.append(span_id)
            outer_group = getattr(local, "group", None)
            if group is not None:
                local.group = group
            payload = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if extra is not None:
                    payload = extra(result, *args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                local.group = outer_group
                stack.pop()
                recorder.spans.append(
                    (span_id, parent, recorder.op_id, name, start, end,
                     threading.get_ident(), payload)
                )

        return wrapper

    def on_world_start(self, world) -> None:
        stack = self._stack()
        parent = stack[-1] if stack else self.op_span
        self.launch_span = next(self.ids)
        self.world_start[id(world)] = (time.perf_counter(), self.launch_span, parent)

    def on_launch_end(self, world, messages: float) -> None:
        """A launch span (world creation to published counters) plus the
        runtime's own counters for that launch."""
        end = time.perf_counter()
        started = self.world_start.pop(id(world), None)
        self.launch_span = None
        if started is not None:
            start, span_id, parent = started
            self.spans.append(
                (span_id, parent, self.op_id, "smpi.launch", start, end,
                 threading.get_ident(), None)
            )
        with self.lock:
            self.counts["smpi.messages"] += messages
            for name in RUNTIME_COUNTERS:
                self.counts[name] += metric_sum(world.metrics, name)
            self.counts["obs.trace_events"] += len(world.tracer.events)

    # -- what to wrap ----------------------------------------------------

    def replacements(self) -> list[tuple[Any, str, Any]]:
        """Every attribute the traced run patches, with its wrapper."""
        import importlib

        from repro import faults, obs, recovery, sanitize
        from repro.cluster.memory import CacheSim
        from repro.edu import reconstruct
        from repro.modules import module4_range
        from repro.smpi.communicator import Comm
        from repro.smpi.request import Request
        from repro.smpi.runtime import World
        from repro.spatial import BruteForceIndex, RTree

        out: list[tuple[Any, str, Any]] = []

        def add(owner, attr: str, name: str, extra=None, group=None) -> None:
            out.append((owner, attr, self.wrap(name, vars(owner)[attr], extra, group)))

        for attr in P2P_METHODS:
            add(Comm, attr, "smpi.p2p", group="smpi")
        add(Request, "wait", "smpi.p2p", group="smpi")
        for attr in COLL_METHODS:
            add(Comm, attr, "smpi.coll", group="smpi")

        world_init = vars(World)["__init__"]
        recorder = self

        @functools.wraps(world_init)
        def init(world, *args, **kwargs):
            recorder.on_world_start(world)
            world_init(world, *args, **kwargs)

        out.append((World, "__init__", init))

        for cls in (RTree, BruteForceIndex):
            add(cls, "query_range", "spatial.query", extra=_query_extra)
        add(module4_range, "build_index", "spatial.build")
        for attr in ("asteroid_catalog", "asteroid_query_boxes"):
            add(module4_range, attr, "data.gen", extra=_call_key(attr))

        for module_name, attr in KERNELS:
            add(importlib.import_module(module_name), attr, f"kernels.{attr}")
        add(CacheSim, "access_lines", "cluster.cachesim", extra=_lines_extra)
        add(reconstruct, "solve_reconstruction", "edu.reconstruct")

        for attr in ("analyze_wait_states", "critical_path", "load_imbalance"):
            add(obs, attr, "obs.analysis")
        add(faults, "run_under_faults", "faults.run",
            extra=lambda report, *a, **k: sum(report.fault_events.values()))
        add(recovery, "run_recoverable", "recovery.run",
            extra=lambda run, *a, **k: (run.store.rollbacks, run.store.saves))
        add(sanitize, "sanitize_corpus", "sanitize.run",
            extra=lambda entries, *a, **k: _sanitize_extra([e.report for e in entries]))
        add(sanitize, "sanitize_workload", "sanitize.run",
            extra=lambda report, *a, **k: _sanitize_extra([report]))
        return out

    # -- reading ---------------------------------------------------------

    def write(self, path) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for span in self.spans:
                fh.write(json.dumps(span, default=repr))
                fh.write("\n")


def _query_extra(found, index, rect, stats=None):
    """(nodes visited, entries checked, which query) of one range query."""
    key = (id(index), rect.mins.tobytes(), rect.maxs.tobytes())
    if stats is None:
        return (0, 0, key)
    return (stats.nodes_visited, stats.entries_checked, key)


def _call_key(name: str) -> Callable[..., Any]:
    def key(result, *args, **kwargs):
        return (name, args, tuple(sorted((k, repr(v)) for k, v in kwargs.items())))

    return key


def _lines_extra(misses, cache, lines):
    import numpy as np

    return int(np.size(lines))


def _sanitize_extra(reports) -> tuple[int, int]:
    return (sum(len(r.findings) for r in reports), sum(int(r.replayed) for r in reports))


def self_times(spans: list[tuple]) -> dict[str, float]:
    """Per span name: summed duration minus the time its child spans cover.

    Children can run on other threads (rank threads under an operation),
    so a span's covered time is the union of its children's intervals,
    clipped to the span.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span_id, parent, _op, _name, start, end, _thread, _extra in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: dict[str, float] = defaultdict(float)
    for span_id, _parent, _op, name, start, end, _thread, _extra in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[name] += (end - start) - covered
    return dict(out)
