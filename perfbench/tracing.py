"""Per-layer spans and counters, recorded from outside the program.

The benchmark does not edit the program to trace it.  :class:`Tracer`
replaces public functions of each layer's module with wrappers while
traced work runs and restores them afterwards.  A wrapper
records

* a call count under the function's qualified name (every call), and
* a span -- name, layer, start, end, parent span, op id -- unless the
  caller is already inside a span of the same layer (a nested call of one
  layer, such as ``compare_lineage`` calling ``lineage_of_pages``, is the
  outer span's work).

Spans live in memory and are written out once, at the end.  A span's
parent is the innermost open span of its own thread; a thread with no
open span (a simulated process, a server handler thread) hangs its spans
under the innermost open span of the thread that opened the current op,
so the worker threads' work nests under ``SimRuntime.run`` and the
server's under the client's request.  Waits (``yield_control``) are
counted and timed but are not spans: a waiting thread overlaps the work
of the thread it handed the CPU to.

Self time is a span's duration minus the part of it covered by its child
spans.  The sum of layer self times against the ops' end-to-end time
gives the unattributed time.
"""

from __future__ import annotations

import gzip
import importlib
import json
import os
import threading
import time
from collections import Counter, defaultdict
from typing import Dict, List, Optional, Tuple

# A span record: [name, layer, start, end, parent record or None, op id].
_NAME, _LAYER, _START, _END, _PARENT, _OP = range(6)

#: What to wrap: (layer, "module:Owner", attribute names, span name, kind).
#: ``kind`` is "span" (timed, nests), "wait" (timed, never a parent) or
#: "count" (counts calls made while a span of its layer is innermost).  A span name of None names each span by its
#: attribute; "{op}" names server spans by the request op.
WRAP_TABLE: Tuple[Tuple[str, str, Tuple[str, ...], Optional[str], str], ...] = (
    ("runtime", "repro.threads.runtime:SimRuntime", ("run",), "runtime.run", "span"),
    ("runtime", "repro.threads.runtime:SimRuntime", ("yield_control",), "runtime.handoff", "wait"),
    (
        "interpose",
        "repro.inspector.interpose:InspectorBackend",
        ("load", "store", "malloc", "free"),
        "interpose.access",
        "span",
    ),
    (
        "interpose",
        "repro.inspector.interpose:InspectorBackend",
        ("branch", "branch_run", "indirect"),
        "interpose.branch",
        "span",
    ),
    (
        "interpose",
        "repro.inspector.interpose:InspectorBackend",
        ("before_sync", "after_sync"),
        "interpose.sync",
        "span",
    ),
    ("memory.fault", "repro.memory.fault_handler:FaultDispatcher", ("deliver",), "memory.fault", "span"),
    (
        "memory.commit",
        "repro.memory.shared_commit:SharedMemoryCommitter",
        ("commit",),
        "memory.commit",
        "span",
    ),
    ("memory.diff", "repro.memory.shared_commit", ("diff_page",), "memory.diff", "span"),
    (
        "pt",
        "repro.pt.encoder:PTEncoder",
        ("conditional_branch", "conditional_branch_run", "indirect_branch", "flush"),
        "pt.encode",
        "span",
    ),
    ("perf", "repro.perf.record:PerfRecordSession", ("drain", "finish"), "perf.drain", "span"),
    (
        "tracker",
        "repro.core.algorithm:ProvenanceTracker",
        (
            "on_thread_start",
            "on_thread_end",
            "on_memory_access",
            "on_branch",
            "on_branch_run",
            "on_instructions",
            "on_output",
            "on_sync_boundary",
            "on_release",
            "on_acquire",
            "begin_next",
            "finalize",
        ),
        "tracker.event",
        "span",
    ),
    ("derive", "repro.inspector.session", ("derive_data_edges",), "derive", "span"),
    ("derive", "repro.core.vector_clock:VectorClock", ("dominated_by",), None, "count"),
    ("sink", "repro.store.sink:StoreSink", ("commit_epoch",), "sink.commit_epoch", "span"),
    ("sink", "repro.store.sink:StoreSink", ("finish",), "sink.finish", "span"),
    ("store", "repro.store.store:ProvenanceStore", ("open", "create"), "store.open", "span"),
    ("store", "repro.store.store:ProvenanceStore", ("indexes_for",), "store.indexes", "span"),
    ("store", "repro.store.store:ProvenanceStore", ("append_segment", "flush"), "store.write", "span"),
    ("segment", "repro.store.store", ("encode_segment",), "segment.encode", "span"),
    ("segment", "repro.store.server", ("encode_segment",), "segment.encode", "span"),
    ("segment", "repro.store.store", ("decode_segment",), "segment.decode", "span"),
    ("segment", "repro.store.server", ("decode_segment",), "segment.decode", "span"),
    ("log", "repro.store.log:SegmentLog", ("append",), "log.append", "span"),
    ("io", "os", ("fsync",), "io.fsync", "span"),
    (
        "query",
        "repro.store.query:StoreQueryEngine",
        ("lineage_of_pages", "backward_slice", "propagate_taint", "lineage_across_runs", "compare_lineage"),
        None,
        "span",
    ),
    ("server", "repro.store.server:StoreServer", ("handle_request",), "{op}", "span"),
    ("wire", "repro.store.server:StoreClient", ("request",), "wire.request", "span"),
)

#: Span names of the engine methods, as reported per query kind.
QUERY_KINDS = {
    "lineage_of_pages": "lineage",
    "backward_slice": "backward_slice",
    "propagate_taint": "taint",
    "lineage_across_runs": "lineage_across_runs",
    "compare_lineage": "compare_lineage",
}


class _ThreadState:
    __slots__ = ("stack", "counts", "waits")

    def __init__(self) -> None:
        self.stack: List[list] = []
        self.counts: Counter = Counter()
        self.waits: Dict[str, float] = defaultdict(float)


class Tracer:
    """Wraps the layers' public functions and keeps spans in memory.

    Use :meth:`install` / :meth:`uninstall` around traced work and
    :meth:`op` around each end-to-end operation in it.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._op_stack: Optional[List[list]] = None
        self._op_id = 0

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            self._states.append(state)
        return state

    def op(self, name: str) -> "_OpSpan":
        """Context manager opening one end-to-end op (the root of its spans)."""
        return _OpSpan(self, name)

    def _wrap(self, function, layer: str, span_name: Optional[str], kind: str, count_key: str):
        tracer = self
        clock = time.perf_counter
        spans = self.spans

        if kind == "count":

            def counted(*args, **kwargs):
                state = tracer._state()
                stack = state.stack
                if stack and stack[-1][_LAYER] == layer:
                    state.counts[count_key] += 1
                return function(*args, **kwargs)

            return counted

        if kind == "wait":

            def waited(*args, **kwargs):
                state = tracer._state()
                state.counts[count_key] += 1
                start = clock()
                try:
                    return function(*args, **kwargs)
                finally:
                    state.waits[span_name] += clock() - start

            return waited

        def spanned(*args, **kwargs):
            state = tracer._state()
            state.counts[count_key] += 1
            stack = state.stack
            if stack:
                parent = stack[-1]
                if parent[_LAYER] == layer:
                    return function(*args, **kwargs)
            else:
                root = tracer._op_stack
                parent = root[-1] if root else None
            if span_name == "{op}":
                request = args[1] if len(args) > 1 else kwargs.get("request")
                op = request.get("op") if isinstance(request, dict) else None
                name = f"server.handle.{op}"
            else:
                name = span_name
            record = [name, layer, clock(), 0.0, parent, tracer._op_id]
            stack.append(record)
            try:
                return function(*args, **kwargs)
            finally:
                record[_END] = clock()
                stack.pop()
                spans.append(record)

        return spanned

    def install(self) -> None:
        """Patch every function of :data:`WRAP_TABLE`."""
        for layer, target, attrs, span_name, kind in WRAP_TABLE:
            module_name, _, owner_name = target.partition(":")
            owner = importlib.import_module(module_name)
            if owner_name:
                owner = getattr(owner, owner_name)
            for attr in attrs:
                self._patch(owner, attr, layer, span_name, kind)

    def _patch(self, owner, attr: str, layer: str, span_name: Optional[str], kind: str) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        owner_label = getattr(owner, "__qualname__", None) or owner.__name__
        count_key = f"{owner_label}.{attr}"
        if span_name is None and layer == "query":
            span_name = f"query.{QUERY_KINDS[attr]}"
        elif span_name is None:
            span_name = count_key
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(raw.__func__, layer, span_name, kind, count_key))
        else:
            wrapped = self._wrap(raw, layer, span_name, kind, count_key)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every patched function."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #

    def counts(self) -> Counter:
        """Call counts of every wrapped function, summed over threads."""
        total: Counter = Counter()
        for state in self._states:
            total.update(state.counts)
        return total

    def waits(self) -> Dict[str, float]:
        """Seconds spent in each wait, summed over threads."""
        total: Dict[str, float] = defaultdict(float)
        for state in self._states:
            for name, seconds in state.waits.items():
                total[name] += seconds
        return dict(total)

    def self_times(self) -> Dict[int, float]:
        """Self time of every span, keyed by ``id()`` of its record."""
        children: Dict[int, List[list]] = defaultdict(list)
        for record in self.spans:
            if record[_PARENT] is not None:
                children[id(record[_PARENT])].append(record)
        result = {}
        for record in self.spans:
            start, end = record[_START], record[_END]
            covered = 0.0
            cursor = start
            for child in sorted(children.get(id(record), ()), key=lambda item: item[_START]):
                lo = max(child[_START], cursor)
                hi = min(child[_END], end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            result[id(record)] = (end - start) - covered
        return result

    def totals(self) -> Tuple[Dict[str, float], Dict[str, float]]:
        """``(self seconds, inclusive seconds)`` per span name.

        Inclusive time sums only spans with no ancestor of the same name,
        so recursion or re-entry is not counted twice.
        """
        own = self.self_times()
        self_by_name: Dict[str, float] = defaultdict(float)
        inclusive: Dict[str, float] = defaultdict(float)
        for record in self.spans:
            name = record[_NAME]
            self_by_name[name] += own[id(record)]
            parent = record[_PARENT]
            while parent is not None and parent[_NAME] != name:
                parent = parent[_PARENT]
            if parent is None:
                inclusive[name] += record[_END] - record[_START]
        return dict(self_by_name), dict(inclusive)

    def request_overheads_ms(self) -> List[float]:
        """Per request: client round trip minus the server's handle time."""
        handled: Dict[int, float] = defaultdict(float)
        for record in self.spans:
            parent = record[_PARENT]
            if record[_LAYER] == "server" and parent is not None and parent[_NAME] == "wire.request":
                handled[id(parent)] += record[_END] - record[_START]
        return [
            (record[_END] - record[_START] - handled[id(record)]) * 1e3
            for record in self.spans
            if record[_NAME] == "wire.request"
        ]

    def write(self, path: str) -> None:
        """Write every span as one JSON line (gzip), parents as indexes."""
        index = {id(record): position for position, record in enumerate(self.spans)}
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for record in self.spans:
                parent = record[_PARENT]
                handle.write(
                    json.dumps(
                        {
                            "name": record[_NAME],
                            "layer": record[_LAYER],
                            "start": record[_START],
                            "end": record[_END],
                            "parent": index.get(id(parent)) if parent is not None else None,
                            "op": record[_OP],
                        }
                    )
                )
                handle.write("\n")


class _OpSpan:
    """One end-to-end op: the root span every layer span of it hangs under."""

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.record: Optional[list] = None

    def __enter__(self) -> "_OpSpan":
        tracer = self.tracer
        tracer._op_id += 1
        state = tracer._state()
        self.record = [self.name, "op", time.perf_counter(), 0.0, None, tracer._op_id]
        state.stack.append(self.record)
        tracer._op_stack = state.stack
        return self

    def __exit__(self, *exc_info) -> None:
        tracer = self.tracer
        self.record[_END] = time.perf_counter()
        tracer._state().stack.pop()
        tracer._op_stack = None
        tracer.spans.append(self.record)

