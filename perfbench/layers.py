"""Per-layer metrics of the traced steps of one pass.

Layer times (``*_s``) are self times: a span's duration minus its child
spans'.  Two are inclusive: ``runtime.run_s`` (all of ``SimRuntime.run``)
and ``server.handle_s.<op>`` (all of ``StoreServer.handle_request`` per
request op).  ``runtime.self_s`` is what is left of ``SimRuntime.run`` once
the layers below are taken out -- the workload's own code, the pthread
API and the scheduler's handoffs -- and counts as unattributed.  Counts
are totals over the traced steps, whose work is fixed by the seed and
``--seconds``, so they repeat exactly.
"""

from __future__ import annotations

import statistics
from typing import Dict, Tuple

#: Server ops whose handle time is reported, as ``server.handle_s.<op>``.
SERVER_OPS = (
    "lineage",
    "slice",
    "taint",
    "lineage_across_runs",
    "compare_lineage",
    "begin_run",
    "append_epoch",
    "commit_run",
)

#: Names of the op spans (the roots), which are not layers.
OP_SPANS = ("record", "first_query", "serve")

#: Count-type metrics: these must repeat exactly across runs of one seed.
COUNTS = (
    "runtime.handoffs",
    "runtime.context_switches",
    "interpose.access_calls",
    "memory.faults",
    "memory.diff_calls",
    "memory.pages_committed",
    "memory.bytes_committed",
    "pt.bytes",
    "pt.packets",
    "perf.log_bytes",
    "tracker.events",
    "tracker.sync_boundaries",
    "derive.hb_checks",
    "derive.data_edges",
    "sink.epochs",
    "io.fsyncs",
    "store.opens",
    "segment.decode_calls",
    "segment.encode_calls",
    "query.segments_read",
    "query.answer_nodes",
    "cache.hits",
    "cache.misses",
    "cache.evictions",
    "wire.requests",
)


def _count(counts, *keys: str) -> int:
    return sum(counts.get(key, 0) for key in keys)


def _stat_sum(samples, attribute: str) -> int:
    return sum(getattr(sample.stats, attribute) for sample in samples if sample.stats is not None)


def layer_metrics(tracer, samples, served, plain_served):
    """Every per-layer metric as ``{name: (value, unit)}``.

    ``samples`` are every record op of the pass; layer values come from
    the traced ones, the overhead from traced against untraced.
    """
    records = [sample for sample in samples if sample.traced]
    plain_records = [sample for sample in samples if not sample.traced]
    self_s, inclusive = tracer.totals()
    counts = tracer.counts()
    waits = tracer.waits()

    def own(*names: str) -> float:
        return sum(self_s.get(name, 0.0) for name in names)

    hits = served.cache["hits"]
    misses = served.cache["misses"]
    # runtime.run's self time is a residual (workload code, the pthread
    # API, scheduler handoffs), so it counts as unattributed.
    layer_total = sum(
        seconds for name, seconds in self_s.items() if name not in OP_SPANS + ("runtime.run",)
    )
    end_to_end = sum(inclusive.get(name, 0.0) for name in OP_SPANS)
    traced_record = statistics.median(s.record_s + sum(s.query_ms) / 1e3 for s in records)
    plain_record = statistics.median(s.record_s + sum(s.query_ms) / 1e3 for s in plain_records)
    every = ("read", "append", "write")
    traced_op_s = statistics.fmean(served.times_ms(every))
    plain_op_s = statistics.fmean(plain_served.times_ms(every))

    values: Dict[str, Tuple[float, str]] = {
        # threads.runtime
        "runtime.run_s": (inclusive.get("runtime.run", 0.0), "s"),
        "runtime.self_s": (own("runtime.run"), "s"),
        "runtime.handoffs": (_count(counts, "SimRuntime.yield_control"), "count"),
        "runtime.handoff_wait_s": (waits.get("runtime.handoff", 0.0), "s"),
        "runtime.context_switches": (_stat_sum(records, "context_switches"), "count"),
        # inspector.interpose
        "interpose.access_calls": (
            _count(
                counts,
                "InspectorBackend.load",
                "InspectorBackend.store",
                "InspectorBackend.malloc",
                "InspectorBackend.free",
            ),
            "count",
        ),
        "interpose.access_self_s": (own("interpose.access"), "s"),
        "interpose.branch_self_s": (own("interpose.branch"), "s"),
        "interpose.sync_self_s": (own("interpose.sync"), "s"),
        # memory.fault_handler
        "memory.faults": (_count(counts, "FaultDispatcher.deliver"), "count"),
        "memory.fault_self_s": (own("memory.fault"), "s"),
        # memory.shared_commit / memory.diff
        "memory.commit_self_s": (own("memory.commit"), "s"),
        "memory.diff_calls": (_count(counts, "repro.memory.shared_commit.diff_page"), "count"),
        "memory.diff_s": (own("memory.diff"), "s"),
        "memory.pages_committed": (_stat_sum(records, "pages_committed"), "count"),
        "memory.bytes_committed": (_stat_sum(records, "bytes_committed"), "B"),
        # pt.encoder / perf.record
        "pt.encode_self_s": (own("pt.encode"), "s"),
        "pt.bytes": (_stat_sum(records, "pt_bytes"), "B"),
        "pt.packets": (_stat_sum(records, "pt_packets"), "count"),
        "perf.drain_s": (own("perf.drain"), "s"),
        "perf.log_bytes": (_stat_sum(records, "perf_log_bytes"), "B"),
        # core.algorithm
        "tracker.event_self_s": (own("tracker.event"), "s"),
        "tracker.events": (
            sum(count for key, count in counts.items() if key.startswith("ProvenanceTracker.")),
            "count",
        ),
        "tracker.sync_boundaries": (_count(counts, "ProvenanceTracker.on_sync_boundary"), "count"),
        # core.dependencies / core.vector_clock
        "derive.s": (own("derive"), "s"),
        "derive.hb_checks": (_count(counts, "VectorClock.dominated_by"), "count"),
        "derive.data_edges": (_stat_sum(records, "cpg_data_edges"), "count"),
        # store.sink / store.log / store.segment (write side)
        "sink.epochs": (_count(counts, "StoreSink.commit_epoch"), "count"),
        "sink.commit_epoch_s": (own("sink.commit_epoch"), "s"),
        "sink.finish_s": (own("sink.finish"), "s"),
        "store.write_s": (own("store.write"), "s"),
        "segment.encode_s": (own("segment.encode"), "s"),
        "segment.encode_calls": (
            _count(counts, "repro.store.store.encode_segment", "repro.store.server.encode_segment"),
            "count",
        ),
        "log.append_s": (own("log.append"), "s"),
        "io.fsyncs": (_count(counts, "os.fsync"), "count"),
        "io.fsync_s": (own("io.fsync"), "s"),
        # store.store / store.indexes (read side)
        "store.open_s": (own("store.open"), "s"),
        "store.opens": (_count(counts, "ProvenanceStore.open"), "count"),
        "store.index_load_s": (own("store.indexes"), "s"),
        "segment.decode_calls": (
            _count(counts, "repro.store.store.decode_segment", "repro.store.server.decode_segment"),
            "count",
        ),
        "segment.decode_s": (own("segment.decode"), "s"),
        # store.query
        "query.lineage_s": (own("query.lineage"), "s"),
        "query.backward_slice_s": (own("query.backward_slice"), "s"),
        "query.taint_s": (own("query.taint"), "s"),
        "query.lineage_across_runs_s": (own("query.lineage_across_runs"), "s"),
        "query.compare_lineage_s": (own("query.compare_lineage"), "s"),
        "query.segments_read": (
            sum(s.segments_loaded for s in records) + served.segments_read,
            "count",
        ),
        "query.answer_nodes": (sum(s.answer_nodes for s in records) + served.answer_nodes, "count"),
        # store.cache (the server's, over the traced serve pass)
        "cache.hits": (hits, "count"),
        "cache.misses": (misses, "count"),
        "cache.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "cache.evictions": (served.cache["evictions"], "count"),
        # store.server (dispatch + wire)
        **{
            f"server.handle_s.{op}": (inclusive.get(f"server.handle.{op}", 0.0), "s")
            for op in SERVER_OPS
        },
        "wire.requests": (_count(counts, "StoreClient.request"), "count"),
        "wire.self_s": (own("wire.request"), "s"),
        "wire.overhead_ms": (statistics.median(tracer.request_overheads_ms()), "ms"),
        # coverage and overhead of the trace itself
        "trace.end_to_end_s": (end_to_end, "s"),
        "trace.layer_self_s": (layer_total, "s"),
        "trace.unattributed_s": (end_to_end - layer_total, "s"),
        "trace.record_overhead": (traced_record / plain_record, "ratio"),
        "trace.serve_overhead": (traced_op_s / plain_op_s, "ratio"),
    }
    return values
