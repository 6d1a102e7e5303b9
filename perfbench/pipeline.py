"""Set-up and the three measured stages: record, cold query, warm serve.

Every stage checks its own output against a reference computed at set-up
and counts a mismatch or a raised error as a failed op; nothing raises
out of a measured stage.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import os
import random
import shutil
import sys
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core import queries
from repro.core.serialization import node_key
from repro.inspector.api import run_native, run_with_provenance
from repro.store import ProvenanceStore, StoreClient, StoreQueryEngine, StoreServer
from repro.workloads.registry import get_workload

from spec import SERVE_MIX, SERVE_PROGRAMS, SERVE_SIZE, THREADS, Workload


def _untraced(_name: str):
    """Stands in for ``Tracer.op`` when a stage runs untraced."""
    return contextlib.nullcontext()


def note_failure(what: str, detail: str) -> None:
    """Report one failed op on stderr (the result line carries the count)."""
    print(f"FAILED {what}: {detail}", file=sys.stderr)


def dir_bytes(path: str) -> int:
    """Bytes of every file under ``path``."""
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _dirs, files in os.walk(path)
        for name in files
    )


def cpg_digest(cpg) -> str:
    """Digest of a CPG: nodes with read/write sets, every edge with kind and pages."""
    digest = hashlib.sha256()
    for node in sorted(cpg.subcomputations(), key=lambda item: item.node_id):
        digest.update(
            f"{node_key(node.node_id)}|{sorted(node.read_set)}|{sorted(node.write_set)}\n".encode()
        )
    edges = sorted(
        (node_key(source), node_key(target), attrs["kind"].value, sorted(attrs.get("pages", ())))
        for source, target, attrs in cpg.edges()
    )
    for edge in edges:
        digest.update(f"{edge}\n".encode())
    return digest.hexdigest()


def output_pages(result) -> List[int]:
    """The pages the run's outputs were derived from."""
    return sorted({page for record in result.outputs for page in record.source_pages})


def node_keys(nodes) -> List[str]:
    """Node ids as the server renders them: sorted ``tid:index`` keys."""
    return [node_key(node) for node in sorted(nodes)]


# ---------------------------------------------------------------------- #
# Set-up
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class Reference:
    """One dataset of the record program and what a record op on it must give."""

    dataset: object
    native_result: object
    digest: str
    oracle_lineage: List[str]


@dataclass
class Setup:
    """Everything a run needs before it measures, with its references."""

    workload: Workload
    work_dir: str
    references: List[Reference]
    ops: List[Tuple[str, Optional[dict]]]
    replay: List[tuple]
    replay_nodes: int
    server: StoreServer
    client: StoreClient
    properties: dict
    failed: int = 0
    answers: Dict[int, object] = field(default_factory=dict)

    def compute_answers(self) -> None:
        """Answer every read of the op sequence in process, for the serve checks.

        Runs on the served store before any write reaches it; the server
        answers from the snapshot it opened at start, so writes sent
        during the pass do not change these answers.
        """
        store = ProvenanceStore.open(self.server.store_path)
        engine = StoreQueryEngine(store)
        memo: Dict[str, object] = {}
        for position, (kind, params) in enumerate(self.ops):
            if kind == "write":
                continue
            key = f"{kind}:{sorted(params.items())}"
            if key not in memo:
                memo[key] = reference_answer(engine, kind, params)
            self.answers[position] = memo[key]
        store.close()

    def close(self) -> None:
        self.server.close()


def make_ops(
    rng: random.Random, count: int, nodes_by_run: Dict[int, List[tuple]], pages_by_run: Dict[int, List[int]]
) -> List[Tuple[str, Optional[dict]]]:
    """A fixed serve op sequence with the mix's exact proportions.

    Kinds are shuffled; the targets of each kind cycle through a shuffled
    pool of every candidate (every run's written pages, every run's
    nodes), so each target is drawn equally often.
    """
    kinds: List[str] = []
    for kind, tenths in SERVE_MIX:
        kinds.extend([kind] * round(count * tenths / 10))
    kinds = (kinds + ["lineage"] * count)[:count]  # absorb rounding
    rng.shuffle(kinds)

    def pool(items):
        items = list(items)
        rng.shuffle(items)
        while True:
            yield from items

    runs = sorted(pages_by_run)
    run_pages = pool((run, page) for run in runs for page in pages_by_run[run])
    run_nodes = pool((run, node) for run in runs for node in nodes_by_run[run])
    all_pages = pool(sorted({page for pages in pages_by_run.values() for page in pages}))
    run_pairs = pool((a, b) for a in runs for b in runs if a < b)
    ops: List[Tuple[str, Optional[dict]]] = []
    for kind in kinds:
        if kind in ("lineage", "taint"):
            run, page = next(run_pages)
            ops.append((kind, {"pages": [page], "run": run}))
        elif kind == "slice":
            run, node = next(run_nodes)
            ops.append((kind, {"node": node_key(node), "run": run}))
        elif kind == "lineage_across_runs":
            ops.append((kind, {"pages": [next(all_pages)]}))
        elif kind == "compare_lineage":
            run_a, run_b = next(run_pairs)
            ops.append((kind, {"run_a": run_a, "run_b": run_b, "pages": [next(all_pages)]}))
        else:
            ops.append(("write", None))
    return ops


def reference_answer(engine: StoreQueryEngine, kind: str, params: dict) -> object:
    """The server's ``result`` for a read op, computed in process."""
    if kind == "lineage":
        nodes = engine.lineage_of_pages(params["pages"], run=params["run"])
        return {"run": params["run"], "nodes": node_keys(nodes)}
    if kind == "slice":
        tid, _, index = params["node"].partition(":")
        nodes = engine.backward_slice((int(tid), int(index)), run=params["run"])
        return {"run": params["run"], "nodes": node_keys(nodes)}
    if kind == "taint":
        result = engine.propagate_taint(params["pages"], run=params["run"])
        return {
            "run": params["run"],
            "source_pages": sorted(result.source_pages),
            "tainted_pages": sorted(result.tainted_pages),
            "tainted_nodes": node_keys(result.tainted_nodes),
            "mode": engine.last_taint_mode,
        }
    if kind == "lineage_across_runs":
        by_run = engine.lineage_across_runs(params["pages"])
        return {str(run): node_keys(nodes) for run, nodes in by_run.items()}
    diff = engine.compare_lineage(params["run_a"], params["run_b"], params["pages"])
    return {
        "run_a": diff.run_a,
        "run_b": diff.run_b,
        "pages": list(diff.pages),
        "only_a": node_keys(diff.only_a),
        "only_b": node_keys(diff.only_b),
        "common": node_keys(diff.common),
        "identical": diff.identical,
    }


def build_setup(workload: Workload, seed: int, work_dir: str, serve_ops: int) -> Setup:
    """Generate inputs, record the references and the served store, start its server.

    Each dataset of the record program gets a reference run (no store) and
    a native run: a record op on that dataset must give the native result,
    the reference CPG's digest and its lineage oracle.  The served store
    holds one run of each of :data:`SERVE_PROGRAMS`; its run 1's segments
    are what serve-stage writes replay.
    """
    os.makedirs(work_dir, exist_ok=True)
    store_path = os.path.join(work_dir, "store")
    failed = 0
    program = get_workload(workload.program)
    references: List[Reference] = []
    for dataset in workload.record_datasets(program, seed):
        run = run_with_provenance(program, num_threads=THREADS, dataset=dataset)
        native = run_native(program, num_threads=THREADS, dataset=dataset)
        if run.result != native.result:
            failed += 1
            note_failure("setup", "reference run result differs from run_native")
        oracle = node_keys(queries.lineage_of_pages(run.cpg, output_pages(run)))
        references.append(Reference(dataset, native.result, cpg_digest(run.cpg), oracle))
    stats = run.stats
    properties = {
        "program": program.name,
        "nodes": stats.cpg_nodes,
        "sync_ops": stats.sync_ops,
        "faults": stats.page_faults,
        "pages_committed": stats.pages_committed,
        "data_edges": stats.cpg_data_edges,
        "output_lineage_nodes": len(oracle),
    }
    nodes_by_run: Dict[int, List[tuple]] = {}
    for name, dataset_seed in zip(SERVE_PROGRAMS, workload.served_seeds(seed)):
        served = get_workload(name)
        dataset = served.generate_dataset(size=SERVE_SIZE, seed=dataset_seed)
        run = run_with_provenance(served, num_threads=THREADS, dataset=dataset, store_path=store_path)
        run.store.close()
        nodes_by_run[run.store_run_id] = run.cpg.nodes()
    del run

    store = ProvenanceStore.open(store_path)
    pages_by_run = {run_id: sorted(store.indexes_for(run_id).page_writers) for run_id in store.run_ids()}
    ops = make_ops(random.Random(f"ops:{workload.name}:{seed}"), serve_ops, nodes_by_run, pages_by_run)
    # Writes replay the run's sub-computations epoch by epoch, as the live
    # sink streams them; the edge-only segments of derived data edges are
    # left out so append_epoch times one kind of request.
    replay = []
    for info in store.manifest.segments_of_run(1):
        payload = store.segment(info.segment_id)
        if payload.nodes:
            replay.append((list(payload.nodes.values()), list(payload.edges)))
    properties["served_runs"] = len(pages_by_run)
    properties["served_store_bytes"] = dir_bytes(store_path)
    store.close()

    server = StoreServer(store_path, writable=True)
    host, port = server.start()
    client = StoreClient(host, port)
    if not client.ping():
        failed += 1
        note_failure("setup", "server did not answer ping")
    return Setup(
        workload=workload,
        work_dir=work_dir,
        references=references,
        ops=ops,
        replay=replay,
        replay_nodes=sum(len(nodes) for nodes, _ in replay),
        server=server,
        client=client,
        properties=properties,
        failed=failed,
    )


# ---------------------------------------------------------------------- #
# Record + cold query
# ---------------------------------------------------------------------- #


#: Cold queries after each record op; each opens its own fresh handle.
QUERIES_PER_RECORD = 2


@dataclass
class RecordSample:
    """One record op and the cold queries after it."""

    record_s: float
    query_ms: List[float]
    store_bytes: int
    nodes: int
    failed: int
    attempted: int
    stats: object = None
    segments_loaded: int = 0
    answer_nodes: int = 0
    traced: bool = False
    dataset: int = 0
    epochs: int = 0
    #: ``(start, end)`` perf-counter windows of the record op and each query.
    record_at: Tuple[float, float] = (0.0, 0.0)
    query_at: List[Tuple[float, float]] = field(default_factory=list)


def record_once(setup: Setup, reference: Reference, tracer=None) -> RecordSample:
    """Trace the record program into a fresh store, then query it cold.

    The cold query -- open the store, build an engine, ask the lineage of
    the run's output pages -- is the one-shot CLI profile; it runs
    :data:`QUERIES_PER_RECORD` times, each on a fresh handle, for more
    samples per record op.
    """
    op = tracer.op if tracer is not None else _untraced
    program = setup.workload.program
    directory = tempfile.mkdtemp(prefix="record-", dir=setup.work_dir)
    path = os.path.join(directory, "store")
    attempted = 1 + QUERIES_PER_RECORD
    failed = 0
    try:
        with op("record"):
            start = time.perf_counter()
            run = run_with_provenance(program, num_threads=THREADS, dataset=reference.dataset, store_path=path)
            end = time.perf_counter()
        sample = RecordSample(end - start, [], 0, len(run.cpg), 0, attempted, run.stats)
        sample.epochs = run.store.manifest.run_info(run.store_run_id).meta.get("epochs", 0)
        run.store.close()
        sample.store_bytes = dir_bytes(path)
        sample.record_at = (start, end)
        if run.result != reference.native_result:
            failed += 1
            note_failure("record", "result differs from run_native")
        elif cpg_digest(run.cpg) != reference.digest:
            failed += 1
            note_failure("record", "CPG digest differs from the setup reference run")
        pages = output_pages(run)
        run_id = run.store_run_id
        # The query starts from a clean heap, as a fresh CLI process would.
        del run
        gc.collect()
        for _ in range(QUERIES_PER_RECORD):
            with op("first_query"):
                start = time.perf_counter()
                store = ProvenanceStore.open(path)
                engine = StoreQueryEngine(store)
                answer = engine.lineage_of_pages(pages, run=run_id)
                end = time.perf_counter()
            sample.query_ms.append((end - start) * 1e3)
            sample.query_at.append((start, end))
            store.close()
            sample.segments_loaded += engine.segments_loaded
            sample.answer_nodes += len(answer)
            if node_keys(answer) != reference.oracle_lineage:
                failed += 1
                note_failure("first_query", "lineage differs from the in-memory oracle")
        sample.failed = failed
        return sample
    except Exception:  # noqa: BLE001 - a failed op is counted, not raised
        note_failure("record", traceback.format_exc())
        return RecordSample(0.0, [], 0, 0, failed=attempted, attempted=attempted)
    finally:
        shutil.rmtree(directory, ignore_errors=True)


# ---------------------------------------------------------------------- #
# Warm serve
# ---------------------------------------------------------------------- #


def _wall_s(start: float, end: float) -> float:
    return end - start


@dataclass
class ServeResult:
    """Serve requests of one pass: ``(tag, start, end, op)`` each, plus counters.

    The tag is ``read``, ``append`` (``append_epoch``) or ``write`` (the
    other ingest ops); the op is the request's own kind.
    """

    requests: List[Tuple[str, float, float, str]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    segments_read: int = 0
    answer_nodes: int = 0
    cache: Counter = field(default_factory=Counter)
    cache_peak_bytes: int = 0

    def times_ms(self, tags: Tuple[str, ...], seconds=_wall_s) -> List[float]:
        """Round trips of the requests with ``tags``, in ms, as ``seconds(start, end)`` gives them."""
        return [seconds(start, end) * 1e3 for tag, start, end, _ in self.requests if tag in tags]

    def times_by_op(self, seconds=_wall_s) -> Dict[str, List[float]]:
        """Round trips in ms, as ``seconds(start, end)`` gives them, grouped by the request's kind."""
        by_op: Dict[str, List[float]] = {}
        for _, start, end, kind in self.requests:
            by_op.setdefault(kind, []).append(seconds(start, end) * 1e3)
        return by_op


class _Replay:
    """Replays the reference run's epochs: begin_run, append_epoch..., commit_run."""

    def __init__(self, setup: Setup) -> None:
        self.setup = setup
        self.step = 0
        self.run: Optional[int] = None

    def next(self, client: StoreClient) -> Tuple[str, bool]:
        """Send the next write; returns ``(op, reply is as expected)``."""
        segments = self.setup.replay
        step = self.step
        self.step = (step + 1) % (len(segments) + 2)
        if step == 0:
            self.run = client.begin_run(workload=SERVE_PROGRAMS[0])
            return "begin_run", self.run > 0
        if step <= len(segments):
            nodes, edges = segments[step - 1]
            reply = client.append_epoch(self.run, nodes, edges)
            return "append_epoch", reply["nodes"] == len(nodes) and reply["edges"] == len(edges)
        reply = client.commit_run(self.run)
        return "commit_run", reply["nodes"] == self.setup.replay_nodes


def _serve(setup: Setup, replay: _Replay, positions: range, result: ServeResult, op, monitor) -> None:
    """Send ``positions`` of the op sequence, one request at a time (closed loop).

    Each reply is checked as it arrives, outside its timed round trip, and
    dropped, so the client holds no replies while the pass runs.  Speed
    probes run between requests, never during one.
    """
    client = setup.client
    for position in positions:
        kind, params = setup.ops[position]
        if monitor is not None:
            monitor.maybe_sample()
        with op("serve"):
            start = time.perf_counter()
            try:
                if kind == "write":
                    reply = replay.next(client)
                else:
                    reply = client.request(kind, **params)
            except Exception:  # noqa: BLE001 - a failed op is counted, not raised
                reply = traceback.format_exc()
            end = time.perf_counter()
        result.attempted += 1
        if isinstance(reply, str):
            result.failed += 1
            note_failure(kind, reply)
            continue
        if kind == "write":
            kind, ok = reply
            result.requests.append(("append" if kind == "append_epoch" else "write", start, end, kind))
        else:
            result.requests.append(("read", start, end, kind))
            ok = reply.get("ok") and reply.get("result") == setup.answers[position]
            result.segments_read += int(reply.get("stats", {}).get("segments_read", 0))
            result.answer_nodes += _answer_size(reply.get("result"))
        if not ok:
            result.failed += 1
            note_failure(kind, f"op {position} answered differently from the reference")


def run_pass(
    setup: Setup, record_ops: int, tracer=None, monitor=None
) -> Tuple[List[RecordSample], ServeResult, ServeResult]:
    """Record ops interleaved with equal slices of the serve op sequence.

    Interleaving spreads both stages' samples over the whole pass, so a
    slow spell of the machine weighs on each stage alike instead of on
    whichever stage happened to run during it.  With a ``tracer``, the
    even-numbered steps (a record op and its serve slice) run traced and
    the odd ones untraced, so traced and untraced work meet the same
    machine; the first step, which meets the server's cache cold, is
    traced.  With a ``monitor``, the host's speed is sampled all along.
    Returns the record samples (each marked ``traced``), the traced serve
    slices and the untraced ones.
    """
    probing = monitor.background if monitor is not None else contextlib.nullcontext
    replay = _Replay(setup)
    served = {True: ServeResult(), False: ServeResult()}
    records: List[RecordSample] = []
    count = len(setup.ops)
    for index in range(record_ops):
        traced = tracer is not None and index % 2 == 0
        op = tracer.op if traced else _untraced
        positions = range(count * index // record_ops, count * (index + 1) // record_ops)
        if traced:
            tracer.install()
        try:
            gc.collect()
            with probing():
                dataset = index % len(setup.references)
                sample = record_once(setup, setup.references[dataset], tracer if traced else None)
            sample.traced = traced
            sample.dataset = dataset
            records.append(sample)
            gc.collect()
            before = setup.server.server_stats()["segment_cache"]
            _serve(setup, replay, positions, served[traced], op, monitor)
            after = setup.server.server_stats()["segment_cache"]
        finally:
            if traced:
                tracer.uninstall()
        for key in ("hits", "misses", "evictions"):
            served[traced].cache[key] += after[key] - before[key]
        served[traced].cache_peak_bytes = after["peak_bytes"]
    return records, served[True], served[False]


def _answer_size(result) -> int:
    """Nodes in a read answer (across every run for cross-run ops)."""
    if not isinstance(result, dict):
        return 0
    if "nodes" in result:
        return len(result["nodes"])
    if "tainted_nodes" in result:
        return len(result["tainted_nodes"])
    if "common" in result:
        return len(result["only_a"]) + len(result["only_b"]) + len(result["common"])
    return sum(len(nodes) for nodes in result.values())
