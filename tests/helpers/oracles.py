"""Slow reference implementations the fast paths in ``src/`` are tested against.

* :func:`derive_data_edges_reference` is the original data-edge derivation:
  for every read it scans *all* earlier writers of the page and compares
  them pairwise with the full vector-clock happens-before test
  (``ConcurrentProvenanceGraph.happens_before``).  The production
  derivation (:func:`repro.core.dependencies.derive_data_edges`) uses the
  O(1) epoch test and a per-thread writer index instead, and must produce
  the same data-edge list -- same edges, same pages, same order.
* :func:`diff_page_reference` is the original byte-by-byte twin/diff loop
  that :func:`repro.memory.diff.diff_page` replaced.
* :func:`encode_payload_reference` / :func:`decode_payload_reference` are
  the original per-integer loops of the columnar binary segment payload
  that :class:`repro.store.codecs.SegmentCodec` replaced with bulk
  column operations; the fast encoder must emit the same bytes and the
  fast decoder must rebuild the same nodes and edges.
* :func:`lineage_of_pages_reference` is the original page-lineage query:
  one full single-start backward slice per writer, unioned.  The
  production lineage (in memory and in the store) walks every writer at
  once with one shared visited set and must return the same set.
  :func:`backward_slice_reference` / :func:`forward_slice_reference` are
  the single-start walks it is built from: a plain BFS over an explicit
  edge list, so a test can also drop the edges of damaged segments.

The derive oracle returns its edge list instead of adding it to the graph,
so it can run on the same graph as the production derivation, whose calls
:func:`derived_edge_list` records.
"""

from __future__ import annotations

import sys
from array import array
from collections import defaultdict, deque
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.cpg import ConcurrentProvenanceGraph, EdgeKind
from repro.core.dependencies import derive_data_edges
from repro.core.thunk import INPUT_NODE, BranchRecord, NodeId, SubComputation, Thunk
from repro.core.vector_clock import VectorClock
from repro.errors import StoreError
from repro.memory.diff import Delta, PageDiff
from repro.store.codecs import (
    CODE_TO_KIND,
    KIND_TO_CODE,
    EdgeTuple,
    StringInterner,
    deref,
    read_string_table,
    write_string_table,
)

DataEdge = Tuple[NodeId, NodeId, frozenset]
KindedEdge = Tuple[NodeId, NodeId, EdgeKind]


def derive_data_edges_reference(cpg: ConcurrentProvenanceGraph) -> List[DataEdge]:
    """Return the ``(source, target, pages)`` data edges the CPG should get, in order."""
    order = cpg.topological_order()
    if cpg.input_node is not None and cpg.input_node in order:
        order.remove(cpg.input_node)
    if cpg.input_node is not None:
        order.insert(0, cpg.input_node)

    writers_by_page: Dict[int, List[NodeId]] = defaultdict(list)
    pending: Dict[Tuple[NodeId, NodeId], Set[int]] = defaultdict(set)
    for node_id in order:
        node = cpg.subcomputation(node_id)
        for page in sorted(node.read_set):
            for source in _latest_writers(cpg, writers_by_page.get(page, []), node_id):
                pending[(source, node_id)].add(page)
        for page in node.write_set:
            writers_by_page[page].append(node_id)
    return [
        (source, target, frozenset(pages))
        for (source, target), pages in pending.items()
        if source != target
    ]


def _latest_writers(
    cpg: ConcurrentProvenanceGraph, writers: List[NodeId], reader: NodeId
) -> List[NodeId]:
    """The maximal writers (by happens-before) that precede ``reader``.

    ``writers`` is in a linear extension of the partial order, so scanning
    it backwards visits later writers first; a writer is skipped if it
    happens-before an already selected one.
    """
    selected: List[NodeId] = []
    for candidate in reversed(writers):
        if candidate == reader:
            continue
        if not _precedes(cpg, candidate, reader):
            continue
        if any(_precedes(cpg, candidate, chosen) for chosen in selected):
            continue
        selected.append(candidate)
    return selected


def _precedes(cpg: ConcurrentProvenanceGraph, first: NodeId, second: NodeId) -> bool:
    """Full-clock happens-before that treats the virtual input node as earliest."""
    if first == INPUT_NODE:
        return second != INPUT_NODE
    if second == INPUT_NODE:
        return False
    return cpg.happens_before(first, second)


def derived_edge_list(cpg: ConcurrentProvenanceGraph) -> List[DataEdge]:
    """Run the production derivation on ``cpg`` and return its edges in call order.

    The order of ``add_data_edge`` calls fixes the CPG's adjacency order and
    therefore every store segment written from it, so a fast derivation must
    match the reference call for call, not only as a set.
    """
    calls: List[DataEdge] = []
    add_data_edge = cpg.add_data_edge

    def record(source: NodeId, target: NodeId, pages) -> None:
        calls.append((source, target, frozenset(pages)))
        add_data_edge(source, target, pages)

    cpg.add_data_edge = record
    try:
        derive_data_edges(cpg)
    finally:
        del cpg.add_data_edge
    return calls


def diff_page_reference(page: int, twin: bytes, current: bytes) -> PageDiff:
    """Byte-by-byte diff: maximal runs of bytes where ``current`` differs from ``twin``."""
    if len(twin) != len(current):
        raise ValueError(
            f"twin and current page must be the same size ({len(twin)} != {len(current)})"
        )
    deltas: List[Delta] = []
    run_start = -1
    for index, (old, new) in enumerate(zip(twin, current)):
        if old != new:
            if run_start < 0:
                run_start = index
        elif run_start >= 0:
            deltas.append(Delta(run_start, bytes(current[run_start:index])))
            run_start = -1
    if run_start >= 0:
        deltas.append(Delta(run_start, bytes(current[run_start:])))
    return PageDiff(page=page, deltas=deltas)


# ---------------------------------------------------------------------- #
# Columnar binary segment payload, one integer at a time
# ---------------------------------------------------------------------- #

_PAYLOAD_VERSION = 1
_NEEDS_SWAP = sys.byteorder != "little"


def _pack_q(values) -> bytes:
    column = array("q", values)
    if _NEEDS_SWAP:
        column.byteswap()
    return column.tobytes()


def _unpack_q(data: memoryview, pos: int, count: int) -> Tuple[array, int]:
    end = pos + 8 * count
    if end > len(data):
        raise StoreError("truncated int column (corrupt binary segment)")
    column = array("q")
    column.frombytes(bytes(data[pos:end]))
    if _NEEDS_SWAP:
        column.byteswap()
    return column, end


def _unpack_u32(data: memoryview, pos: int) -> Tuple[int, int]:
    if pos + 4 > len(data):
        raise StoreError("truncated count field (corrupt binary segment)")
    return int.from_bytes(data[pos : pos + 4], "little"), pos + 4


def encode_payload_reference(
    nodes: Sequence[SubComputation], edges: Sequence[EdgeTuple]
) -> bytes:
    """The binary payload of ``nodes`` + ``edges``, built per integer."""
    interner = StringInterner()
    started = [interner.ref(node.started_by) for node in nodes]
    ended = [interner.ref(node.ended_by) for node in nodes]

    clock_sizes: List[int] = []
    clock_pairs: List[int] = []
    read_sizes: List[int] = []
    read_pages: List[int] = []
    write_sizes: List[int] = []
    write_pages: List[int] = []
    thunk_counts: List[int] = []
    thunk_indexes: List[int] = []
    thunk_instructions: List[int] = []
    thunk_flags = bytearray()
    thunk_sites: List[int] = []
    for node in nodes:
        clock = sorted(node.clock.as_dict().items())
        clock_sizes.append(len(clock))
        for tid, value in clock:
            clock_pairs.append(int(tid))
            clock_pairs.append(int(value))
        reads = sorted(node.read_set)
        read_sizes.append(len(reads))
        read_pages.extend(int(page) for page in reads)
        writes = sorted(node.write_set)
        write_sizes.append(len(writes))
        write_pages.extend(int(page) for page in writes)
        thunk_counts.append(len(node.thunks))
        for thunk in node.thunks:
            thunk_indexes.append(int(thunk.index))
            thunk_instructions.append(int(thunk.instructions))
            branch = thunk.start_branch
            if branch is None:
                thunk_flags.append(0)
                thunk_sites.append(0)
            else:
                thunk_flags.append(
                    1 | (2 if branch.taken else 0) | (4 if branch.is_indirect else 0)
                )
                thunk_sites.append(int(branch.site))

    endpoint_pairs: List[int] = []
    target_pairs: List[int] = []
    kind_codes = bytearray()
    sync_block = bytearray()
    data_sizes: List[int] = []
    data_pages: List[int] = []
    for source, target, kind, attrs in edges:
        try:
            kind_codes.append(KIND_TO_CODE[kind])
        except KeyError as exc:
            raise StoreError(f"unknown edge kind {kind!r}") from exc
        endpoint_pairs.extend((int(source[0]), int(source[1])))
        target_pairs.extend((int(target[0]), int(target[1])))
        if kind is EdgeKind.SYNC:
            object_id = attrs.get("object_id")
            if object_id is None:
                sync_block += b"\x00" + _pack_q((0,))
            elif isinstance(object_id, int) and not isinstance(object_id, bool):
                sync_block += b"\x01" + _pack_q((object_id,))
            else:
                raise StoreError(f"binary codec needs integer sync object ids, got {object_id!r}")
            sync_block += _pack_q((interner.ref(attrs.get("operation", "")),))
        elif kind is EdgeKind.DATA:
            pages = sorted(attrs.get("pages", ()))
            data_sizes.append(len(pages))
            data_pages.extend(int(page) for page in pages)

    out = bytearray()
    out.append(_PAYLOAD_VERSION)
    write_string_table(out, interner.strings)
    out += len(nodes).to_bytes(4, "little")
    out += _pack_q(node.tid for node in nodes)
    out += _pack_q(node.index for node in nodes)
    out += _pack_q(node.faults for node in nodes)
    out += _pack_q(started)
    out += _pack_q(ended)
    out += _pack_q(clock_sizes)
    out += _pack_q(clock_pairs)
    out += _pack_q(read_sizes)
    out += _pack_q(read_pages)
    out += _pack_q(write_sizes)
    out += _pack_q(write_pages)
    out += _pack_q(thunk_counts)
    out += _pack_q(thunk_indexes)
    out += _pack_q(thunk_instructions)
    out += bytes(thunk_flags)
    out += _pack_q(thunk_sites)
    out += len(edges).to_bytes(4, "little")
    out += _pack_q(endpoint_pairs)
    out += _pack_q(target_pairs)
    out += bytes(kind_codes)
    out += bytes(sync_block)
    out += _pack_q(data_sizes)
    out += _pack_q(data_pages)
    return bytes(out)


def decode_payload_reference(raw: bytes) -> Tuple[List[SubComputation], List[EdgeTuple]]:
    """Invert :func:`encode_payload_reference`, one integer at a time."""
    data = memoryview(raw)
    if len(data) < 1 or data[0] != _PAYLOAD_VERSION:
        raise StoreError("not a version-1 binary segment payload")
    strings, pos = read_string_table(data, 1)

    node_count, pos = _unpack_u32(data, pos)
    tids, pos = _unpack_q(data, pos, node_count)
    indexes, pos = _unpack_q(data, pos, node_count)
    faults, pos = _unpack_q(data, pos, node_count)
    started, pos = _unpack_q(data, pos, node_count)
    ended, pos = _unpack_q(data, pos, node_count)
    clock_sizes, pos = _unpack_q(data, pos, node_count)
    clock_pairs, pos = _unpack_q(data, pos, 2 * sum(clock_sizes))
    read_sizes, pos = _unpack_q(data, pos, node_count)
    read_pages, pos = _unpack_q(data, pos, sum(read_sizes))
    write_sizes, pos = _unpack_q(data, pos, node_count)
    write_pages, pos = _unpack_q(data, pos, sum(write_sizes))
    thunk_counts, pos = _unpack_q(data, pos, node_count)
    thunk_total = sum(thunk_counts)
    thunk_indexes, pos = _unpack_q(data, pos, thunk_total)
    thunk_instructions, pos = _unpack_q(data, pos, thunk_total)
    if pos + thunk_total > len(data):
        raise StoreError("truncated branch flags (corrupt binary segment)")
    thunk_flags = bytes(data[pos : pos + thunk_total])
    pos += thunk_total
    thunk_sites, pos = _unpack_q(data, pos, thunk_total)

    nodes: List[SubComputation] = []
    clock_at = read_at = write_at = thunk_at = 0
    for position in range(node_count):
        size = clock_sizes[position]
        clock = {
            clock_pairs[2 * (clock_at + entry)]: clock_pairs[2 * (clock_at + entry) + 1]
            for entry in range(size)
        }
        clock_at += size
        node = SubComputation(
            tid=tids[position],
            index=indexes[position],
            clock=VectorClock(clock),
            started_by=deref(strings, started[position]),
            ended_by=deref(strings, ended[position]),
            faults=faults[position],
        )
        size = read_sizes[position]
        node.read_set.update(read_pages[read_at : read_at + size])
        read_at += size
        size = write_sizes[position]
        node.write_set.update(write_pages[write_at : write_at + size])
        write_at += size
        for entry in range(thunk_counts[position]):
            flags = thunk_flags[thunk_at + entry]
            branch = (
                BranchRecord(
                    site=thunk_sites[thunk_at + entry],
                    taken=bool(flags & 2),
                    is_indirect=bool(flags & 4),
                )
                if flags & 1
                else None
            )
            node.thunks.append(
                Thunk(
                    index=thunk_indexes[thunk_at + entry],
                    start_branch=branch,
                    instructions=thunk_instructions[thunk_at + entry],
                )
            )
        thunk_at += thunk_counts[position]
        nodes.append(node)

    edge_count, pos = _unpack_u32(data, pos)
    sources, pos = _unpack_q(data, pos, 2 * edge_count)
    targets, pos = _unpack_q(data, pos, 2 * edge_count)
    if pos + edge_count > len(data):
        raise StoreError("truncated edge kinds (corrupt binary segment)")
    kind_codes = bytes(data[pos : pos + edge_count])
    pos += edge_count
    sync_fields: List[Tuple[object, str]] = []
    for code in kind_codes:
        if code == KIND_TO_CODE[EdgeKind.SYNC]:
            if pos + 17 > len(data):
                raise StoreError("truncated sync edge block (corrupt binary segment)")
            has_object = data[pos]
            object_column, next_pos = _unpack_q(data, pos + 1, 1)
            ref_column, next_pos = _unpack_q(data, next_pos, 1)
            operation = deref(strings, ref_column[0])
            sync_fields.append(
                (
                    object_column[0] if has_object else None,
                    operation if operation is not None else "",
                )
            )
            pos = next_pos
    data_count = sum(1 for code in kind_codes if code == KIND_TO_CODE[EdgeKind.DATA])
    data_sizes, pos = _unpack_q(data, pos, data_count)
    data_pages, pos = _unpack_q(data, pos, sum(data_sizes))

    edges: List[EdgeTuple] = []
    sync_at = data_at = page_at = 0
    for position, code in enumerate(kind_codes):
        try:
            kind = CODE_TO_KIND[code]
        except KeyError as exc:
            raise StoreError(f"unknown edge kind code {code}") from exc
        source = (sources[2 * position], sources[2 * position + 1])
        target = (targets[2 * position], targets[2 * position + 1])
        attrs: dict = {}
        if kind is EdgeKind.SYNC:
            object_id, operation = sync_fields[sync_at]
            sync_at += 1
            attrs = {"object_id": object_id, "operation": operation}
        elif kind is EdgeKind.DATA:
            size = data_sizes[data_at]
            data_at += 1
            attrs = {"pages": frozenset(data_pages[page_at : page_at + size])}
            page_at += size
        edges.append((source, target, kind, attrs))
    return nodes, edges


def cpg_edge_list(cpg: ConcurrentProvenanceGraph) -> List[KindedEdge]:
    """Every ``(source, target, kind)`` edge of ``cpg``."""
    return [(source, target, attrs["kind"]) for source, target, attrs in cpg.edges()]


def _adjacency(
    edges: Iterable[tuple], kinds: Optional[Sequence[EdgeKind]], forward: bool
) -> Dict[NodeId, List[NodeId]]:
    adjacency: Dict[NodeId, List[NodeId]] = defaultdict(list)
    for source, target, kind, *_ in edges:
        if kinds is None or kind in kinds:
            if forward:
                adjacency[source].append(target)
            else:
                adjacency[target].append(source)
    return adjacency


def _reachable(
    adjacency: Dict[NodeId, List[NodeId]], node_id: NodeId, include_start: bool
) -> Set[NodeId]:
    seen = {node_id}
    queue = deque([node_id])
    while queue:
        for nxt in adjacency.get(queue.popleft(), ()):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    if not include_start:
        seen.discard(node_id)
    return seen


def backward_slice_reference(
    edges: Iterable[tuple],
    node_id: NodeId,
    kinds: Optional[Sequence[EdgeKind]] = (EdgeKind.DATA,),
    include_start: bool = True,
) -> Set[NodeId]:
    """Everything ``node_id`` reaches backwards over ``edges`` of ``kinds``.

    ``edges`` holds ``(source, target, kind, ...)`` tuples: the CPG's
    (:func:`cpg_edge_list`) or a store segment's.
    """
    return _reachable(_adjacency(edges, kinds, forward=False), node_id, include_start)


def forward_slice_reference(
    edges: Iterable[tuple],
    node_id: NodeId,
    kinds: Optional[Sequence[EdgeKind]] = (EdgeKind.DATA,),
    include_start: bool = True,
) -> Set[NodeId]:
    """Everything ``node_id`` reaches forwards over ``edges`` of ``kinds``."""
    return _reachable(_adjacency(edges, kinds, forward=True), node_id, include_start)


def lineage_of_pages_reference(
    cpg: ConcurrentProvenanceGraph,
    pages: Iterable[int],
    edges: Optional[Iterable[tuple]] = None,
) -> Set[NodeId]:
    """The writers of ``pages`` unioned with each writer's data backward slice.

    ``edges`` defaults to every edge of ``cpg``; pass a subset (say, the
    edges of a store's healthy segments) to get the answer a degraded
    read must give.  The writers always come from ``cpg``, as the store's
    page index names them without reading a segment.
    """
    wanted = set(pages)
    adjacency = _adjacency(
        cpg_edge_list(cpg) if edges is None else edges, (EdgeKind.DATA,), forward=False
    )
    result: Set[NodeId] = set()
    for node in cpg.subcomputations():
        if node.write_set & wanted:
            result |= _reachable(adjacency, node.node_id, include_start=True)
    return result
