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

The derive oracle returns its edge list instead of adding it to the graph,
so it can run on the same graph as the production derivation, whose calls
:func:`derived_edge_list` records.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Set, Tuple

from repro.core.cpg import ConcurrentProvenanceGraph
from repro.core.dependencies import derive_data_edges
from repro.core.thunk import INPUT_NODE, NodeId
from repro.memory.diff import Delta, PageDiff

DataEdge = Tuple[NodeId, NodeId, frozenset]


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
