"""Derivation of data-dependence (update-use) edges.

The tracker records read and write sets per sub-computation and the
happens-before partial order (control + synchronization edges).  Data
dependence edges are derived from those two ingredients: a sub-computation
``n`` depends on ``m`` for page ``p`` when ``m`` wrote ``p``, ``n`` read
``p``, ``m`` happens-before ``n``, and no other writer of ``p`` lies
between them in the partial order (closer writers shadow farther ones, the
same way a later store to the same page supersedes an earlier one under
the last-writer-wins commit).

**Epoch test.**  Happens-before between two sub-computations needs one
clock component, not a walk over the whole vector clock (the "epoch"
observation of FastTrack, Flanagan & Freund, PLDI 2009).  The tracker
snapshots a node's clock when the sub-computation starts, with the node's
own component set to ``alpha + 1`` (``_begin_subcomputation`` in
:mod:`repro.core.algorithm`), and a thread only ever publishes its clock
at a release that ends a sub-computation.  So another thread learns
``C[t] > alpha`` exactly when a chain of release/acquire pairs leads from
the end of ``L_t[alpha]`` to it, and that chain also carries every other
component ``L_t[alpha]`` knew.  Hence ``a -> b`` iff

* ``a.index < b.index`` on the same thread, or
* ``b.clock[a.tid] > a.index`` on different threads,

which is what the full-clock ``ConcurrentProvenanceGraph.happens_before``
answers, in O(1).  The virtual input node counts as the earliest node.

**Writer index.**  Writers are registered in a linear extension of the
partial order, into ``writers[page][tid] = (indices, nodes)`` kept in
ascending ``index``.  A thread's eligible writers for a reader are a prefix
of its list (those with ``index < reader.clock[tid]``, or ``< reader.index``
on the reader's own thread), and only the last of that prefix can be
maximal, so one ``bisect`` per writer thread yields at most one candidate
per thread.  The candidates are then filtered to an antichain with the
epoch test; the input node is used only when no other candidate remains.
Sources are emitted in descending topological position.  That order fixes
the order of the CPG's data edges and so the bytes of every store segment
written from it; the tests hold it equal, call for call, to a reference
derivation that compares every earlier writer with the full clocks.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, List, Set, Tuple

from repro.core.cpg import ConcurrentProvenanceGraph, EdgeKind
from repro.core.thunk import INPUT_TID, NodeId, SubComputation


def epoch_happens_before(first: SubComputation, second: SubComputation) -> bool:
    """O(1) happens-before test between two sub-computations of one CPG.

    Relies on the ``alpha + 1`` clock snapshot the tracker takes at
    sub-computation start (see the module docstring); the virtual input
    node precedes every other node.
    """
    if first.tid == INPUT_TID:
        return second.tid != INPUT_TID
    if second.tid == INPUT_TID:
        return False
    if first.tid == second.tid:
        return first.index < second.index
    return second.clock.get(first.tid) > first.index


def derive_data_edges(cpg: ConcurrentProvenanceGraph) -> int:
    """Add update-use edges to ``cpg`` and return how many were added.

    The derivation walks the vertices in a linear extension of the recorded
    partial order (control + sync edges), keeping a per-page, per-thread
    index of the writers seen so far.  For each page a reader reads it links
    the *latest* writers that happen-before it -- writers that are
    themselves ordered before another eligible writer are shadowed and
    produce no edge.

    The virtual input node (when present) is the earliest writer of every
    input page, so first readers of the input get an edge from it.
    """
    order = cpg.topological_order()
    input_node = cpg.input_node
    input_pages: Set[int] = set()
    if input_node is not None:
        # The input node reads nothing and precedes every other node, so it
        # is never a reader and is consulted only as the fallback writer.
        order.remove(input_node)
        input_pages = cpg.subcomputation(input_node).write_set
    position = {node_id: rank for rank, node_id in enumerate(order)}

    # page -> tid -> (ascending indices, the matching sub-computations)
    writers: Dict[int, Dict[int, Tuple[List[int], List[SubComputation]]]] = {}
    # Pairs already linked (source, target) -> pages, to merge multi-page
    # dependencies into a single labelled edge.
    pending: Dict[Tuple[NodeId, NodeId], Set[int]] = {}

    for node_id in order:
        node = cpg.subcomputation(node_id)
        tid, index = node_id
        clock = node.clock
        # 1. resolve this node's reads against earlier writers
        for page in sorted(node.read_set):
            candidates: List[SubComputation] = []
            for writer_tid, (indices, nodes) in writers.get(page, {}).items():
                bound = index if writer_tid == tid else clock.get(writer_tid)
                latest = bisect_left(indices, bound)
                if latest:
                    candidates.append(nodes[latest - 1])
            # Latest first: a candidate ordered before another candidate is
            # ordered before a selected one (the shadowing writer is either
            # selected or itself shadowed by a later selected writer).
            candidates.sort(key=lambda writer: position[writer.node_id], reverse=True)
            selected: List[SubComputation] = []
            for candidate in candidates:
                if not any(epoch_happens_before(candidate, chosen) for chosen in selected):
                    selected.append(candidate)
            if selected:
                sources = [writer.node_id for writer in selected]
            elif page in input_pages:
                sources = [input_node]
            else:
                continue
            for source in sources:
                pending.setdefault((source, node_id), set()).add(page)
        # 2. register this node's writes (control edges order a thread's
        # nodes, so appending keeps every per-thread list ascending)
        for page in node.write_set:
            indices, nodes = writers.setdefault(page, {}).setdefault(tid, ([], []))
            indices.append(index)
            nodes.append(node)

    for (source, target), pages in pending.items():
        cpg.add_data_edge(source, target, pages)
    return len(pending)


def data_dependencies_of(
    cpg: ConcurrentProvenanceGraph, node_id: NodeId
) -> List[Tuple[NodeId, frozenset]]:
    """Return ``(source, pages)`` for every data edge ending at ``node_id``."""
    result = []
    for source, target, attrs in cpg.edges(EdgeKind.DATA):
        if target == node_id:
            result.append((source, attrs.get("pages", frozenset())))
    return result


def readers_of_pages(cpg: ConcurrentProvenanceGraph, pages: Iterable[int]) -> Set[NodeId]:
    """Return every sub-computation whose read set intersects ``pages``."""
    wanted = set(pages)
    return {
        node.node_id
        for node in cpg.subcomputations()
        if node.read_set & wanted
    }


def writers_of_pages(cpg: ConcurrentProvenanceGraph, pages: Iterable[int]) -> Set[NodeId]:
    """Return every sub-computation whose write set intersects ``pages``."""
    wanted = set(pages)
    return {
        node.node_id
        for node in cpg.subcomputations()
        if node.write_set & wanted
    }
