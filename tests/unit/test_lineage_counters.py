"""Deterministic gate on the cost of a lineage query.

A lineage query walks backwards from every writer of the asked pages at
once, with one visited set, so each node of the answer is expanded exactly
once: the store engine looks up one node's edge segments per answer node
(``StoreQueryEngine._edges_at``), and the in-memory CPG steps through one
node's in-edges per answer node (``ConcurrentProvenanceGraph._neighbours``).
A walk per writer would repeat the shared ancestry once per writer.
Counting those calls is a stable, machine-independent stand-in for query
time.
"""

from collections import Counter

import pytest

from repro.core.cpg import ConcurrentProvenanceGraph
from repro.core.queries import lineage_of_pages
from repro.inspector.api import run_with_provenance
from repro.store import ProvenanceStore, StoreQueryEngine

from helpers.oracles import lineage_of_pages_reference


@pytest.fixture(scope="module")
def stored_run(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("lineage") / "store")
    result = run_with_provenance(
        "reverse_index", num_threads=8, size="small", seed=5, store_path=path
    )
    result.store.close()
    pages = sorted({page for record in result.outputs for page in record.source_pages})
    return result.cpg, path, pages


def counting(monkeypatch, owner, name, counter):
    """Count calls to ``owner.name``, keyed by their first argument."""
    original = getattr(owner, name)

    def wrapper(self, key, *args, **kwargs):
        counter[key] += 1
        return original(self, key, *args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


def test_store_lineage_expands_each_answer_node_once(monkeypatch, stored_run):
    cpg, path, pages = stored_run
    expansions, segment_reads = Counter(), Counter()
    counting(monkeypatch, StoreQueryEngine, "_edges_at", expansions)
    counting(monkeypatch, ProvenanceStore, "segment", segment_reads)
    with ProvenanceStore.open(path) as store:
        answer = StoreQueryEngine(store).lineage_of_pages(pages)
        indexes = store.indexes_for()
        segment_bound = sum(len(indexes.in_segments(node_id)) for node_id in answer)

    assert answer == lineage_of_pages_reference(cpg, pages)
    assert len(answer) > 100, "the gate needs a broad lineage to mean anything"
    assert sum(expansions.values()) == len(answer)
    assert set(expansions) == answer
    assert sum(segment_reads.values()) <= segment_bound


def test_in_memory_lineage_expands_each_answer_node_once(monkeypatch, stored_run):
    cpg, _, pages = stored_run
    expansions = Counter()
    counting(monkeypatch, ConcurrentProvenanceGraph, "_neighbours", expansions)

    answer = lineage_of_pages(cpg, pages)

    assert sum(expansions.values()) == len(answer)
    assert set(expansions) == answer
