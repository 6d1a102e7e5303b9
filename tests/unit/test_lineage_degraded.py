"""A lineage that loses a segment mid-walk degrades to the exact healthy answer.

One segment holding in-edges from the middle of a broad lineage is damaged.
The shared-visited walk must then return exactly what the per-writer
reference returns over the edges of the healthy segments alone, mark the
answer degraded and name the skipped segment -- in process and through a
server ``lineage`` request.  The damage is either quarantined by a scrub
beforehand or found by the CRC check during the query itself.
"""

import os
import shutil

import pytest

from helpers.random_cpgs import random_cpg
from helpers.faults import flip_bytes
from helpers.oracles import lineage_of_pages_reference

from repro.core.serialization import node_key
from repro.store import ProvenanceStore, ReadScope, StoreQueryEngine, StoreServer, scrub
from repro.store.format import SEGMENTS_DIR


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """A stored execution with a deep lineage, its page, victim and answer.

    Page 6 of this execution has 9 writers and 33 further ancestors.  The
    victim is a segment holding in-edges of those ancestors whose loss
    shrinks the answer, but not down to the writers alone.  The expected
    degraded answer is the per-writer reference over every edge of every
    other segment.
    """
    cpg = random_cpg(24, threads=6, pages=8, max_steps=400, accesses=3)
    pages = [6]
    path = str(tmp_path_factory.mktemp("lineage") / "store")
    with ProvenanceStore.create(path) as store:
        store.ingest(cpg, segment_nodes=3)
    with ProvenanceStore.open(path) as store:
        indexes = store.indexes_for()
        full = StoreQueryEngine(store).lineage_of_pages(pages)
        writers = {writer for page in pages for writer in indexes.writers_of_page(page)}
        edges_of = {
            info.segment_id: store.segment(info.segment_id).edges
            for info in store.manifest.segments
        }
        middle = sorted(
            {
                segment_id
                for node_id in full - writers
                for segment_id in indexes.in_segments(node_id)
            }
        )
        for victim in middle:
            healthy = [
                edge
                for segment_id, edges in edges_of.items()
                if segment_id != victim
                for edge in edges
            ]
            expected = lineage_of_pages_reference(cpg, pages, edges=healthy)
            if writers < expected < full:
                break
        else:
            pytest.fail("no segment sits in the middle of the lineage")
        file_name = store.manifest.segment_info(victim).file_name
    assert full == lineage_of_pages_reference(cpg, pages)
    return path, pages, victim, file_name, expected


@pytest.fixture
def damaged_store(recorded, tmp_path, request):
    """A copy of the recorded store with the victim segment bit-rotted."""
    source, pages, victim, file_name, expected = recorded
    path = str(tmp_path / "store")
    shutil.copytree(source, path)
    flip_bytes(os.path.join(path, SEGMENTS_DIR, file_name), -2)
    if request.param == "scrubbed":
        with ProvenanceStore.open(path) as store:
            assert scrub(store)["quarantined"] == [victim]
    return path, pages, victim, expected


@pytest.mark.parametrize("parallelism", [1, 2])
@pytest.mark.parametrize("damaged_store", ["scrubbed", "found_mid_query"], indirect=True)
def test_in_process_lineage_is_the_healthy_reference(damaged_store, parallelism):
    path, pages, victim, expected = damaged_store
    with ProvenanceStore.open(path) as store:
        scope = ReadScope()
        engine = StoreQueryEngine(store, parallelism=parallelism, scope=scope)
        answer = engine.lineage_of_pages(pages)
    assert answer == expected
    assert scope.degraded
    assert scope.quarantined_segments == {victim}


@pytest.mark.parametrize("damaged_store", ["scrubbed", "found_mid_query"], indirect=True)
def test_server_lineage_is_the_healthy_reference(damaged_store):
    path, pages, victim, expected = damaged_store
    server = StoreServer(path)
    try:
        response = server.handle_request({"op": "lineage", "pages": pages})
    finally:
        server.close()
    assert response["ok"], response
    assert response["result"]["nodes"] == [node_key(node) for node in sorted(expected)]
    assert response["stats"]["degraded"]
    assert response["stats"]["quarantined_segments"] == [victim]
