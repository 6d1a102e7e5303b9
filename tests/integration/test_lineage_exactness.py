"""The shared-visited lineage walk is exact on real traced workloads.

Each workload runs at 8 threads and streams into a store.  The lineage of
its output pages -- the benchmark's cold query -- must then be the same
set from the per-writer reference, the in-memory query, the debugging
case study's explanation and the store engine, sequential or prefetching.
"""

import pytest

from repro.analysis.debugging import explain_memory_state
from repro.core.queries import lineage_of_pages
from repro.inspector.api import run_with_provenance
from repro.memory.layout import DEFAULT_PAGE_SIZE
from repro.store import ProvenanceStore, StoreQueryEngine

from helpers.oracles import lineage_of_pages_reference


@pytest.mark.parametrize("workload", ["reverse_index", "canneal", "kmeans", "streamcluster"])
def test_output_lineage_matches_reference(workload, tmp_path):
    path = str(tmp_path / "store")
    result = run_with_provenance(
        workload, num_threads=8, size="small", seed=11, store_path=path
    )
    result.store.close()
    pages = sorted({page for record in result.outputs for page in record.source_pages})
    expected = lineage_of_pages_reference(result.cpg, pages)
    assert len(expected) > 1, "the workload should have a non-trivial output lineage"

    assert lineage_of_pages(result.cpg, pages) == expected
    addresses = [page * DEFAULT_PAGE_SIZE for page in pages]
    assert explain_memory_state(result.cpg, addresses).explanation == expected
    for parallelism in (1, 2):
        with ProvenanceStore.open(path) as store:
            engine = StoreQueryEngine(store, parallelism=parallelism)
            assert engine.lineage_of_pages(pages) == expected
