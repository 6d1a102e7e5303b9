"""Property tests: every lineage and slice equals the per-writer reference.

The store engine and the in-memory CPG both answer a lineage query with
one backward walk shared by all writers.  The reference in
``tests/helpers/oracles.py`` is the original per-writer union of plain
single-start BFS slices.  Random lock-ordered executions with racy
accesses, 2-6 threads, up to 300 steps and 1-3 accesses per critical
section are written through the store and queried three ways; every
answer must be the same set.  Single-start
slices must also match the old walk with ``include_start`` on and off, and
the cross-run entry points must agree with the reference per run.
"""

import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers.random_cpgs import random_cpg
from helpers.oracles import (
    backward_slice_reference,
    cpg_edge_list,
    forward_slice_reference,
    lineage_of_pages_reference,
)

from repro.core.cpg import EdgeKind
from repro.core.queries import (
    DEFAULT_SLICE_KINDS,
    backward_slice,
    forward_slice,
    lineage_of_pages,
)
from repro.errors import ProvenanceError, StoreError
from repro.store import ProvenanceStore, StoreQueryEngine

PAGES = 6
SETTINGS = settings(
    suppress_health_check=[HealthCheck.too_slow], deadline=None, max_examples=20
)

executions = st.tuples(
    st.integers(0, 10_000),  # seed
    st.integers(2, 6),  # threads
    st.integers(10, 300),  # max steps
    st.integers(1, 3),  # accesses per critical section
)


def build(execution):
    seed, threads, max_steps, accesses = execution
    return random_cpg(
        seed, threads=threads, pages=PAGES, max_steps=max_steps, accesses=accesses
    )


def write_store(tmp, cpgs, segment_nodes=4):
    """Ingest each CPG as one run of a fresh store; returns its path."""
    path = os.path.join(str(tmp), "store")
    with ProvenanceStore.create(path) as store:
        for cpg in cpgs:
            store.ingest(cpg, segment_nodes=segment_nodes)
    return path


class TestLineageClosure:
    @SETTINGS
    @given(
        executions,
        st.integers(2, 9),
        st.sets(st.integers(0, PAGES - 1), min_size=1, max_size=PAGES),
        st.sampled_from([1, 2]),
    )
    def test_lineage_equals_per_writer_union(self, execution, segment_nodes, pages, parallelism):
        cpg = build(execution)
        expected = lineage_of_pages_reference(cpg, pages)
        assert lineage_of_pages(cpg, pages) == expected
        with tempfile.TemporaryDirectory() as tmp:
            with ProvenanceStore.open(write_store(tmp, [cpg], segment_nodes)) as store:
                engine = StoreQueryEngine(store, parallelism=parallelism)
                assert engine.lineage_of_pages(pages) == expected

    @SETTINGS
    @given(executions, st.integers(2, 9), st.booleans())
    def test_slices_equal_single_start_walk(self, execution, segment_nodes, include_start):
        cpg = build(execution)
        edges = cpg_edge_list(cpg)
        with tempfile.TemporaryDirectory() as tmp:
            with ProvenanceStore.open(write_store(tmp, [cpg], segment_nodes)) as store:
                engine = StoreQueryEngine(store)
                for kinds in ((EdgeKind.DATA,), DEFAULT_SLICE_KINDS):
                    for node_id in cpg.nodes()[::2]:
                        back = backward_slice_reference(edges, node_id, kinds, include_start)
                        fwd = forward_slice_reference(edges, node_id, kinds, include_start)
                        for answer in (
                            backward_slice(cpg, node_id, kinds, include_start),
                            engine.backward_slice(node_id, kinds, include_start),
                        ):
                            assert answer == back
                        for answer in (
                            forward_slice(cpg, node_id, kinds, include_start),
                            engine.forward_slice(node_id, kinds, include_start),
                        ):
                            assert answer == fwd

    @SETTINGS
    @given(
        st.lists(executions, min_size=2, max_size=3),
        st.sets(st.integers(0, PAGES - 1), min_size=1, max_size=PAGES),
        st.sampled_from([1, 2]),
    )
    def test_cross_run_queries_agree_with_reference(self, runs, pages, parallelism):
        cpgs = [build(execution) for execution in runs]
        expected = [lineage_of_pages_reference(cpg, pages) for cpg in cpgs]
        with tempfile.TemporaryDirectory() as tmp:
            with ProvenanceStore.open(write_store(tmp, cpgs)) as store:
                engine = StoreQueryEngine(store, parallelism=parallelism)
                run_ids = store.run_ids()
                assert engine.lineage_across_runs(pages) == dict(zip(run_ids, expected))
                diff = engine.compare_lineage(run_ids[0], run_ids[1], pages)
                assert diff.only_a == expected[0] - expected[1]
                assert diff.only_b == expected[1] - expected[0]
                assert diff.common == expected[0] & expected[1]


class TestUnknownStarts:
    def test_unknown_nodes_still_raise(self, tmp_path):
        cpg = random_cpg(3)
        with ProvenanceStore.open(write_store(tmp_path, [cpg])) as store:
            engine = StoreQueryEngine(store)
            with pytest.raises(StoreError):
                engine.backward_slice((99, 99))
            with pytest.raises(StoreError):
                engine.forward_slice((99, 99), include_start=False)
        with pytest.raises(ProvenanceError):
            cpg.ancestors((99, 99))
        with pytest.raises(ProvenanceError):
            cpg.descendants((99, 99))
