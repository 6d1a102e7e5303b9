"""Deterministic gate on the cost of data-edge derivation.

Derivation orders writers with the O(1) epoch test, so it must never fall
back to a full vector-clock walk (``VectorClock.dominated_by``).  Counting
those calls is a stable, machine-independent stand-in for derive time.
"""

from repro.core.dependencies import derive_data_edges
from repro.core.vector_clock import VectorClock
from repro.inspector.api import run_with_provenance
from repro.inspector.config import InspectorConfig

from helpers.oracles import derive_data_edges_reference


def _reverse_index(derive: bool):
    return run_with_provenance(
        "reverse_index",
        num_threads=8,
        size="small",
        seed=5,
        config=InspectorConfig(derive_data_edges=derive),
    )


def test_derive_makes_no_vector_clock_walks(monkeypatch):
    cpg = _reverse_index(derive=False).cpg
    calls = []
    dominated_by = VectorClock.dominated_by

    def counting(self, other):
        calls.append(1)
        return dominated_by(self, other)

    monkeypatch.setattr(VectorClock, "dominated_by", counting)
    expected = derive_data_edges_reference(cpg)
    assert calls, "the full-clock reference walks clocks, so the counter must see it"

    calls.clear()
    added = derive_data_edges(cpg)

    assert len(calls) == 0
    assert added == len(expected)


def test_run_stats_count_the_reference_edges():
    expected = derive_data_edges_reference(_reverse_index(derive=False).cpg)
    assert _reverse_index(derive=True).stats.cpg_data_edges == len(expected)
