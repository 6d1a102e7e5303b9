"""The fast data-edge derivation is exact on real traced workloads.

Each workload runs at 8 threads with derivation switched off; the
production derivation (epoch test + per-thread writer index) is then run on
the finalized CPG and must issue exactly the ``add_data_edge`` calls of the
full-clock reference scan, in the same order and with the same pages, so
the CPG and everything stored from it stay byte-identical.
"""

import pytest

from repro.inspector.api import run_with_provenance
from repro.inspector.config import InspectorConfig

from helpers.oracles import derive_data_edges_reference, derived_edge_list


@pytest.mark.parametrize("workload", ["reverse_index", "canneal", "kmeans", "streamcluster"])
def test_derived_edges_match_reference(workload):
    result = run_with_provenance(
        workload,
        num_threads=8,
        size="small",
        seed=11,
        config=InspectorConfig(derive_data_edges=False),
    )
    expected = derive_data_edges_reference(result.cpg)
    assert expected, "the workload should produce data edges"
    assert derived_edge_list(result.cpg) == expected
