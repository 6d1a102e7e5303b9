"""The bulk binary-codec kernels equal the loop-based reference codec.

:class:`~repro.store.codecs.SegmentCodec` packs and unpacks whole
columns at a time; ``tests/helpers/oracles.py`` keeps the original
per-integer loops.  The fast encoder must emit the reference bytes exactly
(the on-disk format is unchanged), and the fast decoder must rebuild every
node field and every edge the reference decoder rebuilds, in the same
order and with the same types.  Random payloads cover the corners --
zero clock components (dropped on decode), empty clocks, nodes without
thunks, taken/indirect/absent branches, sync edges without an object id,
data edges without pages -- and a corpus test replays real segments of
four traced programs.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.cpg import EdgeKind
from repro.core.thunk import BranchRecord, SubComputation, Thunk
from repro.core.vector_clock import VectorClock
from repro.inspector.api import run_with_provenance
from repro.store.codecs import CODEC, CODECS
from repro.store.format import SEGMENT_MAGIC_PREFIX
from repro.store.segment import frame_header

from helpers.oracles import decode_payload_reference, encode_payload_reference

_ints = st.integers(min_value=-(2**40), max_value=2**40)
_counts = st.integers(min_value=0, max_value=2**33)
_names = st.one_of(st.none(), st.sampled_from(["mutex_lock", "barrier_wait", "thread_exit", ""]))
_branches = st.one_of(
    st.none(),
    st.builds(BranchRecord, site=_counts, taken=st.booleans(), is_indirect=st.booleans()),
)


@st.composite
def clocks(draw):
    """A clock that may carry zero components (the encoder writes them as is)."""
    entries = draw(
        st.dictionaries(
            st.integers(min_value=-1, max_value=300),
            st.integers(min_value=0, max_value=2**33),
            max_size=draw(st.sampled_from([0, 3, 40])),
        )
    )
    return VectorClock.adopt(entries)


@st.composite
def nodes_and_edges(draw):
    identities = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=-1, max_value=9), st.integers(min_value=0, max_value=50)
            ),
            max_size=6,
            unique=True,
        )
    )
    nodes = []
    for tid, index in identities:
        thunks = [
            Thunk(position, draw(_branches), draw(_counts))
            for position in range(draw(st.integers(min_value=0, max_value=4)))
        ]
        nodes.append(
            SubComputation(
                tid,
                index,
                draw(clocks()),
                draw(st.sets(_ints, max_size=5)),
                draw(st.sets(_ints, max_size=5)),
                thunks,
                draw(_names),
                draw(_names),
                draw(st.integers(min_value=0, max_value=100)),
            )
        )
    ids = [node.node_id for node in nodes] + [(7, 70)]
    edges = []
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        kind = draw(st.sampled_from([EdgeKind.CONTROL, EdgeKind.SYNC, EdgeKind.DATA]))
        if kind is EdgeKind.SYNC:
            attrs = {
                "object_id": draw(st.one_of(st.none(), _ints)),
                "operation": draw(_names) or "",
            }
        elif kind is EdgeKind.DATA:
            attrs = {"pages": frozenset(draw(st.sets(_ints, max_size=4)))}
        else:
            attrs = {}
        edges.append((draw(st.sampled_from(ids)), draw(st.sampled_from(ids)), kind, attrs))
    return nodes, edges


def node_fields(node):
    """Every field of a decoded node, with the types the decoders produce."""
    return (
        node.tid,
        node.index,
        node.clock.as_dict(),
        type(node.read_set),
        node.read_set,
        type(node.write_set),
        node.write_set,
        [(thunk.index, thunk.start_branch, thunk.instructions) for thunk in node.thunks],
        node.started_by,
        node.ended_by,
        node.faults,
    )


def edge_fields(edge):
    source, target, kind, attrs = edge
    return (
        source,
        target,
        type(source),
        type(target),
        kind,
        attrs,
        {key: type(value) for key, value in attrs.items()},
    )


def assert_same_decode(raw):
    fast_nodes, fast_edges = CODEC.decode_payload(raw)
    ref_nodes, ref_edges = decode_payload_reference(raw)
    assert [node_fields(node) for node in fast_nodes] == [node_fields(node) for node in ref_nodes]
    assert [edge_fields(edge) for edge in fast_edges] == [edge_fields(edge) for edge in ref_edges]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(nodes_and_edges())
def test_fast_encode_emits_the_reference_bytes(batch):
    nodes, edges = batch
    assert CODEC.encode_payload(nodes, edges) == encode_payload_reference(nodes, edges)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(nodes_and_edges())
def test_fast_decode_rebuilds_what_the_reference_decodes(batch):
    nodes, edges = batch
    assert_same_decode(encode_payload_reference(nodes, edges))


def test_zero_clock_components_are_dropped_and_empty_clocks_stay_empty():
    nodes = [
        SubComputation(1, 0, VectorClock.adopt({1: 0, 2: 5, 3: 0})),
        SubComputation(2, 0, VectorClock.adopt({})),
        SubComputation(3, 0, VectorClock.adopt({4: 0})),
    ]
    raw = CODEC.encode_payload(nodes, [])
    assert raw == encode_payload_reference(nodes, [])
    decoded, _ = CODEC.decode_payload(raw)
    assert [node.clock.as_dict() for node in decoded] == [{2: 5}, {}, {}]
    assert_same_decode(raw)


@pytest.mark.parametrize(
    "workload,size,shape",
    [
        ("kmeans", "small", "clock"),  # ~100-entry clocks
        ("canneal", "medium", "thunks"),  # ~155 thunks per node
        ("reverse_index", "small", None),
        ("streamcluster", "small", None),
    ],
)
def test_real_segments_round_trip_through_both_kernels(tmp_path, workload, size, shape):
    store_dir = tmp_path / "store"
    store = run_with_provenance(
        workload, num_threads=8, size=size, seed=3, store_path=str(store_dir)
    ).store
    assert store.manifest.segments
    widest = {"clock": 0, "thunks": 0}
    for info in store.manifest.segments:
        framed = (store_dir / "segments" / info.file_name).read_bytes()
        codec_name, raw_bytes, checksummed = frame_header(framed)
        header = len(SEGMENT_MAGIC_PREFIX) + 1 + 8 + (4 if checksummed else 0)
        raw = CODECS[codec_name].decompress_frame(framed[header:])
        assert len(raw) == raw_bytes
        assert_same_decode(raw)
        nodes, edges = decode_payload_reference(raw)
        assert CODEC.encode_payload(nodes, edges) == raw
        for node in nodes:
            widest["clock"] = max(widest["clock"], len(node.clock.as_dict()))
            widest["thunks"] = max(widest["thunks"], len(node.thunks))
    if shape is not None:
        assert widest[shape] >= 100, widest
