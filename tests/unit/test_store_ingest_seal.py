"""Remote ingest seals a client's frame verbatim; segment decoding is strict.

A writable server CRC-verifies and decodes every ``append_epoch`` frame
(its indexes, the collision check and the cache need the nodes), then
writes a checksummed frame as it arrived, without encoding it again.
These tests check that the segment files stay byte-identical to a local
ingest, that the server makes no encode call for such frames, that a
frame without a checksum is still re-encoded, and that a corrupt frame --
trailing bytes, a negative clock component, a repeated node, a frame of a
retired codec -- is refused with a typed error before anything is
written.
"""

import base64
import json
import os
import zlib

import pytest

from repro.core.cpg import EdgeKind
from repro.core.thunk import SubComputation
from repro.core.vector_clock import VectorClock
from repro.errors import CorruptSegmentError, StoreError
from repro.inspector.api import run_with_provenance
from repro.store import ProvenanceStore, StoreClient, StoreServer
from repro.compression.lz import compress as lz_compress
from repro.core.serialization import FORMAT_VERSION_V2, subcomputation_to_dict
from repro.store import store as store_module
from repro.store.codecs import CODEC, CRC_FRAME_FLAG
from repro.store.format import SEGMENT_MAGIC_PREFIX, SEGMENTS_DIR
from repro.store.segment import decode_segment, encode_segment, frame_header


def frame(
    raw: bytes, checksummed: bool = True, frame_byte: int = CODEC.frame_byte, body=None
) -> bytes:
    """Frame a payload as ``encode_segment`` frames one (``body`` overrides zlib)."""
    if body is None:
        body = CODEC.compress_frame(raw)
    if not checksummed:
        header = SEGMENT_MAGIC_PREFIX + bytes((frame_byte,))
        return header + len(raw).to_bytes(8, "little") + body
    return (
        SEGMENT_MAGIC_PREFIX
        + bytes((frame_byte | CRC_FRAME_FLAG,))
        + len(raw).to_bytes(8, "little")
        + (zlib.crc32(body) & 0xFFFFFFFF).to_bytes(4, "little")
        + body
    )


def epoch(first_index: int = 0, count: int = 3):
    nodes = [
        SubComputation(1, index, VectorClock({1: index + 1, 2: 4}), {index}, {100 + index})
        for index in range(first_index, first_index + count)
    ]
    edges = [
        ((1, index - 1), (1, index), EdgeKind.CONTROL, {})
        for index in range(first_index + 1, first_index + count)
    ]
    edges.append(((2, 0), nodes[0].node_id, EdgeKind.SYNC, {"object_id": None, "operation": "x"}))
    edges.append(((2, 0), nodes[-1].node_id, EdgeKind.DATA, {"pages": frozenset()}))
    return nodes, edges


def negative_clock_frame() -> bytes:
    node = SubComputation(1, 0, VectorClock.adopt({1: 1, 2: -3}))
    return encode_segment([node], [])[0]


def trailing_bytes_frame() -> bytes:
    nodes, edges = epoch()
    return frame(CODEC.encode_payload(nodes, edges) + b"\x00")


def json_codec_frame() -> bytes:
    """A frame of the retired ``json`` codec: lz-compressed JSON, byte 0x02."""
    nodes, _ = epoch()
    document = {
        "format_version": FORMAT_VERSION_V2,
        "kind": "cpg-segment",
        "nodes": [subcomputation_to_dict(node) for node in nodes],
        "edges": [],
    }
    raw = json.dumps(document, sort_keys=True).encode("utf-8")
    return frame(raw, checksummed=False, frame_byte=0x02, body=lz_compress(raw))


def binary_codec_frame() -> bytes:
    """A frame of the retired uncompressed ``binary`` codec, byte 0x03."""
    nodes, edges = epoch()
    raw = CODEC.encode_payload(nodes, edges)
    return frame(raw, frame_byte=0x03, body=raw)


def segment_files(store_dir):
    with ProvenanceStore.open(str(store_dir)) as store:
        infos = list(store.manifest.segments)
    return [
        open(os.path.join(str(store_dir), SEGMENTS_DIR, info.file_name), "rb").read()
        for info in infos
    ]


@pytest.fixture()
def writable(tmp_path):
    """An empty writable server; yields (dir, server, client)."""
    store_dir = str(tmp_path / "remote")
    ProvenanceStore.create(store_dir)
    server = StoreServer(store_dir, writable=True)
    host, port = server.start()
    yield store_dir, server, StoreClient(host, port, timeout=10.0)
    server.close()


@pytest.fixture()
def server_encodes(monkeypatch):
    """Records ``encode_segment`` calls made by the store (the server side).

    The client encodes through ``repro.store.server``'s binding of the
    same function, which this counter does not see.
    """
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return encode_segment(*args, **kwargs)

    monkeypatch.setattr(store_module, "encode_segment", counted)
    return calls


class TestVerbatimSeal:
    def test_remote_run_is_byte_identical_to_the_local_sink(
        self, writable, tmp_path, server_encodes
    ):
        store_dir, server, client = writable
        local = run_with_provenance(
            "kmeans", num_threads=4, size="small", seed=5, store_path=str(tmp_path / "local")
        )
        encodes_by_local_run = len(server_encodes)
        remote = run_with_provenance(
            "kmeans",
            num_threads=4,
            size="small",
            seed=5,
            store_url=f"{client.host}:{client.port}",
        )
        assert remote.store_run_id == local.store_run_id == 1
        local_files = segment_files(tmp_path / "local")
        remote_files = segment_files(store_dir)
        assert len(local_files) > 1
        assert remote_files == local_files
        # The deterministic gate: the server sealed every store-codec
        # frame without a single encode call of its own.
        assert encodes_by_local_run == len(local_files)
        assert len(server_encodes) == encodes_by_local_run
        assert server.server_stats()["epochs_ingested"] == len(remote_files)
        with ProvenanceStore.open(store_dir) as store:
            assert {info.codec for info in store.manifest.segments} == {"binary-z"}

    def test_unchecksummed_frame_is_reencoded_with_a_checksum(self, writable, server_encodes):
        store_dir, _, client = writable
        run_id = client.begin_run(workload="w")
        nodes, edges = epoch()
        legacy = frame(CODEC.encode_payload(nodes, edges), checksummed=False)
        assert frame_header(legacy)[2] is False
        client.request(
            "append_epoch", run=run_id, segment=base64.b64encode(legacy).decode("ascii")
        )
        assert len(server_encodes) == 1
        (stored,) = segment_files(store_dir)
        assert stored == encode_segment(nodes, edges)[0]
        assert frame_header(stored)[2] is True


def assert_refused(server, store_dir, framed, match):
    """The server replies ``ok: false`` and writes no segment and no log record."""
    run_id = server.handle_request({"op": "begin_run", "workload": "w"})["result"]["run"]
    segments_dir = os.path.join(store_dir, SEGMENTS_DIR)
    files_before = sorted(os.listdir(segments_dir))
    log_before = server._writer.log_state()
    reply = server.handle_request(
        {"op": "append_epoch", "run": run_id, "segment": base64.b64encode(framed).decode("ascii")}
    )
    assert reply["ok"] is False
    assert reply["code"] == "bad_request"
    assert "bad request parameters" not in reply["error"]
    assert f"segment for run {run_id} is corrupt" in reply["error"]
    assert match in reply["error"]
    assert sorted(os.listdir(segments_dir)) == files_before
    assert server._writer.log_state() == log_before
    assert server._writer.manifest.segments == []


class TestStrictDecode:
    def test_trailing_bytes_are_corruption(self):
        with pytest.raises(StoreError, match="bytes after the last column"):
            decode_segment(trailing_bytes_frame())

    def test_negative_clock_component_is_corruption(self):
        with pytest.raises(StoreError, match="invalid clock") as caught:
            decode_segment(negative_clock_frame())
        assert not isinstance(caught.value, ValueError)

    def test_repeated_node_is_corruption(self):
        nodes, edges = epoch()
        framed, _ = encode_segment(nodes + nodes[:1], edges)
        with pytest.raises(StoreError, match="more than once"):
            decode_segment(framed)

    @pytest.mark.parametrize(
        "make,match",
        [
            (trailing_bytes_frame, "bytes after the last column"),
            (negative_clock_frame, "invalid clock"),
        ],
    )
    def test_server_refuses_the_frame_and_writes_nothing(self, writable, make, match):
        store_dir, server, _ = writable
        assert_refused(server, store_dir, make(), match)

    def test_server_refuses_a_repeated_node(self, writable):
        store_dir, server, _ = writable
        nodes, edges = epoch()
        repeated, _ = encode_segment(nodes + nodes[:1], edges)
        assert_refused(server, store_dir, repeated, "more than once")

    @pytest.mark.parametrize(
        "make,match",
        [
            (trailing_bytes_frame, "bytes after the last column"),
            (negative_clock_frame, "invalid clock"),
        ],
    )
    def test_cold_read_names_the_corrupt_segment(self, tmp_path, make, match):
        store_dir = str(tmp_path / "store")
        store = ProvenanceStore.create(store_dir)
        run_id = store.new_run(workload="w")
        store.append_segment(*epoch(), run=run_id)
        framed = make()
        _, raw_bytes, _ = frame_header(framed)
        # seal_segment trusts its caller, so it can plant the damage.
        bad = store.seal_segment(framed, raw_bytes, *epoch(10), run=run_id)
        store.flush()
        cold = ProvenanceStore.open(store_dir)
        with pytest.raises(CorruptSegmentError, match=f"segment {bad} is corrupt") as caught:
            cold.segment(bad)
        assert match in str(caught.value)
        assert caught.value.segment_id == bad

    @pytest.mark.parametrize(
        "make,byte", [(json_codec_frame, "0x02"), (binary_codec_frame, "0x83")]
    )
    def test_retired_codec_frame_is_refused(self, make, byte):
        with pytest.raises(StoreError, match=f"unsupported segment frame byte {byte}"):
            decode_segment(make())

    @pytest.mark.parametrize(
        "make,byte", [(json_codec_frame, "0x02"), (binary_codec_frame, "0x83")]
    )
    def test_server_refuses_a_retired_codec_frame(self, writable, make, byte):
        store_dir, server, _ = writable
        assert_refused(server, store_dir, make(), f"unsupported segment frame byte {byte}")

    @pytest.mark.parametrize(
        "make,byte", [(json_codec_frame, "0x02"), (binary_codec_frame, "0x83")]
    )
    def test_cold_read_names_a_retired_codec_segment(self, tmp_path, make, byte):
        store_dir = str(tmp_path / "store")
        store = ProvenanceStore.create(store_dir)
        run_id = store.new_run(workload="w")
        store.append_segment(*epoch(), run=run_id)
        bad = store.append_segment(*epoch(10), run=run_id)
        store.flush()
        # seal_segment refuses a foreign frame, so plant it on disk directly.
        with open(os.path.join(store_dir, SEGMENTS_DIR, f"seg-{bad:08d}.seg"), "wb") as handle:
            handle.write(make())
        cold = ProvenanceStore.open(store_dir)
        with pytest.raises(CorruptSegmentError, match=f"segment {bad} is corrupt") as caught:
            cold.segment(bad)
        assert f"unsupported segment frame byte {byte}" in str(caught.value)
        assert caught.value.segment_id == bad
