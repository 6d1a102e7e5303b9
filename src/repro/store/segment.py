"""Segment framing: how an encoded payload becomes a segment file.

A segment is the unit of disk I/O of the store: a batch of sub-computations
plus the edges co-located with them (an edge lives in the segment of its
*target* node whenever possible, so a backward expansion of a node finds
its incoming edges in the segment it just loaded).  The bytes inside the
frame are produced by the store's codec
(:class:`~repro.store.codecs.SegmentCodec`, ``binary-z``)::

    +--------+------------+----------------------+------------------+
    | "ISEG" | frame byte | raw length (8B LE)   | codec body       |
    +--------+------------+----------------------+------------------+

The frame byte identifies the codec: ``0x04``, zlib-compressed columnar
binary, is the only one this build reads.  Frames of the retired codecs
(``0x02`` lz-compressed JSON, ``0x03`` uncompressed columnar binary) are
refused with a typed :class:`~repro.errors.StoreError`.  ``raw length``
is the size of the *uncompressed* payload and feeds the manifest's
compression accounting.

Frames written since the integrity layer set the high bit of the frame
byte (:data:`~repro.store.codecs.CRC_FRAME_FLAG`) and insert a CRC32 of
the codec body between the raw-length field and the body::

    +--------+-----------------+--------------+-------------+-----------+
    | "ISEG" | frame byte|0x80 | raw len (8B) | CRC32 (4B)  | body      |
    +--------+-----------------+--------------+-------------+-----------+

:func:`decode_segment` verifies the checksum before touching the body, so
a bit flip anywhere in the payload surfaces as a typed error instead of a
garbled graph.  Frames written before the integrity layer (no flag) stay
readable and are reported as ``unverified`` by :func:`verify_frame` --
the fsck/scrub vocabulary.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.thunk import NodeId, SubComputation
from repro.errors import StoreError

from repro.store.codecs import CODEC, CRC_FRAME_FLAG, EdgeTuple
from repro.store.format import SEGMENT_MAGIC_PREFIX

_HEADER_SIZE = len(SEGMENT_MAGIC_PREFIX) + 1 + 8
_CRC_SIZE = 4

#: Checksum states :func:`verify_frame` can report.
FRAME_VERIFIED = "verified"
FRAME_UNVERIFIED = "unverified"


@dataclass
class SegmentPayload:
    """One decoded segment, indexed for adjacency scans.

    Attributes:
        nodes: Sub-computations stored in the segment, by node id.
        edges: Every edge stored in the segment.
        edges_by_target: Edges grouped by target node id.
        edges_by_source: Edges grouped by source node id.
    """

    nodes: Dict[NodeId, SubComputation] = field(default_factory=dict)
    edges: List[EdgeTuple] = field(default_factory=list)
    edges_by_target: Dict[NodeId, List[EdgeTuple]] = field(default_factory=dict)
    edges_by_source: Dict[NodeId, List[EdgeTuple]] = field(default_factory=dict)

    @classmethod
    def build(cls, nodes: Iterable[SubComputation], edges: Iterable[EdgeTuple]) -> "SegmentPayload":
        payload = cls(nodes={node.node_id: node for node in nodes}, edges=list(edges))
        for edge in payload.edges:
            payload.edges_by_source.setdefault(edge[0], []).append(edge)
            payload.edges_by_target.setdefault(edge[1], []).append(edge)
        return payload


def encode_segment(
    nodes: Iterable[SubComputation], edges: Iterable[EdgeTuple]
) -> Tuple[bytes, int]:
    """Serialize one segment with the store's codec.

    Returns:
        ``(framed bytes, raw payload size)`` -- the raw size feeds the
        manifest's compression accounting.
    """
    raw = CODEC.encode_payload(list(nodes), list(edges))
    body = CODEC.compress_frame(raw)
    framed = (
        SEGMENT_MAGIC_PREFIX
        + bytes((CODEC.frame_byte | CRC_FRAME_FLAG,))
        + len(raw).to_bytes(8, "little")
        + (zlib.crc32(body) & 0xFFFFFFFF).to_bytes(4, "little")
        + body
    )
    return framed, len(raw)


def frame_header(data: bytes) -> Tuple[str, int, bool]:
    """``(codec name, raw payload size, carries a CRC32)`` of the frame ``data``.

    Reads the header only (and so refuses a bad magic or another codec's
    frame byte); :func:`decode_segment` is what checks the checksum and
    the raw size against the body.
    """
    raw_length, stored_crc, _ = _split_frame(data)
    return CODEC.name, raw_length, stored_crc is not None


def _split_frame(data: bytes) -> Tuple[int, Optional[int], bytes]:
    """(raw length, stored crc or None, codec body) of a frame."""
    if len(data) < _HEADER_SIZE or not data.startswith(SEGMENT_MAGIC_PREFIX):
        raise StoreError("not a provenance-store segment (bad magic)")
    frame_byte = data[len(SEGMENT_MAGIC_PREFIX)]
    if frame_byte & ~CRC_FRAME_FLAG != CODEC.frame_byte:
        raise StoreError(
            f"unsupported segment frame byte 0x{frame_byte:02x}: this build reads "
            f"only {CODEC.name} frames (0x{CODEC.frame_byte:02x})"
        )
    raw_length = int.from_bytes(data[len(SEGMENT_MAGIC_PREFIX) + 1 : _HEADER_SIZE], "little")
    if not frame_byte & CRC_FRAME_FLAG:
        return raw_length, None, data[_HEADER_SIZE:]
    if len(data) < _HEADER_SIZE + _CRC_SIZE:
        raise StoreError("segment frame truncated inside its checksum field")
    stored_crc = int.from_bytes(data[_HEADER_SIZE : _HEADER_SIZE + _CRC_SIZE], "little")
    return raw_length, stored_crc, data[_HEADER_SIZE + _CRC_SIZE :]


def verify_frame(data: bytes) -> str:
    """Check the frame checksum of ``data`` without decoding the payload.

    Returns:
        :data:`FRAME_VERIFIED` when the frame carries a CRC32 and it
        matches, :data:`FRAME_UNVERIFIED` for a pre-integrity frame that
        carries none (still decodable, just unprotected).

    Raises:
        StoreError: Bad magic, unknown frame byte, or a checksum mismatch.
    """
    _, stored_crc, body = _split_frame(data)
    if stored_crc is None:
        return FRAME_UNVERIFIED
    actual = zlib.crc32(body) & 0xFFFFFFFF
    if actual != stored_crc:
        raise StoreError(
            f"segment frame checksum mismatch: stored 0x{stored_crc:08x}, "
            f"computed 0x{actual:08x}"
        )
    return FRAME_VERIFIED


def decode_segment(data: bytes) -> SegmentPayload:
    """Invert :func:`encode_segment`.

    Frames carrying a CRC32 (the :data:`~repro.store.codecs.CRC_FRAME_FLAG`
    bit) are verified before the body is decompressed; frames written
    before the integrity layer decode unverified.

    Raises:
        StoreError: If the framing, checksum, compression, or payload is
            corrupt, the frame byte names another codec, or the payload
            holds one node id twice.
    """
    raw_length, stored_crc, body = _split_frame(data)
    if stored_crc is not None:
        actual = zlib.crc32(body) & 0xFFFFFFFF
        if actual != stored_crc:
            raise StoreError(
                f"segment frame checksum mismatch: stored 0x{stored_crc:08x}, "
                f"computed 0x{actual:08x}"
            )
    raw = CODEC.decompress_frame(body)
    if len(raw) != raw_length:
        raise StoreError(
            f"segment length mismatch: header says {raw_length} bytes, got {len(raw)}"
        )
    nodes, edges = CODEC.decode_payload(raw)
    payload = SegmentPayload.build(nodes, edges)
    if len(payload.nodes) != len(nodes):
        raise StoreError("segment payload holds a node id more than once")
    return payload
