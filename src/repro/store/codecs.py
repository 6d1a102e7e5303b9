"""The segment codec: how a batch of nodes+edges becomes bytes.

The store has one payload encoding, ``binary-z`` (:class:`SegmentCodec`):
columnar struct-packed records whose plane block is zlib-compressed inside
the frame.  Every integer column (thread ids, clocks, page sets, branch
sites, edge endpoints) is one ``array('q')`` blob decoded with a single C
call, and the few strings (sync operation names, ``started_by`` /
``ended_by``) go through an interned string table.  Variable-length
columns (clock entries, page sets, thunks, data-edge page lists) are
length-prefixed per record.  The 8-byte columns are mostly small
magnitudes, so DEFLATE shrinks them well below an lz+JSON encoding of the
same graph, and ``zlib`` releases the GIL and decompresses in C, so
multi-segment sweeps can overlap decodes across threads.

The kernels pack and unpack whole columns instead of one integer at a
time:

* **Encode** sorts each node's clock keys, gathers every tid and every
  value into two flat lists, and interleaves them into one ``array('q')``
  with two slice assignments; the other columns are comprehensions handed
  to ``array`` in one call each.
* **Decode** unpacks each column with one ``frombytes`` and walks it with
  a single iterator: a node's clock is ``dict(islice(zip(it, it), size))``
  over the pair column (adopted as is when every value is positive, else
  checked by :class:`VectorClock`), and its page sets and thunks are
  ``islice`` runs over their columns.  Decoding is strict: bytes after the
  last column, negative lengths, string references outside the table and
  negative clock components all raise :class:`StoreError`.

The tests keep a per-integer reference codec; the bulk encoder must emit
its bytes exactly and the bulk decoder must rebuild the same graph.

The module also provides the little-endian varint helpers the index
delta/base files (:mod:`repro.store.indexes`) share; those files are tiny,
so compactness wins over bulk decode speed there.
"""

from __future__ import annotations

import struct
import sys
import zlib
from array import array
from itertools import islice
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.core.cpg import EdgeKind
from repro.core.thunk import BranchRecord, NodeId, SubComputation, Thunk
from repro.core.vector_clock import VectorClock
from repro.errors import StoreError
from repro.store.format import SEGMENT_CODEC

#: An edge as the store passes it around: ``(source, target, kind, attrs)``.
EdgeTuple = Tuple[NodeId, NodeId, EdgeKind, dict]

#: Stable one-byte encoding of :class:`EdgeKind` (order is part of the format).
KIND_TO_CODE = {EdgeKind.CONTROL: 0, EdgeKind.SYNC: 1, EdgeKind.DATA: 2}
CODE_TO_KIND = {code: kind for kind, code in KIND_TO_CODE.items()}
_SYNC_CODE = KIND_TO_CODE[EdgeKind.SYNC]
_DATA_CODE = KIND_TO_CODE[EdgeKind.DATA]
_KIND_CODE_BYTES = bytes(sorted(CODE_TO_KIND))


# ---------------------------------------------------------------------- #
# Varint helpers (shared with the index delta/base files)
# ---------------------------------------------------------------------- #


def zigzag(value: int) -> int:
    """Map a signed integer to an unsigned one (small magnitudes stay small)."""
    return value << 1 if value >= 0 else ((-value) << 1) - 1


def unzigzag(value: int) -> int:
    """Invert :func:`zigzag`."""
    return value >> 1 if value % 2 == 0 else -((value + 1) >> 1)


def write_uvarint(out: bytearray, value: int) -> None:
    """Append ``value`` (non-negative) as a LEB128 varint."""
    if value < 0:
        raise StoreError(f"cannot varint-encode negative value {value}")
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def read_uvarint(data, pos: int) -> Tuple[int, int]:
    """Read one LEB128 varint at ``pos``; returns ``(value, next_pos)``."""
    value = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise StoreError("truncated varint")
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if byte < 0x80:
            return value, pos
        shift += 7
        if shift > 70:
            raise StoreError("varint too long (corrupt stream)")


def write_svarint(out: bytearray, value: int) -> None:
    """Append a signed integer as a zigzag varint."""
    write_uvarint(out, zigzag(value))


def read_svarint(data, pos: int) -> Tuple[int, int]:
    """Read one zigzag varint; returns ``(value, next_pos)``."""
    raw, pos = read_uvarint(data, pos)
    return unzigzag(raw), pos


def write_string_table(out: bytearray, strings: Sequence[str]) -> None:
    """Append an interned string table (count, then len-prefixed UTF-8)."""
    write_uvarint(out, len(strings))
    for text in strings:
        raw = text.encode("utf-8")
        write_uvarint(out, len(raw))
        out.extend(raw)


def read_string_table(data, pos: int) -> Tuple[List[str], int]:
    """Invert :func:`write_string_table`."""
    count, pos = read_uvarint(data, pos)
    strings: List[str] = []
    for _ in range(count):
        length, pos = read_uvarint(data, pos)
        if pos + length > len(data):
            raise StoreError("truncated string table")
        strings.append(bytes(data[pos : pos + length]).decode("utf-8"))
        pos += length
    return strings, pos


class StringInterner:
    """Assigns dense ids to strings during encoding (0 is reserved for None)."""

    def __init__(self) -> None:
        self._ids: Dict[str, int] = {}
        self.strings: List[str] = []

    def ref(self, text) -> int:
        """Id of ``text`` + 1, or 0 for ``None``."""
        if text is None:
            return 0
        text = str(text)
        ident = self._ids.get(text)
        if ident is None:
            ident = len(self.strings)
            self._ids[text] = ident
            self.strings.append(text)
        return ident + 1


def deref(strings: Sequence[str], ref: int):
    """Invert :meth:`StringInterner.ref` (0 -> ``None``)."""
    if ref == 0:
        return None
    if not 0 < ref <= len(strings):
        raise StoreError(f"string reference {ref} outside table of {len(strings)}")
    return strings[ref - 1]


# ---------------------------------------------------------------------- #
# Bulk int columns (the binary codec's workhorse)
# ---------------------------------------------------------------------- #

_NEEDS_SWAP = sys.byteorder != "little"
_U32 = struct.Struct("<I")


def _pack_q(values: Iterable[int]) -> bytes:
    column = array("q", values)
    if _NEEDS_SWAP:
        column.byteswap()
    return column.tobytes()


def _unpack_q(data: memoryview, pos: int, count: int) -> Tuple[array, int]:
    end = pos + 8 * count
    if end > len(data):
        raise StoreError("truncated int column (corrupt binary segment)")
    column = array("q")
    column.frombytes(data[pos:end])
    if _NEEDS_SWAP:
        column.byteswap()
    return column, end


def _unpack_sizes(data: memoryview, pos: int, count: int) -> Tuple[array, int]:
    """An int column of per-record lengths (every entry must be >= 0)."""
    column, pos = _unpack_q(data, pos, count)
    if column and min(column) < 0:
        raise StoreError("negative length in a size column (corrupt binary segment)")
    return column, pos


def _unpack_bytes(data: memoryview, pos: int, count: int, what: str) -> Tuple[bytes, int]:
    end = pos + count
    if end > len(data):
        raise StoreError(f"truncated {what} (corrupt binary segment)")
    return bytes(data[pos:end]), end


def _pack_u32(value: int) -> bytes:
    return _U32.pack(value)


def _unpack_u32(data: memoryview, pos: int) -> Tuple[int, int]:
    if pos + 4 > len(data):
        raise StoreError("truncated count field (corrupt binary segment)")
    return _U32.unpack_from(data, pos)[0], pos + 4


#: One sync edge's record: has-object-id flag, object id, operation ref.
_SYNC_RECORD = struct.Struct("<Bqq")


# ---------------------------------------------------------------------- #
# The codec
# ---------------------------------------------------------------------- #


#: Version byte heading the columnar payload (bump on layout changes).
_BINARY_PAYLOAD_VERSION = 1

#: zlib level of every frame body (decoding is level-agnostic).
ZLIB_LEVEL = 6


class SegmentCodec:
    """Columnar struct-packed payload, zlib-compressed in the frame (``binary-z``).

    Payload layout (all integer columns are little-endian 8-byte signed
    arrays)::

        u8   payload version
        -- interned string table (operation names, started_by/ended_by) --
        varint count; per string: varint byte length + UTF-8 bytes
        -- nodes, columnar --
        u32  node count N
        q[N] tid | q[N] index | q[N] faults
        q[N] started_by ref | q[N] ended_by ref          (0 = None)
        q[N] clock sizes  | q[2*sum] clock (tid, value) pairs, sorted by tid
        q[N] read sizes   | q[sum]   read pages, sorted
        q[N] write sizes  | q[sum]   write pages, sorted
        q[N] thunk counts | q[M] thunk index | q[M] instructions
                          | u8[M] branch flags | q[M] branch sites
        -- edges, columnar --
        u32  edge count E
        q[2E] source (tid, index) pairs | q[2E] target pairs | u8[E] kinds
        per sync edge (in edge order):  u8 has-object-id | q object id | q op ref
        per data edge (in edge order):  q page count     | q[...] pages, sorted

    Branch flags: bit 0 = thunk has a start branch, bit 1 = taken,
    bit 2 = indirect.  Sync object ids must be integers (or None).  The
    frame stores the payload through one ``zlib.compress`` call at
    :data:`ZLIB_LEVEL` (:meth:`compress_frame` / :meth:`decompress_frame`).

    Attributes:
        name: Codec name recorded in the manifest's segment table.
        frame_byte: Byte following the ``ISEG`` magic in the segment file.
    """

    name = SEGMENT_CODEC
    frame_byte = 0x04

    def encode_payload(
        self, nodes: Sequence[SubComputation], edges: Sequence[EdgeTuple]
    ) -> bytes:
        interner = StringInterner()
        started = [interner.ref(node.started_by) for node in nodes]
        ended = [interner.ref(node.ended_by) for node in nodes]

        clock_sizes: List[int] = []
        clock_tids: List[int] = []
        clock_values: List[int] = []
        for node in nodes:
            entries = node.clock.as_dict()
            tids = sorted(entries)
            clock_sizes.append(len(tids))
            clock_tids += tids
            clock_values += map(entries.__getitem__, tids)
        clock_pairs = array("q", bytes(16 * len(clock_tids)))
        clock_pairs[0::2] = array("q", clock_tids)
        clock_pairs[1::2] = array("q", clock_values)

        reads = [sorted(node.read_set) for node in nodes]
        writes = [sorted(node.write_set) for node in nodes]
        thunk_counts = [len(node.thunks) for node in nodes]
        thunks = [thunk for node in nodes for thunk in node.thunks]
        branches = [thunk.start_branch for thunk in thunks]
        thunk_flags = bytes(
            [
                0
                if branch is None
                else 1 | (2 if branch.taken else 0) | (4 if branch.is_indirect else 0)
                for branch in branches
            ]
        )

        try:
            kind_codes = bytes([KIND_TO_CODE[edge[2]] for edge in edges])
        except KeyError as exc:
            raise StoreError(f"unknown edge kind {exc.args[0]!r}") from exc
        sync_block = bytearray()
        data_sizes: List[int] = []
        data_pages: List[int] = []
        for _, _, kind, attrs in edges:
            if kind is EdgeKind.SYNC:
                object_id = attrs.get("object_id")
                if object_id is None:
                    has_object, object_id = 0, 0
                elif isinstance(object_id, int) and not isinstance(object_id, bool):
                    has_object = 1
                else:
                    raise StoreError(
                        f"the segment codec requires integer sync object ids, "
                        f"got {object_id!r}"
                    )
                sync_block += _SYNC_RECORD.pack(
                    has_object, object_id, interner.ref(attrs.get("operation", ""))
                )
            elif kind is EdgeKind.DATA:
                pages = sorted(attrs.get("pages", ()))
                data_sizes.append(len(pages))
                data_pages += pages

        out = bytearray()
        out.append(_BINARY_PAYLOAD_VERSION)
        write_string_table(out, interner.strings)
        out += _pack_u32(len(nodes))
        out += _pack_q([node.tid for node in nodes])
        out += _pack_q([node.index for node in nodes])
        out += _pack_q([node.faults for node in nodes])
        out += _pack_q(started)
        out += _pack_q(ended)
        out += _pack_q(clock_sizes)
        out += _pack_q(clock_pairs)
        out += _pack_q([len(pages) for pages in reads])
        out += _pack_q([page for pages in reads for page in pages])
        out += _pack_q([len(pages) for pages in writes])
        out += _pack_q([page for pages in writes for page in pages])
        out += _pack_q(thunk_counts)
        out += _pack_q([thunk.index for thunk in thunks])
        out += _pack_q([thunk.instructions for thunk in thunks])
        out += thunk_flags
        out += _pack_q([0 if branch is None else branch.site for branch in branches])
        out += _pack_u32(len(edges))
        out += _pack_q([part for edge in edges for part in edge[0]])
        out += _pack_q([part for edge in edges for part in edge[1]])
        out += kind_codes
        out += sync_block
        out += _pack_q(data_sizes)
        out += _pack_q(data_pages)
        return bytes(out)

    def decode_payload(self, raw: bytes) -> Tuple[List[SubComputation], List[EdgeTuple]]:
        data = memoryview(raw)
        if len(data) < 1:
            raise StoreError("empty binary segment payload")
        if data[0] != _BINARY_PAYLOAD_VERSION:
            raise StoreError(f"unsupported binary segment payload version {data[0]}")
        strings, pos = read_string_table(data, 1)

        node_count, pos = _unpack_u32(data, pos)
        tids, pos = _unpack_q(data, pos, node_count)
        indexes, pos = _unpack_q(data, pos, node_count)
        faults, pos = _unpack_q(data, pos, node_count)
        started, pos = _unpack_q(data, pos, node_count)
        ended, pos = _unpack_q(data, pos, node_count)
        clock_sizes, pos = _unpack_sizes(data, pos, node_count)
        clock_pairs, pos = _unpack_q(data, pos, 2 * sum(clock_sizes))
        read_sizes, pos = _unpack_sizes(data, pos, node_count)
        read_pages, pos = _unpack_q(data, pos, sum(read_sizes))
        write_sizes, pos = _unpack_sizes(data, pos, node_count)
        write_pages, pos = _unpack_q(data, pos, sum(write_sizes))
        thunk_counts, pos = _unpack_sizes(data, pos, node_count)
        thunk_total = sum(thunk_counts)
        thunk_indexes, pos = _unpack_q(data, pos, thunk_total)
        thunk_instructions, pos = _unpack_q(data, pos, thunk_total)
        thunk_flags, pos = _unpack_bytes(data, pos, thunk_total, "branch flags")
        thunk_sites, pos = _unpack_q(data, pos, thunk_total)

        # Every per-node slice is an islice over one shared column
        # iterator, so each column is walked once, at C speed.
        pair_iter = iter(clock_pairs)
        pairs = zip(pair_iter, pair_iter)
        read_iter = iter(read_pages)
        write_iter = iter(write_pages)
        branches = [
            BranchRecord(site, bool(flags & 2), bool(flags & 4)) if flags & 1 else None
            for flags, site in zip(thunk_flags, thunk_sites)
        ]
        thunk_iter = map(Thunk, thunk_indexes, branches, thunk_instructions)
        nodes: List[SubComputation] = []
        append = nodes.append
        for position in range(node_count):
            entries = dict(islice(pairs, clock_sizes[position]))
            if min(entries.values(), default=1) > 0:
                clock = VectorClock.adopt(entries)
            else:
                try:
                    clock = VectorClock(entries)  # drops zeros, rejects negatives
                except ValueError as exc:
                    raise StoreError(f"invalid clock in binary segment: {exc}") from exc
            append(
                SubComputation(
                    tids[position],
                    indexes[position],
                    clock,
                    set(islice(read_iter, read_sizes[position])),
                    set(islice(write_iter, write_sizes[position])),
                    list(islice(thunk_iter, thunk_counts[position])),
                    deref(strings, started[position]),
                    deref(strings, ended[position]),
                    faults[position],
                )
            )

        edge_count, pos = _unpack_u32(data, pos)
        sources, pos = _unpack_q(data, pos, 2 * edge_count)
        targets, pos = _unpack_q(data, pos, 2 * edge_count)
        kind_codes, pos = _unpack_bytes(data, pos, edge_count, "edge kinds")
        unknown = kind_codes.translate(None, _KIND_CODE_BYTES)
        if unknown:
            raise StoreError(f"unknown edge kind code {unknown[0]}")
        sync_records, pos = _unpack_bytes(
            data, pos, _SYNC_RECORD.size * kind_codes.count(_SYNC_CODE), "sync edge block"
        )
        data_sizes, pos = _unpack_sizes(data, pos, kind_codes.count(_DATA_CODE))
        data_pages, pos = _unpack_q(data, pos, sum(data_sizes))
        if pos != len(data):
            raise StoreError(
                f"{len(data) - pos} bytes after the last column (corrupt binary segment)"
            )
        sync_attrs = iter(
            [
                {
                    "object_id": object_id if has_object else None,
                    "operation": deref(strings, ref) or "",
                }
                for has_object, object_id, ref in _SYNC_RECORD.iter_unpack(sync_records)
            ]
        )
        page_iter = iter(data_pages)
        data_attrs = (
            {"pages": frozenset(islice(page_iter, size))} for size in data_sizes
        )
        source_iter = iter(sources)
        target_iter = iter(targets)
        edges: List[EdgeTuple] = []
        for source, target, code in zip(
            zip(source_iter, source_iter), zip(target_iter, target_iter), kind_codes
        ):
            if code == _SYNC_CODE:
                attrs = next(sync_attrs)
            elif code == _DATA_CODE:
                attrs = next(data_attrs)
            else:
                attrs = {}
            edges.append((source, target, CODE_TO_KIND[code], attrs))
        return nodes, edges

    def compress_frame(self, raw: bytes) -> bytes:
        """Bytes stored inside the frame for the ``raw`` encoded payload."""
        return zlib.compress(raw, ZLIB_LEVEL)

    def decompress_frame(self, body: bytes) -> bytes:
        """Invert :meth:`compress_frame`.

        Raises:
            StoreError: If the stored body is corrupt.
        """
        try:
            return zlib.decompress(body)
        except zlib.error as exc:
            raise StoreError(f"corrupt compressed segment payload: {exc}") from exc


#: The store's codec.
CODEC = SegmentCodec()

#: The codecs this build reads and writes, by name (exactly one).
CODECS: Dict[str, SegmentCodec] = {CODEC.name: CODEC}

#: High bit of the frame byte: the frame carries a CRC32 of the codec body
#: between the raw-length field and the body (verified on decode).  Frames
#: without the flag -- everything written before the integrity layer --
#: stay readable and are reported as ``unverified`` by fsck/scrub.
CRC_FRAME_FLAG = 0x80


__all__ = [
    "CODEC",
    "CODECS",
    "CRC_FRAME_FLAG",
    "ZLIB_LEVEL",
    "EdgeTuple",
    "SegmentCodec",
    "StringInterner",
    "deref",
    "read_string_table",
    "read_svarint",
    "read_uvarint",
    "write_string_table",
    "write_svarint",
    "write_uvarint",
    "zigzag",
    "unzigzag",
]
