"""Store format 6: compressed columnar codec + parallel decode + single-flight.

Covers the v6 read path on top of the existing store suites: the
``binary-z`` codec compresses on disk, older manifest versions and
segment rows of retired codecs are refused with a typed error at open,
cold misses are single-flight (a stampede of readers decodes each
segment exactly once), the store's shared decode thread pool is created
lazily and shut down by ``close()`` (after which reads degrade to
sequential instead of failing), and parallel and sequential decodes
return identical payloads.
"""

import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.cpg import EdgeKind
from repro.core.thunk import SubComputation
from repro.core.vector_clock import VectorClock
from repro.errors import StoreError
from repro.store import (
    CODECS,
    SEGMENT_LOG_NAME,
    STORE_FORMAT_VERSION,
    ProvenanceStore,
    SegmentLog,
    SegmentCache,
    StoreSink,
)
from repro.store.format import MANIFEST_NAME, SUPPORTED_STORE_VERSIONS


def make_node(tid, index, reads=(), writes=()):
    node = SubComputation(tid=tid, index=index, clock=VectorClock({tid: index + 1}))
    node.read_set.update(reads)
    node.write_set.update(writes)
    return node


def build_store(store_dir, epochs=6, nodes_per_epoch=4, finish=True):
    """Stream a synthetic run, one flushed epoch at a time."""
    store = ProvenanceStore.open_or_create(store_dir)
    sink = StoreSink(
        store, segment_nodes=nodes_per_epoch, flush_every_epochs=1, workload="synthetic"
    )
    for position in range(epochs * nodes_per_epoch):
        node = make_node(1, position, reads={position % 7}, writes={100 + position})
        edges = []
        if position:
            edges.append(((1, position - 1), (1, position), EdgeKind.CONTROL, {}))
        sink.subcomputation_published(node, edges)
    if finish:
        sink.finish()
    return store, sink


# ---------------------------------------------------------------------- #
# The compressed codec
# ---------------------------------------------------------------------- #


class TestCompressedDefault:
    def test_new_stores_write_compressed_segments(self, tmp_path):
        store_dir = str(tmp_path / "store")
        store, _ = build_store(store_dir)
        summary = store.info()
        assert summary["format_version"] == STORE_FORMAT_VERSION
        assert set(summary["codecs"]) == {"binary-z"}
        per = summary["codec_bytes"]["binary-z"]
        assert per["segments"] == summary["segments"]
        # The whole point: compressed on disk, by a real margin.
        assert per["stored_bytes"] < per["raw_bytes"]


# ---------------------------------------------------------------------- #
# Retired formats are refused, never decoded wrongly
# ---------------------------------------------------------------------- #


def rewrite_manifest(store_dir, edit):
    manifest_path = os.path.join(store_dir, MANIFEST_NAME)
    with open(manifest_path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    edit(document)
    with open(manifest_path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, sort_keys=True)


class TestRetiredFormatsRefused:
    def test_store_reads_one_format_and_one_codec(self):
        assert SUPPORTED_STORE_VERSIONS == (STORE_FORMAT_VERSION,) == (6,)
        assert list(CODECS) == ["binary-z"]

    @pytest.mark.parametrize("version", [2, 3, 4, 5])
    def test_older_manifest_version_is_refused(self, tmp_path, version):
        store_dir = str(tmp_path / "store")
        build_store(store_dir, epochs=2)
        rewrite_manifest(store_dir, lambda document: document.update(version=version))
        with pytest.raises(StoreError, match=f"version {STORE_FORMAT_VERSION}") as caught:
            ProvenanceStore.open(store_dir)
        assert f"version {version}" in str(caught.value)

    @pytest.mark.parametrize("codec", [None, "json", "binary"])
    def test_segment_row_of_another_codec_is_refused(self, tmp_path, codec):
        store_dir = str(tmp_path / "store")
        build_store(store_dir, epochs=2)

        def edit(document):
            row = document["segments"][0]
            if codec is None:
                del row["codec"]
            else:
                row["codec"] = codec

        rewrite_manifest(store_dir, edit)
        with pytest.raises(StoreError, match="binary-z"):
            ProvenanceStore.open(store_dir)

    def test_log_record_of_another_codec_is_not_replayed(self, tmp_path):
        store_dir = str(tmp_path / "store")
        build_store(store_dir, epochs=4, finish=False)
        log = SegmentLog(os.path.join(store_dir, SEGMENT_LOG_NAME))
        records = log.scan()
        assert len(records) >= 2
        records[-1]["segments"][0]["codec"] = "binary"
        log.reset()
        for record in records:
            log.append(record)
        reopened = ProvenanceStore.open(store_dir)
        # Replay stops at the record naming a retired codec, so its
        # segment is never handed to a decoder.
        assert records[-1]["segments"][0]["id"] not in reopened.manifest.segment_ids()
        assert reopened.manifest.node_count == records[-2]["node_count"]


# ---------------------------------------------------------------------- #
# Single-flight cache fills
# ---------------------------------------------------------------------- #


class TestSingleFlight:
    def test_cold_miss_stampede_decodes_each_segment_once(self, tmp_path):
        store_dir = str(tmp_path / "store")
        build_store(store_dir, epochs=8)
        store = ProvenanceStore.open(store_dir)
        # Slow every (single-flight) file read a little: scheduling alone
        # cannot be trusted to overlap the threads' fills, and with no
        # overlap the coalescing assertion below is vacuous.
        real_read = store._read_segment_file

        def slow_read(segment_id):
            time.sleep(0.002)
            return real_read(segment_id)

        store._read_segment_file = slow_read
        segment_ids = [info.segment_id for info in store.manifest.segments]
        assert len(segment_ids) >= 8
        threads = 16
        barrier = threading.Barrier(threads)
        results = [None] * threads
        errors = []

        def hammer(slot):
            try:
                barrier.wait()
                loaded = {}
                for segment_id in segment_ids:
                    loaded[segment_id] = store.segment(segment_id)
                results[slot] = loaded
            except BaseException as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        workers = [
            threading.Thread(target=hammer, args=(slot,)) for slot in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert not errors
        # Exactly one read+decode per segment across all 16 threads.
        assert store.read_stats.segments_read == len(segment_ids)
        assert store.cache.stats.misses == len(segment_ids)
        assert store.cache.stats.coalesced > 0
        reference = results[0]
        for loaded in results[1:]:
            assert set(loaded) == set(reference)
            for segment_id in reference:
                assert loaded[segment_id] is reference[segment_id]
        store.close()

    def test_segment_many_stampede_decodes_each_segment_once(self, tmp_path):
        store_dir = str(tmp_path / "store")
        build_store(store_dir, epochs=8)
        store = ProvenanceStore.open(store_dir)
        segment_ids = [info.segment_id for info in store.manifest.segments]
        threads = 12
        barrier = threading.Barrier(threads)

        def sweep(_):
            barrier.wait()
            return store.segment_many(segment_ids, parallelism=4)

        with ThreadPoolExecutor(max_workers=threads) as pool:
            sweeps = list(pool.map(sweep, range(threads)))
        assert store.read_stats.segments_read == len(segment_ids)
        for swept in sweeps:
            assert set(swept) == set(segment_ids)
        store.close()

    def test_waiters_see_the_owners_error(self):
        cache = SegmentCache(max_bytes=1 << 20)
        owner = cache.begin_fill("ns", 1, 7)
        assert owner.status == "owner"
        waiter = cache.begin_fill("ns", 1, 7)
        assert waiter.status == "waiter"
        boom = StoreError("decode failed")
        owner.fail(boom)
        with pytest.raises(StoreError, match="decode failed"):
            waiter.wait()
        # The failed fill is gone: the next reader retries from scratch.
        assert cache.begin_fill("ns", 1, 7).status == "owner"

    def test_invalidation_racing_a_fill_skips_admission(self):
        cache = SegmentCache(max_bytes=1 << 20)
        owner = cache.begin_fill("ns", 1, 7)
        waiter = cache.begin_fill("ns", 1, 7)
        cache.invalidate("ns")  # compact/gc while the decode is in flight
        payload = object()
        owner.complete(payload)
        # The waiter still gets the bytes it asked for (segment ids are
        # never reused, so they are not stale) ...
        assert waiter.wait(timeout=5) is payload
        # ... but the dead generation was not admitted to the cache.
        assert cache.get("ns", 1, 7) is None

    def test_fill_wait_times_out_loudly(self):
        cache = SegmentCache(max_bytes=1 << 20)
        cache.begin_fill("ns", 1, 7)  # owner that never completes
        waiter = cache.begin_fill("ns", 1, 7)
        with pytest.raises(StoreError, match="timed out"):
            waiter.wait(timeout=0.05)


# ---------------------------------------------------------------------- #
# Shared decode pool and close()
# ---------------------------------------------------------------------- #


class TestDecodePools:
    def test_executor_is_lazy_and_shared(self, tmp_path):
        store_dir = str(tmp_path / "store")
        build_store(store_dir, epochs=4)
        store = ProvenanceStore.open(store_dir)
        segment_ids = [info.segment_id for info in store.manifest.segments]
        assert store._executor is None  # nothing parallel happened yet
        store.segment_many(segment_ids, parallelism=4)
        first = store._executor
        assert first is not None
        store.cache.invalidate(store.cache_namespace)
        store.segment_many(segment_ids, parallelism=4)
        assert store._executor is first  # reused, not a per-call pool
        store.close()

    def test_injected_executor_is_still_honored(self, tmp_path):
        store_dir = str(tmp_path / "store")
        build_store(store_dir, epochs=4)
        store = ProvenanceStore.open(store_dir)
        segment_ids = [info.segment_id for info in store.manifest.segments]
        with ThreadPoolExecutor(max_workers=2) as pool:
            payloads = store.segment_many(segment_ids, parallelism=4, executor=pool)
        assert set(payloads) == set(segment_ids)
        assert store._executor is None  # the store never built its own
        store.close()

    def test_close_shuts_pools_and_reads_degrade_to_sequential(self, tmp_path):
        store_dir = str(tmp_path / "store")
        build_store(store_dir, epochs=4)
        store = ProvenanceStore.open(store_dir)
        segment_ids = [info.segment_id for info in store.manifest.segments]
        store.segment_many(segment_ids, parallelism=4)
        store.close()
        assert store._executor is None
        store.cache.invalidate(store.cache_namespace)
        payloads = store.segment_many(segment_ids, parallelism=4)
        assert set(payloads) == set(segment_ids)
        assert store._executor is None  # closed stores never resurrect pools
        store.close()  # idempotent

    def test_context_manager_closes(self, tmp_path):
        store_dir = str(tmp_path / "store")
        build_store(store_dir, epochs=4)
        with ProvenanceStore.open(store_dir) as store:
            segment_ids = [info.segment_id for info in store.manifest.segments]
            store.segment_many(segment_ids, parallelism=4)
            assert store._executor is not None
        assert store._executor is None

    def test_parallel_and_sequential_decode_agree(self, tmp_path):
        store_dir = str(tmp_path / "store")
        build_store(store_dir, epochs=8)
        segment_ids = [
            info.segment_id
            for info in ProvenanceStore.open(store_dir).manifest.segments
        ]

        def canonical(payloads):
            return {
                segment_id: (
                    sorted(payload.nodes),
                    sorted(payload.edges, key=repr),
                )
                for segment_id, payload in payloads.items()
            }

        by_width = {}
        for parallelism in (1, 4):
            store = ProvenanceStore.open(store_dir)
            by_width[parallelism] = canonical(
                store.segment_many(segment_ids, parallelism=parallelism)
            )
            assert store.read_stats.segments_read == len(segment_ids)
            store.close()
        assert by_width[4] == by_width[1]

    def test_missing_segment_file_is_a_store_error_in_every_mode(self, tmp_path):
        store_dir = str(tmp_path / "store")
        build_store(store_dir, epochs=4)
        for parallelism in (1, 4):
            store = ProvenanceStore.open(store_dir)
            segment_ids = [info.segment_id for info in store.manifest.segments]
            victim = store.manifest.segment_info(segment_ids[0]).file_name
            victim_path = os.path.join(store_dir, "segments", victim)
            blob = open(victim_path, "rb").read()
            os.remove(victim_path)
            try:
                with pytest.raises(StoreError, match="missing"):
                    store.segment_many(segment_ids, parallelism=parallelism)
            finally:
                with open(victim_path, "wb") as handle:
                    handle.write(blob)
                store.close()
