"""Property-based tests (hypothesis) for core data structures and invariants."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compression.lz import compress, decompress
from repro.core.algorithm import ProvenanceTracker
from repro.core.dependencies import derive_data_edges, epoch_happens_before
from repro.core.cpg import EdgeKind
from repro.core.vector_clock import VectorClock, merge_all
from repro.memory.address_space import SharedAddressSpace
from repro.memory.allocator import HeapAllocator
from repro.memory.diff import apply_diff, diff_page
from repro.memory.layout import HEAP_BASE
from repro.memory.mmu import MMU
from repro.memory.shared_commit import SharedMemoryCommitter
from repro.pt.aux_buffer import AuxRingBuffer
from repro.pt.decoder import PTDecoder
from repro.pt.encoder import PTEncoder

from helpers.oracles import derive_data_edges_reference, derived_edge_list, diff_page_reference

# ---------------------------------------------------------------------- #
# Strategies
# ---------------------------------------------------------------------- #

clock_entries = st.dictionaries(st.integers(0, 7), st.integers(0, 40), max_size=6)
clocks = clock_entries.map(VectorClock)


class TestVectorClockLaws:
    @given(clocks, clocks)
    def test_merge_is_commutative(self, a, b):
        assert a.merged(b) == b.merged(a)

    @given(clocks, clocks, clocks)
    def test_merge_is_associative(self, a, b, c):
        assert a.merged(b).merged(c) == a.merged(b.merged(c))

    @given(clocks)
    def test_merge_is_idempotent(self, a):
        assert a.merged(a) == a

    @given(clocks, clocks)
    def test_merge_dominates_both_operands(self, a, b):
        merged = a.merged(b)
        assert a.dominated_by(merged)
        assert b.dominated_by(merged)

    @given(clocks, clocks)
    def test_happens_before_is_antisymmetric(self, a, b):
        assert not (a.happens_before(b) and b.happens_before(a))

    @given(clocks, clocks, clocks)
    def test_happens_before_is_transitive(self, a, b, c):
        if a.happens_before(b) and b.happens_before(c):
            assert a.happens_before(c)

    @given(clocks, clocks)
    def test_trichotomy_of_ordering(self, a, b):
        relations = [a.happens_before(b), b.happens_before(a), a == b, a.concurrent_with(b)]
        assert sum(1 for relation in relations if relation) == 1

    @given(st.lists(clocks, max_size=5))
    def test_merge_all_dominates_every_clock(self, clock_list):
        merged = merge_all(clock_list)
        assert all(clock.dominated_by(merged) for clock in clock_list)


class TestDiffProperties:
    @given(st.binary(min_size=1, max_size=256), st.binary(min_size=1, max_size=256))
    def test_diff_then_apply_reproduces_current(self, twin, current):
        size = min(len(twin), len(current))
        twin, current = twin[:size], current[:size]
        diff = diff_page(0, twin, current)
        target = bytearray(twin)
        apply_diff(target, diff)
        assert bytes(target) == current

    @given(st.binary(min_size=1, max_size=256))
    def test_identical_buffers_have_empty_diff(self, data):
        assert diff_page(0, data, data).is_empty()

    @given(st.binary(min_size=1, max_size=256), st.binary(min_size=1, max_size=256))
    def test_modified_bytes_counts_exact_differences(self, twin, current):
        size = min(len(twin), len(current))
        twin, current = twin[:size], current[:size]
        diff = diff_page(0, twin, current)
        expected = sum(1 for a, b in zip(twin, current) if a != b)
        assert diff.modified_bytes == expected


def _mutated_pages(size: int):
    """``(twin, current)`` pairs of one size, ``current`` = ``twin`` + byte edits."""
    return st.binary(min_size=size, max_size=size).flatmap(
        lambda twin: st.lists(
            st.tuples(st.integers(0, max(size - 1, 0)), st.integers(0, 255)),
            max_size=24 if size else 0,
        ).map(lambda edits: (twin, _apply_edits(twin, edits)))
    )


def _apply_edits(twin: bytes, edits) -> bytes:
    current = bytearray(twin)
    for offset, value in edits:
        current[offset] = value
    return bytes(current)


class TestDiffMatchesByteLoopOracle:
    """The C-speed ``diff_page`` yields exactly the deltas of the byte loop."""

    @given(st.sampled_from([0, 1, 2, 3, 17, 256, 4096]).flatmap(_mutated_pages))
    def test_random_edits_match_oracle(self, pair):
        twin, current = pair
        diff = diff_page(9, twin, current)
        assert diff == diff_page_reference(9, twin, current)
        assert all(type(delta.data) is bytes for delta in diff.deltas)

    @given(st.binary(max_size=512), st.binary(max_size=512))
    def test_unrelated_buffers_match_oracle(self, twin, current):
        size = min(len(twin), len(current))
        twin, current = twin[:size], current[:size]
        assert diff_page(0, twin, current) == diff_page_reference(0, twin, current)

    @given(st.binary(max_size=4096))
    def test_equal_pages_give_no_deltas(self, data):
        assert diff_page(0, data, bytes(data)).deltas == []
        assert diff_page_reference(0, data, data).deltas == []

    def test_empty_buffers(self):
        assert diff_page(0, b"", b"") == diff_page_reference(0, b"", b"")
        assert diff_page(0, b"", b"").is_empty()

    def test_change_at_first_and_last_byte(self):
        twin = bytes(4096)
        current = b"\x01" + bytes(4094) + b"\x02"
        diff = diff_page(0, twin, current)
        assert diff == diff_page_reference(0, twin, current)
        assert [(delta.offset, delta.data) for delta in diff.deltas] == [(0, b"\x01"), (4095, b"\x02")]

    def test_whole_page_change(self):
        twin, current = bytes(4096), b"\xff" * 4096
        diff = diff_page(0, twin, current)
        assert diff == diff_page_reference(0, twin, current)
        assert [(delta.offset, delta.length) for delta in diff.deltas] == [(0, 4096)]

    def test_alternating_bytes(self):
        twin = bytes(4096)
        current = b"\x07\x00" * 2048
        diff = diff_page(0, twin, current)
        assert diff == diff_page_reference(0, twin, current)
        assert len(diff.deltas) == 2048
        assert {delta.length for delta in diff.deltas} == {1}

    def test_bytearray_current_gives_bytes_data(self):
        twin = bytes(64)
        current = bytearray(64)
        current[10:13] = b"abc"
        diff = diff_page(0, twin, current)
        assert diff == diff_page_reference(0, twin, bytes(current))
        assert type(diff.deltas[0].data) is bytes

    @given(st.integers(0, 64), st.integers(0, 64))
    def test_length_mismatch_raises(self, first, second):
        if first == second:
            second += 1
        with pytest.raises(ValueError):
            diff_page(0, bytes(first), bytes(second))
        with pytest.raises(ValueError):
            diff_page_reference(0, bytes(first), bytes(second))


class TestCompressionProperties:
    @given(st.binary(max_size=4096))
    def test_round_trip(self, data):
        assert decompress(compress(data)) == data

    @given(st.binary(min_size=64, max_size=2048), st.integers(2, 8))
    def test_repetition_round_trip(self, chunk, repeats):
        data = chunk * repeats
        assert decompress(compress(data)) == data


class TestPTEncodeDecodeProperties:
    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
    @given(st.lists(st.booleans(), max_size=400))
    def test_tnt_stream_round_trip(self, outcomes):
        aux = AuxRingBuffer(size=1 << 20)
        encoder = PTEncoder(pid=1, aux=aux, psb_period=1 << 20)
        for taken in outcomes:
            encoder.conditional_branch(taken)
        encoder.flush()
        trace = PTDecoder().decode(aux.drain())
        assert trace.tnt_bits == outcomes

    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
    @given(st.lists(st.integers(0, 2**47 - 1), max_size=60))
    def test_tip_stream_round_trip(self, targets):
        aux = AuxRingBuffer(size=1 << 20)
        encoder = PTEncoder(pid=1, aux=aux, psb_period=1 << 20)
        for target in targets:
            encoder.indirect_branch(target)
        encoder.flush()
        trace = PTDecoder().decode(aux.drain())
        assert trace.tip_targets == targets

    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 2**40)), max_size=120))
    def test_mixed_stream_preserves_order_per_kind(self, events):
        aux = AuxRingBuffer(size=1 << 20)
        encoder = PTEncoder(pid=1, aux=aux, psb_period=1 << 20)
        expected_bits, expected_tips = [], []
        for is_tip, value in events:
            if is_tip:
                encoder.indirect_branch(value)
                expected_tips.append(value)
            else:
                taken = bool(value & 1)
                encoder.conditional_branch(taken)
                expected_bits.append(taken)
        encoder.flush()
        trace = PTDecoder().decode(aux.drain())
        assert trace.tnt_bits == expected_bits
        assert trace.tip_targets == expected_tips


class TestAllocatorProperties:
    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
    @given(st.lists(st.integers(1, 512), min_size=1, max_size=40), st.randoms())
    def test_live_allocations_never_overlap(self, sizes, rng):
        space = SharedAddressSpace(page_size=256)
        allocator = HeapAllocator(space)
        live = {}
        for index, size in enumerate(sizes):
            address = allocator.malloc(size)
            for other_address, other_size in live.items():
                assert address + size <= other_address or other_address + other_size <= address
            live[address] = size
            if live and rng.random() < 0.3:
                victim = rng.choice(sorted(live))
                allocator.free(victim)
                del live[victim]
        assert allocator.stats.live_bytes >= sum(live.values())


class TestCommitConvergence:
    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(1, 3), st.integers(0, 40), st.binary(min_size=1, max_size=16)),
            min_size=1,
            max_size=30,
        )
    )
    def test_sequential_commits_equal_direct_writes(self, operations):
        """Committing after every write is equivalent to writing shared memory directly."""
        page_size = 256
        tracked = SharedAddressSpace(page_size=page_size)
        reference = SharedAddressSpace(page_size=page_size)
        mmu = MMU(tracked)
        committer = SharedMemoryCommitter(tracked)
        for pid, offset, payload in operations:
            address = HEAP_BASE + offset * 16
            mmu.write(pid, address, payload)
            committer.commit(mmu.view(pid))
            reference.write(address, payload)
        span = 48 * 16 + 32
        assert tracked.read(HEAP_BASE, span) == reference.read(HEAP_BASE, span)


class TestCPGInvariantsUnderRandomSchedules:
    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None, max_examples=25)
    @given(st.integers(0, 10_000))
    def test_random_lock_schedules_produce_acyclic_consistent_graphs(self, seed):
        rng = random.Random(seed)
        tracker = ProvenanceTracker()
        threads = [1, 2, 3]
        lock_object = 99
        holder = None
        for tid in threads:
            tracker.on_thread_start(tid)
        for _ in range(rng.randint(3, 25)):
            tid = rng.choice(threads)
            if holder is None:
                tracker.on_sync_boundary(tid, "mutex_lock")
                tracker.on_acquire(tid, lock_object)
                tracker.begin_next(tid)
                tracker.on_memory_access(tid, rng.randint(0, 5), is_write=bool(rng.getrandbits(1)))
                holder = tid
            elif holder == tid:
                tracker.on_sync_boundary(tid, "mutex_unlock")
                tracker.on_release(tid, lock_object)
                tracker.begin_next(tid)
                holder = None
        for tid in threads:
            tracker.on_thread_end(tid)
        cpg = tracker.finalize()
        derive_data_edges(cpg)
        assert cpg.is_acyclic()
        # Every sync edge must agree with the vector-clock order.
        for source, target, _ in cpg.edges(EdgeKind.SYNC):
            assert cpg.happens_before(source, target)
        # Every data edge must connect a writer to a reader of the same pages.
        for source, target, attrs in cpg.edges(EdgeKind.DATA):
            assert attrs["pages"] <= cpg.subcomputation(source).write_set
            assert attrs["pages"] <= cpg.subcomputation(target).read_set


def _random_program_cpg(seed: int):
    """Record a random multi-threaded program with the tracker and finalize it.

    Three to five threads take and drop two to four locks, spawn and join
    children (start/exit tokens, as the threading facade does), and read
    and write pages 0..7, of which 0 and 1 are program input.  Every step
    is legal for the tracker: a lock is only released by its holder, and a
    thread only exits holding nothing.
    """
    rng = random.Random(seed)
    tracker = ProvenanceTracker()
    tracker.register_input_pages({0, 1})
    live = list(range(1, rng.randint(3, 5) + 1))
    for tid in live:
        tracker.on_thread_start(tid)
    locks = [100 + k for k in range(rng.randint(2, 4))]
    holder = {}
    exited = {}
    next_tid = len(live) + 1

    def boundary(tid, operation, release=None, acquire=None):
        tracker.on_sync_boundary(tid, operation)
        if release is not None:
            tracker.on_release(tid, release)
        if acquire is not None:
            tracker.on_acquire(tid, acquire)
        tracker.begin_next(tid)

    for _ in range(rng.randint(20, 120)):
        tid = rng.choice(live)
        roll = rng.random()
        if roll < 0.5:
            for _ in range(rng.randint(1, 3)):
                tracker.on_memory_access(tid, rng.randint(0, 7), is_write=rng.random() < 0.5)
        elif roll < 0.85:
            lock = rng.choice(locks)
            if lock not in holder:
                boundary(tid, "mutex_lock", acquire=lock)
                holder[lock] = tid
            elif holder[lock] == tid:
                boundary(tid, "mutex_unlock", release=lock)
                del holder[lock]
        elif roll < 0.92 and next_tid < 12:
            child, token = next_tid, 1000 + next_tid
            next_tid += 1
            boundary(tid, "thread_create", release=token)
            tracker.on_thread_start(child, parent_tid=tid, start_object_id=token)
            live.append(child)
        elif roll < 0.96 and len(live) > 1 and tid not in holder.values():
            tracker.on_thread_end(tid)
            tracker.on_release(tid, 2000 + tid, operation="thread_exit")
            live.remove(tid)
            exited[tid] = 2000 + tid
        elif exited:
            joined = rng.choice(sorted(exited))
            boundary(tid, "thread_join", acquire=exited.pop(joined))
    for tid in live:
        tracker.on_thread_end(tid)
    return tracker.finalize()


class TestFastDeriveMatchesOracle:
    """The epoch/writer-index derive equals the full-clock shadowing scan."""

    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None, max_examples=60)
    @given(st.integers(0, 1_000_000))
    def test_data_edge_list_matches_oracle_in_order(self, seed):
        cpg = _random_program_cpg(seed)
        expected = derive_data_edges_reference(cpg)
        assert derived_edge_list(cpg) == expected

    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None, max_examples=60)
    @given(st.integers(0, 1_000_000))
    def test_epoch_test_agrees_with_full_clock_on_every_pair(self, seed):
        cpg = _random_program_cpg(seed)
        nodes = list(cpg.subcomputations())
        assert cpg.input_node is not None
        for first in nodes:
            for second in nodes:
                assert epoch_happens_before(first, second) == cpg.happens_before(
                    first.node_id, second.node_id
                ), (first.node_id, second.node_id)
