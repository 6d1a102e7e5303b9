"""Random CPGs and the multi-run stores built from them.

:func:`random_cpg` records a random mostly-lock-ordered execution through
the real tracker, so every edge kind appears; :func:`build_multirun_store`
ingests one such run per seed into a store.  The store, lineage, gate and
integrity suites all draw their graphs from here.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

from repro.core.algorithm import ProvenanceTracker
from repro.core.dependencies import derive_data_edges
from repro.store import ProvenanceStore


def random_cpg(
    seed: int, threads: int = 3, pages: int = 8, max_steps: int = 40, accesses: int = 1
):
    """Record a random mostly-lock-ordered execution.

    Sync, control, and data edges all appear, pages are drawn from
    ``0..pages-1``, and pages 0 and 1 are registered inputs.  Each
    critical section makes ``accesses`` random accesses.  The defaults
    give the round-trip suite's 3-thread, 8-page, 5-40-step, one-access
    executions; more threads, steps and accesses give the deep, shared
    ancestries lineage queries walk.
    """
    rng = random.Random(seed)
    tracker = ProvenanceTracker()
    tracker.register_input_pages({0, 1})
    tids = list(range(1, threads + 1))
    lock = 99
    holder = None
    for tid in tids:
        tracker.on_thread_start(tid)
    for _ in range(rng.randint(5, max_steps)):
        tid = rng.choice(tids)
        if rng.random() < 0.2:
            page = rng.randint(0, pages - 1)
            tracker.on_memory_access(tid, page, is_write=bool(rng.getrandbits(1)))
            continue
        if holder is None:
            tracker.on_sync_boundary(tid, "mutex_lock")
            tracker.on_acquire(tid, lock)
            tracker.begin_next(tid)
            for _ in range(accesses):
                page = rng.randint(0, pages - 1)
                tracker.on_memory_access(tid, page, is_write=bool(rng.getrandbits(1)))
            holder = tid
        elif holder == tid:
            tracker.on_sync_boundary(tid, "mutex_unlock")
            tracker.on_release(tid, lock)
            tracker.begin_next(tid)
            holder = None
    for tid in tids:
        tracker.on_thread_end(tid)
    cpg = tracker.finalize()
    derive_data_edges(cpg)
    return cpg


def build_multirun_store(
    path: str, seeds: Sequence[int], segment_nodes: int = 4
) -> Tuple[ProvenanceStore, List[int]]:
    """Ingest one random run per seed; returns (store, run ids)."""
    store = ProvenanceStore.open_or_create(path)
    for seed in seeds:
        store.ingest(
            random_cpg(seed), workload=f"seed-{seed}", segment_nodes=segment_nodes
        )
    return store, store.run_ids()
