"""Builders for sharded-store tests: multi-run stores, splits, clusters.

The cluster tests all need the same scaffolding -- a multi-run store, the
same store split onto shard directories with run ids preserved, and a
:class:`~repro.store.cluster.StoreCluster` wired to in-process or TCP
shard servers.  Building it once here keeps the unit, property, fault,
and hammer suites testing the router, not re-deriving the plumbing.

Splitting works by copy + ``gc``: each shard starts as a copy of the
whole store and drops every run it does not own.  ``gc`` never reuses
run ids, so the shard keeps the surviving runs under their original
(cluster) ids -- exactly the identity mapping the ``run-hash`` policy
requires, and a valid ``manual`` table too.
"""

from __future__ import annotations

import os
import random
import shutil
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.algorithm import ProvenanceTracker
from repro.core.dependencies import derive_data_edges
from repro.store import (
    ClusterManifest,
    Endpoint,
    InProcessShardClient,
    ProvenanceStore,
    ShardInfo,
    StoreCluster,
    StoreServer,
)


def random_cpg(
    seed: int, threads: int = 3, pages: int = 8, max_steps: int = 40, accesses: int = 1
):
    """Record a random mostly-lock-ordered execution.

    Same generator as the store round-trip property suite: sync, control,
    and data edges all appear, pages are drawn from ``0..pages-1``, and
    pages 0 and 1 are registered inputs.  Each critical section makes
    ``accesses`` random accesses.  The defaults give the suite's 3-thread,
    8-page, 5-40-step, one-access executions; more threads, steps and
    accesses give the deep, shared ancestries lineage queries walk.
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


def split_store(
    whole_path: str, shards_dir: str, owned_runs: Sequence[Iterable[int]]
) -> List[str]:
    """Split one store into len(owned_runs) shard stores, ids preserved.

    ``owned_runs[i]`` is the run set shard i keeps; every run of the
    whole store must be owned by exactly one shard.  Returns the shard
    store paths.
    """
    all_runs = set(ProvenanceStore.open(whole_path).run_ids())
    claimed = [run for runs in owned_runs for run in runs]
    if sorted(claimed) != sorted(all_runs):
        raise ValueError(
            f"owned_runs {owned_runs!r} must partition the store's runs {sorted(all_runs)}"
        )
    paths = []
    for index, keep in enumerate(owned_runs):
        shard_path = os.path.join(shards_dir, f"shard-{index}")
        shutil.copytree(whole_path, shard_path)
        drop = sorted(all_runs - set(keep))
        if drop:
            ProvenanceStore.open(shard_path).gc(runs=drop)
        paths.append(shard_path)
    return paths


def manual_manifest(
    addresses: Sequence[str],
    owned_runs: Sequence[Iterable[int]],
    replicas: Optional[Dict[int, Sequence[str]]] = None,
) -> ClusterManifest:
    """A manual-policy manifest: shard i at addresses[i] owning its runs."""
    shards = [
        ShardInfo(
            f"shard-{index}",
            Endpoint(address=address),
            replicas=[Endpoint(address=r) for r in (replicas or {}).get(index, [])],
        )
        for index, address in enumerate(addresses)
    ]
    manifest = ClusterManifest(shards=shards, policy="manual")
    for index, runs in enumerate(owned_runs):
        for run in runs:
            manifest.assign(run, f"shard-{index}")
    return manifest


class InProcessCluster:
    """A cluster whose shards are in-process servers (no sockets).

    Cheap enough for property tests: queries go through the full wire
    dispatch (``handle_request``) but skip TCP.  ``clients[address]``
    exposes each :class:`InProcessShardClient` so a test can mark a
    shard ``down``.
    """

    def __init__(
        self,
        whole_path: str,
        shards_dir: str,
        owned_runs: Sequence[Iterable[int]],
        policy: str = "manual",
        **cluster_kwargs,
    ) -> None:
        paths = split_store(whole_path, shards_dir, owned_runs)
        self.servers = [StoreServer(path) for path in paths]
        addresses = [f"mem://{index}" for index in range(len(paths))]
        self.clients = {
            address: InProcessShardClient(server, address)
            for address, server in zip(addresses, self.servers)
        }
        if policy == "manual":
            self.manifest = manual_manifest(addresses, owned_runs)
        else:
            self.manifest = ClusterManifest(
                shards=[
                    ShardInfo(f"shard-{i}", Endpoint(address=a))
                    for i, a in enumerate(addresses)
                ],
                policy=policy,
            )
        self.cluster = StoreCluster(
            self.manifest,
            client_factory=lambda address: self.clients[address],
            **cluster_kwargs,
        )

    def close(self) -> None:
        for server in self.servers:
            server.close()

    def __enter__(self) -> "InProcessCluster":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def hash_partition(runs: Sequence[int], n_shards: int) -> List[List[int]]:
    """The run sets the ``run-hash`` policy expects shard i to hold."""
    owned: List[List[int]] = [[] for _ in range(n_shards)]
    for run in runs:
        owned[run % n_shards].append(run)
    return owned
