"""The benchmark's workloads.

Every workload runs the same three-stage pipeline -- record a traced run
into a fresh store, query it cold, serve a warm read/ingest mix -- and
differs in the program it records and in how its time is split between
recording and serving.  Only generated inputs reach the program: the
seed picks the datasets and the serve op sequence.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

#: Worker threads of every traced program.
THREADS = 8

#: Programs of the served store, one run each (``medium``).  reverse_index
#: is left out on purpose: its broad lineages would turn the mix into a
#: closure benchmark; record_lock_heavy's first_query_ms measures that cost.
SERVE_PROGRAMS = ("kmeans", "canneal", "streamcluster", "histogram", "word_count")

#: Size of the served store's datasets.
SERVE_SIZE = "medium"

#: Serve mix: op kind -> tenths of the sequence.
SERVE_MIX = (
    ("lineage", 3),
    ("slice", 3),
    ("taint", 1),
    ("lineage_across_runs", 1),
    ("compare_lineage", 1),
    ("write", 1),
)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: Workload name (``--workload``).
        program: The program the record stage traces.
        size: Its dataset size.
        datasets: Datasets of it per run; record ops cycle through them.
        record_ops_per_s: Record ops (trace + cold queries) per measured
            second; fixes how many ops a run makes.
        serve_ops_per_s: Serve ops per measured second; fixes the length
            of the serve op sequence.
        dataset_meta: ``(key, value)`` pairs of dataset meta every record
            dataset must have: the seed then picks a dataset's content,
            not its size.
    """

    name: str
    program: str
    size: str
    datasets: int
    record_ops_per_s: float
    serve_ops_per_s: float
    dataset_meta: Tuple[Tuple[str, int], ...] = ()

    def record_ops(self, seconds: float) -> int:
        """Record ops in a run of ``seconds`` measured seconds: whole cycles of the datasets."""
        cycles = max(1, round(seconds * self.record_ops_per_s / self.datasets))
        return max(3, cycles * self.datasets)

    def serve_ops(self, seconds: float) -> int:
        """Length of the serve op sequence for ``seconds`` measured seconds."""
        return max(100, round(seconds * self.serve_ops_per_s))

    def served_seeds(self, seed: int) -> Tuple[int, ...]:
        """Dataset seeds of the served programs, one each."""
        rng = random.Random(f"{self.name}:{seed}")
        return tuple(rng.randrange(1, 2**31) for _ in SERVE_PROGRAMS)

    def record_datasets(self, program, seed: int) -> List[object]:
        """The record program's datasets: generated from seeds drawn until each has :attr:`dataset_meta`."""
        rng = random.Random(f"{self.name}:datasets:{seed}")
        datasets: List[object] = []
        while len(datasets) < self.datasets:
            dataset = program.generate_dataset(size=self.size, seed=rng.randrange(1, 2**31))
            if all(dataset.meta.get(key) == value for key, value in self.dataset_meta):
                datasets.append(dataset)
        return datasets


WORKLOADS = {
    workload.name: workload
    for workload in (
        # reverse_index takes a lock per insert: runtime handoffs, vector
        # clocks, derive_data_edges, the sink and the lineage closure do
        # the work, per-access interposition little.  Its cost grows much
        # faster than its number of links (a record node each), which the
        # generator draws binomially (384 +- 17 at small); every dataset
        # has the mean, 384, so the seed varies the content, not the size.
        Workload(
            name="record_lock_heavy",
            program="reverse_index",
            size="small",
            datasets=3,
            record_ops_per_s=0.4,
            serve_ops_per_s=40.0,
            dataset_meta=(("links", 384),),
        ),
        # canneal: many loads/stores, faults and twin-diffed pages, few
        # nodes -- interposition, faults, commit and PT encoding dominate,
        # derive and closures are the bypassed side.
        Workload(
            name="record_page_heavy",
            program="canneal",
            size="medium",
            datasets=2,
            record_ops_per_s=0.4,
            serve_ops_per_s=40.0,
        ),
        # The serve stage's workload: the wire, the query engine and the
        # ingest path dominate; kmeans gives it a light record stage.
        Workload(
            name="serve_mixed",
            program="kmeans",
            size="medium",
            datasets=1,
            record_ops_per_s=0.3,
            serve_ops_per_s=70.0,
        ),
    )
}
