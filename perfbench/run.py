"""The repository benchmark: record a traced run, query it cold, serve a warm mix.

Run from the root of a checkout::

    python3 perfbench/run.py --workload record_lock_heavy --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: set-up
(three times, median), then one pass that alternates the record stage
(trace the workload's program into a fresh store, then cold lineage
queries on it) with slices of the serve stage (a closed loop of reads and
remote-ingest writes against a warm in-process store server on
loopback).  ``NOTES.md`` describes the workloads and metrics.

``--trace 1`` sets up once and runs the same pass with every other step
traced -- every layer's public functions wrapped (see ``tracing.py``) --
and reports per-layer self times and counts of the traced steps, the
unattributed time and the tracing overhead (traced against untraced
steps).  The spans of the latest traced run of each workload are written
to ``perfbench/_work/traces/<workload>.jsonl.gz``, one JSON object a line.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it name every metric with its unit for a human reader.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")

#: Set-ups per ``--trace 0`` run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Percentiles tried for ``read_tail_ms``, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(values):
    """The highest ladder percentile with at least ten samples above it.

    Returns ``(percentile, value)``, by nearest rank.
    """
    ordered = sorted(values)
    for percentile in TAIL_LADDER:
        rank = max(1, math.ceil(percentile / 100 * len(ordered)))
        if len(ordered) - rank >= 10:
            return percentile, ordered[rank - 1]
    return 50.0, statistics.median(ordered)


def per_dataset(samples, values) -> float:
    """Mean over the record program's datasets of the median of ``values(sample)``.

    Each dataset weighs the same, whatever its size: reverse_index's cost
    grows faster than its seed-dependent dataset, and a median across
    datasets would follow whichever one lands in the middle.
    """
    by_dataset = {}
    for sample in samples:
        by_dataset.setdefault(sample.dataset, []).extend(values(sample))
    return statistics.fmean(statistics.median(group) for group in by_dataset.values())


def mix_rate(by_op) -> float:
    """Serve ops per second of the mix, each kind of op at its median round trip.

    ``by_op`` maps each kind of request to its round trips in ms.  The
    mix's mean round trip is the share-weighted sum of the kinds' medians,
    so one kind's slow outliers (an ``append_epoch`` waiting on a slow
    fsync) do not swing the rate, while a faster kind still raises it.
    """
    total = sum(len(times) for times in by_op.values())
    mean_ms = sum(len(times) / total * statistics.median(times) for times in by_op.values())
    return 1e3 / mean_ms


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure(workload, seed: int, seconds: int, work_dir: str):
    """The ``--trace 0`` run: end-to-end metrics, scaled to the reference speed."""
    from speed import SpeedMonitor

    monitor = SpeedMonitor()
    try:
        return _measure(workload, seed, seconds, work_dir, monitor)
    finally:
        monitor.close()


def _measure(workload, seed: int, seconds: int, work_dir: str, monitor):
    from pipeline import build_setup, note_failure, run_pass
    from speed import REFERENCE_PROBE_S, REFERENCE_WIRE_S

    setup_windows = []
    setup = None
    failed = 0
    for repeat in range(SETUP_REPEATS):
        if setup is not None:
            setup.close()
            digests = [reference.digest for reference in setup.references]
        directory = os.path.join(work_dir, f"setup-{repeat}")
        with monitor.background():
            start = time.perf_counter()
            setup = build_setup(workload, seed, directory, workload.serve_ops(seconds))
            end = time.perf_counter()
        setup_windows.append((start, end))
        # Each set-up is an op: its own checks, and the round-robin
        # scheduler must give every set-up's reference run the same CPG.
        if setup.failed or (repeat and [r.digest for r in setup.references] != digests):
            failed += 1
            note_failure("setup", f"set-up {repeat} failed a check or recorded another CPG")
    try:
        setup.compute_answers()
        # The set-up's objects stay alive all run; keep them out of the
        # collector's way so the measured ops do not pay to rescan them.
        gc.freeze()
        samples, _, served = run_pass(setup, workload.record_ops(seconds), monitor=monitor)
        cache_budget = setup.server.cache.max_bytes
    finally:
        setup.close()

    compute_s = monitor.compute_s
    setup_times = [compute_s(start, end) for start, end in setup_windows]
    timed = [sample for sample in samples if sample.record_s > 0]
    record_s = per_dataset(timed, lambda s: [compute_s(*s.record_at)])
    query_ms = per_dataset(timed, lambda s: [compute_s(*at) * 1e3 for at in s.query_at])
    read_ms = served.times_ms(("read",), monitor.request_s)
    append_ms = served.times_ms(("append",), monitor.request_s)
    by_op = served.times_by_op(monitor.request_s)
    percentile, tail = tail_percentile(read_ms)
    attempted = sum(sample.attempted for sample in samples) + served.attempted + SETUP_REPEATS
    failed += sum(sample.failed for sample in samples) + served.failed
    metrics = {
        "record_s": metric(record_s, "s"),
        "first_query_ms": metric(query_ms, "ms"),
        "store_bytes_per_node": metric(statistics.median(s.store_bytes / s.nodes for s in timed), "B"),
        "read_p50_ms": metric(statistics.median(read_ms), "ms"),
        "read_tail_ms": metric(tail, "ms"),
        "write_p50_ms": metric(statistics.median(append_ms), "ms"),
        "ops_per_s": metric(mix_rate(by_op), "1/s"),
        "setup_s": metric(statistics.median(setup_times), "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }
    probes = [seconds for _, seconds in monitor.samples]
    wire_probes = [seconds for _, seconds in monitor.wire_samples]
    unscaled_reads = served.times_ms(("read",))
    details = {
        "input_properties": setup.properties,
        "record_ops": len(samples),
        "sink_epochs": timed[0].epochs,
        "serve_ops": served.attempted,
        "read_samples": len(read_ms),
        "append_samples": len(append_ms),
        "read_tail_percentile": percentile,
        "serve_p50_ms_by_op": {kind: statistics.median(times) for kind, times in sorted(by_op.items())},
        "setup_s": setup_times,
        "speed_probe_ms": {
            "median": statistics.median(probes) * 1e3,
            "reference": REFERENCE_PROBE_S * 1e3,
            "samples": len(probes),
        },
        "wire_probe_ms": {
            "median": statistics.median(wire_probes) * 1e3,
            "reference": REFERENCE_WIRE_S * 1e3,
            "samples": len(wire_probes),
        },
        "unscaled": {
            "record_s": statistics.median(s.record_s for s in timed),
            "first_query_ms": statistics.median(ms for s in timed for ms in s.query_ms),
            "read_p50_ms": statistics.median(unscaled_reads),
            "read_tail_ms": tail_percentile(unscaled_reads)[1],
            "write_p50_ms": statistics.median(served.times_ms(("append",))),
            "ops_per_s": mix_rate(served.times_by_op()),
            "setup_s": [end - start for start, end in setup_windows],
        },
        "decoded_working_set_bytes": served.cache_peak_bytes,
        "cache_budget_bytes": cache_budget,
        "cache_evictions": served.cache["evictions"],
        "failed_ratio": failed / attempted,
    }
    return attempted, failed, metrics, details


def measure_traced(workload, seed: int, seconds: int, work_dir: str):
    """The ``--trace 1`` run: per-layer metrics from the traced half of a pass."""
    from pipeline import build_setup, run_pass
    from tracing import Tracer
    import layers

    setup = build_setup(workload, seed, os.path.join(work_dir, "setup"), workload.serve_ops(seconds))
    tracer = Tracer()
    try:
        setup.compute_answers()
        gc.freeze()
        samples, traced, plain = run_pass(setup, workload.record_ops(seconds), tracer)
    finally:
        setup.close()
    # One file per workload, the latest traced run: a run writes megabytes.
    tracer.write(os.path.join(WORK, "traces", f"{workload.name}.jsonl.gz"))

    attempted = sum(s.attempted for s in samples) + traced.attempted + plain.attempted + 1
    failed = sum(s.failed for s in samples) + traced.failed + plain.failed + bool(setup.failed)
    values = layers.layer_metrics(tracer, samples, traced, plain)
    metrics = {name: metric(value, unit) for name, (value, unit) in values.items()}
    details = {"input_properties": setup.properties, "failed_ratio": failed / attempted}
    return attempted, failed, metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program source at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from spec import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r} (known: {', '.join(WORKLOADS)})")

    # One CPU: the pipeline is bound by the interpreter lock either way,
    # and unpinned, the simulated processes' thread handoffs land on
    # either core at the scheduler's whim, which made SimRuntime.run
    # bimodal (the same run took 0.5 s or 1.0 s).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # A stop request unwinds through the clean-up below.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work_dir = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        run = measure_traced if args.trace else measure
        attempted, failed, metrics, details = run(workload, args.seed, args.seconds, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}")
    for key, value in details.items():
        print(f"  {key}: {json.dumps(value)}")
    for name, entry in metrics.items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
