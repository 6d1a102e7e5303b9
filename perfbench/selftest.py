"""Self-test of the benchmark: counts repeat, checks pass, names match.

For every workload this

* runs ``--trace 1`` twice on one seed and requires every count-type
  per-layer metric (``layers.COUNTS``) to repeat exactly;
* runs ``--trace 0`` once on a held-out seed and requires every
  correctness check to pass;
* requires each result line to carry exactly the metrics that
  ``BENCHMARK.json`` names.

Run from the root of a checkout (takes a few minutes)::

    python3 perfbench/selftest.py [--seconds 5] [--seed 1] [--held-out-seed 9001]

Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    completed = subprocess.run(
        [
            sys.executable,
            os.path.join(HERE, "run.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited {completed.returncode}:\n{completed.stderr}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--held-out-seed", type=int, default=9001)
    args = parser.parse_args(argv)

    sys.path.insert(0, HERE)
    from layers import COUNTS

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    end_to_end = {entry["name"] for entry in benchmark["end_to_end"]}
    per_layer = {entry["name"] for entry in benchmark["per_layer"]}
    problems = []
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        first = run_once(workload, args.seed, args.seconds, trace=1)
        second = run_once(workload, args.seed, args.seconds, trace=1)
        held_out = run_once(workload, args.held_out_seed, args.seconds, trace=0)
        for label, result, names in (
            ("trace 1", first, per_layer),
            ("trace 1 (repeat)", second, per_layer),
            ("held-out trace 0", held_out, end_to_end),
        ):
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} {label}: {result['failed']} of {result['attempted']} ops failed")
            if set(result["metrics"]) != names:
                problems.append(
                    f"{workload} {label}: metrics differ from BENCHMARK.json: "
                    f"{sorted(set(result['metrics']) ^ names)}"
                )
        for name in COUNTS:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            if a != b:
                problems.append(f"{workload}: count {name} did not repeat ({a} vs {b})")
        print(f"{workload}: {len(COUNTS)} counts compared, held-out seed {args.held_out_seed} checked", flush=True)
    for problem in problems:
        print(f"PROBLEM {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
