"""One cold pass over a workload, in a fresh process.

    python3 perfbench/one_pass.py --workload fig8-sweep --seed 3 --mode timed

``--mode timed`` drives the workload through ``run_scenarios`` exactly as a
user's first sweep would (persistent pool and frozen-medium cache start
cold, no result cache) with only the per-cell probe installed, and reports
host wall/CPU time, set-up time and peak RSS.  ``--mode traced`` runs every
cell serially in this process with spans around the layer boundaries.  The
last line of standard output is a JSON object with the pass's measurements,
per-cell result digests, sanity checks and work counters.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.experiments import parallel  # noqa: E402

from probes import CellProbe, Tracer, metrics_digest  # noqa: E402
from workloads import WORKLOADS, cell_key  # noqa: E402

#: Process CPU seconds between host-speed samples inside a timed cell.
SPEED_PERIOD_S = 0.1
#: Spans and worker records are written here (inside the checkout; ignored by git).
OUT_DIR = os.path.join(ROOT, ".perfbench")


def _cpu(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _sanity(metrics, record: dict) -> list[str]:
    """Checks every cell must pass whether or not a digest is recorded."""
    problems = []
    if record["counters"]["asn"] != record["window_slots"]:
        problems.append(
            f"ran {record['counters']['asn']} slots, window is {record['window_slots']}"
        )
    if not 0 <= metrics.delivered <= metrics.generated:
        problems.append(f"delivered {metrics.delivered} of {metrics.generated} generated")
    if not 0.0 <= metrics.pdr_percent <= 100.0:
        problems.append(f"PDR {metrics.pdr_percent}% outside [0, 100]")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("timed", "traced"), default="timed")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    scenarios = workload.build(args.seed)
    tracer = Tracer() if args.mode == "traced" else None
    if tracer is not None:
        tracer.install()
    # Timed passes sample host speed during cells too; in a traced pass the
    # samples would land inside spans, so it samples around cells only.
    probe = CellProbe(
        os.path.join(OUT_DIR, f"cells-{os.getpid()}"),
        speed_period_s=0.0 if tracer else SPEED_PERIOD_S,
    )
    probe.install(cell_key)
    jobs = workload.jobs if tracer is None else 1

    children_cpu0 = _cpu(resource.RUSAGE_CHILDREN)
    cpu0 = _cpu(resource.RUSAGE_SELF) + children_cpu0
    wall0 = time.perf_counter()
    pool_start_s = 0.0
    if jobs > 1:
        parallel.get_pool(jobs)
        pool_start_s = time.perf_counter() - wall0
    results = parallel.run_scenarios(scenarios, jobs=jobs, cache=None)
    wall_s = time.perf_counter() - wall0
    parallel.shutdown_pool()
    # The pool is shut down (its workers reaped) before children are read.
    children_cpu = _cpu(resource.RUSAGE_CHILDREN) - children_cpu0
    cpu_s = _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN) - cpu0
    peak_rss_mb = (
        max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        / 1024.0
    )

    by_cell = {record["cell"]: record for record in probe.collect()}
    cells = []
    for scenario, metrics in zip(scenarios, results):
        key = cell_key(scenario)
        record = by_cell[key]
        cells.append(
            {
                "cell": key,
                "digest": metrics_digest(metrics),
                "problems": _sanity(metrics, record),
                "setup_s": record["setup_s"],
                "cpu_s": record["cpu_s"],
                "wall_s": record["wall_s"],
                "probe_s": record["probe_s"],
                "speed_factor": record["speed_factor"],
                "speed_cpu_s": record["speed_cpu_s"],
                "speed_wall_s": record["speed_wall_s"],
                "counters": record["counters"],
            }
        )
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "mode": args.mode,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "children_cpu_s": children_cpu,
        "workers": jobs,
        "pool_start_s": pool_start_s,
        "setup_s": pool_start_s + sum(cell["setup_s"] for cell in cells),
        "peak_rss_mb": peak_rss_mb,
        "cells": cells,
    }
    if tracer is not None:
        pickle_bytes = 0
        started = time.perf_counter()
        for index, (scenario, metrics) in enumerate(zip(scenarios, results)):
            pickle_bytes += len(pickle.dumps((index, scenario)))
            pickle_bytes += len(pickle.dumps((index, metrics)))
        out["pickle_s"] = time.perf_counter() - started
        out["pickle_bytes"] = pickle_bytes
        out["spans"] = tracer.summary()
        out["span_count"] = len(tracer.starts)
        out["bookkeeping_s"] = tracer.bookkeeping_ns / 1e9
        out["resolve_counts"] = tracer.counts
        out["freeze_rss_mb"] = tracer.freeze_rss_mb
        tracer.write(os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}"))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
