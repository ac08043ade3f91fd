"""Record the reference result digests that the benchmark checks against.

    python3 perfbench/record.py --workload fig8-sweep --seeds 0-11 --jobs 2

For ``fig8-sweep`` and ``churn-join`` every cell is simulated with the naive
reference slot loop (``Network.fast = False``), so the benchmark's fast-kernel
results are checked against the oracle.  ``scale-1000`` is recorded from the
fast kernel, which is proven equal to the reference loop up to N = 500; the
reference loop is too slow at N = 1000.  Digests are merged into
``perfbench/digests.json``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from probes import metrics_digest  # noqa: E402
from workloads import WORKLOADS, cell_key  # noqa: E402

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")
#: Workloads recorded from the fast kernel instead of the reference loop.
FAST_RECORDED = ("scale-1000",)


def _run_cell(item):
    # Cells are rebuilt in the worker: a link-drift policy does not survive
    # unpickling (DynamicMediumPolicy is a frozen, hand-slotted dataclass).
    workload, seed, index = item
    scenario = WORKLOADS[workload].build(seed)[index]
    network = scenario.build_network()
    network.fast = workload in FAST_RECORDED
    metrics = network.run_experiment(
        warmup_s=scenario.warmup_s,
        measurement_s=scenario.measurement_s,
        drain_s=scenario.drain_s,
        scheduler_name=scenario.scheduler,
    )
    return cell_key(scenario), metrics_digest(metrics)


def _seed_range(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", required=True, help="e.g. 0-11 or 0,3,5-7")
    parser.add_argument("--jobs", type=int, default=2)
    args = parser.parse_args()

    recorded = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS) as handle:
            recorded = json.load(handle)
    by_seed = recorded.setdefault(args.workload, {})
    with multiprocessing.Pool(args.jobs) as pool:
        for seed in _seed_range(args.seeds):
            count = len(WORKLOADS[args.workload].build(seed))
            cells = [(args.workload, seed, index) for index in range(count)]
            by_seed[str(seed)] = dict(pool.map(_run_cell, cells, chunksize=1))
            print(f"{args.workload} seed {seed}: {len(cells)} cells recorded", flush=True)
            with open(DIGESTS, "w") as handle:
                json.dump(recorded, handle, indent=1, sort_keys=True)
                handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
