"""The benchmark's three workloads, built from a workload seed.

Every workload is a list of :class:`~repro.experiments.scenarios.Scenario`
cells made only through the public scenario builders.  The workload seed is
the only input: scenario seeds, the link-drift policy seed and the fault-plan
seed all derive from it, so the same seed always yields the same cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.experiments.scenarios import (
    GT_TSCH,
    MINIMAL,
    ORCHESTRA,
    Scenario,
    churn_scenario,
    join_scenario,
    scale_scenario,
    traffic_load_scenario,
)
from repro.phy.dynamic import default_drift_policy
from repro.schedulers import registry

#: Fig. 8 per-node rates (packets per minute) swept by ``fig8-sweep``.
FIG8_RATES_PPM = (30, 75, 120, 165)


@dataclass(frozen=True)
class Workload:
    #: Cells are fanned out over this many pool workers (1 = serial, in-process).
    jobs: int
    build: Callable[[int], list[Scenario]]


def _cell_seeds(seed: int) -> tuple[int, int]:
    """The two scenario seeds of a two-seed workload (disjoint across seeds)."""
    return 2 * seed + 1, 2 * seed + 2


def fig8_sweep(seed: int) -> list[Scenario]:
    """Fig. 8: 2 x 7-node DODAGs, 4 rates x 6 schedulers x 2 seeds (48 cells)."""
    return [
        traffic_load_scenario(
            rate, scheduler, seed=cell_seed, warmup_s=40.0, measurement_s=60.0
        )
        for rate in FIG8_RATES_PPM
        for scheduler in registry.available()
        for cell_seed in _cell_seeds(seed)
    ]


def scale_1000(seed: int) -> list[Scenario]:
    """1000 nodes in 100 DODAGs for three schedulers (20/40/5 s)."""
    return [
        scale_scenario(1000, scheduler, seed=seed + 1)
        for scheduler in (MINIMAL, ORCHESTRA, GT_TSCH)
    ]


def churn_join(seed: int) -> list[Scenario]:
    """Per scheduler and seed: a churn-dynamic cell and a cold-start join cell.

    The churn cell is the one ``run_churn_dynamic`` builds for two crashes
    (one late arrival, three-epoch link drift inside the window, the default
    fault plan); the join cell is ``join_scenario(9)``.  24 cells.
    """
    warmup_s, measurement_s = 30.0, 60.0
    first, _ = _cell_seeds(seed)
    drift = default_drift_policy(
        seed=first,
        start_s=warmup_s + 0.20 * measurement_s,
        epoch_s=0.15 * measurement_s,
        num_epochs=3,
    )
    cells: list[Scenario] = []
    for scheduler in registry.available():
        for cell_seed in _cell_seeds(seed):
            cells.append(
                churn_scenario(
                    num_crashes=2,
                    scheduler=scheduler,
                    seed=cell_seed,
                    warmup_s=warmup_s,
                    measurement_s=measurement_s,
                    num_arrivals=1,
                    link_drift=drift,
                )
            )
            cells.append(join_scenario(9, scheduler, seed=cell_seed))
    return cells


WORKLOADS = {
    "fig8-sweep": Workload(jobs=2, build=fig8_sweep),
    "scale-1000": Workload(jobs=1, build=scale_1000),
    "churn-join": Workload(jobs=1, build=churn_join),
}


def cell_key(scenario: Scenario) -> str:
    """Unique name of a cell within its workload (scenario name + seed)."""
    return f"{scenario.name}@{scenario.seed}"
