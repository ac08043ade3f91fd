"""The repo benchmark: one workload, one seed, a fixed time budget.

    python3 perfbench/run.py --workload fig8-sweep --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  ``--trace 0`` repeats cold timed passes
(each in a fresh process, see ``one_pass.py``) until ``--seconds`` is used up,
at least two of them, and reports the end-to-end metrics at reference host
speed (see :func:`timed_metrics`).
``--trace 1`` makes one timed and one traced pass and reports the per-layer
metrics.  Every cell's result is checked against the recorded digests in
``digests.json`` and against sanity checks; digests and work counters must
repeat exactly across passes.  Workloads, metrics and the layer map are
described in ``spec.json``.  Each metric is printed with its unit; the last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Passes taken in a timed run before the time budget may stop it.
MIN_PASSES = 2
#: No pass starts once it could end later than this (seconds into the run).
HARD_LIMIT_S = 150.0


def _load(name: str) -> dict:
    with open(os.path.join(HERE, name)) as handle:
        return json.load(handle)


def run_pass(workload: str, seed: int, mode: str, timeout: float) -> tuple[dict, str]:
    """One pass in a fresh interpreter; returns (result or {}, error text)."""
    command = [
        sys.executable,
        os.path.join(HERE, "one_pass.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--mode", mode,
    ]
    # Own process group: a pass killed on timeout takes its pool workers along.
    child = subprocess.Popen(
        command,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = child.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        stdout, stderr = "", f"timed out after {timeout:.0f} s"
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # the whole group has already exited
        child.communicate()
    if child.returncode != 0 or not stdout.strip():
        return {}, f"{mode} pass failed ({child.returncode}): {stderr.strip()[-2000:]}"
    return json.loads(stdout.strip().splitlines()[-1]), ""


class Checker:
    """Cell-level correctness across every pass of one run."""

    def __init__(self, workload: str, seed: int) -> None:
        self.recorded = _load("digests.json").get(workload, {}).get(str(seed))
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        #: cell -> (digest, counters) of the first pass that ran it.
        self.first: dict[str, tuple[str, dict]] = {}

    def fail_pass(self, cells: int, error: str) -> None:
        self.attempted += cells
        self.failed += cells
        self.errors.append(error)

    def check(self, result: dict) -> None:
        for cell in result["cells"]:
            self.attempted += 1
            problems = list(cell["problems"])
            key = cell["cell"]
            if self.recorded is not None and self.recorded.get(key) != cell["digest"]:
                problems.append(
                    f"digest {cell['digest']} != recorded {self.recorded.get(key)}"
                )
            seen = self.first.setdefault(key, (cell["digest"], cell["counters"]))
            if seen[0] != cell["digest"]:
                problems.append(f"digest differs between passes ({result['mode']})")
            if seen[1] != cell["counters"]:
                changed = sorted(
                    name
                    for name in set(seen[1]) | set(cell["counters"])
                    if seen[1].get(name) != cell["counters"].get(name)
                )
                problems.append(
                    f"determinism bug: work counters {changed} differ between passes"
                )
            if problems:
                self.failed += 1
                self.errors.append(f"{key}: " + "; ".join(problems))


def timed_metrics(passes: list[dict]) -> dict[str, float]:
    """End-to-end metrics of a run from its timed passes, at reference speed.

    The host is a shared VM whose cores slow down by up to 2x while a
    neighbour is busy, so raw times swing by tens of percent between
    minutes.  Each cell's times are scaled by its ``speed_factor``, the host
    speed sampled around and during that cell (``calibrate.SpeedMeter``);
    the rest of a pass (pool start, dispatch, load imbalance, pickling) is
    scaled by the pass's median factor.  A metric is the sum over cells of
    each cell's median across passes plus the median of the rest.  A pooled
    cell's wall time counts 1/workers, since workers run cells side by side.
    """
    workers = passes[0]["workers"]

    def robust(pass_total: str, part: str, share: float = 1.0) -> float:
        per_cell: list[list[float]] = [[] for _ in passes[0]["cells"]]
        rest: list[float] = []
        speed_cost = {"cpu_s": "speed_cpu_s", "wall_s": "speed_wall_s"}.get(part)
        for p in passes:
            factors = [c["speed_factor"] for c in p["cells"]]
            raw_rest = p[pass_total]
            for i, (cell, factor) in enumerate(zip(p["cells"], factors)):
                per_cell[i].append(cell[part] * share * factor)
                raw_rest -= cell[part] * share
                if speed_cost:  # sampling ran inside the pass, not in set-up
                    raw_rest -= cell[speed_cost] * share
            rest.append(raw_rest * statistics.median(factors))
        return sum(statistics.median(v) for v in per_cell) + statistics.median(rest)

    cpu_s = robust("cpu_s", "cpu_s")
    setup_s = robust("setup_s", "setup_s")
    return {
        "wall_s": robust("wall_s", "wall_s", 1.0 / workers),
        "cpu_s": cpu_s,
        "setup_s": setup_s,
        "run_cpu_s": cpu_s - setup_s,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def raw_medians(passes: list[dict]) -> dict[str, float]:
    """Medians of the unscaled pass totals (printed for reference)."""
    return {
        name: statistics.median(p[name] for p in passes)
        for name in ("wall_s", "cpu_s", "setup_s")
    }


def _speed_factor(result: dict) -> float:
    """Reference-speed scale of a whole pass: its median per-cell factor."""
    return statistics.median(c["speed_factor"] for c in result["cells"])


def layer_metrics(timed: dict, traced: dict) -> dict[str, float]:
    """Per-layer metrics of a traced run; times at reference speed."""
    spans = traced["spans"]
    scale = _speed_factor(traced)
    timed_scale = _speed_factor(timed)

    def self_s(*names: str) -> float:
        return scale * sum(spans.get(name, {}).get("self_s", 0.0) for name in names)

    def calls(*names: str) -> int:
        return sum(spans.get(name, {}).get("calls", 0) for name in names)

    def total(counter: str) -> int:
        return sum(cell["counters"][counter] for cell in traced["cells"])

    timers = [name for name in spans if name.endswith(".timer")]
    resolve = traced["resolve_counts"]
    slots = total("asn")
    return {
        "experiments.build_s": self_s("experiments.build"),
        "experiments.cell_self_s": self_s("experiments.cell")
        - scale * sum(cell["probe_s"] for cell in traced["cells"]),
        "experiments.pool_start_s": timed_scale * timed["pool_start_s"],
        "experiments.pickle_bytes": traced["pickle_bytes"],
        "experiments.pickle_s": scale * traced["pickle_s"],
        "experiments.worker_busy_share": (
            timed["children_cpu_s"] / (timed["wall_s"] * timed["workers"])
            if timed["workers"] > 1
            else timed["cpu_s"] / timed["wall_s"]
        ),
        "phy.freeze_s": self_s("phy.freeze"),
        "phy.freeze_alloc_mb": traced["freeze_rss_mb"],
        "phy.resolve_s": self_s("phy.resolve"),
        "phy.resolve_calls": calls("phy.resolve"),
        "phy.intents": total("intents"),
        "phy.decode_ratio": resolve["unicast_decoded"] / max(1, resolve["unicast_intents"]),
        "mac.plan_s": self_s("mac.plan"),
        "mac.plan_calls": calls("mac.plan"),
        "mac.rx_s": self_s("mac.rx"),
        "mac.tx_result_s": self_s("mac.tx_result"),
        "mac.settle_s": self_s("mac.settle"),
        "mac.settle_calls": calls("mac.settle"),
        "mac.tx_attempts": total("unicast_tx_attempts"),
        "mac.ack_ratio": total("unicast_acked") / max(1, total("unicast_tx_attempts")),
        "mac.collisions": total("collisions_observed"),
        "rpl.dio_s": self_s("rpl.dio"),
        "rpl.dio_calls": calls("rpl.dio"),
        "rpl.dao_s": self_s("rpl.dao"),
        "rpl.timer_s": self_s("rpl.timer"),
        "sim.run_until_s": self_s("sim.run_until", "sim.timer"),
        "sim.events_fired": calls(*timers),
        "sim.compactions": total("compactions"),
        "sixtop.process_s": self_s("sixtop.process", "sixtop.timer"),
        "sixtop.packets": calls("sixtop.process"),
        "schedulers.callback_s": self_s("schedulers.callback", "schedulers.timer"),
        "schedulers.callbacks": calls("schedulers.callback", "schedulers.timer"),
        "schedulers.relocations": total("relocations"),
        "net.dispatch_self_s": self_s("net.run"),
        "net.timer_s": self_s("net.timer"),
        "net.slots": slots,
        "net.stepped_slots": total("stepped_slots"),
        "net.stepped_share": total("stepped_slots") / max(1, slots),
        "faults.injections": calls("faults.timer"),
        "faults.callback_s": self_s("faults.timer"),
        "trace.cpu_s": scale * traced["cpu_s"],
        "trace.overhead_ratio": (scale * traced["cpu_s"]) / (timed_scale * timed["cpu_s"]),
        "trace.spans": traced["span_count"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no program to benchmark: {ROOT}/src/repro is missing", file=sys.stderr)
        return 2
    spec = _load("spec.json")
    if args.workload not in spec["workloads"]:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    size = spec["workloads"][args.workload]["size"]
    checker = Checker(args.workload, args.seed)
    started = time.monotonic()

    def budget_left() -> float:
        return HARD_LIMIT_S - (time.monotonic() - started)

    timed: list[dict] = []
    longest = 0.0
    while True:
        pass_started = time.monotonic()
        result, error = run_pass(args.workload, args.seed, "timed", budget_left())
        longest = max(longest, time.monotonic() - pass_started)
        if error:
            checker.fail_pass(size, error)
            break
        checker.check(result)
        timed.append(result)
        if args.trace:
            break
        elapsed = time.monotonic() - started
        if len(timed) >= MIN_PASSES and elapsed + longest > args.seconds:
            break
        if elapsed + longest > HARD_LIMIT_S:
            break

    metrics: dict[str, float] = {}
    names: dict[str, dict] = {}
    if timed and args.trace:
        traced, error = run_pass(args.workload, args.seed, "traced", budget_left())
        if error:
            checker.fail_pass(size, error)
        else:
            checker.check(traced)
            metrics = layer_metrics(timed[0], traced)
        names = spec["per_layer"]
    elif timed:
        metrics = timed_metrics(timed)
        names = spec["end_to_end"]

    failed_share = checker.failed / max(1, checker.attempted)
    passes = len(timed) + (1 if args.trace else 0)
    print(
        f"# {args.workload} seed={args.seed} trace={args.trace}: {passes} passes, "
        f"{checker.attempted} cells attempted, {checker.failed} failed"
    )
    for error in checker.errors[:20]:
        print(f"# FAILED {error}")
    for name, value in metrics.items():
        print(f"{name:32s} {value:14.6g} {names[name]['unit']}")
    print(f"{'failed_share':32s} {failed_share:14.6g} ratio")
    if timed and not args.trace:
        for name, value in raw_medians(timed).items():
            print(f"{'raw ' + name:32s} {value:14.6g} s (median pass total, unscaled)")
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    log = os.path.join(
        ROOT, ".perfbench", f"run-{args.workload}-{args.seed}-trace{args.trace}.json"
    )
    with open(log, "w") as handle:
        json.dump({"timed": timed, "errors": checker.errors, "metrics": metrics}, handle)
    units = {name: names[name]["unit"] for name in metrics}
    print(
        json.dumps(
            {
                "correct": checker.failed == 0 and bool(metrics),
                "attempted": max(1, checker.attempted),
                "failed": checker.failed if checker.attempted else 1,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
