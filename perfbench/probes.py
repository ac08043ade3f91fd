"""Outside-in observation of the simulator: per-cell probes and a span tracer.

Both instruments wrap public methods of the program's classes from the
benchmark's side; nothing under ``src/`` knows they exist.  Wrappers only
read clocks and counters: they draw no random numbers and schedule no
events, so a probed or traced run produces bit-identical results (the
benchmark checks this through the result digests).

* :class:`CellProbe` is cheap enough for the timed run.  Per cell it records
  the set-up CPU time (``run_scenario`` entry to ``Network.run_experiment``
  entry: scenario build plus medium freeze, including the frozen-medium
  cache), the cell's CPU and wall time, the host-speed factor over the cell
  (``calibrate.SpeedMeter``; what its samples cost is taken out of the
  cell's times) and the program's own exact work counters, in whichever
  process ran the cell.
* :class:`Tracer` records a span (name, start, end, parent) around each call
  into a layer's public methods, keeps them in memory, and folds them into
  per-span self time (duration minus the time covered by child spans) and
  call counts.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from array import array
from typing import Any, Callable, Optional

import calibrate
from repro.experiments import parallel
from repro.net.network import Network


def metrics_digest(metrics: Any) -> str:
    """Stable content hash of a finalized ``NetworkMetrics``."""
    payload = json.dumps(dataclasses.asdict(metrics), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:20]


def read_counters(network: Network) -> dict[str, int]:
    """The program's exact, deterministic work counters after one cell."""
    counters: dict[str, int] = {
        "asn": network.clock.asn,
        "stepped_slots": network.stepped_slots,
        "intents": network.medium.total_transmissions,
        "medium_collisions": network.medium.total_collisions,
    }
    queue = network.events.stats()
    counters["compactions"] = queue["compactions"] + sum(
        wheel["compactions"] for wheel in queue["wheels"].values()
    )
    counters["wheel_fired"] = sum(wheel["fired"] for wheel in queue["wheels"].values())
    relocations = 0
    for node in network.nodes.values():
        for stats in (node.tsch.stats, node.stats):
            for name, value in dataclasses.asdict(stats).items():
                counters[name] = counters.get(name, 0) + value
        relocations += node.scheduler.relocation_count()
    counters["relocations"] = relocations
    return counters


class CellProbe:
    """Set-up time and work counters of every cell, from any process.

    Pool workers inherit the probe at fork time and append their records to
    one JSON-lines file per worker under ``spool``; :meth:`collect` gathers
    them after the pool is shut down.  (A pipe would need a draining thread
    alive while the pool forks.)
    """

    def __init__(self, spool: str, speed_period_s: float) -> None:
        self.spool = spool
        self.records: list[dict] = []
        self._main_pid = os.getpid()
        #: Host speed around (and every ``speed_period_s`` during) each cell.
        self._meter = calibrate.SpeedMeter(speed_period_s)
        #: (cell key, CPU clock, wall clock) at entry of the running cell.
        self._current: tuple[str, float, float] = ("", 0.0, 0.0)

    def install(self, cell_key: Callable[[Any], str]) -> None:
        probe = self
        run_scenario = parallel.run_scenario
        run_experiment = Network.run_experiment

        def probed_run_scenario(scenario):
            probe._meter.start()
            probe._current = (cell_key(scenario), time.thread_time(), time.perf_counter())
            return run_scenario(scenario)

        def probed_run_experiment(network, warmup_s, measurement_s, drain_s=5.0, **kw):
            meter = probe._meter
            key, cpu0, wall0 = probe._current
            setup_s = time.thread_time() - cpu0 - meter.inside_cpu_s
            metrics = run_experiment(network, warmup_s, measurement_s, drain_s, **kw)
            cpu_s = time.thread_time() - cpu0 - meter.inside_cpu_s
            wall_s = time.perf_counter() - wall0 - meter.inside_wall_s
            factor = meter.stop()
            window = sum(
                network.clock.seconds_to_slots(s) for s in (warmup_s, measurement_s, drain_s)
            )
            counters = read_counters(network)
            probe._emit(
                {
                    "cell": key,
                    # the probe's own time after the cell (a traced pass
                    # subtracts it from the enclosing span)
                    "probe_s": time.perf_counter() - wall0 - wall_s - meter.inside_wall_s,
                    "setup_s": setup_s,
                    "cpu_s": cpu_s,
                    "wall_s": wall_s,
                    "speed_factor": factor,
                    "speed_cpu_s": meter.cpu_s,
                    "speed_wall_s": meter.wall_s,
                    "window_slots": window,
                    "counters": counters,
                }
            )
            return metrics

        # ``run_scenarios`` (serial path) and the pool task both look
        # ``run_scenario`` up as a module global at call time.
        parallel.run_scenario = probed_run_scenario
        Network.run_experiment = probed_run_experiment

    def _emit(self, record: dict) -> None:
        if os.getpid() == self._main_pid:
            self.records.append(record)
            return
        os.makedirs(self.spool, exist_ok=True)
        path = os.path.join(self.spool, f"cells-{os.getpid()}.jsonl")
        with open(path, "a") as handle:
            handle.write(json.dumps(record) + "\n")

    def collect(self) -> list[dict]:
        """Every record, the workers' included (call after they have exited)."""
        if os.path.isdir(self.spool):
            for name in sorted(os.listdir(self.spool)):
                path = os.path.join(self.spool, name)
                with open(path) as handle:
                    self.records.extend(json.loads(line) for line in handle)
                os.unlink(path)
            os.rmdir(self.spool)
        return self.records


def resident_mb() -> float:
    """Current resident set size of this process, in MB."""
    with open("/proc/self/statm") as handle:
        pages = int(handle.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 1e6


#: Top-level ``repro`` package -> layer name used for timer attribution.
_LAYER_OF_PACKAGE = {
    "core": "schedulers",
    "schedulers": "schedulers",
    "faults": "faults",
    "mac": "mac",
    "rpl": "rpl",
    "sixtop": "sixtop",
    "net": "net",
    "phy": "phy",
    "metrics": "net",
}


def _layer_of_callback(callback: Callable) -> str:
    """The layer owning an event callback (looking through periodic timers)."""
    owner = getattr(callback, "__self__", None)
    inner = getattr(owner, "callback", None)
    if inner is not None and type(owner).__name__ == "PeriodicTimer":
        callback = inner
    func = getattr(callback, "__func__", callback)
    module = getattr(func, "__module__", "") or ""
    if module == "repro.phy.dynamic":
        return "faults"  # link-drift epochs are injected dynamics
    parts = module.split(".")
    if len(parts) > 1 and parts[0] == "repro":
        return _LAYER_OF_PACKAGE.get(parts[1], "sim")
    return "sim"


class Tracer:
    """In-memory span recorder with online self-time accounting.

    Span ``i`` is stored column-wise (``starts[i]``, ``ends[i]`` in ns,
    ``names[i]`` an index into :attr:`span_names`, ``parents[i]`` the index
    of the enclosing span or -1).  Each wrapper also charges the time its own
    bookkeeping takes after the call to :attr:`bookkeeping_ns` and to its
    parent's covered time, so that part of the tracer's cost does not inflate
    a parent's self time; the cost of entering a wrapper (and of naming a
    timer span) still lands in the parent.
    """

    def __init__(self) -> None:
        self.span_names: list[str] = []
        self.starts = array("q")
        self.ends = array("q")
        self.names = array("H")
        self.parents = array("i")
        self.self_ns: list[int] = []
        self.calls: list[int] = []
        self.bookkeeping_ns = 0
        #: Stack of open spans: [start_ns, covered_ns, span index].
        self._stack: list[list[int]] = []
        self.counts: dict[str, int] = {}
        self.freeze_rss_mb = 0.0

    def _name_id(self, name: str) -> int:
        if name not in self.span_names:
            self.span_names.append(name)
            self.self_ns.append(0)
            self.calls.append(0)
        return self.span_names.index(name)

    def span(self, name: str, func: Callable, name_of: Optional[Callable] = None) -> Callable:
        """Wrap ``func`` so every call records a span called ``name``.

        ``name_of(*args)`` may pick the span name per call instead.
        """
        tracer = self
        clock = time.perf_counter_ns
        stack = self._stack
        starts, ends, names, parents = self.starts, self.ends, self.names, self.parents
        self_ns, calls = self.self_ns, self.calls
        fixed = self._name_id(name) if name_of is None else -1
        ids: dict[str, int] = {}

        def traced(*args, **kwargs):
            if name_of is None:
                nid = fixed
            else:
                label = name_of(*args)
                nid = ids.get(label)
                if nid is None:
                    nid = ids[label] = tracer._name_id(label)
            t0 = clock()
            index = len(starts)
            starts.append(t0)
            ends.append(0)
            names.append(nid)
            parents.append(stack[-1][2] if stack else -1)
            frame = [t0, 0, index]
            stack.append(frame)
            try:
                return func(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                ends[index] = t1
                self_ns[nid] += t1 - t0 - frame[1]
                calls[nid] += 1
                t2 = clock()
                tracer.bookkeeping_ns += t2 - t1
                if stack:
                    stack[-1][1] += t2 - t0

        return traced

    def wrap(self, cls: type, attr: str, name: str, **options: Any) -> None:
        setattr(cls, attr, self.span(name, cls.__dict__[attr], **options))

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap the public layer boundaries (before any network is built)."""
        from repro.experiments.scenarios import Scenario
        from repro.mac.tsch import TschEngine
        from repro.phy.medium import Medium
        from repro.rpl.engine import RplEngine
        from repro.schedulers.base import SchedulingFunction
        from repro.sim.events import Event, EventQueue
        from repro.sixtop.layer import SixPLayer
        import repro.core.scheduler  # noqa: F401  (GT-TSCH subclass)
        import repro.schedulers  # noqa: F401  (every registered SF)

        parallel.run_scenario = self.span("experiments.cell", parallel.run_scenario)
        self.wrap(Scenario, "build_network", "experiments.build")
        for attr in ("freeze", "adopt_frozen", "export_frozen"):
            self._wrap_freeze(Medium, attr)
        self.wrap(Network, "run_experiment", "net.run")
        self._wrap_resolve(Medium)
        self.wrap(TschEngine, "plan_slot", "mac.plan")
        self.wrap(TschEngine, "on_frame_received", "mac.rx")
        self.wrap(TschEngine, "on_transmission_result", "mac.tx_result")
        for attr in (
            "settle_duty_cycle",
            "account_slot",
            "account_tx_slot",
            "account_rx_frame_slot",
            "absorb_deferred_pass",
        ):
            self.wrap(TschEngine, attr, "mac.settle")
        self.wrap(RplEngine, "process_dio", "rpl.dio")
        self.wrap(RplEngine, "process_dao", "rpl.dao")
        self.wrap(EventQueue, "run_until", "sim.run_until")
        self.wrap(
            Event,
            "fire",
            "sim.timer",
            name_of=lambda event: _layer_of_callback(event.callback) + ".timer",
        )
        self.wrap(SixPLayer, "process_packet", "sixtop.process")
        hooks = [
            name
            for name in vars(SchedulingFunction)
            if name.startswith("on_") or name in ("start", "stop", "eb_fields", "dio_fields")
        ]
        pending, seen = [SchedulingFunction], set()
        while pending:
            cls = pending.pop()
            if cls in seen:
                continue
            seen.add(cls)
            pending.extend(cls.__subclasses__())
            for name in hooks:
                if name in cls.__dict__:
                    self.wrap(cls, name, "schedulers.callback")

    def _wrap_freeze(self, cls: type, attr: str) -> None:
        traced = self.span("phy.freeze", cls.__dict__[attr])
        tracer = self

        def freeze_with_rss(*args, **kwargs):
            before = resident_mb()
            try:
                return traced(*args, **kwargs)
            finally:
                tracer.freeze_rss_mb += max(0.0, resident_mb() - before)

        setattr(cls, attr, freeze_with_rss)

    def _wrap_resolve(self, cls: type) -> None:
        traced = self.span("phy.resolve", cls.__dict__["resolve_slot"])
        counts = self.counts
        counts["unicast_intents"] = counts["unicast_decoded"] = 0

        def resolve_and_count(*args, **kwargs):
            results = traced(*args, **kwargs)
            for result in results:
                if not result.intent.packet.is_broadcast:
                    counts["unicast_intents"] += 1
                    if result.delivered:
                        counts["unicast_decoded"] += 1
            return results

        setattr(cls, "resolve_slot", resolve_and_count)

    # ------------------------------------------------------------------
    def summary(self) -> dict[str, dict[str, float]]:
        """Self seconds and call count per span name."""
        return {
            name: {"self_s": self.self_ns[i] / 1e9, "calls": self.calls[i]}
            for i, name in enumerate(self.span_names)
        }

    def write(self, path: str) -> None:
        """Write every span: a JSON header plus the raw columns."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path + ".json", "w") as handle:
            json.dump(
                {
                    "span_names": self.span_names,
                    "spans": len(self.starts),
                    "columns": [
                        ["start_ns", "q"],
                        ["end_ns", "q"],
                        ["name", "H"],
                        ["parent", "i"],
                    ],
                    "summary": self.summary(),
                },
                handle,
                indent=1,
            )
        with open(path + ".spans", "wb") as handle:
            for column in (self.starts, self.ends, self.names, self.parents):
                column.tofile(handle)
