"""The traced run: per-layer spans recorded from outside the program.

Wrappers are installed around public functions of each layer (the
*boundaries* below) for the duration of one traced pass and removed
afterwards.  Every binding of a wrapped function is patched, including
the names other modules took with ``from ... import``, so a call reaches
the wrapper whichever name it goes through.

Each wrapped call records one span (boundary, start, end, parent span,
job id).  Spans stay in memory and are written to
``perfbench/out/spans-<workload>.tsv`` when the pass ends.  A layer's
self time is the time its spans cover minus the time their child spans
cover.  Only synchronous functions are timed: a generator function's
body runs after it returns, so the coroutine layers (query execution,
RPC handlers) show up through the counters of the layers they call and
through the program's own ledgers (``NetworkStats``,
``FailoverCounters``, ``CacheCounters``).  The one
iterator boundary, ``Graph.triples``, is timed around each ``next``.

The job id of a span is the id of the query job whose coroutine was
running, or -1 for work outside every query coroutine: set-up, the
event loop, RPC handler processes on remote nodes and mutation jobs.
"""

from __future__ import annotations

import contextlib
import importlib
import pathlib
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

OUT_DIR = pathlib.Path(__file__).resolve().parent / "out"

#: Message kinds whose bytes are reported one by one: each carries at
#: least 1% of the inter-site bytes on some workload.
MESSAGE_KINDS = (
    "cache_admit", "cache_probe", "cache_probe.reply", "chain_step",
    "combine", "combine.reply", "deliver", "delivered", "evaluate.reply",
    "execute_primitive", "execute_primitive.reply", "fetch", "fetch.reply",
    "find_successor", "find_successor.error", "find_successor.reply",
    "index_lookup", "index_lookup.reply", "ship",
)

#: Fault kinds the injector tallies.
FAULT_KINDS = ("loss", "duplicate", "delay", "partition")


@dataclass(frozen=True)
class Boundary:
    """One wrapped function: its layer (``group``) and call counter."""

    group: str
    module: str
    qualname: str
    #: ``"call"`` (timed call), ``"iter"`` (timed around each ``next``)
    #: or ``"job"`` (a query coroutine: tags its spans with the job id).
    kind: str = "call"
    #: Extra accounting on the result: name of a function in ``_RESULTS``.
    result: Optional[str] = None


BOUNDARIES = (
    Boundary("rdf.match", "repro.rdf.graph", "Graph.triples", "iter"),
    Boundary("rdf.match", "repro.rdf.graph", "Graph.count"),
    Boundary("rdf.insert", "repro.rdf.graph", "Graph.add"),
    Boundary("rdf.insert", "repro.rdf.graph", "Graph.update"),
    Boundary("sparql.parse", "repro.sparql.parser", "parse_query"),
    Boundary("sparql.optimize", "repro.sparql.optimizer", "optimize"),
    Boundary("sparql.eval", "repro.sparql.eval", "evaluate_bgp",
             result="rows_out"),
    Boundary("sparql.eval", "repro.sparql.eval", "evaluate_query",
             result="rows_out"),
    Boundary("sparql.join", "repro.sparql.solutions", "join", result="join"),
    Boundary("sparql.join", "repro.sparql.solutions", "left_outer_join",
             result="join"),
    Boundary("sparql.join", "repro.sparql.solutions",
             "conditional_left_outer_join", result="join"),
    Boundary("sparql.join", "repro.sparql.solutions", "union",
             result="join"),
    Boundary("sparql.join", "repro.sparql.solutions", "combine_sets",
             result="combine"),
    Boundary("net.wire.ship", "repro.net.wire", "encode_solutions"),
    Boundary("net.wire.ship", "repro.net.wire", "as_solution_set"),
    Boundary("net.wire.encode", "repro.net.wire", "SolutionBatch.encode",
             result="encode"),
    Boundary("net.wire.decode", "repro.net.wire", "SolutionBatch.decode"),
    Boundary("net.sizes", "repro.net.sizes", "size_of"),
    Boundary("net.sim", "repro.net.sim", "Simulator.run"),
    Boundary("net.sim", "repro.net.sim", "Simulator.process"),
    Boundary("net.sim", "repro.net.sim", "Simulator.timeout"),
    Boundary("net.transport", "repro.net.transport", "Network.send"),
    Boundary("chord.hash", "repro.chord.hashing", "hash_string"),
    Boundary("chord.hash", "repro.chord.hashing", "hash_term"),
    Boundary("chord.hash", "repro.chord.hashing", "hash_terms"),
    Boundary("overlay.publish", "repro.overlay.system",
             "HybridSystem.publish_fast"),
    Boundary("overlay.delta", "repro.overlay.system",
             "HybridSystem.publish_delta"),
    Boundary("overlay.delta", "repro.overlay.system",
             "HybridSystem.unpublish_delta"),
    Boundary("overlay.locate", "repro.overlay.index_node",
             "IndexNode.locate"),
    Boundary("query.plan", "repro.query.physical", "compile_query_plan"),
    Boundary("query.plan", "repro.query.cost", "annotate_plan"),
    Boundary("cache", "repro.cache.result_cache", "ResultCache.probe"),
    Boundary("cache", "repro.cache.result_cache", "ResultCache.admit"),
    Boundary("cache", "repro.cache.keys", "pattern_cache_key"),
    Boundary("cache", "repro.cache.keys", "bgp_cache_key"),
    Boundary("workloads", "repro.workloads.load", "run_workload"),
    Boundary("query.execute", "repro.query.executor",
             "DistributedExecutor.execute_process", "job"),
)

#: Layers whose self time is reported, in output order.
TIMED_GROUPS = ("rdf.match", "rdf.insert", "sparql.parse", "sparql.optimize",
                "sparql.eval", "sparql.join", "net.wire.ship",
                "net.wire.encode", "net.wire.decode", "net.sizes", "net.sim",
                "chord.hash", "overlay.publish", "overlay.delta",
                "query.plan", "cache", "workloads")


def _len(value) -> int:
    return len(value) if hasattr(value, "__len__") else 0


def _rows_out(args, result, counters):
    counters["sparql.eval.rows_out"] += _len(result)


def _join(args, result, counters):
    counters["sparql.join.rows_in"] += _len(args[0]) + _len(args[1])
    counters["sparql.join.rows_out"] += _len(result)


def _combine(args, result, counters):
    counters["sparql.join.rows_in"] += _len(args[1]) + _len(args[2])
    counters["sparql.join.rows_out"] += _len(result)


def _encode(args, result, counters):
    counters["net.wire.encode.rows"] += len(result)
    counters["net.wire.encode.bytes"] += result.wire_size()


_RESULTS: Dict[str, Callable] = {
    "rows_out": _rows_out, "join": _join, "combine": _combine,
    "encode": _encode,
}


class Tracer:
    """Span recorder shared by every installed wrapper."""

    def __init__(self) -> None:
        self.recording = False
        self.job = -1
        self.names: List[str] = []
        self.groups: List[str] = []
        #: Open spans: [name index, start, child time, span index].
        self.stack: List[list] = []
        #: Closed spans: (name index, start, end, parent span, job id).
        self.spans: List[Optional[tuple]] = []
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.counters: Counter = Counter()
        self.phase_s: Dict[str, float] = {}
        self.phase_covered_s: Dict[str, float] = {}
        self._restore: List[tuple] = []

    # ----------------------------------------------------------- spans

    def _name(self, name: str, group: str) -> int:
        if name in self.names:
            return self.names.index(name)
        self.names.append(name)
        self.groups.append(group)
        return len(self.names) - 1

    def _open(self, index: int, start: float) -> list:
        frame = [index, start, 0.0, len(self.spans)]
        self.spans.append(None)
        self.stack.append(frame)
        return frame

    def _close(self, frame: list, end: float) -> None:
        self.stack.pop()
        index, start, child, span = frame
        duration = end - start
        group = self.groups[index]
        self.self_s[group] = self.self_s.get(group, 0.0) + duration - child
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += duration
            if self.groups[parent[0]].startswith("phase:"):
                name = self.groups[parent[0]]
                self.phase_covered_s[name] = (
                    self.phase_covered_s.get(name, 0.0) + duration)
        self.spans[span] = (index, start, end,
                            parent[3] if parent is not None else -1, self.job)

    @contextlib.contextmanager
    def phase(self, name: str):
        """Record spans inside one set-up or timed phase of a round."""
        index = self._name(f"phase:{name}", f"phase:{name}")
        self.recording = True
        frame = self._open(index, time.perf_counter())
        try:
            yield
        finally:
            end = time.perf_counter()
            self._close(frame, end)
            self.recording = False
            key = f"phase:{name}"
            self.phase_s[key] = self.phase_s.get(key, 0.0) + end - frame[1]

    # -------------------------------------------------------- wrappers

    def _call_wrapper(self, fn, boundary: Boundary):
        index = self._name(boundary.qualname, boundary.group)
        after = _RESULTS.get(boundary.result) if boundary.result else None
        counters = self.counters
        group = boundary.group
        key = f"{boundary.group}|{boundary.qualname}"
        self.calls[key] = 0
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if not tracer.recording or stack[-1][0] == index:
                # Off, or a recursive call: the outer span covers it.
                return fn(*args, **kwargs)
            nested = tracer.groups[stack[-1][0]] == group
            frame = tracer._open(index, clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame, clock())
            tracer.calls[key] += 1
            if after is not None and not nested:
                after(args, result, counters)
            return result

        return wrapper

    def _iter_wrapper(self, fn, boundary: Boundary):
        index = self._name(boundary.qualname, boundary.group)
        key = f"{boundary.group}|{boundary.qualname}"
        self.calls[key] = 0
        tracer = self
        clock = time.perf_counter

        def timed(iterator):
            while True:
                frame = tracer._open(index, clock())
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    tracer._close(frame, clock())
                yield item

        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            tracer.calls[key] += 1
            return timed(fn(*args, **kwargs))

        return wrapper

    def _job_wrapper(self, fn, boundary: Boundary):
        key = f"{boundary.group}|{boundary.qualname}"
        self.calls[key] = 0
        tracer = self

        def drive(gen, job):
            value, error = None, None
            while True:
                previous, tracer.job = tracer.job, job
                try:
                    if error is not None:
                        event = gen.throw(error)
                    else:
                        event = gen.send(value)
                except StopIteration as stop:
                    return stop.value
                finally:
                    tracer.job = previous
                value, error = None, None
                try:
                    value = yield event
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as exc:  # thrown in by the simulator
                    error = exc

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if not tracer.recording:
                return gen
            tracer.calls[key] += 1
            # run_workload's per-job coroutine names its job ``job``.
            job = getattr(sys._getframe(1).f_locals.get("job"), "job_id", -1)
            return drive(gen, job)

        return wrapper

    # ---------------------------------------------------- installation

    def install(self, extra_modules=()) -> None:
        """Wrap every boundary and patch every binding of it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "repro"
                                         or name.startswith("repro."))]
        modules.extend(extra_modules)
        for boundary in BOUNDARIES:
            module = importlib.import_module(boundary.module)
            owner_name, _, attr = boundary.qualname.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            raw = owner.__dict__[attr]
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            make = {"call": self._call_wrapper, "iter": self._iter_wrapper,
                    "job": self._job_wrapper}[boundary.kind]
            wrapper = make(fn, boundary)
            if isinstance(raw, classmethod):
                wrapper = classmethod(wrapper)
            self._patch(owner, attr, raw, wrapper)
            if owner_name:
                continue
            for other in modules:
                for name, value in list(vars(other).items()):
                    if value is fn and other is not module:
                        self._patch(other, name, fn, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # ---------------------------------------------------------- output

    def group_calls(self, group: str) -> int:
        return sum(n for key, n in self.calls.items()
                   if key.split("|")[0] == group)

    def boundary_calls(self, qualname: str) -> int:
        return sum(n for key, n in self.calls.items()
                   if key.split("|")[1] == qualname)

    def write_spans(self, path: pathlib.Path) -> None:
        """One line per span: name, start and end (µs), parent, job."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = next((s[1] for s in self.spans if s is not None), 0.0)
        with path.open("w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart_us\tend_us\tparent\tjob\n")
            for i, span in enumerate(self.spans):
                index, start, end, parent, job = span
                fh.write(f"{i}\t{self.names[index]}\t"
                         f"{(start - origin) * 1e6:.1f}\t"
                         f"{(end - origin) * 1e6:.1f}\t{parent}\t{job}\n")


# ------------------------------------------------------------ the traced run


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric, in output order, with its unit."""
    units: Dict[str, str] = {}
    for group in TIMED_GROUPS:
        units[f"{group}.self_s"] = "s"
    for name in ("rdf.match.calls", "sparql.parse.calls",
                 "sparql.eval.rows_out", "sparql.join.rows_in",
                 "sparql.join.rows_out", "net.wire.ship.calls",
                 "net.wire.encode.calls", "net.wire.encode.rows",
                 "net.sizes.calls", "net.sim.processes", "net.sim.timeouts",
                 "net.transport.send.calls", "net.transport.messages",
                 "net.transport.retries", "net.transport.deadline_exhausted",
                 "net.stats.records", "net.contention.max_queue_depth",
                 "net.health.trips", "net.health.half_opens",
                 "net.health.short_circuits", "net.health.observations",
                 "chord.hash.calls", "overlay.delta.calls",
                 "overlay.locate.calls", "overlay.location_cells",
                 "query.semijoin.rows_pruned", "query.chain_fallbacks",
                 "query.failovers", "query.partial_dropped", "cache.probes",
                 "cache.stale_drops", "cache.evictions"):
        units[name] = "count"
    units["net.wire.encode.bytes"] = "B"
    units["net.transport.bytes"] = "B"
    for kind in MESSAGE_KINDS:
        units[f"net.transport.bytes.{kind}"] = "B"
    units["net.transport.retry_recovered_ratio"] = "ratio"
    units["net.contention.wait_s"] = "sim_s"
    for kind in FAULT_KINDS:
        units[f"net.faults.injected.{kind}"] = "count"
    units["chord.hops_per_query"] = "count"
    units["query.lookup_cache.hit_ratio"] = "ratio"
    units["query.semijoin.digest_bytes"] = "B"
    units["cache.hit_ratio"] = "ratio"
    units["cache.bytes_cached"] = "B"
    units["trace.overhead_s"] = "s"
    units["trace.coverage"] = "ratio"
    return units


PER_LAYER_UNITS = per_layer_units()


def layer_metrics(tracer: Tracer, rounds, cells: int) -> Dict[str, float]:
    """Per-layer metrics of the traced rounds (overhead and coverage are
    added by the caller)."""
    def total(attr: str, key: str) -> int:
        return sum(getattr(r, attr).get(key, 0) for r in rounds)

    queries = sum(len(r.outcomes) for r in rounds)
    values: Dict[str, float] = {
        f"{group}.self_s": tracer.self_s.get(group, 0.0)
        for group in TIMED_GROUPS
    }
    values.update({
        "rdf.match.calls": tracer.group_calls("rdf.match"),
        "sparql.parse.calls": tracer.group_calls("sparql.parse"),
        "net.wire.ship.calls": tracer.group_calls("net.wire.ship"),
        "net.wire.encode.calls": tracer.group_calls("net.wire.encode"),
        "net.sizes.calls": tracer.group_calls("net.sizes"),
        "net.sim.processes": tracer.boundary_calls("Simulator.process"),
        "net.sim.timeouts": tracer.boundary_calls("Simulator.timeout"),
        "net.transport.send.calls": tracer.group_calls("net.transport"),
        "chord.hash.calls": tracer.group_calls("chord.hash"),
        "overlay.delta.calls": tracer.group_calls("overlay.delta"),
        "overlay.locate.calls": tracer.group_calls("overlay.locate"),
        "overlay.location_cells": cells,
        "net.transport.messages": sum(r.messages for r in rounds),
        "net.transport.bytes": sum(r.bytes_total for r in rounds),
        "net.transport.retries": total("failover", "retries"),
        "net.transport.retry_recovered_ratio": _ratio(
            total("failover", "retries_recovered"),
            total("failover", "retries")),
        "net.transport.deadline_exhausted":
            total("failover", "deadline_exhausted"),
        "net.stats.records": sum(r.records for r in rounds),
        "net.contention.wait_s": sum(r.contention.get("wait_s", 0.0)
                                     for r in rounds),
        "net.contention.max_queue_depth": max(
            r.contention.get("max_queue_depth", 0) for r in rounds),
        "net.health.trips": total("failover", "breaker_trips"),
        "net.health.half_opens": total("failover", "breaker_half_opens"),
        "net.health.short_circuits":
            total("failover", "breaker_short_circuits"),
        "net.health.observations": total("failover", "health_observations"),
        "chord.hops_per_query": _ratio(total("executions", "lookup_hops"),
                                       queries),
        "query.lookup_cache.hit_ratio": _ratio(
            total("executions", "lookup_cache_hits"),
            total("executions", "lookup_cache_hits")
            + total("executions", "lookup_cache_misses")),
        "query.semijoin.rows_pruned": total("executions", "rows_pruned"),
        "query.semijoin.digest_bytes": total("executions", "digest_bytes"),
        "query.chain_fallbacks": total("executions", "retries"),
        "query.failovers": sum(
            total("failover", key) for key in
            ("lookup_failovers", "dispatch_failovers", "entry_failovers")),
        "query.partial_dropped":
            total("failover", "partial_patterns_dropped"),
        "cache.probes": total("cache", "probes"),
        "cache.hit_ratio": _ratio(total("cache", "hits"),
                                  total("cache", "probes")),
        "cache.stale_drops": total("cache", "stale_drops"),
        "cache.evictions": total("cache", "evictions"),
        "cache.bytes_cached": total("cache", "bytes_cached"),
    })
    for name in ("sparql.eval.rows_out", "sparql.join.rows_in",
                 "sparql.join.rows_out", "net.wire.encode.rows",
                 "net.wire.encode.bytes"):
        values[name] = tracer.counters.get(name, 0)
    for kind in MESSAGE_KINDS:
        values[f"net.transport.bytes.{kind}"] = total("kind_bytes", kind)
    for kind in FAULT_KINDS:
        values[f"net.faults.injected.{kind}"] = total("faults", kind)
    return values


def location_cells(system) -> int:
    return sum(node.table.cell_count()
               for node in system.index_nodes.values())


def traced_run(suite, workload, seed: int):
    """Untraced then traced pass over the workload's first rounds.

    Returns ``(correct, outcome tally, metrics)``; ``correct`` is False
    when tracing changed anything on the simulated clock (answers,
    bytes, messages, fault tallies, ledgers) or when a layer that should
    fire on this workload read zero, or one that should be bypassed did
    not.
    """
    rounds = workload.trace_rounds
    untraced = suite.run(workload, seed, rounds)
    tracer = Tracer()
    cells: List[int] = []
    tracer.install(extra_modules=[suite])
    try:
        traced = suite.run(
            workload, seed, rounds, span=tracer.phase,
            after_round=lambda system: cells.append(location_cells(system)))
    finally:
        tracer.uninstall()
    tracer.write_spans(OUT_DIR / f"spans-{workload.name}.tsv")

    values = layer_metrics(tracer, traced.rounds, sum(cells))
    values["trace.overhead_s"] = (sum(r.wall_s for r in traced.rounds)
                                  - sum(r.wall_s for r in untraced.rounds))
    values["trace.coverage"] = _ratio(
        tracer.phase_covered_s.get("phase:run", 0.0),
        tracer.phase_s.get("phase:run", 0.0))

    problems = []
    if ([r.simulated() for r in traced.rounds]
            != [r.simulated() for r in untraced.rounds]):
        problems.append("traced run differs from untraced run on the "
                        "simulated clock")
    problems.extend(check_predictions(workload.name, values))
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return not problems, suite.outcome_tally(traced.rounds), values


#: Layers the per-layer table says must fire (read non-zero) on a
#: workload, and layers it says that workload bypasses (read zero).  A
#: wrapper that missed a binding reads zero where it should fire.
EVERYWHERE = ("contention-mix", "zipf-rw", "chaos-harsh", "foaf-serial")
FIRES = {
    "rdf.insert.self_s": EVERYWHERE,
    "sparql.parse.calls": EVERYWHERE,
    "sparql.eval.self_s": EVERYWHERE,
    "net.wire.ship.calls": EVERYWHERE,
    "net.sizes.calls": EVERYWHERE,
    "net.sim.processes": EVERYWHERE,
    "net.sim.timeouts": EVERYWHERE,
    "net.transport.send.calls": EVERYWHERE,
    "chord.hash.calls": EVERYWHERE,
    "overlay.publish.self_s": EVERYWHERE,
    "overlay.locate.calls": EVERYWHERE,
    "query.plan.self_s": EVERYWHERE,
    "workloads.self_s": EVERYWHERE,
    "rdf.match.calls": ("foaf-serial",),
    "sparql.join.self_s": ("contention-mix", "foaf-serial"),
    "net.wire.encode.calls": ("contention-mix",),
    "net.wire.decode.self_s": ("contention-mix",),
    "net.contention.wait_s": ("contention-mix",),
    "overlay.delta.calls": ("zipf-rw",),
    "cache.probes": ("zipf-rw",),
    "net.transport.retries": ("chaos-harsh",),
    "net.faults.injected.loss": ("chaos-harsh",),
    "net.faults.injected.delay": ("chaos-harsh",),
    "net.health.trips": ("chaos-harsh",),
    "net.health.observations": ("chaos-harsh",),
    "query.failovers": ("chaos-harsh",),
    "query.partial_dropped": ("chaos-harsh",),
}
#: Metrics that read zero on every workload outside their FIRES list.
ZERO_ELSEWHERE = (
    "net.wire.encode.calls", "net.wire.decode.self_s",
    "net.contention.wait_s", "overlay.delta.calls", "cache.probes",
    "net.transport.retries", "net.faults.injected.loss",
    "net.faults.injected.delay", "net.health.trips",
    "net.health.observations", "query.failovers", "query.partial_dropped",
)


def check_predictions(workload: str, values: Dict[str, float]) -> List[str]:
    problems = []
    for name, workloads in FIRES.items():
        if workload in workloads and not values[name] > 0:
            problems.append(f"{name} reads {values[name]} on {workload}; "
                            "the layer should fire there")
    for name in ZERO_ELSEWHERE:
        if workload not in FIRES[name] and values[name] != 0:
            problems.append(f"{name} reads {values[name]} on {workload}; "
                            "the workload should bypass the layer")
    return problems
