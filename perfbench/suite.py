"""The benchmark's four workloads, its answer check and its metrics.

Every workload is a closed loop of simulated clients driven through the
public API (``HybridSystem``, ``run_workload``, ``ExecutionOptions``)
inside one single-threaded simulator.  A run is a fixed sequence of
*rounds*, each run one or more times (*passes*); a round builds a fresh
system, makes its ``run_workload`` calls (the timed phase) and checks
every answer against the union-graph oracle computed before the calls.
Set-up is timed on its own, in slices between the rounds.  Between
rounds and set-ups a run also times the reference workload of
``refclock``, against which its wall times are read.

The amount of work depends only on the workload, the seed and the
``--seconds`` argument, never on how fast the machine is, so every
simulated metric repeats exactly for a given seed.
"""

from __future__ import annotations

import contextlib
import gc
import operator
import random
import resource
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, ContextManager, Dict, List, Sequence, Tuple

import refclock
from repro import HybridSystem, evaluate_query, parse_query
from repro.chord import IdentifierSpace
from repro.net import ContentionModel
from repro.net.faults import chaos_plan
from repro.query import ExecutionOptions
from repro.rdf.namespaces import COMMON_PREFIXES, FOAF
from repro.workloads import (
    FoafConfig,
    LoadConfig,
    generate_foaf_triples,
    paper_example_partition,
    paper_query_mix,
    partition_triples,
    run_workload,
)

Parts = Dict[str, list]

E2_QUERY = """SELECT ?x ?z ?k WHERE {
  ?x foaf:knows ?z .
  ?x foaf:nick ?k .
}"""
E2_DISTINCT_QUERY = """SELECT DISTINCT ?x ?k WHERE {
  ?x foaf:knows ?z .
  ?x foaf:nick ?k .
}"""

#: E21's three-query chaos mix.
CHAOS_MIX = [
    ("knows", "SELECT ?x ?y WHERE { ?x foaf:knows ?y . }"),
    ("name", 'SELECT ?x WHERE { ?x foaf:name "Smith" . }'),
    ("conj", "SELECT ?x ?n WHERE { ?x foaf:knows ?y . ?y foaf:name ?n . }"),
]

#: E21's harsh severity.  The window is stretched far past any run so
#: the faults cover every round from its first message to its last.
HARSH = dict(loss=0.10, delay=0.15, partitions=1, brownouts=2)
CHAOS_WINDOW_S = 1.0e7

#: A metric run runs each round this many times, each on a fresh system;
#: the timed phase of each ``run_workload`` call is its mean over the
#: runs, and the second must repeat the first on the simulated clock.
PASSES = 2

#: Outcome classes of a query job, in report order.
OUTCOMES = ("exact", "subset", "wrong", "failure", "shed")


def derive(seed: int, *parts) -> int:
    """A 32-bit seed for one input of one workload, derived from *seed*."""
    return random.Random("|".join(map(str, (seed,) + parts))).getrandbits(32)


def overlap_parts(seed: int) -> Parts:
    """E2's controlled-overlap data (one shared provider): FOAF-120,
    ``knows`` over D0-D2, ``nick`` over D0 and D3, the rest on D5."""
    triples = generate_foaf_triples(FoafConfig(
        num_people=120, knows_per_person=3, nick_fraction=0.3, seed=seed))
    rng = random.Random(seed)
    parts: Parts = {f"D{i}": [] for i in range(6)}
    for t in triples:
        if t.p == FOAF.knows:
            parts[f"D{rng.randrange(3)}"].append(t)
    for t in triples:
        if t.p == FOAF.nick:
            parts[("D0", "D3")[rng.randrange(2)]].append(t)
    for t in triples:
        if t.p not in (FOAF.knows, FOAF.nick):
            parts["D5"].append(t)
    return parts


def foaf_parts(seed: int) -> Parts:
    """FOAF-1000 (about 6.1k triples) over 12 providers, 20% overlap."""
    triples = generate_foaf_triples(
        FoafConfig(num_people=1000, seed=derive(seed, "foaf")))
    split = partition_triples(triples, 12, overlap=0.2,
                              seed=derive(seed, "partition"))
    return {f"D{i}": part for i, part in enumerate(split)}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its data, system shape, load and options."""

    name: str
    #: ``data(seed, round)`` -> storage-node id -> triples.
    data: Callable[[int, int], Parts]
    #: True = every round draws new data; False = one data set per run.
    data_per_round: bool
    num_index: int
    queries: Sequence[Tuple[str, str]]
    concurrency: int
    #: Query jobs per ``run_workload`` call.
    jobs: int
    #: Nominal wall seconds of one round: a run of ``--seconds`` makes
    #: ``seconds / (PASSES * round_s)`` rounds, so the work never
    #: depends on how fast the machine is, and times reference units
    #: for ``refclock.SHARE`` of ``round_s`` after each round.
    round_s: float
    options: ExecutionOptions
    replication_factor: int = 1
    contention: bool = False
    zipf_s: float = 0.0
    mutation_rate: float = 0.0
    chaos: bool = False
    #: True = a round makes one ``run_workload`` call per query of the
    #: mix, so a run's mix is exactly balanced.  Only for a single
    #: client, where one query's execution never depends on another's.
    balanced: bool = False
    #: Initiators are the storage nodes, round robin; False = the
    #: executor's default initiator (what ``repro --query`` uses).
    storage_initiators: bool = True
    #: Rounds in the traced run (``--trace 1``): enough for every layer
    #: the workload exercises to fire on any seed.
    trace_rounds: int = 1

    def rounds(self, seconds: float) -> int:
        return max(1, round(seconds / (PASSES * self.round_s)))

    def build(self, parts: Parts) -> HybridSystem:
        """Ring, storage nodes and the published index (the set-up)."""
        system = HybridSystem(space=IdentifierSpace(32),
                              replication_factor=self.replication_factor)
        for i in range(self.num_index):
            system.add_index_node(f"N{i}")
        system.build_ring()
        for storage_id, triples in parts.items():
            system.add_storage_node(storage_id, triples)
        if self.contention:
            system.network.contention = ContentionModel()
        return system

    def configs(self, system: HybridSystem, seed: int,
                rnd: int) -> List[LoadConfig]:
        """The ``run_workload`` calls of one round."""
        faults = None
        if self.chaos:
            faults = chaos_plan(sorted(system.network.nodes),
                                seed=derive(seed, self.name, "faults", rnd),
                                window=CHAOS_WINDOW_S, **HARSH)
        mixes = ([[query] for query in self.queries] if self.balanced
                 else [list(self.queries)])
        return [LoadConfig(
            queries=mix,
            initiators=(tuple(sorted(system.storage_nodes))
                        if self.storage_initiators else ()),
            mode="closed",
            concurrency=self.concurrency,
            num_queries=self.jobs,
            seed=derive(seed, self.name, "schedule", rnd),
            zipf_s=self.zipf_s,
            mutation_rate=self.mutation_rate,
            faults=faults,
        ) for mix in mixes]


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="contention-mix",
        data=lambda seed, rnd: overlap_parts(derive(seed, "overlap", rnd)),
        data_per_round=True,
        num_index=16,
        queries=[("e2", E2_QUERY), ("e2-distinct", E2_DISTINCT_QUERY)],
        concurrency=16,
        jobs=128,
        round_s=1.0,
        options=ExecutionOptions(semijoin=True, projection_pushdown=True,
                                 dictionary_encoding=True),
        contention=True,
    ),
    Workload(
        name="zipf-rw",
        data=lambda seed, rnd: paper_example_partition(),
        data_per_round=False,
        num_index=8,
        queries=paper_query_mix(),
        concurrency=4,
        jobs=500,
        round_s=1.43,
        options=ExecutionOptions(result_cache=True, cache_admit_threshold=1),
        zipf_s=1.2,
        mutation_rate=0.1,
    ),
    Workload(
        name="chaos-harsh",
        data=lambda seed, rnd: paper_example_partition(),
        data_per_round=False,
        num_index=8,
        queries=CHAOS_MIX,
        concurrency=8,
        jobs=25,
        round_s=0.07,
        options=ExecutionOptions(retries=2, backoff=0.05, failover=True,
                                 partial_results=True, query_deadline=30.0,
                                 breaker=True),
        replication_factor=2,
        chaos=True,
        trace_rounds=40,
    ),
    Workload(
        name="foaf-serial",
        data=lambda seed, rnd: foaf_parts(derive(seed, "foaf-data", rnd)),
        data_per_round=True,
        num_index=32,
        queries=paper_query_mix(),
        concurrency=1,
        jobs=2,
        round_s=2.9,
        options=ExecutionOptions(),
        balanced=True,
        storage_initiators=False,
    ),
)}


# ------------------------------------------------------------ answer check


def canonical(result) -> Counter:
    """The answer as a multiset of variable-name-sorted rows."""
    return Counter(
        tuple(sorted((v.name, t.n3()) for v, t in mu.items()))
        for mu in result.rows
    )


def oracle_answers(system: HybridSystem, queries) -> Dict[str, Counter]:
    """Each query's answer over the union of every provider's triples."""
    graph = system.union_graph()
    return {
        label: canonical(evaluate_query(parse_query(text, COMMON_PREFIXES),
                                        graph))
        for label, text in queries
    }


def classify(job, oracle: Dict[str, Counter]) -> str:
    """Exact, flagged subset, wrong, typed failure or shed."""
    if job.shed:
        return "shed"
    if job.error is not None:
        return "failure"
    got = canonical(job.result)
    want = oracle[job.label]
    if got == want:
        return "exact"
    if job.report is not None and job.report.incomplete and all(
            want[row] >= n for row, n in got.items()):
        return "subset"
    return "wrong"


# ---------------------------------------------------------------- running

#: After each round, a run owes this share of ``round_s`` in timed
#: set-ups of the round's data, built back to back while any is owed
#: (a set-up longer than the share leaves a debt for later rounds), so
#: that the set-ups sample the machine's load across the whole run, as
#: the rounds and the reference units do; ``setup_s`` is their median.
SETUP_SHARE = 0.05
#: A run times at least this many set-ups, adding some after its last
#: round when its slices held fewer.
MIN_SETUPS = 3


#: ``ExecutionReport`` fields summed over a round's query jobs.
EXECUTION_FIELDS = ("lookup_hops", "lookup_cache_hits", "lookup_cache_misses",
                    "rows_pruned", "digest_bytes", "retries")


@dataclass
class RoundResult:
    """What one round measured; the ``WorkloadReport`` itself is dropped
    so that memory does not grow with the number of rounds."""

    #: Timed phase of each ``run_workload`` call: its mean over passes.
    call_wall_s: List[float]
    sim_s: float
    messages: int
    bytes_total: int
    #: (job id, label, outcome, simulated latency), query jobs only.
    outcomes: List[Tuple[int, str, str, float]]
    faults: Dict[str, int]
    failover: Dict[str, int]
    cache: Dict[str, int]
    contention: Dict[str, float]
    executions: Dict[str, int]
    #: Network byte totals by message kind over the round.
    kind_bytes: Dict[str, int]
    #: ``len(NetworkStats.records)`` at the end of the round.
    records: int

    @property
    def wall_s(self) -> float:
        return sum(self.call_wall_s)

    def simulated(self):
        """Everything on the simulated clock, for exact comparisons."""
        return (self.sim_s, self.messages, self.bytes_total, self.outcomes,
                self.faults, self.failover, self.cache, self.contention,
                self.executions, self.kind_bytes, self.records)


@dataclass
class RunResult:
    rounds: List[RoundResult]
    setup_s: List[float]
    #: Peak resident memory of the process, in MB.
    peak_rss_mb: float
    #: The run's ``ReferenceClock.slowdown``: wall seconds over
    #: reference seconds.
    slowdown: float
    #: False when a repeated round differed on the simulated clock.
    deterministic: bool = True


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _untraced(phase: str):
    return contextlib.nullcontext()


def _round_result(call_wall_s: List[float], reports, oracle,
                  system) -> RoundResult:
    queries = [job for report in reports for job in report.jobs
               if job.kind == "query"]
    outcomes = [
        (job.job_id, job.label, classify(job, oracle),
         job.finished - job.submitted)
        for job in queries
    ]
    executions = {
        name: sum(getattr(job.report, name) for job in queries
                  if job.report is not None)
        for name in EXECUTION_FIELDS
    }
    contention = {}
    if reports[-1].contention:
        contention = {"wait_s": reports[-1].contention["total_wait"],
                      "max_queue_depth":
                          reports[-1].contention["max_queue_depth"]}

    def summed(attr: str) -> Dict[str, int]:
        total: Counter = Counter()
        for report in reports:
            total.update(getattr(report, attr))
        return dict(sorted(total.items()))

    stats = system.network.stats
    return RoundResult(
        call_wall_s, sum(r.duration for r in reports),
        sum(r.messages for r in reports), sum(r.bytes_total for r in reports),
        outcomes, summed("faults_injected"), summed("failover"),
        summed("cache"), contention, executions,
        dict(stats.per_kind_bytes), len(stats.records))


def run(workload: Workload, seed: int, rounds: int, passes: int = 1,
        span: Callable[[str], ContextManager] = _untraced,
        after_round: Callable[[HybridSystem], None] = lambda system: None,
        ) -> RunResult:
    """Run *rounds* rounds of *workload*, *passes* times each, checking
    every answer.

    Each pass runs every round on a fresh system; the timed phase of each
    ``run_workload`` call is its mean over the passes, and every pass
    must repeat the first exactly on the simulated clock.  Set-up is
    timed on its own, in slices between the rounds (``SETUP_SHARE``).
    Reference units run after every round and every slice, about
    ``refclock.SHARE`` of the run.  *span* wraps each round's set-up
    (``"setup"``) and its timed load (``"run"``); *after_round* sees the
    finished system.  The traced run uses both; neither is timed.
    """
    data: Dict[int, Parts] = {}
    oracles: Dict[int, Dict[str, Counter]] = {}
    clock = refclock.ReferenceClock()

    def parts_for(rnd: int) -> Tuple[int, Parts]:
        key = rnd if workload.data_per_round else 0
        if key not in data:
            data.clear()
            data[key] = workload.data(seed, rnd)
        return key, data[key]

    def run_round(rnd: int) -> RoundResult:
        key, parts = parts_for(rnd)
        gc.collect()
        with span("setup"):
            system = workload.build(parts)
        if key not in oracles:
            oracles.clear()
            oracles[key] = oracle_answers(system, workload.queries)
            gc.collect()
        reports = []
        call_wall_s = []
        for config in workload.configs(system, seed, rnd):
            with span("run"):
                start = time.perf_counter()
                reports.append(run_workload(system, config, workload.options))
                call_wall_s.append(time.perf_counter() - start)
        after_round(system)
        if workload.chaos and sum(r.duration for r in reports) >= \
                CHAOS_WINDOW_S:
            raise RuntimeError("the run outlived its fault window")
        result = _round_result(call_wall_s, reports, oracles[key], system)
        clock.keep_up(workload.round_s)
        return result

    setups: List[float] = []

    def time_setups(rnd: int, owed_s: float) -> float:
        """Time set-ups of round *rnd*'s data back to back, at least one
        and until *owed_s* seconds are spent; return the seconds spent."""
        parts = parts_for(rnd)[1]
        gc.collect()
        spent = 0.0
        while spent == 0.0 or spent < owed_s:
            start = time.perf_counter()
            workload.build(parts)
            setups.append(time.perf_counter() - start)
            spent += setups[-1]
        clock.keep_up(spent)
        return spent

    results: List[RoundResult] = []
    deterministic = True
    owed_s = 0.0
    for pass_ in range(passes):
        for rnd in range(rounds):
            again = run_round(rnd)
            if pass_ == 0:
                results.append(again)
            else:
                first = results[rnd]
                deterministic &= again.simulated() == first.simulated()
                first.call_wall_s = list(map(operator.add, first.call_wall_s,
                                             again.call_wall_s))
            owed_s += SETUP_SHARE * workload.round_s
            if owed_s > 0:
                owed_s -= time_setups(rnd, owed_s)
    for first in results:
        first.call_wall_s = [s / passes for s in first.call_wall_s]
    while len(setups) < MIN_SETUPS:
        time_setups(rounds - 1, 0.0)
    return RunResult(results, setups, peak_rss_mb(), clock.slowdown,
                     deterministic)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of *values* (q in [0, 100])."""
    data = sorted(values)
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


#: The tail percentile is p99 when a run answers at least this many
#: queries, so that ten or more answers lie beyond it; p90 otherwise.
P99_MIN_ANSWERS = 1000


def tail_percentile(answered: int) -> int:
    return 99 if answered >= P99_MIN_ANSWERS else 90


def simulated_metrics(rounds: List[RoundResult]) -> Dict[str, float]:
    """Every metric on the simulated clock; repeats exactly per seed.

    Latency and the per-query figures count answered queries (exact
    answers and flagged subsets); the ratios divide by every attempted
    query, so a wrong answer or a failure counts against them.
    """
    tally = Counter(o for r in rounds for _, _, o, _ in r.outcomes)
    attempted = sum(tally.values())
    answered = tally["exact"] + tally["subset"]
    latencies = [lat for r in rounds for _, _, outcome, lat in r.outcomes
                 if outcome in ("exact", "subset")]
    sim_s = sum(r.sim_s for r in rounds)
    messages = sum(r.messages for r in rounds)
    nbytes = sum(r.bytes_total for r in rounds)
    return {
        "sim_latency_ms.p50": percentile(latencies, 50) * 1000.0,
        "sim_latency_ms.tail": percentile(
            latencies, tail_percentile(answered)) * 1000.0,
        "sim_qps": answered / sim_s,
        "bytes_per_query": nbytes / answered,
        "messages_per_query": messages / answered,
        "answered_ratio": answered / attempted,
        "exact_ratio": tally["exact"] / attempted,
    }


def outcome_tally(rounds: List[RoundResult]) -> Dict[str, int]:
    tally = Counter(o for r in rounds for _, _, o, _ in r.outcomes)
    return {name: tally[name] for name in OUTCOMES}


def faults_injected(rounds: List[RoundResult]) -> Dict[str, int]:
    total: Counter = Counter()
    for r in rounds:
        total.update(r.faults)
    return dict(sorted(total.items()))

