"""Load-harness tests: deterministic schedules, both arrival processes,
admission control, and the aggregate report."""

import pytest

from repro.metrics.counters import summarize
from repro.net import ContentionModel
from repro.workloads import LoadConfig, run_workload
from repro.workloads.load import build_jobs

from helpers import build_system
from test_lifecycle_leaks import CLEAN, live_heap, peer_state


class TestBuildJobs:
    def test_same_seed_same_schedule(self):
        config = LoadConfig(mode="open", num_queries=20, seed=42)
        a, b = build_jobs(config), build_jobs(config)
        assert [(j.label, j.initiator, j.arrival) for j in a] == \
               [(j.label, j.initiator, j.arrival) for j in b]

    def test_different_seed_different_schedule(self):
        a = build_jobs(LoadConfig(mode="open", num_queries=20, seed=1))
        b = build_jobs(LoadConfig(mode="open", num_queries=20, seed=2))
        assert [(j.label, j.arrival) for j in a] != \
               [(j.label, j.arrival) for j in b]

    def test_open_arrivals_increase(self):
        jobs = build_jobs(LoadConfig(mode="open", num_queries=10, seed=0))
        arrivals = [j.arrival for j in jobs]
        assert arrivals == sorted(arrivals)
        assert arrivals[-1] > 0.0

    def test_closed_mode_has_no_arrival_times(self):
        jobs = build_jobs(LoadConfig(mode="closed", num_queries=5))
        assert all(j.arrival == 0.0 for j in jobs)

    def test_initiators_round_robin(self):
        jobs = build_jobs(LoadConfig(initiators=("a", "b"), num_queries=4))
        assert [j.initiator for j in jobs] == ["a", "b", "a", "b"]

    def test_validation(self):
        with pytest.raises(ValueError):
            build_jobs(LoadConfig(queries=[]))
        with pytest.raises(ValueError):
            build_jobs(LoadConfig(mode="sideways"))


class TestClosedLoop:
    def test_all_jobs_complete(self):
        system = build_system()
        report = run_workload(
            system, LoadConfig(mode="closed", concurrency=4, num_queries=12))
        assert report.completed == 12
        assert report.failed == report.shed == 0
        assert report.peak_in_flight == 4
        assert report.throughput > 0
        assert report.messages > 0 and report.bytes_total > 0
        assert peer_state(system) == CLEAN
        assert live_heap(system.sim) == []

    def test_latency_percentiles_populated(self):
        report = run_workload(
            build_system(),
            LoadConfig(mode="closed", concurrency=4, num_queries=12))
        lat = report.latency
        assert lat is not None and lat.count == 12
        assert 0 < lat.p50 <= lat.p95 <= lat.p99 <= lat.maximum

    def test_mutation_jobs_are_not_counted_as_queries(self):
        config = LoadConfig(mode="closed", concurrency=2, num_queries=40,
                            mutation_rate=0.1, seed=3)
        report = run_workload(build_system(), config)
        queries = [j for j in report.jobs if j.kind == "query" and j.ok]
        assert report.mutations > 0
        assert report.completed == len(queries)
        assert report.completed + report.mutations == len(report.jobs)
        assert report.latency == summarize([j.latency for j in queries])
        assert report.throughput == report.completed / report.duration
        assert report.queries_per_wall_second == (
            report.completed / report.wall_clock_s)

    def test_deterministic_end_to_end(self):
        config = LoadConfig(mode="closed", concurrency=8, num_queries=16, seed=5)
        reports = []
        for _ in range(2):
            system = build_system()
            system.network.contention = ContentionModel()
            reports.append(run_workload(system, config))
        a, b = reports
        assert a.duration == b.duration
        assert a.messages == b.messages and a.bytes_total == b.bytes_total
        assert a.latency == b.latency
        assert a.contention == b.contention
        assert [j.finished for j in a.jobs] == [j.finished for j in b.jobs]

    def test_contention_slows_the_contended_run(self):
        config = LoadConfig(mode="closed", concurrency=8, num_queries=16, seed=5)
        free = run_workload(build_system(), config)
        contended_system = build_system()
        contended_system.network.contention = ContentionModel()
        contended = run_workload(contended_system, config)
        # Same work either way...
        assert contended.messages == free.messages
        assert contended.bytes_total == free.bytes_total
        # ...but queueing makes the contended run measurably slower.
        assert contended.contention["total_wait"] > 0
        assert contended.duration > free.duration
        assert contended.latency.p95 >= free.latency.p95


class TestOpenLoop:
    def test_poisson_arrivals_complete(self):
        system = build_system()
        report = run_workload(
            system,
            LoadConfig(mode="open", arrival_rate=30.0, num_queries=10, seed=2))
        assert report.completed == 10
        assert peer_state(system) == CLEAN

    def test_admission_control_sheds_overload(self):
        system = build_system()
        report = run_workload(
            system,
            LoadConfig(mode="open", arrival_rate=500.0, num_queries=40,
                       seed=0, max_in_flight=2, queue_limit=3))
        assert report.peak_in_flight <= 2
        assert report.max_admission_queue <= 3
        assert report.shed > 0
        assert report.completed + report.failed + report.shed == 40
        shed_jobs = [j for j in report.jobs if j.shed]
        assert len(shed_jobs) == report.shed
        assert all(not j.ok and j.latency is None for j in shed_jobs)
        # Shedding never leaks: every admitted job still finished clean.
        assert peer_state(system) == CLEAN
        assert live_heap(system.sim) == []

    def test_unbounded_queue_defers_without_shedding(self):
        report = run_workload(
            build_system(),
            LoadConfig(mode="open", arrival_rate=500.0, num_queries=20,
                       seed=0, max_in_flight=2))
        assert report.shed == 0
        assert report.deferred > 0
        assert report.completed == 20


class TestWorkloadReport:
    def test_as_dict_round_trips_to_json(self):
        import json

        report = run_workload(
            build_system(), LoadConfig(mode="closed", concurrency=2,
                                       num_queries=6))
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["jobs"] == 6
        assert payload["completed"] == 6
        assert payload["latency"]["p95"] >= payload["latency"]["p50"]

    def test_per_label_counts(self):
        report = run_workload(
            build_system(), LoadConfig(mode="closed", concurrency=2,
                                       num_queries=8, seed=3))
        counts = report.per_label()
        assert sum(counts.values()) == 8


class TestBenchLoadCli:
    def test_bench_load_subcommand(self, tmp_path, capsys):
        from repro.cli import main
        from repro.rdf import serialize_ntriples
        from repro.workloads import paper_example_partition

        args = []
        for storage_id, triples in paper_example_partition().items():
            path = tmp_path / f"{storage_id}.nt"
            path.write_text(serialize_ntriples(triples), encoding="utf-8")
            args += ["--data", str(path)]
        code = main(["bench-load", *args, "--mode", "closed",
                     "--concurrency", "4", "--num-queries", "8"])
        out = capsys.readouterr().out
        assert code == 0
        assert "completed=8" in out
        assert "throughput=" in out
        assert "p95=" in out
        assert "contention:" in out
