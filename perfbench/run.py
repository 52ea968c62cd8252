"""Run one benchmark workload and print its metrics as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload contention-mix --seed 1 \\
        --seconds 16 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run.
``--trace 1`` runs the workload's first rounds twice, untraced and then
with per-layer spans, checks that tracing changed nothing on the
simulated clock, and prints the per-layer metrics.  The last line of
standard output is always one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``NOTES.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: End-to-end metric name -> unit.
END_TO_END_UNITS = {
    "queries_per_s": "q/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_latency_ms.p50": "sim_ms",
    "sim_latency_ms.tail": "sim_ms",
    "sim_qps": "q/sim_s",
    "bytes_per_query": "B",
    "messages_per_query": "count",
    "answered_ratio": "ratio",
    "exact_ratio": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_suite():
    """The benchmark's modules, importing the program from ``src/``
    of this checkout and from nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import suite

    import repro

    if src not in pathlib.Path(repro.__file__).resolve().parents:
        raise ImportError(f"repro was imported from {repro.__file__}, "
                          f"not from {src}")
    return suite


def end_to_end(suite, result):
    """Every end-to-end metric; the two timings in reference seconds."""
    rounds = result.rounds
    tally = suite.outcome_tally(rounds)
    answered = tally["exact"] + tally["subset"]
    values = {
        "queries_per_s": (answered * result.slowdown
                          / sum(r.wall_s for r in rounds)),
        "setup_s": statistics.median(result.setup_s) / result.slowdown,
        "peak_rss_mb": result.peak_rss_mb,
    }
    values.update(suite.simulated_metrics(rounds))
    return values


def simulated_digest(rounds) -> str:
    """A digest of everything a run measured on the simulated clock:
    equal digests mean identical answers, latencies, bytes, messages,
    fault tallies and ledgers."""
    text = repr([r.simulated() for r in rounds])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        suite = import_suite()
    except ImportError as exc:
        print(f"error: cannot import the program under test: {exc}",
              file=sys.stderr)
        return 2
    workload = suite.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(suite.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.trace:
        import layers

        correct, tally, values = layers.traced_run(suite, workload, args.seed)
        units = layers.PER_LAYER_UNITS
        print(f"{workload.name} seed={args.seed} traced "
              f"rounds={workload.trace_rounds} outcomes={tally}")
    else:
        rounds = workload.rounds(args.seconds)
        result = suite.run(workload, args.seed, rounds, suite.PASSES)
        tally = suite.outcome_tally(result.rounds)
        values = end_to_end(suite, result)
        units = END_TO_END_UNITS
        # Wrong answers are failed operations, not a broken measurement;
        # the run is incorrect when a repeated round differed or its byte
        # ledger does not add up.
        correct = result.deterministic and all(
            sum(r.kind_bytes.values()) == r.bytes_total
            for r in result.rounds)
        answered = tally["exact"] + tally["subset"]
        print(f"{workload.name} seed={args.seed} rounds={rounds} "
              f"passes={suite.PASSES} "
              f"outcomes={tally} "
              f"faults={suite.faults_injected(result.rounds)} "
              f"tail=p{suite.tail_percentile(answered)} "
              f"slowdown={result.slowdown:.3f}")
        print(f"simulated-digest {simulated_digest(result.rounds)}")
    for name, unit in units.items():
        print(f"  {name:<40} {values[name]:>16.6g} {unit}")
    attempted = sum(tally.values())
    failed = tally["wrong"] + tally["failure"] + tally["shed"]
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
