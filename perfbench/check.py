"""Seed, determinism and tracing checks for the benchmark.

Usage, from the root of a checkout::

    python3 perfbench/check.py [--seed 1] [--second-seed 2] [--seconds 4]

For every workload, in separate processes:

* two untraced runs with ``--seed`` must print the same
  ``simulated-digest`` (identical answers, simulated latencies, bytes,
  messages, fault tallies and ledgers);
* an untraced run with ``--second-seed`` must check every answer, so a
  claim can be confirmed on a seed not used while the change was made;
* a traced run with ``--seed`` must report ``correct``: tracing changed
  nothing on the simulated clock and every layer fired, or read zero,
  as ``layers.FIRES`` predicts.

Exits with 1 when any check fails.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
WORKLOADS = ("contention-mix", "zipf-rw", "chaos-harsh", "foaf-serial")


def run(workload: str, seed: int, seconds: float, trace: int):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    digest = next((line.split()[1] for line in lines
                   if line.startswith("simulated-digest ")), None)
    return json.loads(lines[-1]), digest, lines[0], out.stderr


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--second-seed", type=int, default=2)
    parser.add_argument("--seconds", type=float, default=4.0)
    args = parser.parse_args(argv)
    failures = []
    for workload in WORKLOADS:
        first, digest_a, summary, _ = run(workload, args.seed,
                                          args.seconds, 0)
        _, digest_b, _, _ = run(workload, args.seed, args.seconds, 0)
        print(summary)
        if digest_a != digest_b:
            failures.append(f"{workload}: seed {args.seed} is not "
                            "deterministic")
        second, _, summary, _ = run(workload, args.second_seed,
                                    args.seconds, 0)
        print(summary)
        if not (second["correct"] and second["attempted"] > 0):
            failures.append(f"{workload}: seed {args.second_seed} failed "
                            "its answer check")
        traced, _, summary, stderr = run(workload, args.seed,
                                         args.seconds, 1)
        print(summary)
        if not traced["correct"]:
            failures.append(f"{workload}: traced run failed: "
                            f"{stderr.strip()}")
    for failure in failures:
        print(f"FAIL {failure}")
    print("all checks passed" if not failures else
          f"{len(failures)} checks failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
