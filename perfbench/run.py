"""fraclab benchmark: one workload, end-to-end or per-layer figures.

    python3 perfbench/run.py --workload {minimize,bounds}
        --seed N --seconds S --trace {0,1}

Every round runs in a fresh worker process (``worker.py``) with one
thread and the BLAS pool pinned to one thread, so each round pays what a
command-line run pays.  With ``--trace 0`` the run starts rounds until
``--seconds`` have passed since the first one began (at least
MIN_ROUNDS), each followed by SETUPS_PER_ROUND workers that only set
up, and reports the median of each metric over the rounds; setup_s is
the median over every worker the run started.
With ``--trace 1`` it runs plain, traced and plain rounds and reports
the per-layer figures of the traced round, plus its wall time minus
the mean of the two plain ones as trace.overhead_s.  The last line of standard
output is one JSON object with correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("minimize", "bounds")
MIN_ROUNDS = 2
SETUPS_PER_ROUND = 2  # set-up-only workers after each round, for setup_s
DEADLINE_S = 170.0  # a run must end within 180 s


def run_worker(args: argparse.Namespace, extra: list[str], deadline: float) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          check=True, timeout=max(1.0, deadline - spawned))
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    line["setup_s"] = line["ready"] - spawned
    return line


def measure(args: argparse.Namespace, deadline: float):
    rounds, setups = [], []
    start = time.monotonic()
    while len(rounds) < MIN_ROUNDS or time.monotonic() - start < args.seconds:
        rounds.append(run_worker(args, [], deadline))
        setups.append(rounds[-1]["setup_s"])
        setups += [run_worker(args, ["--setup-only"], deadline)["setup_s"]
                   for _ in range(SETUPS_PER_ROUND)]
    metrics = {name: (statistics.median(r[name] for r in rounds), unit)
               for name, unit in (("wall_s", "s"), ("cpu_s", "s"),
                                  ("peak_rss_mb", "MiB"))}
    metrics["setup_s"] = (statistics.median(setups), "s")
    return rounds, metrics


def trace(args: argparse.Namespace, deadline: float):
    # plain, traced, plain: a steady drift of machine speed cancels out
    # of the overhead
    rounds = [run_worker(args, extra, deadline)
              for extra in ([], ["--trace", "1"], [])]
    traced = rounds[1]
    metrics = dict(traced["layers"])
    overhead = traced["wall_s"] - 0.5 * (rounds[0]["wall_s"] + rounds[2]["wall_s"])
    metrics["trace.overhead_s"] = (overhead, "s")
    return rounds, metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    try:
        rounds, metrics = (trace if args.trace else measure)(args, deadline)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark worker failed: {exc}", file=sys.stderr)
        return 1
    for r in rounds:
        for err in r["errors"]:
            print(f"{args.workload}: {err}", file=sys.stderr)
    print(json.dumps({
        "correct": all(r["correct"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
