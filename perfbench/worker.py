"""One benchmark worker process: set up, run one round of a workload, report.

A round is the workload's operations in order (see ``workloads.py``).
The worker prints one JSON line with its figures; ``run.py`` starts the
workers and combines their lines.  With ``--setup-only`` it sets up as
for a round, prints the time it was ready and exits: one more set-up
sample for ``setup_s``.

    python3 perfbench/worker.py --workload NAME --seed N [--trace 1]
        [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import fraclab  # noqa: E402
from fraclab.lab import experiments  # noqa: E402

if not os.path.abspath(fraclab.__file__).startswith(SRC + os.sep):
    raise SystemExit(f"fraclab came from {fraclab.__file__}, not from {SRC}")

import tracing  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402

OUT_DIR = os.path.join(HERE, "out")


class Capture:
    """Kernels and minimizer results the runners make, for the checks.

    Installed in both modes: the checks need them, and the cost is one
    list append per kernel build or minimization.
    """

    def __init__(self):
        self.kernels = []
        self.results = []
        build, minimize = experiments.build_kernel, experiments.minimize_energy

        def build_kernel(*args, **kwargs):
            kern = build(*args, **kwargs)
            self.kernels.append(kern)
            return kern

        def minimize_energy(*args, **kwargs):
            res = minimize(*args, **kwargs)
            self.results.append(res)
            return res

        experiments.build_kernel = build_kernel
        experiments.minimize_energy = minimize_energy

    def take(self):
        kernels, results = self.kernels, self.results
        self.kernels, self.results = [], []
        return kernels, results


class Paused:
    """Keeps the checks' own calls into fraclab out of the trace, if any."""

    def __init__(self, tr):
        self.tr = tr

    def __enter__(self):
        if self.tr:
            self.tr.enabled = False

    def __exit__(self, *exc):
        if self.tr:
            self.tr.enabled = True


def run_operation(index, op, seed, out_dir, capture):
    """One operation's runner call and report write, with the report read back.

    Returns (cfg, rep, kernels, results, rng): what a property check takes.
    The rng is seeded by the run's seed and the operation's index.
    """
    name, runner, cfg, _ = op
    try:
        report = getattr(experiments, runner)(cfg)
        path = report.write(os.path.join(out_dir, name))["report"]
    finally:
        kernels, results = capture.take()
    with open(path, encoding="utf-8") as fh:
        rep = json.load(fh)
    return cfg, rep, kernels, results, np.random.default_rng([seed, index])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, report the time it was ready, and exit")
    args = p.parse_args(argv)

    ops = workloads.operations(args.workload, args.seed)
    capture = Capture()
    tr = None
    if args.trace:
        tr = tracing.Tracer()
        tracing.install(tr)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    failed, errors, wrong, iterations = 0, [], [], 0
    out_dir = os.path.join(OUT_DIR, args.workload)
    t0, c0 = time.perf_counter(), time.process_time()
    for index, op in enumerate(ops):
        name, props = op[0], op[3]
        try:
            cfg, rep, kernels, results, rng = run_operation(
                index, op, args.seed, out_dir, capture)
        except Exception as exc:  # a failed operation is counted, not fatal
            failed += 1
            errors.append(f"{name}: {type(exc).__name__}: {exc}")
            continue
        iterations += sum(r.iterations for r in results)
        with Paused(tr):
            try:
                if not rep["passed"]:
                    raise CheckFailed("report criteria failed: " + "; ".join(
                        c["detail"] for c in rep["criteria"] if not c["passed"]))
                for prop in props:
                    prop(cfg, rep, kernels, results, rng)
            except Exception as exc:  # a check that breaks is a wrong output
                wrong.append(f"{name}: {type(exc).__name__}: {exc}")
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0

    line = {
        "ready": ready,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(ops),
        "failed": failed,
        "correct": not wrong,
        "errors": errors + wrong,
    }
    if tr is not None:
        line["layers"] = tracing.layer_metrics(tr, iterations)
        os.makedirs(OUT_DIR, exist_ok=True)
        tr.write(os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json"))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
