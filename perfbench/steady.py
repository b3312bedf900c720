"""Steadiness check: two sets of runs of the same code, compared to the bounds.

    python3 perfbench/steady.py [--workload NAME ...] [--runs 10]
        [--first-seed 1]

Runs ``run.py`` ``--runs`` times per set and workload in two sets, each
run with its own seed (no seed repeats across sets), interleaving the
workloads so a slow spell of the machine hits all of them alike.  For
every end-to-end metric it prints each set's median and quartiles, the
spread (q3 - q1) / median, and the drift of set 2's median from set
1's; a spread above the metric's bound, a drift worse than the bound,
or a failed-operation share that differs between the sets is marked
FAIL.  Bounds and run length come from BENCHMARK.json.
The raw results go to perfbench/out/steady.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", choices=names)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args(argv)
    workloads = args.workload or names

    results = {w: [[] for _ in range(SETS)] for w in workloads}
    seed = args.first_seed
    for k in range(SETS):
        for _ in range(args.runs):
            for w in workloads:
                cmd = [sys.executable, os.path.join(HERE, "run.py"),
                       "--workload", w, "--seed", str(seed),
                       "--seconds", str(bench["run_seconds"]), "--trace", "0"]
                out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                     text=True, check=True)
                line = json.loads(out.stdout.strip().splitlines()[-1])
                line["seed"] = seed
                results[w][k].append(line)
                print(f"set {k + 1} seed {seed} {w}: " + ", ".join(
                    f"{m}={v['value']:.4f}" for m, v in line["metrics"].items()),
                    flush=True)
            seed += 1

    ok = True
    print()
    for w in workloads:
        sets = results[w]
        shares = {r["failed"] / r["attempted"] for s in sets for r in s}
        correct = all(r["correct"] for s in sets for r in s)
        print(f"{w}: correct={correct}, failed share(s)={sorted(shares)}")
        ok &= correct and len(shares) == 1
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            meds = []
            for k, runs in enumerate(sets):
                q1, med, q3 = quartiles([r["metrics"][name]["value"] for r in runs])
                spread = (q3 - q1) / med
                meds.append(med)
                mark = "ok" if spread <= bound / 3 else (
                    "within bound" if spread <= bound else "FAIL")
                ok &= spread <= bound
                drift = med / meds[0] - 1.0
                if metric["better"] == "higher":
                    drift = -drift
                dmark = "ok" if drift <= bound else "FAIL"
                ok &= drift <= bound
                print(f"  {name:12s} set {k + 1}: median {med:.4f} "
                      f"q1 {q1:.4f} q3 {q3:.4f} spread {spread:.2%} "
                      f"(bound {bound:.0%}) {mark}; worse than set 1 by "
                      f"{drift:+.2%} {dmark}")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "steady.json"), "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
