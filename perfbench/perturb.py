"""Show that every property check catches a deliberately wrong output.

    python3 perfbench/perturb.py [--workload NAME ...] [--seed N]

Runs each operation of the chosen workloads once, confirms that every
property check passes on the real output, then feeds each check a copy
of the output with one planted error and confirms that the check fails.
Prints one line per check and exits 1 if a check passed a planted error.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from fraclab.lattice import ScalarField  # noqa: E402

import workloads as wl  # noqa: E402
from checks import CheckFailed  # noqa: E402
from worker import OUT_DIR, Capture, run_operation  # noqa: E402


def _rows(col, fn):
    def plant(rep, kernels, results):
        for row in rep["series_rows"]:
            row[col] = fn(row)
    return plant


def _result(fn):
    def plant(rep, kernels, results):
        results[:] = [fn(r) for r in results]
    return plant


def _raise_trace(res):
    trace = res.trace.copy()
    trace[len(trace) // 2, 1] = trace[len(trace) // 2 - 1, 1] + 1e-9
    return dataclasses.replace(res, trace=trace)


def _shrink_free_cells(res):
    u = res.field.values.copy()
    u[res.omega.members] *= 1.0 - 1e-3
    return dataclasses.replace(
        res, field=ScalarField(res.field.lattice, u, res.field.exterior))


def _volumes(fn):
    def plant(rep, kernels, results):
        tr = rep["results"]["trace_theta_star"]
        tr["volumes"] = fn(tr["volumes"])
    return plant


def _result_key(path, factor):
    def plant(rep, kernels, results):
        node = rep["results"]
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] *= factor
    return plant


def _asymmetric_tables(rep, kernels, results):
    for i, kern in enumerate(kernels):
        table = kern.table.copy()
        table[table.shape[0] // 2 + 1:] *= 1.0 + 1e-6
        kernels[i] = dataclasses.replace(
            kern, table=table, _extent_cache={kern.lattice.shape: table})


def _w_column(rep, kernels, results):
    rep["series_rows"][100][2] += 1e-9


# one planted error per check: (check, what the error is, how to plant it)
PLANTS = {
    wl.growth_exponent: ("energies grow an extra R^0.3",
                         _rows(4, lambda r: r[4] * r[0] ** 0.3)),
    wl.growth_competitor: ("competitor energy off by 1e-8",
                           _rows(5, lambda r: r[5] * (1.0 + 1e-8))),
    wl.minimizer_traces: ("one accepted step raises the energy by 1e-9",
                          _result(_raise_trace)),
    wl.minimizer_stationarity: ("field on omega scaled by 1 - 1e-3",
                                _result(_shrink_free_cells)),
    wl.density_volumes: ("V(16) one cell too large", _volumes(
        lambda v: [v[0], v[1] + 0.53125 ** 2, v[2]])),
    wl.density_floor: ("every volume scaled by 0.2",
                       _volumes(lambda v: [0.2 * x for x in v])),
    wl.density_doubling: ("doubling constant off by 1e-9",
                          _result_key(("doubling_constant",), 1.0 + 1e-9)),
    wl.gmt_ratios: ("ratios off by 1e-12", _rows(10, lambda r: r[10] * (1.0 + 1e-12))),
    wl.gmt_pair_mass: ("interactions off by 1e-10",
                       _rows(8, lambda r: r[8] * (1.0 + 1e-10))),
    wl.gmt_symmetry: ("weights at positive axis-0 offsets 1e-6 high",
                      _asymmetric_tables),
    wl.sobolev_closed_form: ("centre-cell integral 2% high",
                             _result_key(("center_lhs",), 1.02)),
    wl.sobolev_corpus: ("one corpus constant halved",
                        _rows(3, lambda r: r[3] * (0.5 if r[0] == 7 else 1.0))),
    wl.barrier_c5: ("C5 off by 1e-5", _result_key(("spec", "c5"), 1.0 + 1e-5)),
    wl.barrier_al1: ("al1 worst ratio off by 1e-4",
                     _result_key(("al1", "worst_ratio"), 1.0 + 1e-4)),
    wl.barrier_al2: ("one profile w off by 1e-9", _w_column),
    wl.barrier_exterior: ("outer radius reported at half its value",
                          _result_key(("spec", "big_r"), 0.5)),
}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    capture = Capture()
    out_dir = os.path.join(OUT_DIR, "perturb")

    missed = 0
    for workload in args.workload or wl.WORKLOADS:
        for index, op in enumerate(wl.operations(workload, args.seed)):
            name, props = op[0], op[3]
            cfg, rep, kernels, results, rng = run_operation(
                index, op, args.seed, out_dir, capture)
            for prop in props:
                what, plant = PLANTS[prop]
                # the planted copy sees the samples the real output sees,
                # drawn as the worker draws them
                bad_rng = copy.deepcopy(rng)
                prop(cfg, rep, kernels, results, rng)
                bad_rep, bad_k, bad_r = copy.deepcopy(rep), list(kernels), list(results)
                plant(bad_rep, bad_k, bad_r)
                try:
                    prop(cfg, bad_rep, bad_k, bad_r, bad_rng)
                except CheckFailed as exc:
                    print(f"caught  {name:12s} {prop.__name__:24s} {what}: {exc}")
                else:
                    missed += 1
                    print(f"MISSED  {name:12s} {prop.__name__:24s} {what}")
    return 1 if missed else 0


if __name__ == "__main__":
    raise SystemExit(main())
