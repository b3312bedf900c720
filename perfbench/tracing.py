"""Spans and counters around calls into each fraclab layer.

Everything here lives in the benchmark: the public functions of each
layer are replaced, in the worker process only, by wrappers that record
a span (name, start, end, parent) or bump a counter, and then call the
original.  Functions a caller binds with ``from ... import`` are patched
in the caller's namespace, where the name is looked up at call time.
Spans stay in memory and are written out when the worker ends.
"""

from __future__ import annotations

import functools
import json
import time


class Tracer:
    """In-memory span list plus named counters for one worker process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, int] = {}
        self.enabled = True
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        rec = [name, time.perf_counter(), 0.0,
               self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + n

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["name", "start", "end", "parent"],
                       "spans": self.spans, "counts": self.counts}, fh)


def _span(tr: Tracer, owner, attr: str, name: str, before=None) -> None:
    orig = getattr(owner, attr)

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        if before is not None and tr.enabled:
            before(*args, **kwargs)
        return tr.call(name, orig, *args, **kwargs)

    setattr(owner, attr, wrapper)


def _counted(tr: Tracer, owner, attr: str, name: str) -> None:
    orig = getattr(owner, attr)

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        tr.count(name)
        return orig(*args, **kwargs)

    setattr(owner, attr, wrapper)


RUNNERS = ("run_energy_growth", "run_density", "run_gmt_suite",
           "run_sobolev_suite", "run_barrier")


def install(tr: Tracer) -> None:
    """Patch every traced name; call once, after any result capture."""
    from fraclab import barrier, energies, kernels, setgeom
    from fraclab.lab import experiments, report

    # kernels: builds, tail tables (only the cache misses do work), extents
    _span(tr, experiments, "build_kernel", "kernels.build_kernel")
    table_cls = kernels.KernelTable
    _span(tr, table_cls, "table_for_extents", "kernels.table_for_extents")
    total_fget = table_cls.tail_weights.fget

    def tail_weights(self):
        if "total" in self._tail_cache:
            return total_fget(self)
        return tr.call("kernels.tails", total_fget, self)

    table_cls.tail_weights = property(tail_weights)
    half = table_cls.tail_halfspace

    def tail_halfspace(self, axis, threshold):
        if ("half", int(axis), float(threshold)) in self._tail_cache:
            return half(self, axis, threshold)
        return tr.call("kernels.tails", half, self, axis, threshold)

    table_cls.tail_halfspace = tail_halfspace

    # energies: model construction, evaluations, raw FFT convolutions
    model_cls = energies.EnergyModel
    _span(tr, model_cls, "__init__", "energies.model_build")
    _span(tr, model_cls, "energy", "energies.energy")
    _span(tr, model_cls, "gradient", "energies.gradient")
    _counted(tr, energies, "fftconvolve", "energies.fft_convolutions")
    _span(tr, experiments, "energy_E", "energies.energy_E")

    # minimize
    _span(tr, experiments, "minimize_energy", "minimize")

    # setgeom: pair checks (with the |A|*|D| pair count), complement
    # integrals, corpus generators
    def pair_weights(kern, A, B, *args, **kwargs):
        tr.count("setgeom.pair_weights",
                 A.count * (A.lattice.n_cells - A.count - B.count))

    _span(tr, setgeom, "check_gmt", "setgeom.check_gmt", before=pair_weights)
    _span(tr, setgeom, "sobolev_set_bound", "setgeom.sobolev_set_bound")
    for gen in ("random_cellset", "random_disjoint_pair",
                "random_equal_count_set"):
        _span(tr, setgeom, gen, "setgeom.corpus")

    # barrier: the two verifications, C5, and the scalar integrand calls
    for fn in ("estimate_C5", "verify_al1", "verify_al2"):
        _span(tr, barrier, fn, f"barrier.{fn}")
    _span(tr, barrier, "quad", "barrier.quad")
    _counted(tr, barrier, "eval_v", "barrier.eval_v.calls")

    # lab: runners and report writes
    for fn in RUNNERS:
        _span(tr, experiments, fn, f"lab.{fn}")
    _span(tr, report.ExperimentReport, "write", "lab.report_write")


def layer_metrics(tr: Tracer, iterations: int) -> dict:
    """Per-layer figures from the spans; ``iterations`` is the number of
    accepted minimizer steps, read from the minimizer results."""
    spans = tr.spans
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    child_time = [0.0] * len(spans)
    for name, t0, t1, parent in spans:
        total[name] = total.get(name, 0.0) + (t1 - t0)
        calls[name] = calls.get(name, 0) + 1
        if parent >= 0:
            child_time[parent] += t1 - t0

    def dur(name):
        return total.get(name, 0.0)

    def n(name):
        return calls.get(name, 0)

    minimize_ids = {i for i, sp in enumerate(spans) if sp[0] == "minimize"}
    minimize_self = sum((spans[i][2] - spans[i][1] - child_time[i]
                         for i in minimize_ids), 0.0)
    # one energy call per minimization scores the start; the rest are trials
    trials = sum(1 for sp in spans
                 if sp[0] == "energies.energy" and sp[3] in minimize_ids)
    trials -= len(minimize_ids)
    corpus_top = sum((t1 - t0 for name, t0, t1, parent in spans
                      if name == "setgeom.corpus"
                      and (parent < 0 or spans[parent][0] != "setgeom.corpus")),
                     0.0)

    out = {
        "kernels.build_kernel.calls": (n("kernels.build_kernel"), "count"),
        "kernels.build_kernel.s": (dur("kernels.build_kernel"), "s"),
        "kernels.tails.builds": (n("kernels.tails"), "count"),
        "kernels.tails.s": (dur("kernels.tails"), "s"),
        "kernels.table_for_extents.s": (dur("kernels.table_for_extents"), "s"),
        "energies.models": (n("energies.model_build"), "count"),
        "energies.model_build.s": (dur("energies.model_build"), "s"),
        "energies.energy.calls": (n("energies.energy"), "count"),
        "energies.energy.s": (dur("energies.energy"), "s"),
        "energies.gradient.calls": (n("energies.gradient"), "count"),
        "energies.gradient.s": (dur("energies.gradient"), "s"),
        "energies.fft_convolutions":
            (tr.counts.get("energies.fft_convolutions", 0), "count"),
        "energies.energy_E.s": (dur("energies.energy_E"), "s"),
        "minimize.calls": (len(minimize_ids), "count"),
        "minimize.s": (dur("minimize"), "s"),
        "minimize.self_s": (minimize_self, "s"),
        "minimize.iterations": (iterations, "count"),
        "minimize.backtracks": (trials - iterations, "count"),
        "minimize.accept_ratio": (iterations / trials if trials else 0.0, "ratio"),
        "setgeom.check_gmt.calls": (n("setgeom.check_gmt"), "count"),
        "setgeom.check_gmt.s": (dur("setgeom.check_gmt"), "s"),
        "setgeom.pair_weights":
            (tr.counts.get("setgeom.pair_weights", 0), "count"),
        "setgeom.sobolev_set_bound.calls":
            (n("setgeom.sobolev_set_bound"), "count"),
        "setgeom.sobolev_set_bound.s": (dur("setgeom.sobolev_set_bound"), "s"),
        "setgeom.corpus.s": (corpus_top, "s"),
        "barrier.estimate_C5.s": (dur("barrier.estimate_C5"), "s"),
        "barrier.verify_al1.s": (dur("barrier.verify_al1"), "s"),
        "barrier.verify_al2.s": (dur("barrier.verify_al2"), "s"),
        "barrier.quad.calls": (n("barrier.quad"), "count"),
        "barrier.eval_v.calls": (tr.counts.get("barrier.eval_v.calls", 0), "count"),
    }
    for fn in RUNNERS:
        out[f"lab.{fn}.s"] = (dur(f"lab.{fn}"), "s")
    out["lab.report_write.s"] = (dur("lab.report_write"), "s")
    return out
