"""Spans and call counters around drqp's layer boundaries.

The tracer wraps public functions at the module attributes through which
one layer calls another (``drqp.solvers.factorize``, ``drqp.report.dr_solve``
and so on), so the program itself is untouched.  Two kinds of wrapper exist:

* a *span* records name, start, end, parent and workload id for every call;
* a *counter* is for the hot kernels (``spmv``, ``Factorization.solve``,
  the cone projection, ...) and only aggregates call count and time.

Both kinds push a frame on one stack, so the self time of a span is its
duration minus the time covered by everything called beneath it.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

import drqp.datagen
import drqp.model
import drqp.net
import drqp.report
import drqp.solvers
import drqp.sparse


class Tracer:
    def __init__(self, workload: str, t0: float):
        self.workload = workload
        self.t0 = t0
        self.spans = []          # finished spans, kept in memory until the run ends
        self._stack = []         # open frames: [span id, child seconds]
        self._next_id = 0
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.sums = defaultdict(float)  # observed quantities, e.g. iterations
        self.missing = set()            # traced attributes the program lacks

    def reset_totals(self) -> None:
        for table in (self.calls, self.total, self.self_time, self.sums):
            table.clear()

    def _wrap(self, fn, name_of, observe, record: bool):
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            name = name_of(args, kwargs)
            frame = [self._next_id, 0.0]
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                self.calls[name] += 1
                self.total[name] += dur
                self.self_time[name] += dur - frame[1]
                if record:
                    self.spans.append((frame[0], name, start - self.t0,
                                       end - self.t0, parent))
            if observe is not None:
                observe(self, name, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def span(self, name, fn, observe=None, name_of=None):
        return self._wrap(fn, name_of or (lambda a, k: name), observe, True)

    def counter(self, name, fn):
        return self._wrap(fn, lambda a, k: name, None, False)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, name, start, end, parent in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "workload": self.workload}) + "\n")


def _iterations(tracer, name, report):
    tracer.sums[name + ".iters"] += report.iterations


def _sigma_iterations(tracer, name, estimate):
    tracer.sums[name + ".iters"] += estimate.iterations_used


def _dr_name(args, kwargs):
    warm = kwargs.get("warm", args[2] if len(args) > 2 else None)
    return "solvers.dr.warm" if warm is not None else "solvers.dr"


@contextmanager
def instrumented(tracer: Tracer):
    """Every traced attribute wrapped for the duration of the block."""
    restore = instrument(tracer)
    try:
        yield
    finally:
        restore()


def instrument(tracer: Tracer):
    """Patch every traced attribute; returns a function that restores them."""
    mods = {"datagen": drqp.datagen, "model": drqp.model, "net": drqp.net,
            "report": drqp.report, "solvers": drqp.solvers, "sparse": drqp.sparse}
    originals = {}

    def patch(target, make):
        mod, attr = target.rsplit(".", 1)
        owner = (drqp.sparse.Factorization if mod == "sparse.Factorization"
                 else mods[mod])
        fn = getattr(owner, attr, None)
        if fn is None:  # the program no longer calls through this attribute
            tracer.missing.add(target)
            return
        originals[(owner, attr)] = fn
        setattr(owner, attr, make(fn))

    def spans(name, targets, **kw):
        for t in targets:
            patch(t, lambda fn: tracer.span(name, fn, **kw))

    def counters(name, targets):
        for t in targets:
            patch(t, lambda fn: tracer.counter(name, fn))

    # pipeline stages, called by the benchmark through these module attributes
    spans("datagen.generate", ["datagen.generate"])
    spans("datagen.label", ["datagen.label_bundle"])
    spans("datagen.split", ["datagen.split_bundle"])
    spans("datagen.write", ["datagen.write_bundle"])
    spans("datagen.read", ["datagen.read_bundle"])
    spans("report.prepare", ["report.prepare_data"])
    spans("report.compare", ["report.run_compare"])
    spans("net.train", ["net.train"])
    spans("report.eval", ["report.run_eval"])
    # calls between layers
    spans("model.to_conic", ["datagen.to_conic", "report.to_conic"])
    spans("model.assemble", ["datagen.assemble_inclusion", "report.assemble_inclusion"])
    spans("sparse.sigma_max", ["model.estimate_sigma_max"], observe=_sigma_iterations)
    spans("sparse.factorize", ["solvers.factorize"])
    spans("solvers.dr", ["datagen.dr_solve", "report.dr_solve"],
          observe=_iterations, name_of=_dr_name)
    spans("solvers.drgd", ["report.drgd_solve"], observe=_iterations)
    spans("net.forward.train", ["net.forward"])
    spans("net.backward", ["net.backward"])
    spans("net.adam", ["net.adam_step"])
    spans("net.forward.infer", ["report.forward"])
    spans("report.complete_dual", ["report.complete_zero_cone_dual"])
    # hot kernels: aggregated, no span per call
    counters("sparse.spmv", ["sparse.spmv", "sparse.spmv_t", "solvers.spmv",
                             "solvers.spmv_t", "report.spmv"])
    counters("sparse.solve", ["sparse.Factorization.solve"])
    counters("model.project", ["solvers.project_cone_dual", "report.project_cone_dual",
                               "net.project_cone_dual_rows"])
    counters("model.quality", ["solvers.quality"])
    counters("solvers.linesearch", ["solvers.exact_linesearch_step"])

    def restore():
        for (owner, attr), fn in originals.items():
            setattr(owner, attr, fn)

    return restore


def layer_metrics(t: Tracer, bundle_bytes: int) -> dict:
    """Per-layer metrics of one traced pass, keyed as in BENCHMARK.json."""
    calls, total, self_t, sums = t.calls, t.total, t.self_time, t.sums

    def mean(name, scale):
        return scale * total[name] / calls[name] if calls[name] else 0.0

    dr_calls = calls["solvers.dr"] + calls["solvers.dr.warm"]
    dr_time = total["solvers.dr"] + total["solvers.dr.warm"]
    dr_iters = sums["solvers.dr.iters"] + sums["solvers.dr.warm.iters"]
    samples = calls["net.backward"]
    return {
        "sparse.sigma_max.ms": mean("sparse.sigma_max", 1e3),
        "sparse.sigma_max.calls": calls["sparse.sigma_max"],
        "sparse.sigma_max.iters": (sums["sparse.sigma_max.iters"]
                                   / max(calls["sparse.sigma_max"], 1)),
        "sparse.factorize.ms": mean("sparse.factorize", 1e3),
        "sparse.factorize.calls": calls["sparse.factorize"],
        "sparse.solve.us": mean("sparse.solve", 1e6),
        "sparse.solve.calls": calls["sparse.solve"],
        "sparse.spmv.us": mean("sparse.spmv", 1e6),
        "sparse.spmv.calls": calls["sparse.spmv"],
        "model.to_conic.ms": mean("model.to_conic", 1e3),
        "model.to_conic.calls": calls["model.to_conic"],
        "model.assemble.self_ms": 1e3 * self_t["model.assemble"] / max(calls["model.assemble"], 1),
        "model.assemble.calls": calls["model.assemble"],
        "model.project.us": mean("model.project", 1e6),
        "model.project.calls": calls["model.project"],
        "model.quality.us": mean("model.quality", 1e6),
        "model.quality.calls": calls["model.quality"],
        "solvers.dr.calls": dr_calls,
        "solvers.dr.iters": sums["solvers.dr.iters"] / max(calls["solvers.dr"], 1),
        # the loop's cost per iteration: the factorization is a one-off
        "solvers.dr.iter_us": 1e6 * (dr_time - total["sparse.factorize"]) / max(dr_iters, 1),
        "solvers.dr.self_ms": 1e3 * (self_t["solvers.dr"] + self_t["solvers.dr.warm"]) / max(dr_calls, 1),
        "solvers.drgd.calls": calls["solvers.drgd"],
        "solvers.drgd.iters": sums["solvers.drgd.iters"] / max(calls["solvers.drgd"], 1),
        "solvers.drgd.iter_us": 1e6 * total["solvers.drgd"] / max(sums["solvers.drgd.iters"], 1),
        "solvers.linesearch.us": mean("solvers.linesearch", 1e6),
        "solvers.linesearch.calls": calls["solvers.linesearch"],
        "solvers.warm.iters": sums["solvers.dr.warm.iters"] / max(calls["solvers.dr.warm"], 1),
        "net.samples": samples,
        "net.forward.train_ms": mean("net.forward.train", 1e3),
        "net.backward.ms": mean("net.backward", 1e3),
        "net.adam.us": mean("net.adam", 1e6),
        "net.train.self_ms": 1e3 * self_t["net.train"] / max(samples, 1),
        "net.forward.infer_ms": mean("net.forward.infer", 1e3),
        "datagen.generate.s": total["datagen.generate"],
        "datagen.label.self_s": self_t["datagen.label"],
        "datagen.write.s": total["datagen.write"],
        "datagen.read.s": total["datagen.read"],
        "datagen.bundle_mb": bundle_bytes / 1e6,
        "report.prepare.self_s": self_t["report.prepare"],
        "report.compare.self_s": self_t["report.compare"],
        "report.eval.self_s": self_t["report.eval"],
        "report.complete_dual.us": mean("report.complete_dual", 1e6),
    }
