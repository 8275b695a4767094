"""Span tracing of kernelshift's layers from outside the package.

`Tracer.install()` wraps every public function defined in each layer
module and swaps the wrapper into every kernelshift module that bound the
original (modules import names with ``from .spectral import overlap``, so
patching the defining module alone would miss most calls).
`Tracer.uninstall()` puts the originals back.

Each call records one span: name, start, end, parent span and thread.
A span opened on a worker thread with nothing open on that thread takes
as parent the innermost span open on the installing thread, which in a
closed-loop CLI run is the call that started the pool.
"""

import inspect
import itertools
import sys
import threading
import time

from stats import timing_summary

LAYERS = ("cli", "config", "measures", "kernels", "spectral", "theory",
          "optimizer", "empirical", "io")

# Span name -> function(args, kwargs, result) giving the span's work count.
_WORK = {
    # Sum of 2 n m^2 over overlap builds: n test rows, m modes.
    "spectral.overlap": lambda a, k, r: 2 * _overlap_rows(a, k)
    * r.O.shape[0] ** 2,
    "spectral.mercer_decompose": lambda a, k, r: r.support.size ** 3,
    "empirical.krr_solve": lambda a, k, r: len(a[0]) ** 3,
    "kernels.gram": lambda a, k, r: r.size,
    "io.write_text_atomic": lambda a, k, r: len(a[1].encode()),
}


def _overlap_rows(args, kwargs):
    phi_test = kwargs.get("Phi_test", args[2] if len(args) > 2 else None)
    return (args[0].Phi if phi_test is None else phi_test).shape[0]


class Tracer:
    """Wraps the layers' public functions and records spans in memory."""

    def __init__(self):
        self.spans = []     # (id, name, start, end, parent, thread, work)
        self._ids = itertools.count()
        self._local = threading.local()
        self._root_stack = None
        self._patched = []  # (namespace, attribute, original)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, func):
        work = _WORK.get(name)
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif stack is not tracer._root_stack and tracer._root_stack:
                parent = tracer._root_stack[-1]
            else:
                parent = None
            span_id = next(tracer._ids)
            stack.append(span_id)
            start = time.perf_counter()
            done, result = False, None
            try:
                result = func(*args, **kwargs)
                done = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                count = work(args, kwargs, result) if work and done else 0
                tracer.spans.append((span_id, name, start, end, parent,
                                     threading.get_ident(), count))

        traced.__wrapped__ = func
        traced.__perfbench_span__ = name
        return traced

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        self._root_stack = self._stack()
        namespaces = [vars(m) for name, m in list(sys.modules.items())
                      if name == "kernelshift"
                      or name.startswith("kernelshift.")]
        for layer in LAYERS:
            module = sys.modules[f"kernelshift.{layer}"]
            for attr, func in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(func)
                        or func.__module__ != module.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", func)
                for ns in namespaces:
                    for key, value in list(ns.items()):
                        if value is func:
                            ns[key] = wrapper
                            self._patched.append((ns, key, func))

    def uninstall(self):
        for ns, key, func in reversed(self._patched):
            ns[key] = func
        self._patched = []


def leftover_wrappers():
    """Names in kernelshift modules still bound to a tracer wrapper."""
    return sorted(f"{name}.{key}"
                  for name, m in list(sys.modules.items())
                  if name == "kernelshift" or name.startswith("kernelshift.")
                  for key, value in list(vars(m).items())
                  if hasattr(value, "__perfbench_span__"))


def _union_length(intervals):
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_metrics(spans, threads, steps_accepted):
    """Per-layer metrics of one traced run, keyed by metric name.

    Self time is a span's duration minus the union of its children's
    intervals clipped to it, so overlapping pool children count once.
    Self times of spans on different pool threads add up, so a layer's
    total can exceed the run's wall time.
    """
    by_id = {s[0]: s for s in spans}
    children = {}
    for s in spans:
        children.setdefault(s[4], []).append(s)

    def self_time(s):
        kids = [(max(c[2], s[2]), min(c[3], s[3]))
                for c in children.get(s[0], ())]
        return (s[3] - s[2]) - _union_length([k for k in kids
                                              if k[1] > k[0]])

    def parent_name(s):
        return by_id[s[4]][1] if s[4] in by_id else None

    calls, selfs, work, durations = {}, {}, {}, {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        name = s[1]
        st = self_time(s)
        calls[name] = calls.get(name, 0) + 1
        selfs[name] = selfs.get(name, 0.0) + st
        work[name] = work.get(name, 0) + s[6]
        durations.setdefault(name, []).append(s[3] - s[2])
        layer_self[name.split(".")[0]] += st

    m = {}
    for name in ("spectral.overlap", "spectral.project_target",
                 "theory.residual_moments", "spectral.mercer_decompose",
                 "measures.from_logits", "theory.predict_Eg_dataset",
                 "theory.predict_Eg", "theory.solve_kappa",
                 "optimizer.fd_gradient", "empirical.discrete_trial_error",
                 "empirical.krr_solve", "kernels.gram"):
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.self_s"] = selfs.get(name, 0.0)
    m["spectral.overlap.flops"] = work.get("spectral.overlap", 0)
    m["spectral.mercer_decompose.n3_sum"] = work.get(
        "spectral.mercer_decompose", 0)
    m["empirical.krr_solve.n3_sum"] = work.get("empirical.krr_solve", 0)
    m["kernels.gram.entries"] = work.get("kernels.gram", 0)
    for name in ("theory.predict_Eg_dataset",
                 "empirical.discrete_trial_error"):
        lat = timing_summary(durations.get(name, []))
        m[f"{name}.lat_p50_ms"] = 1e3 * lat["p50"]
        m[f"{name}.lat_tail_ms"] = 1e3 * lat["tail"]
        m[f"{name}.lat_tail_pct"] = lat["tail_pct"]
        m[f"{name}.lat_n"] = lat["n"]

    # The optimizer's loss is a closure, so its evaluations are counted as
    # the predictions made directly under the optimizer's public calls.
    fd = "optimizer.fd_gradient"
    top = "optimizer.optimize_train_measure"
    preds = [s for s in spans if s[1] == "theory.predict_Eg_dataset"]
    fd_evals = sum(parent_name(s) == fd for s in preds)
    top_evals = sum(parent_name(s) == top for s in preds)
    linesearch = max(top_evals - calls.get(top, 0), 0)  # minus start points
    m["optimizer.loss_evals"] = fd_evals + top_evals
    m["optimizer.fd_evals"] = fd_evals
    m["optimizer.linesearch_evals"] = linesearch
    m["optimizer.steps_accepted"] = steps_accepted
    m["optimizer.accept_ratio"] = steps_accepted / linesearch \
        if linesearch else 0.0
    m["optimizer.pool_busy_frac"] = _busy_frac(spans, children, fd,
                                               threads)

    m["empirical.pool_busy_frac"] = _busy_frac(
        spans, children, "empirical.run_learning_curve", threads)
    m["config.parse_config.self_s"] = selfs.get("config.parse_config", 0.0)
    m["config.build_dataset.self_s"] = selfs.get("config.build_dataset",
                                                 0.0)
    m["cli.main.self_s"] = selfs.get("cli.main", 0.0)
    m["io.write.calls"] = calls.get("io.write_text_atomic", 0)
    m["io.write.self_s"] = selfs.get("io.write_text_atomic", 0.0)
    m["io.bytes_written"] = work.get("io.write_text_atomic", 0)
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = layer_self[layer]
    return m


def _busy_frac(spans, children, owner, threads):
    """Time the owner's direct children ran over owner wall x threads."""
    owners = [s for s in spans if s[1] == owner]
    wall = sum(s[3] - s[2] for s in owners)
    busy = sum(c[3] - c[2] for s in owners for c in children.get(s[0], ()))
    return busy / (wall * threads) if wall else 0.0
