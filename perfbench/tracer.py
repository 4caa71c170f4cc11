"""Boundary tracer for magspec, installed from outside the package.

A `Probe` replaces, for the duration of one workload repetition, every
function that `magspec.experiments` and `magspec.cli` imported from another
magspec module (`assemble`, `smallest_eigenpairs`, `well_data`, ...) with a
wrapper that records a span: layer, name, start, end and the id of the span
that was open when it was called.  It also patches `magspec.expr.evaluate`
(top-level calls only, since it recurses through the module global) and,
whenever a `discretize` function receives a gauge, that gauge's
`y_edge_integrals` / `x_edge_integrals`.  Library callers get the same
wrappers through `Probe.wrap`.

With tracing off only the eigensolve gate is installed: every eigenpair the
solver returns is recorded so the benchmark can check its residual and
convergence flag.  Spans live in memory and are written once, at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

CALLER_MODULES = ("magspec.experiments", "magspec.cli")
EDGE_METHODS = ("y_edge_integrals", "x_edge_integrals")


def layer_of(fn):
    """`magspec.discretize.assemble` -> "discretize"; None outside magspec."""
    mod = getattr(fn, "__module__", "") or ""
    return mod.split(".", 1)[1] if mod.startswith("magspec.") else None


class _GaugeProbe:
    """Forwards to a gauge, timing the edge-integral methods assembly calls."""

    def __init__(self, gauge, probe):
        self._gauge = gauge
        self._probe = probe

    def __getattr__(self, name):
        attr = getattr(self._gauge, name)
        if name not in EDGE_METHODS:
            return attr
        probe = self._probe

        def edges(*args, **kwargs):
            with probe.span("fieldgeom", name) as attrs:
                out = attr(*args, **kwargs)
                attrs["edges"] = int(out.size)
            return out
        return edges


class Probe:
    """Spans and eigensolve results of one workload repetition."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.spans = []   # [id, parent, layer, name, t0, t1, attrs]
        self.solves = []  # (tol, residuals, converged, lowest) per solve
        self._stack = []
        self._in_eval = False
        self._undo = []

    # -- spans -------------------------------------------------------------
    def span(self, layer, name):
        return _Span(self, layer, name)

    # -- wrappers ----------------------------------------------------------
    def wrap(self, fn):
        """Traced (or, tracing off, gate-only) version of a magspec function."""
        layer = layer_of(fn)
        if layer == "eigensolve":
            return self._wrap_solver(fn)
        if not self.trace or layer is None:
            return fn
        if layer == "discretize":
            return self._wrap_assembly(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(layer, fn.__name__):
                return fn(*args, **kwargs)
        return traced

    def _wrap_solver(self, fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def solver(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            with self.span("eigensolve", fn.__name__) as attrs:
                res = fn(*args, **kwargs)
                attrs["pairs"] = len(res)
            if hasattr(res, "converged"):
                self.solves.append((float(bound.arguments["tol"]),
                                    [float(r) for r in res.residuals],
                                    [bool(c) for c in res.converged],
                                    float(min(res.eigenvalues))))
            return res
        return solver

    def _wrap_assembly(self, fn):
        @functools.wraps(fn)
        def assembly(*args, **kwargs):
            args = [_GaugeProbe(a, self) if _is_gauge(a) else a for a in args]
            kwargs = {k: _GaugeProbe(v, self) if _is_gauge(v) else v
                      for k, v in kwargs.items()}
            with self.span("discretize", fn.__name__) as attrs:
                out = fn(*args, **kwargs)
                if hasattr(out, "H"):
                    attrs["dim"] = int(out.H.shape[0])
                    attrs["nnz"] = int(out.H.nnz)
            return out
        return assembly

    def _wrap_evaluate(self, fn):
        @functools.wraps(fn)
        def evaluate(e, x, y):
            if self._in_eval:
                return fn(e, x, y)
            self._in_eval = True
            try:
                with self.span("expr", "evaluate") as attrs:
                    out = fn(e, x, y)
                    attrs["points"] = int(getattr(out, "size", 1))
                return out
            finally:
                self._in_eval = False
        return evaluate

    # -- installation ------------------------------------------------------
    def install(self):
        """Patch the cross-module names; `uninstall` restores them."""
        for modname in CALLER_MODULES:
            mod = importlib.import_module(modname)
            for name, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and layer_of(obj) is not None
                        and obj.__module__ != modname):
                    wrapped = self.wrap(obj)
                    if wrapped is not obj:
                        self._patch(mod, name, wrapped)
        if self.trace:
            expr = importlib.import_module("magspec.expr")
            self._patch(expr, "evaluate", self._wrap_evaluate(expr.evaluate))
        return self

    def _patch(self, mod, name, value):
        self._undo.append((mod, name, getattr(mod, name)))
        setattr(mod, name, value)

    def uninstall(self):
        while self._undo:
            mod, name, value = self._undo.pop()
            setattr(mod, name, value)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output ------------------------------------------------------------
    def write(self, fh, **labels):
        """One JSON line per span."""
        for sid, parent, layer, name, t0, t1, attrs in self.spans:
            fh.write(json.dumps({**labels, "id": sid, "parent": parent,
                                 "layer": layer, "name": name,
                                 "start": t0, "end": t1, **attrs}) + "\n")


class _Span:
    __slots__ = ("probe", "layer", "name", "record")

    def __init__(self, probe, layer, name):
        self.probe = probe
        self.layer = layer
        self.name = name

    def __enter__(self):
        attrs = {}
        p = self.probe
        if p.trace:
            parent = p._stack[-1] if p._stack else None
            self.record = [len(p.spans), parent, self.layer, self.name,
                           time.perf_counter(), None, attrs]
            p.spans.append(self.record)
            p._stack.append(self.record[0])
        return attrs

    def __exit__(self, *exc):
        p = self.probe
        if p.trace:
            self.record[5] = time.perf_counter()
            p._stack.pop()
        return False


def _is_gauge(obj):
    return hasattr(obj, "y_edge_integrals")


def layer_metrics(probe: Probe) -> dict:
    """Per-layer totals of one traced repetition (seconds, counts)."""
    child = [0.0] * len(probe.spans)
    for sid, parent, _, _, t0, t1, _ in probe.spans:
        if parent is not None:
            child[parent] += t1 - t0
    m = {k: 0.0 for k in (
        "fieldgeom.edge_s", "expr.eval_s", "discretize.assemble_self_s",
        "eigensolve.solve_s", "quasimode.build_s", "quasimode.residual_s",
        "experiments.self_s", "cli.self_s")}
    c = {k: 0 for k in (
        "fieldgeom.edges", "expr.eval_calls", "expr.eval_points",
        "discretize.dim", "discretize.nnz", "eigensolve.calls",
        "eigensolve.pairs")}
    for sid, parent, layer, name, t0, t1, attrs in probe.spans:
        dur = t1 - t0
        self_s = dur - child[sid]
        if layer == "fieldgeom" and name in EDGE_METHODS:
            m["fieldgeom.edge_s"] += dur
            c["fieldgeom.edges"] += attrs["edges"]
        elif layer == "expr":
            m["expr.eval_s"] += dur
            c["expr.eval_calls"] += 1
            c["expr.eval_points"] += attrs["points"]
        elif layer == "discretize":
            m["discretize.assemble_self_s"] += self_s
            c["discretize.dim"] += attrs.get("dim", 0)
            c["discretize.nnz"] += attrs.get("nnz", 0)
        elif layer == "eigensolve":
            m["eigensolve.solve_s"] += dur
            c["eigensolve.calls"] += 1
            c["eigensolve.pairs"] += attrs["pairs"]
        elif layer == "quasimode" and name == "build_leading_quasimode":
            m["quasimode.build_s"] += dur
        elif layer == "quasimode" and name == "residual":
            m["quasimode.residual_s"] += dur
        elif layer in ("experiments", "cli"):
            m[f"{layer}.self_s"] += self_s
    residuals = [r for _, res, _, _ in probe.solves for r in res]
    c["eigensolve.unconverged"] = sum(not ok for _, _, conv, _ in probe.solves
                                      for ok in conv)
    m["eigensolve.max_residual"] = max(residuals, default=0.0)
    return {**m, **c}
