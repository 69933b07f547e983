"""In-memory spans around hyplab's public functions, recorded from outside.

A span is (name, start, end, parent): perf_counter seconds and the index of
the enclosing span (-1 at top level).  Functions are wrapped at the name
through which their callers reach them, e.g. ``laplab.weighted_operator_norm``
(laplab imported the name) or ``linops.discretize`` (callers import it from
linops at call time); ShiftedSolver is wrapped on the class, so every
construction and solve is seen whichever module made it.  Spans are kept in
memory and written once, when the run ends.  Calls made in pool workers are
not seen, so traced runs execute the traced work serially.
"""

from __future__ import annotations

import functools
import json
import time


class Tracer:
    def __init__(self):
        self.spans = []
        self.results = {}
        self._stack = []
        self._patches = []

    def call(self, name, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span called name."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def wrap(self, owner, attr, name, keep_results=False):
        """Replace owner.attr by a spanned wrapper (undone by restore).

        With keep_results, return values are kept under the span name."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def spanned(*args, **kwargs):
            out = self.call(name, original, *args, **kwargs)
            if keep_results:
                self.results.setdefault(name, []).append(out)
            return out

        setattr(owner, attr, spanned)
        self._patches.append((owner, attr, original))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def durations(self, name):
        return [end - start for n, start, end, _ in self.spans if n == name]

    def total(self, name):
        return sum(self.durations(name))

    def count(self, name):
        return sum(1 for span in self.spans if span[0] == name)

    def children_of(self, parent_name, child_names):
        """Number of child_names spans whose direct parent is a parent_name
        span."""
        parents = {i for i, span in enumerate(self.spans)
                   if span[0] == parent_name}
        return sum(1 for n, _, _, p in self.spans
                   if n in child_names and p in parents)

    def self_time(self, name):
        """Total duration of name spans minus the time their direct children
        cover."""
        own = {i: end - start for i, (n, start, end, _) in
               enumerate(self.spans) if n == name}
        covered = sum(end - start for _, start, end, p in self.spans
                      if p in own)
        return sum(own.values()) - covered

    def write(self, path):
        names = sorted({span[0] for span in self.spans})
        summary = {n: {"count": self.count(n), "total_s": self.total(n),
                       "self_s": self.self_time(n)} for n in names}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"summary": summary, "spans": self.spans}, fh)


def instrument(tracer):
    """Wrap the layer boundaries of hyplab that the per-layer metrics read."""
    from hyplab import abstract, conjugate, laplab, linops, mourre, weights

    solver = linops.ShiftedSolver
    tracer.wrap(solver, "__init__", "linops.ShiftedSolver")
    tracer.wrap(solver, "solve", "linops.ShiftedSolver.solve")
    tracer.wrap(solver, "solve_adjoint", "linops.ShiftedSolver.solve_adjoint")
    tracer.wrap(laplab, "weighted_operator_norm",
                "linops.weighted_operator_norm")
    tracer.wrap(linops, "discretize", "linops.discretize")
    tracer.wrap(laplab, "limiting_absorption", "laplab.limiting_absorption",
                keep_results=True)
    tracer.wrap(mourre, "hermitian_eig", "mourre.hermitian_eig")
    tracer.wrap(mourre, "hs_calculus", "mourre.hs_calculus")
    tracer.wrap(conjugate, "flow_integrate", "conjugate.flow_integrate")
    tracer.wrap(abstract, "algebre_identity_check",
                "abstract.algebre_identity_check")
    tracer.wrap(abstract, "commutator_identity_residuals",
                "abstract.commutator_identity_residuals")
    tracer.wrap(abstract, "diffineq_check", "abstract.diffineq_check")
    tracer.wrap(weights, "temperate_check", "weights.temperate_check")
    tracer.wrap(weights, "quantize_and_factor_check",
                "weights.quantize_and_factor_check")
