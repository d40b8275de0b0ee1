"""Outside-in tracer: spans and counts around specorder's public functions.

The package modules import one another with ``from ... import``, so a
function lives under several names (``cli.load_tuple`` is ``io.load_tuple``,
``order.joint_measure`` is ``spectral.joint_measure``). Installing a probe
rebinds every name in every loaded ``specorder`` module that refers to the
original object; otherwise calls made from inside the package would go
unseen. Class methods are replaced on their class.

Spans are kept in memory as ``[name, start, end, parent, run]`` and written
out by the caller when the run ends. Counts that need computing run inside a
``trace.count`` span, so their cost stays out of every layer's self time.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict
from math import prod

import numpy as np

JOB = "job"
COUNT = "trace.count"


def _merged_grid(points_a: np.ndarray, points_b: np.ndarray) -> int:
    """Points of the merged coordinate grid: product of unique axis sizes."""
    return prod(np.unique(np.concatenate([points_a[:, j], points_b[:, j]])).size
                for j in range(points_a.shape[1]))


def _alphas_scanned(args, result) -> int:
    from specorder.order import multi_indices

    alphas = multi_indices(args["a"].kappa, args["alpha_max"])
    return alphas.index(result.witness) + 1 if result.witness is not None else len(alphas)


# (module, attribute, span name, counter) -- counter maps the bound call
# arguments and the result to {count name: increment}. A span name of None
# counts without recording a span.
PROBES = (
    ("specorder.io", "load_tuple", "io.load_tuple",
     lambda a, r: {"io.bytes_read": os.path.getsize(a["path"])}),
    ("specorder.io", "load_measure", "io.load_measure",
     lambda a, r: {"io.bytes_read": os.path.getsize(a["path"])}),
    ("specorder.io", "save_json", "io.save_json", None),
    ("specorder.linalg", "hermitian_eig", "linalg.eigh", None),
    ("specorder.spectral", "validate_tuple", "spectral.validate_tuple", None),
    ("specorder.spectral", "joint_measure", "spectral.joint_measure",
     lambda a, r: {"spectral.atoms": r.n_atoms()}),
    ("specorder.spectral", "calculus_scalar", "spectral.calculus", None),
    ("specorder.order", "distribution_order", "order.distribution_order",
     lambda a, r: {"order.grid_points": _merged_grid(a["ea"].points(), a["eb"].points())}),
    ("specorder.order", "spectral_leq_componentwise", "order.componentwise", None),
    ("specorder.order", "olson_necessity_scan", "order.monomial_scan",
     lambda a, r: {"order.alphas_scanned": _alphas_scanned(a, r)}),
    ("specorder.measures", "AtomicMeasure.from_atoms", "measures.from_atoms", None),
    ("specorder.measures", "cdf_leq", "measures.cdf_leq",
     lambda a, r: {"measures.cdf_grid_points": _merged_grid(a["mu1"].points,
                                                            a["mu2"].points)}),
    ("specorder.measures", "lowerset_dominance", "measures.lowerset_dominance", None),
    ("specorder.measures", "enumerate_downward_closed", None,
     lambda a, r: {"measures.ideals": len(r)}),
    ("specorder.measures", "thm31_equivalence_check", "measures.equivalence", None),
    ("specorder.measures", "audit_iota_increasing", "measures.audit",
     lambda a, r: {"measures.audit_points": np.asarray(a["points"]).shape[0]}),
    ("specorder.resolution", "ProjValuedStepFunction.from_measure",
     "resolution.from_measure", None),
    ("specorder.resolution", "validate_resolution", "resolution.validate",
     lambda a, r: {"resolution.cells": prod(ax.size for ax in a["f"].axes)}),
    ("specorder.resolution", "reconstruct_measure", "resolution.reconstruct", None),
)


class Tracer:
    """Span recorder. ``install`` wraps the probes, ``uninstall`` restores them."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._stack: list[int] = []
        self._run = -1
        self._runs = 0
        self._undo: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._run])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int):
        self._stack.pop()
        self.spans[index][2] = time.perf_counter()

    def run_job(self, fn):
        """Run ``fn()`` as one job under a root span; returns its result.

        Each call is a new run, numbered from 0, even for a job run before.
        """
        self._run = self._runs
        self._runs += 1
        index = self._open(JOB)
        try:
            return fn()
        finally:
            self._close(index)
            self._run = -1

    def _wrap(self, fn, span_name, counter):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            if span_name is None:
                result = fn(*args, **kwargs)
            else:
                index = self._open(span_name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(index)
            if counter is not None:
                index = self._open(COUNT)
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    for key, value in counter(bound.arguments, result).items():
                        self.counts[self._run][key] += value
                finally:
                    self._close(index)
            return result

        return probe

    # -- installation --------------------------------------------------------

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "specorder" or name.startswith("specorder."))]
        for module_name, attr, span_name, counter in PROBES:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                setattr(cls, method, classmethod(self._wrap(original.__func__, span_name, counter)))
                self._undo.append((cls, method, original))
                continue
            original = getattr(owner, attr)
            probe = self._wrap(original, span_name, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, probe)
                        self._undo.append((module, key, original))

    def uninstall(self):
        for target, key, original in reversed(self._undo):
            setattr(target, key, original)
        self._undo.clear()

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def run_walls(self) -> dict[int, float]:
        return {run: end - start for name, start, end, _, run in self.spans if name == JOB}

    def totals(self) -> dict[str, float]:
        """Over all runs: self time and calls per span name, and the counts."""
        out: dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            out[span[0] + ":self"] += own
            out[span[0] + ":calls"] += 1
        for counts in self.counts.values():
            for key, value in counts.items():
                out[key] += value
        return out
