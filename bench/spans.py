"""Spans around the calls into each gibbscert layer, recorded from outside.

`Tracer.install()` rebinds every public function listed in LAYERS, in every
loaded gibbscert module that holds it (and patches the listed methods on
their classes), with a wrapper that records a span: layer name, start, end
and parent span. `uninstall()` puts the originals back, so the program's
source is never touched and untraced runs pay nothing.

Spans stay in memory. A layer's self time is the span's duration minus the
time its child spans cover; the bookkeeping some hooks do after a call (hashing
an argument, reading a file size) gets a span of its own, so it is not
charged to the caller.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import os
import sys
import time
from collections import defaultdict

import numpy as np

BOOKKEEPING = "trace.bookkeeping"


def _digest(array) -> bytes:
    a = np.ascontiguousarray(array, dtype=float)
    return hashlib.blake2b(a.tobytes(), digest_size=16).digest() + repr(a.shape).encode()


def _geometry_key(args, kwargs):
    geom = args[0]
    euclidean = kwargs.get("euclidean", args[1] if len(args) > 1 else False)
    if geom.kind == "explicit":
        return ("explicit", _digest(geom.metric_table), euclidean)
    return (geom.kind, geom.side_lengths, euclidean)


def _matrix_key(args, kwargs):
    return _digest(args[0])


def _neumann_terms(tracer, args, kwargs, result):
    terms = getattr(result, "terms", None)  # the contraction constant has none
    if terms is not None:
        tracer.count["interaction.neumann.terms"] += len(terms)


def _potential_residual(tracer, args, kwargs, result):
    for pf in result:
        tracer.maximum("oracles.potential.residual_max", pf.residual)


def _potential_verdict(tracer, args, kwargs, result):
    if hasattr(result, "passed") and not result.passed:
        tracer.count["oracles.potential.failures"] += 1


def _mcmc_steps(tracer, args, kwargs, result):
    cfg = args[1]
    tracer.count["oracles.mcmc.steps"] += cfg.steps * cfg.chains
    tracer.minimum("oracles.mcmc.acceptance_min", result[2])


def _bytes_written(tracer, args, kwargs, result):
    tracer.count["reporting.bytes"] += os.path.getsize(args[1])


# layer -> targets ("module:function" or "module:Class.method"), plus an
# optional key function (distinct keys per request give the useful work) and
# an optional hook that reads counters off the call's result.
LAYERS = {
    "lattice.distance_matrix": (["gibbscert.lattice:distance_matrix"], _geometry_key, None),
    "lattice.geometry": (["gibbscert.lattice:periodic_grid", "gibbscert.lattice:explicit_metric"], None, None),
    "model.build": (["gibbscert.model:GibbsModel.__init__", "gibbscert.model:Coupling.build"], None, None),
    "model.constants": (["gibbscert.model:rho_vector", "gibbscert.model:kappa_matrix"], None, None),
    "interaction.build": (
        ["gibbscert.interaction:interaction_from_model", "gibbscert.interaction:build_interaction_matrix"],
        None,
        None,
    ),
    "interaction.inverse": (["gibbscert.interaction:inverse_entrywise"], _matrix_key, None),
    "interaction.tilted": (["gibbscert.interaction:build_tilted_matrix"], None, None),
    "interaction.spectrum": (
        [
            "gibbscert.interaction:pi_criterion",
            "gibbscert.interaction:is_positive_definite",
            "gibbscert.interaction:weighted_similarity_check",
        ],
        None,
        None,
    ),
    "interaction.neumann": (
        ["gibbscert.interaction:neumann_partial_sums", "gibbscert.interaction:neumann_contraction_constant"],
        None,
        _neumann_terms,
    ),
    "decay.exponential": (["gibbscert.decay:exponential_certificate"], None, None),
    "decay.tilt_audit": (["gibbscert.decay:tilt_inequality_audit"], None, None),
    "decay.algebraic": (["gibbscert.decay:algebraic_certificate"], None, None),
    "bounds.nn_certificate": (["gibbscert.bounds:nearest_neighbor_certificate"], None, None),
    "oracles.gaussian": (
        ["gibbscert.oracles.gaussian:gaussian_exact_covariance", "gibbscert.oracles.gaussian:gaussian_from_model"],
        None,
        None,
    ),
    "oracles.potential.setup": (["gibbscert.oracles.potential:PotentialSolver.__init__"], None, None),
    "oracles.potential.solve": (["gibbscert.oracles.potential:PotentialSolver.solve_many"], None, _potential_residual),
    "oracles.potential.verify": (
        [
            "gibbscert.oracles.potential:verify_directional_pi",
            "gibbscert.oracles.potential:verify_dual_pi",
            "gibbscert.oracles.potential:verify_core_identity",
        ],
        None,
        _potential_verdict,
    ),
    "oracles.mcmc": (["gibbscert.oracles.mcmc:mcmc_covariance_matrix"], None, _mcmc_steps),
    "cli.parse": (["gibbscert.cli:parse_config"], None, None),
    "cli.run": (["gibbscert.cli:run_experiment"], None, None),
    "reporting.write": (
        [
            "gibbscert.reporting:write_report",
            "gibbscert.reporting:emit_pair_table",
            "gibbscert.oracles.potential:potential_to_csv",
        ],
        None,
        _bytes_written,
    ),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [layer, start, end, parent index]
        self.stack: list[int] = []
        self.calls = defaultdict(int)
        self.count = defaultdict(float)
        self.extrema: dict[str, float] = {}
        self.distinct = defaultdict(int)  # layer -> distinct keys summed over requests
        self._keys = defaultdict(set)  # layer -> keys seen in the current request
        self._patches: list[tuple] = []

    # -- counters ---------------------------------------------------------
    def maximum(self, name: str, value: float) -> None:
        self.extrema[name] = max(self.extrema.get(name, -np.inf), float(value))

    def minimum(self, name: str, value: float) -> None:
        self.extrema[name] = min(self.extrema.get(name, np.inf), float(value))

    def end_request(self) -> None:
        for layer, keys in self._keys.items():
            self.distinct[layer] += len(keys)
        self._keys.clear()

    # -- spans ------------------------------------------------------------
    def _open(self, layer: str) -> int:
        idx = len(self.spans)
        self.spans.append([layer, time.perf_counter(), None, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, layer: str, fn, key, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.calls[layer] += 1
            idx = tracer._open(layer)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if layer.startswith("oracles.potential"):
                    tracer.count["oracles.potential.failures"] += 1
                raise
            finally:
                tracer._close(idx)
            if key is not None or hook is not None:
                book = tracer._open(BOOKKEEPING)
                try:
                    if key is not None:
                        tracer._keys[layer].add(key(args, kwargs))
                    if hook is not None:
                        hook(tracer, args, kwargs, result)
                finally:
                    tracer._close(book)
            return result

        return traced

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items()) if name.startswith("gibbscert") and m]
        for layer, (targets, key, hook) in LAYERS.items():
            for target in targets:
                mod_name, attr = target.split(":")
                owner = importlib.import_module(mod_name)
                if "." in attr:  # a method: patch it on its class
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[meth]
                    self._patches.append((cls, meth, original))
                    setattr(cls, meth, self._wrap(layer, original, key, hook))
                    continue
                original = getattr(owner, attr)
                wrapper = self._wrap(layer, original, key, hook)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, name, original))
                            setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Seconds per layer: each span's duration minus its children's."""
        child = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for (layer, start, end, _), covered in zip(self.spans, child):
            out[layer] += end - start - covered
        return dict(out)
