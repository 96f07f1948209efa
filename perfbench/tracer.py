"""Span tracer that wraps rzeta's public entry points from outside.

Each wrapped call records one span: a layer name, start and end times
from ``time.perf_counter``, the index of the enclosing span and the
index of the job it ran in.  Spans live in flat arrays and are written
out once, when the run ends.  Some wrappers also add to named counters
(source points, grid sizes, quadrature nodes) at the same boundary.

Wrappers are installed at the name each caller looks up: ``engine``
imports ``exp_sum_on_grid`` and ``UniformGridPlan`` by name, ``jets``,
``resonator`` and ``primes`` import ``real`` and ``rlog`` by name, and
the CLI imports its pipeline functions by name, so every one of those
module attributes is replaced, not just the defining one.
:meth:`Tracer.uninstall` puts every original object back.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import time
from array import array
from collections import defaultdict

import numpy as np


class Tracer:
    """In-memory span recorder with install/uninstall of wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")  # per-span payload, e.g. nodes of a level
        self.counters: dict[str, float] = defaultdict(float)
        self.job_id = -1
        self.active = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans --

    def open(self, name: str, value: float = 0.0) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self.job_id)
        self.value.append(value)
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, amount: float) -> None:
        self.counters[name] += amount

    @contextlib.contextmanager
    def job_scope(self, job_id: int):
        """Record spans of one job; tracing is off outside this scope."""
        self.job_id = job_id
        self.active = True
        try:
            yield
        finally:
            self.active = False
            self._stack.clear()

    # --------------------------------------------------------- wrapping --

    def wrap(self, fn, name: str, on_call=None):
        """A wrapper that records a span named ``name`` around ``fn``.

        ``on_call(tracer, span_index, args, kwargs, result)`` runs after
        a successful call and may add counters or set the span payload.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if on_call is not None:
                on_call(tracer, idx, args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, on_call=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, on_call))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ dump --

    def dump(self, path: str) -> None:
        """Write every span as one JSON document (called once, at the end)."""
        doc = {
            "names": self.names,
            "fields": ["name", "parent", "job", "start", "end", "value"],
            "spans": [
                [
                    self.name_of[i],
                    self.parent[i],
                    self.job[i],
                    round(self.start[i], 9),
                    round(self.end[i], 9),
                    self.value[i],
                ]
                for i in range(len(self.start))
            ],
            "counters": dict(self.counters),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


# ------------------------------------------------------ per-layer sums --

def span_totals(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per span name: inclusive seconds, self seconds and calls.

    Self time is a span's duration minus the durations of its direct
    children (calls are synchronous, so children never overlap).  A span
    nested inside a span of the same name adds to ``calls`` and
    ``self_s`` but not again to ``s``.
    """
    n = len(tracer.start)
    dur = [tracer.end[i] - tracer.start[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        p = tracer.parent[i]
        if p >= 0:
            child[p] += dur[i]
    out: dict[str, dict[str, float]] = {}
    for i in range(n):
        name = tracer.names[tracer.name_of[i]]
        row = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        row["calls"] += 1
        row["self_s"] += dur[i] - child[i]
        if not _has_ancestor_named(tracer, i, tracer.name_of[i]):
            row["s"] += dur[i]
    return out


def _has_ancestor_named(tracer: Tracer, i: int, nid: int) -> bool:
    p = tracer.parent[i]
    while p >= 0:
        if tracer.name_of[p] == nid:
            return True
        p = tracer.parent[p]
    return False


def child_time(tracer: Tracer, child: str, parent: str) -> float:
    """Seconds spent in spans named ``child`` whose parent is ``parent``."""
    total = 0.0
    for i in range(len(tracer.start)):
        p = tracer.parent[i]
        if (
            p >= 0
            and tracer.names[tracer.name_of[i]] == child
            and tracer.names[tracer.name_of[p]] == parent
        ):
            total += tracer.end[i] - tracer.start[i]
    return total


def useful_node_share(tracer: Tracer) -> float:
    """Nodes of each accepted (last) quadrature level over all nodes."""
    levels: dict[int, list[float]] = defaultdict(list)
    for i in range(len(tracer.start)):
        if tracer.names[tracer.name_of[i]] == "quadrature.level":
            levels[tracer.parent[i]].append(tracer.value[i])
    total = sum(sum(v) for v in levels.values())
    if total == 0:
        return 0.0
    return sum(v[-1] for v in levels.values()) / total


# ------------------------------------------------------- installation --

def _count_sources(tracer, idx, args, kwargs, result):
    # (omega, coeffs, t0, dt, count) for the route functions
    tracer.count("gridsum.source_points", np.size(args[0]) * int(args[4]))


def _count_plan_run(tracer, idx, args, kwargs, result):
    plan = args[0]
    tracer.count("gridsum.source_points", plan.omega.size * plan.count)


def _count_plan_build(tracer, idx, args, kwargs, result):
    plan = args[0]
    tracer.count("gridsum.fine_grid_points", plan.mr)
    tracer.counters["gridsum.max_grid_bytes"] = max(
        tracer.counters["gridsum.max_grid_bytes"], 16.0 * plan.mr
    )


def _level_nodes(tracer, idx, args, kwargs, result):
    # _level_value(f, a, width, panels, order)
    nodes = int(args[3]) * int(args[4])
    tracer.value[idx] = nodes
    tracer.count("quadrature.nodes", nodes)


def _em_terms(cut_for):
    def on_call(tracer, idx, args, kwargs, result):
        s = np.asarray(args[0])
        em_order = kwargs.get("em_order", args[1] if len(args) > 1 else 12)
        cut = kwargs.get("cut", args[2] if len(args) > 2 else None)
        if cut is None:
            cut = cut_for(float(np.max(np.abs(s.imag)))) + 2 * em_order
        tracer.count("zeta.em_terms", s.size * (cut - 1))

    return on_call


def _count_elements(tracer, idx, args, kwargs, result):
    tracer.count("resonator.enumerate_M.elements", len(result))


def install(tracer: Tracer) -> None:
    """Wrap the entry points of every rzeta module at each lookup site."""
    import numpy.fft

    from rzeta import (
        cli, engine, gridsum, jets, precision, primes, quadrature,
        resonator, zeta,
    )

    p = tracer.patch
    p(cli, "run", "cli.run")

    plan = gridsum.UniformGridPlan
    p(plan, "__init__", "gridsum.plan_build", _count_plan_build)
    p(plan, "run", "gridsum.plan_run", _count_plan_run)
    p(numpy.fft, "fft", "gridsum.fft")
    p(gridsum, "_direct_grid", "gridsum.route.direct", _count_sources)
    p(gridsum, "_cumprod_grid", "gridsum.route.cumprod", _count_sources)
    p(gridsum, "_nufft_grid", "gridsum.route.nufft")
    for owner in (gridsum, engine):
        p(owner, "exp_sum_on_grid", "gridsum.exp_sum_on_grid")

    p(engine, "integrate_refine", "quadrature.integrate_refine")
    p(quadrature, "_level_value", "quadrature.level", _level_nodes)

    for fn in ("moment_M1", "moment_M2", "bump_phi"):
        p(engine, fn, f"engine.{fn}")
    for fn in ("certificate", "scan_max", "scan_samples"):
        for owner in (engine, cli):
            p(owner, fn, f"engine.{fn}")

    for owner in (zeta, cli):
        p(owner, "zeta_deriv_cauchy", "zeta.zeta_deriv_cauchy")
        p(owner, "dirichlet_poly", "zeta.dirichlet_poly")
    p(zeta, "zeta_em_array", "zeta.zeta_em_array", _em_terms(zeta._em_cut_for))
    for owner in (zeta, engine):
        p(owner, "_em_tail_terms", "zeta.em_tail_terms")

    for owner in (jets, resonator):
        p(owner, "local_factor_jet", "jets.local_factor_jet")
        p(owner, "jet_product", "jets.jet_product")
    p(jets, "jet_mul", "jets.jet_mul")

    for fn in ("partition_over_cardinality", "layer_product"):
        p(resonator, fn, f"resonator.{fn}")
    for owner in (resonator, engine):
        p(owner, "s_over_cardinality_jet", "resonator.s_over_cardinality_jet")
        p(owner, "enumerate_M", "resonator.enumerate_M", _count_elements)
    for fn in ("S_brute", "S_jet", "layer_product"):
        p(cli, fn, f"resonator.{fn}")

    for owner in (precision, jets, resonator, primes):
        for fn in ("real", "rlog"):
            p(owner, fn, f"precision.{fn}")

    for owner in (primes, cli):
        p(owner, "sieve_primes", "primes.sieve_primes")


def ring_cache_info():
    """(hits, misses) of zeta's Cauchy-ring cache, read without wrapping."""
    from rzeta import zeta

    info = zeta._zeta_ring_values.cache_info()
    return info.hits, info.misses
