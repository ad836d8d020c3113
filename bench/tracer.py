"""Span recorder for the traced pass.

``Tracer.install`` replaces every public function of the seven library
modules, in every ``flowescape`` namespace that binds it (the package, the
defining module and any module that imported it, such as
``pressure.escape_rate_flow``), with a wrapper that records one span: name,
start, end and parent. Spans stay in memory in flat arrays; ``uninstall``
restores the originals. The library source is not touched.

Per-layer metrics come from the spans (self time = span duration minus the
time its direct children cover) and from counters read off arguments and
returned objects: matrix shapes, ``OpenMatrix.matrix.shape``,
``len(SuspensionSystem.blocks)``, ``SurvivorMatrix.states`` and the
``SimulationConfig`` of each Monte Carlo estimate.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

MODULES = ("shift", "suspension", "open_system", "zeta", "asymptotics", "pressure", "montecarlo")


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _matrix_dim(counts, key):
    def extract(args, kwargs, result):
        counts[key] += np.shape(_arg(args, kwargs, 0, "matrix"))[0]

    return extract


def _dim_max(counts, key):
    def extract(args, kwargs, result):
        counts[key] = max(counts[key], result.matrix.shape[0])

    return extract


def _extractors(counts):
    """Counters recorded after a traced call returns, by qualified name."""

    def open_matrix(args, kwargs, result):
        if _arg(args, kwargs, 2, "representation", "auto") == "auto":
            counts["open_system.auto_calls"] += 1
            counts["open_system.auto_bordered"] += result.representation == "bordered"

    def blocks(args, kwargs, result):
        counts["suspension.blocks"] += len(result.blocks)

    def states(args, kwargs, result):
        counts["shift.survivor_matrix.states"] += len(result.states)

    def survival_steps(args, kwargs, result):
        counts["montecarlo.sample_steps"] += result.config.samples * result.config.t_max

    def deviation_steps(args, kwargs, result):
        counts["montecarlo.sample_steps"] += result.config.samples * result.l_max

    return {
        "open_system.matrix_spectral_radius": _matrix_dim(
            counts, "open_system.matrix_spectral_radius.dim_sum"
        ),
        "zeta.char_poly": _matrix_dim(counts, "zeta.char_poly.dim_sum"),
        "open_system.build_open_refined": _dim_max(counts, "open_system.refined_dim_max"),
        "open_system.build_open_bordered": _dim_max(counts, "open_system.bordered_dim_max"),
        "open_system.build_open_matrix": open_matrix,
        "suspension.build_suspension": blocks,
        "shift.survivor_matrix": states,
        "montecarlo.estimate_survival": survival_steps,
        "montecarlo.estimate_deviation_prob": deviation_steps,
    }


class Tracer:
    """Records spans of the library's public functions while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, qualname, fn, extract):
        self._name_ids[qualname] = len(self.names)
        self.names.append(qualname)
        name_id = self._name_ids[qualname]
        ids, starts, ends, parents = self.name_id, self.start, self.end, self.parent
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(starts)
            ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if extract is not None:
                extract(args, kwargs, result)
            return result

        return span

    def install(self) -> None:
        import flowescape

        extractors = _extractors(self.counts)
        wrappers = {}
        for short in MODULES:
            module = sys.modules[f"flowescape.{short}"]
            for name, fn in vars(module).items():
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                qualname = f"{short}.{name}"
                wrappers[fn] = self._wrap(qualname, fn, extractors.get(qualname))
        namespaces = [flowescape] + [
            mod for key, mod in sys.modules.items() if key.startswith("flowescape.")
        ]
        for namespace in namespaces:
            for name, value in list(vars(namespace).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((namespace, name, value))
                    setattr(namespace, name, wrappers[value])

    def uninstall(self) -> None:
        for namespace, name, original in reversed(self._patched):
            setattr(namespace, name, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -----------------------------------------------------------------------
    # Aggregation
    # -----------------------------------------------------------------------

    def self_times(self):
        """(calls, self seconds) per qualified name."""
        ids = np.array(self.name_id, dtype=np.int32)
        dur = np.array(self.end, dtype=float) - np.array(self.start, dtype=float)
        parent = np.array(self.parent, dtype=np.int32)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        own = dur - child
        calls = np.bincount(ids, minlength=len(self.names))
        self_s = np.bincount(ids, weights=own, minlength=len(self.names))
        return {name: (int(calls[i]), float(self_s[i])) for i, name in enumerate(self.names)}

    def child_calls(self, child: str, parent: str) -> int:
        """Spans named ``child`` whose parent span is named ``parent``."""
        if child not in self._name_ids or parent not in self._name_ids:
            return 0
        ids = np.array(self.name_id, dtype=np.int32)
        parents = np.array(self.parent, dtype=np.int32)
        mine = (ids == self._name_ids[child]) & (parents >= 0)
        return int(np.count_nonzero(ids[parents[mine]] == self._name_ids[parent]))

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics: module self time, the named functions' self time
        and calls, and the counters read off arguments and results."""
        per_fn = self.self_times()
        out: dict[str, float] = {}
        for short in MODULES:
            members = [v for k, v in per_fn.items() if k.startswith(short + ".")]
            out[f"{short}.self_s"] = sum(s for _, s in members)
            out[f"{short}.calls"] = sum(c for c, _ in members)

        def fn(name):
            return per_fn.get(name, (0, 0.0))

        for name in (
            "open_system.matrix_spectral_radius",
            "open_system.hole_quantities",
            "zeta.char_poly",
            "zeta.cofactor_poly",
            "zeta.smallest_root_geq_one",
            "pressure.induced_pressure_truncated",
            "pressure.induced_pressure_via_root",
            "montecarlo.exact_deviation_prob",
            "montecarlo.estimate_survival",
            "montecarlo.estimate_deviation_prob",
        ):
            out[f"{name}.self_s"] = fn(name)[1]
        for name in (
            "zeta.smallest_root_geq_one",
            "suspension.build_suspension",
            "shift.survivor_matrix",
        ):
            out[f"{name}.calls"] = fn(name)[0]
        counts = self.counts
        for key in (
            "open_system.matrix_spectral_radius.dim_sum",
            "zeta.char_poly.dim_sum",
            "suspension.blocks",
            "shift.survivor_matrix.states",
            "montecarlo.sample_steps",
            "open_system.refined_dim_max",
            "open_system.bordered_dim_max",
        ):
            out[key] = counts[key]
        auto = counts["open_system.auto_calls"]
        out["open_system.auto_bordered_frac"] = (
            counts["open_system.auto_bordered"] / auto if auto else 0.0
        )
        out["pressure.induced_pressure_via_root.radius_calls"] = self.child_calls(
            "open_system.matrix_spectral_radius", "pressure.induced_pressure_via_root"
        )
        out["trace.spans"] = len(self.start)
        return out

    def save(self, path) -> None:
        """Write every span (columnar, compressed) for offline inspection."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.array(self.name_id, dtype=np.int32),
            start=np.array(self.start, dtype=float),
            end=np.array(self.end, dtype=float),
            parent=np.array(self.parent, dtype=np.int32),
        )
