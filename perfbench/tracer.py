"""Spans around the public functions of each quatgamma module, recorded
from outside the package.

Modules import each other's functions by name (``from .spectral_line import
profile_value``), so replacing ``spectral_line.profile_value`` alone would
miss the calls that go through ``gamma_op``, ``connes_trace`` and
``additive_oracle``.  ``Tracer.install`` therefore rebinds every name, in
every loaded module, that holds one of the wrapped functions, gives each of
those bindings its own wrapper so that calls can be counted per import site,
and ``uninstall`` puts the original objects back.  ``self_check`` fails if a
binding was missed or if a known call sequence does not reach the layers it
must reach.

A span records its layer, its parent span, its start and end, and a work
count computed from the call's argument sizes.  Self time is a span's
duration minus the duration of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

PACKAGE = "quatgamma"
MODULES = (
    "quat_core",
    "su2_angular",
    "specfun",
    "spectral_line",
    "gamma_op",
    "additive_oracle",
    "connes_trace",
    "cli",
)

# specfun functions that evaluate at an array of points; a call counts its
# points unless it runs inside another of these
SPECFUN_POINT_ARGS = {
    "specfun.log_gamma": (0, "z"),
    "specfun.digamma": (0, "z"),
    "specfun.trigamma": (0, "z"),
    "specfun.gamma_factor": (1, "s"),
    "specfun.gamma_log_derivative": (1, "s"),
    "specfun.gamma_multiplier": (1, "tau"),
    "specfun.h_multiplier": (1, "tau"),
    "specfun.k_multiplier": (1, "tau"),
}
TRANSFORMS = ("spectral_line.to_spectral", "spectral_line.from_spectral")
GRID_SAMPLERS = (
    "additive_oracle.omega_grid_function",
    "additive_oracle.gaussian_grid_function",
    "additive_oracle.isotypic_grid_function",
)
GRID_LAYERS = GRID_SAMPLERS + (
    "additive_oracle.GridFunction.from_function",
    "additive_oracle.GridFunction.boundary_magnitude",
    "additive_oracle.Grid4D.axis",
    "additive_oracle.brute_fourier",
)
RADIAL_LAYERS = (
    "additive_oracle.distribution_G",
    "additive_oracle.delta_s",
    "additive_oracle.gaussian_moment",
    "additive_oracle.gaussian_moment_quadrature",
    "additive_oracle.functional_equation_residual",
    "additive_oracle.homogeneity_check",
    "additive_oracle.radial_fourier",
    "additive_oracle.op_b_via_distribution",
)

# Which end-to-end metric each layer metric should move, and on which
# workload.  Printed next to the traced figures.
PREDICTIONS = {
    "<module>.calls/self_s/share": "run_s on the workload where that module's share is largest",
    "spectral_line.profile_value.*": "run_s on conductor, then trace; nothing on tables",
    "spectral_line.transform.*": "run_s on oracle; setup_s everywhere",
    "specfun.points, specfun.points_per_s": "run_s on tables; little on conductor",
    "su2_angular.angular_bessel.*": "run_s and peak_rss_mb on oracle and trace; nothing on tables or conductor",
    "additive_oracle.grid.*": "run_s and peak_rss_mb on oracle",
    "additive_oracle.radial.self_s": "run_s on conductor and tables",
    "connes_trace.self_s": "run_s on trace",
    "cli.bytes_written": "run_s on tables",
    "trace_overhead_frac": "benchmark health, not a layer",
}


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _transform_samples(fn: Callable) -> Callable:
    signature = inspect.signature(fn)

    def count(args: tuple, kwargs: dict) -> int:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        n_out = int(round(2.0 * a["half_width"] / a["spacing"])) + 1
        return len(args[0].samples) + n_out

    return count


def _work_counter(layer: str, fn: Callable) -> Optional[Callable]:
    """Work done by one call, computed from its argument sizes."""
    if layer == "spectral_line.profile_value":
        return lambda a, k: int(np.size(_arg(a, k, 1, "v"))) * len(a[0].samples)
    if layer in TRANSFORMS:
        return _transform_samples(fn)
    if layer == "su2_angular.angular_bessel":
        return lambda a, k: int(np.size(_arg(a, k, 1, "rho")))
    if layer in SPECFUN_POINT_ARGS:
        index, name = SPECFUN_POINT_ARGS[layer]
        return lambda a, k: int(np.size(_arg(a, k, index, name)))
    if layer == "additive_oracle.brute_fourier":
        return lambda a, k: a[0].grid.points_per_axis ** 4 * len(_arg(a, k, 1, "probes"))
    if layer == "additive_oracle.GridFunction.from_function":
        return lambda a, k: _arg(a, k, 1, "grid").points_per_axis ** 4
    if layer in GRID_SAMPLERS:
        return lambda a, k: _arg(a, k, 0, "grid").points_per_axis ** 4
    return None


def _public_callables(module) -> List[Tuple[str, object, str, object, Callable]]:
    """(layer, owner, attribute, raw attribute, function) for each public
    function of the module and each public method of its public classes."""
    short = module.__name__.rsplit(".", 1)[-1]
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    found = []
    for name in names:
        obj = getattr(module, name)
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            found.append((f"{short}.{name}", module, name, obj, obj))
        elif inspect.isclass(obj):
            for attr, raw in vars(obj).items():
                if attr.startswith("_"):
                    continue
                fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                if inspect.isfunction(fn):
                    found.append((f"{short}.{name}.{attr}", obj, attr, raw, fn))
    return found


class Tracer:
    """Records spans of the wrapped functions into ``spans``; each span is
    ``[layer, parent index, start, end, work]``."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.site_calls: Counter = Counter()
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []
        # id of each original function -> its layer; the modules keep them alive
        self.originals: Dict[int, str] = {}

    # ----------------------------------------------------------- install

    def _wrap(self, layer: str, fn: Callable, work: Optional[Callable], site: str) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        key = (site, layer)
        calls = self.site_calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[key] += 1
            span = [layer, stack[-1] if stack else -1, 0.0, 0.0,
                    work(args, kwargs) if work is not None else 0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        return traced

    def _bindings(self):
        """(module, name, layer, original) for each name in a loaded module
        that holds one of the original functions."""
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for name, value in list(namespace.items()):
                layer = self.originals.get(id(value))
                if layer is not None:
                    yield mod, name, layer, value

    def install(self) -> None:
        methods = []
        for short in MODULES:
            module = importlib.import_module(f"{PACKAGE}.{short}")
            for layer, owner, attr, raw, fn in _public_callables(module):
                if owner is module:
                    self.originals[id(fn)] = layer
                else:
                    methods.append((layer, owner, attr, raw, fn))
        # a function may be bound under its name in every module that
        # imported it; each binding gets its own wrapper, labelled by site
        for mod, name, layer, fn in list(self._bindings()):
            site = mod.__name__.split(".", 1)[1] if mod.__name__.startswith(PACKAGE + ".") else mod.__name__
            setattr(mod, name, self._wrap(layer, fn, _work_counter(layer, fn), site))
            self._undo.append((mod, name, fn))
        # methods live once, on their class
        for layer, owner, attr, raw, fn in methods:
            wrapped = self._wrap(layer, fn, _work_counter(layer, fn), layer.split(".")[0])
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(wrapped)
            setattr(owner, attr, wrapped)
            self._undo.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def reset(self) -> None:
        del self.spans[:]
        del self._stack[:]
        self.site_calls.clear()

    # -------------------------------------------------------- self-check

    def missed_bindings(self) -> List[str]:
        """Names in loaded modules that still hold an unwrapped original."""
        return [f"{mod.__name__}.{name}" for mod, name, _, _ in self._bindings()]

    def self_check(self, run_sequence: Callable[[], None], required: Dict[Tuple[str, str], int]) -> List[str]:
        """Run a known call sequence and return the problems found: names
        left unwrapped, and (site, layer) pairs called fewer times than
        required.  A required site that the package no longer binds is
        skipped, so that removing an import does not fail the check."""
        problems = [f"not rebound: {name}" for name in self.missed_bindings()]
        self.reset()
        try:
            run_sequence()
        except Exception as exc:  # reported as a failed check, not a crashed run
            problems.append(f"self-check sequence raised {type(exc).__name__}: {exc}")
        for (site, layer), minimum in required.items():
            module = sys.modules.get(f"{PACKAGE}.{site}")
            if module is None or not hasattr(module, layer.rsplit(".", 1)[-1]):
                continue
            if self.site_calls[(site, layer)] < minimum:
                problems.append(
                    f"{layer} called {self.site_calls[(site, layer)]} times from {site}, expected >= {minimum}"
                )
        self.reset()
        return problems


# ------------------------------------------------------------- layer metrics


def layer_metrics(spans: List[list], wall_s: float) -> Dict[str, float]:
    """Per-layer figures of one traced pass of wall time ``wall_s``."""
    child = [0.0] * len(spans)
    for layer, parent, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: Counter = Counter()
    self_s: Counter = Counter()
    work: Counter = Counter()
    resolutions = 0
    specfun_points = 0
    for i, (layer, parent, start, end, count) in enumerate(spans):
        own = (end - start) - child[i]
        groups = [layer.split(".")[0]]
        if layer == "spectral_line.profile_value":
            groups.append("spectral_line.profile_value")
        elif layer in TRANSFORMS:
            groups.append("spectral_line.transform")
        elif layer == "su2_angular.angular_bessel":
            groups.append("su2_angular.angular_bessel")
        elif layer in GRID_LAYERS:
            groups.append("additive_oracle.grid")
        elif layer in RADIAL_LAYERS:
            groups.append("additive_oracle.radial")
        for group in groups:
            calls[group] += 1
            self_s[group] += own
        work[groups[-1]] += count
        parent_layer = spans[parent][0] if parent >= 0 else None
        if layer == "su2_angular.angular_quadrature" and parent_layer == "su2_angular.angular_bessel":
            resolutions += 1
        if layer in SPECFUN_POINT_ARGS and parent_layer not in SPECFUN_POINT_ARGS:
            specfun_points += count

    out: Dict[str, float] = {}
    for module in MODULES:
        out[f"{module}.calls"] = calls[module]
        out[f"{module}.self_s"] = self_s[module]
        out[f"{module}.share"] = self_s[module] / wall_s
    pv = "spectral_line.profile_value"
    out[f"{pv}.calls"] = calls[pv]
    out[f"{pv}.self_s"] = self_s[pv]
    out[f"{pv}.share"] = self_s[pv] / wall_s
    out[f"{pv}.dense_terms"] = work[pv]
    tr = "spectral_line.transform"
    out[f"{tr}.calls"] = calls[tr]
    out[f"{tr}.self_s"] = self_s[tr]
    out[f"{tr}.samples"] = work[tr]
    specfun_s = self_s["specfun"]
    out["specfun.points"] = specfun_points
    out["specfun.points_per_s"] = specfun_points / specfun_s if specfun_s > 0 else 0.0
    ab = "su2_angular.angular_bessel"
    out[f"{ab}.calls"] = calls[ab]
    out[f"{ab}.self_s"] = self_s[ab]
    out[f"{ab}.points"] = work[ab]
    out[f"{ab}.resolutions_per_call"] = resolutions / calls[ab] if calls[ab] else 0.0
    out["additive_oracle.grid.self_s"] = self_s["additive_oracle.grid"]
    out["additive_oracle.grid.grid_points"] = work["additive_oracle.grid"]
    out["additive_oracle.radial.self_s"] = self_s["additive_oracle.radial"]
    return out


# metrics that count work: they must repeat exactly from one pass to the next
COUNT_SUFFIXES = (".calls", ".dense_terms", ".samples", ".points", ".grid_points",
                  ".resolutions_per_call", ".bytes_written")


def is_count(name: str) -> bool:
    return name.endswith(COUNT_SUFFIXES)


def unit_of(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(".share") or name.endswith("_frac"):
        return "frac"
    if name.endswith(".bytes_written"):
        return "bytes"
    if name.endswith(".resolutions_per_call"):
        return "ratio"
    return "count"
