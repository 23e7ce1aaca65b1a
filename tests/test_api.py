"""The public surface of every module: each name listed in __all__ must be
bound, so that ``from quatgamma.<module> import *`` and tools that walk
__all__ (such as a call tracer) never meet a stale entry, and the
parameters with defaults on that surface are pinned, so that a new option
shows up as an edit here."""

import importlib
import inspect
import pkgutil

import pytest

import quatgamma

MODULES = ["quatgamma"] + [
    f"quatgamma.{info.name}" for info in pkgutil.iter_modules(quatgamma.__path__)
]


def test_every_module_is_listed():
    assert "quatgamma.spectral_line" in MODULES and "quatgamma.cli" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    names = getattr(module, "__all__", [])
    assert len(set(names)) == len(names), "duplicate __all__ entry"
    assert [n for n in names if not hasattr(module, n)] == []


# every defaulted parameter of the functions, methods and dataclass
# __init__s that each module lists in __all__ and defines itself
DEFAULTED_PARAMETERS = {
    "quatgamma.additive_oracle.radial_fourier": ("r_max", "tol"),
    "quatgamma.additive_oracle.distribution_G": ("log_floor", "nodes_per_panel", "angular_nodes"),
    "quatgamma.additive_oracle.homogeneity_check": ("u_half_width",),
    "quatgamma.additive_oracle.op_b_via_distribution": (
        "log_floor",
        "nodes_per_panel",
        "angular_nodes",
    ),
    "quatgamma.connes_trace.TraceConfig.__init__": ("lambdas", "tolerance"),
    "quatgamma.connes_trace.trace_direct": ("tol", "v_min", "nodes_per_panel"),
    "quatgamma.connes_trace.trace_spectral": ("tol",),
    "quatgamma.connes_trace.fit_trace_expansion": ("min_lambda",),
    "quatgamma.gamma_op.IsotypicFunction.from_log_function": (
        "v_spacing",
        "v_half_width",
        "tau_spacing",
        "tau_half_width",
    ),
    "quatgamma.gamma_op.IsotypicFunction.__init__": ("v_spacing", "v_half_width"),
    "quatgamma.gamma_op.gaussian_isotypic": ("N", "center", "width"),
    "quatgamma.quat_core.Quaternion.__init__": ("x1", "x2", "x3"),
    "quatgamma.specfun.gamma0_expansion": ("tol",),
    "quatgamma.spectral_line.to_spectral": ("spacing", "half_width"),
    "quatgamma.spectral_line.from_spectral": ("spacing", "half_width"),
    "quatgamma.su2_angular.angular_quadrature": ("n_nodes",),
}


def _defaulted_parameters(module):
    found = {}
    for name in getattr(module, "__all__", []):
        obj = getattr(module, name)
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        members = [(name, obj)]
        if inspect.isclass(obj):
            members = [(f"{name}.{k}", getattr(v, "__func__", v)) for k, v in vars(obj).items()]
        for qualname, fn in members:
            if not inspect.isfunction(fn):
                continue
            params = inspect.signature(fn).parameters.values()
            names = tuple(p.name for p in params if p.default is not p.empty)
            if names:
                found[f"{module.__name__}.{qualname}"] = names
    return found


def test_defaulted_parameters_are_pinned():
    found = {}
    for name in MODULES:
        found.update(_defaulted_parameters(importlib.import_module(name)))
    assert found == DEFAULTED_PARAMETERS
    assert sum(len(names) for names in found.values()) == 34
