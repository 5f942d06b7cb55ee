"""Conditional qubit dynamics on the Riemann sphere.

Measurement-selected qubit evolution reduces, on pure states, to iterating a
one-parameter quadratic rational map of the sphere.  This package provides
the sphere arithmetic, the density-matrix channel it comes from, orbit and
cycle analysis with Lyapunov diagnostics, raster/sweep atlases of the
dynamical and parameter planes, the two-qubit extension, and a CLI.

Names and submodules load on first access (PEP 562), so ``import
qubit_chaos`` imports nothing more, and ``qubit_chaos.iterate_orbit`` imports
only the numpy-free :mod:`qubit_chaos.sphere`, as does
``qubit_chaos.lyapunov_overlap``.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "sphere": (
        "INF", "MapParam", "SpherePoint", "apply_map", "as_point", "chordal_distance",
        "overlap_distance", "spherical_derivative", "Orbit", "iterate_orbit",
        "RootFindingError", "ConfigurationError", "LyapunovEstimate", "lyapunov_derivative",
        "lyapunov_overlap",
    ),
    "channel": (
        "density_to_pure", "p_from_angles", "pure_to_density", "purity", "rotate",
        "rotation_unitary", "selection_probability", "squaring_map", "step_density",
        "validate_density",
    ),
    "orbits": (
        "BasinResult", "CriticalReport", "Cycle", "classify_basin", "critical_orbits",
        "cycle_multiplier", "detect_cycle", "find_periodic_points", "make_cycle",
        "periodic_cycles",
    ),
    "atlas": (
        "Raster", "Sweep", "Window", "bifurcation_sweep", "render_julia",
        "render_parameter_space",
    ),
    "twoqubit": (
        "purification_trace", "reduced_state", "rotate_local", "squaring4", "step_two_qubit",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("atlas", "channel", "cli", "kernel", "orbits", "roots", "sphere", "twoqubit")

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
