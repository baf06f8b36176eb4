"""Quantum noise limits of ellipsometry.

Exact two-mode Fock simulation of the relative-phase / photon-difference
operator pair, closed-form and numerical moments for coherent, squeezed,
Mathieu, and von Mises inputs, and classical transfer-matrix ellipsometry
with quantum noise propagation.

``import qellip`` loads no submodule: each public name below, and each
submodule (``qellip.noise``, ``qellip.optics``, ...), is imported at its
first use (PEP 562), so a process pays only for the modules it touches.
"""

import importlib

__version__ = "0.1.0"

#: each submodule and the public names it defines
_EXPORTS = {
    "errors": ("DimensionMismatchError", "InconsistentSolutionError",
               "InvalidParameterError", "InvalidStateError", "NumericalDomainError",
               "QellipError", "StackParseError", "TruncationError"),
    "fock": ("LayerState", "TwoModeFockState", "coherent_state",
             "displaced_squeezed_state", "embed_phase_state",
             "squeezed_for_mean_photons"),
    "mathieu": ("MathieuSolution", "eval_ce", "mathieu_variances", "se_even_eigenvalue",
                "solve_even_mathieu", "theta_series"),
    "noise": ("MomentReport", "RhoUncertainty", "ScalingFit", "StateFamily", "analyze",
              "coherent_family", "mathieu_family", "rho_uncertainty", "scaling_sweep",
              "squeezed_family", "von_mises_family"),
    "optics": ("EllipsometricResult", "Layer", "LayerStack", "fresnel_interface",
               "load_stack", "parse_stack_text", "stack_reflection"),
    "phase_space": ("CircularMoments", "PhaseWaveFunction", "circular_moments",
                    "density_profile", "from_mathieu", "from_von_mises", "phase_state",
                    "rotate", "shift"),
}

_SUBMODULES = ("cli", *_EXPORTS)
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_SUBMODULES, *_HOME})
