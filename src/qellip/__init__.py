"""Quantum noise limits of ellipsometry.

Exact two-mode Fock simulation of the relative-phase / photon-difference
operator pair, closed-form and numerical moments for coherent, squeezed,
Mathieu, and von Mises inputs, and classical transfer-matrix ellipsometry
with quantum noise propagation.
"""

from .errors import (
    DimensionMismatchError,
    InconsistentSolutionError,
    InvalidParameterError,
    InvalidStateError,
    NumericalDomainError,
    QellipError,
    StackParseError,
    TruncationError,
)
from .fock import (
    LayerState,
    TwoModeFockState,
    coherent_state,
    displaced_squeezed_state,
    embed_phase_state,
    squeezed_for_mean_photons,
)
from .mathieu import (
    MathieuSolution,
    eval_ce,
    mathieu_variances,
    se_even_eigenvalue,
    solve_even_mathieu,
    theta_series,
)
from .noise import (
    MomentReport,
    RhoUncertainty,
    ScalingFit,
    StateFamily,
    analyze,
    coherent_family,
    mathieu_family,
    rho_uncertainty,
    scaling_sweep,
    squeezed_family,
    von_mises_family,
)
from .optics import (
    EllipsometricResult,
    Layer,
    LayerStack,
    fresnel_interface,
    load_stack,
    parse_stack_text,
    stack_reflection,
)
from .phase_space import (
    CircularMoments,
    PhaseWaveFunction,
    circular_moments,
    density_profile,
    from_mathieu,
    from_von_mises,
    phase_state,
    rotate,
    shift,
)

__version__ = "0.1.0"
