"""Scattering, bound levels and squeezing limits of a two-layer structure.

A numpy/scipy library for the stationary wave equation
-psi'' + V psi = k^2 psi with a piecewise-constant potential made of two
slabs and a gap.  It provides exact transfer matrices and amplitudes,
bound-level ladders, and the zero-width (squeezing) limits in which the
structure converges to a point interaction.
"""

from .core import (
    EV_TO_INV_NM2,
    DoubleLayerSpec,
    Wavenumber,
    as_wavenumber,
)
from .kernels import cos_sqrt, sinc_sqrt, tanc_sqrt
from .xfer import (
    NotAnEigenvalueError,
    RTCoefficients,
    ScatteringData,
    amplitude_grid,
    amplitude_ratio_expressions,
    matrix_entries,
    reflection_transmission,
    scattering_data,
    scattering_wavefunction,
)
from .bound import (
    BoundLadder,
    ChiProblem,
    LadderReport,
    build_chi_problem,
    find_roots,
    verify_ladder,
)
from .limits import DivergentLimitError, SqueezedInteraction
from .squeeze import (
    InteractionReport,
    PairingResult,
    SqueezeFamily,
    SweepResult,
    classify_first_angle,
    classify_region,
    delta_prime_pairing,
    eps_log_grid,
    forced_branch,
    gamma_strength,
    interaction_limit,
    realize,
    resonance_residual_of,
    sweep_ladder,
)
from .oracle import (
    integrate_bound,
    oracle_entries,
    scatter_grid,
)
from . import probes

__version__ = "0.1.0"

__all__ = [
    "EV_TO_INV_NM2",
    "BoundLadder",
    "ChiProblem",
    "DivergentLimitError",
    "DoubleLayerSpec",
    "InteractionReport",
    "LadderReport",
    "NotAnEigenvalueError",
    "PairingResult",
    "RTCoefficients",
    "ScatteringData",
    "SqueezeFamily",
    "SqueezedInteraction",
    "SweepResult",
    "Wavenumber",
    "amplitude_grid",
    "amplitude_ratio_expressions",
    "as_wavenumber",
    "build_chi_problem",
    "classify_first_angle",
    "classify_region",
    "cos_sqrt",
    "delta_prime_pairing",
    "eps_log_grid",
    "find_roots",
    "forced_branch",
    "gamma_strength",
    "integrate_bound",
    "interaction_limit",
    "matrix_entries",
    "oracle_entries",
    "probes",
    "realize",
    "reflection_transmission",
    "resonance_residual_of",
    "scatter_grid",
    "scattering_data",
    "scattering_wavefunction",
    "sinc_sqrt",
    "sweep_ladder",
    "tanc_sqrt",
    "verify_ladder",
]
