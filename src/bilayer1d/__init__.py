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
    convert_energy,
)
from .kernels import SERIES_CUTOFF, cos_sqrt, sinc_sqrt, tanc_sqrt
from .xfer import (
    NotAnEigenvalueError,
    PiecewiseWave,
    RTCoefficients,
    ScatteringData,
    ScatteringPoleError,
    TransferMatrix,
    amplitude_grid,
    amplitude_ratio_expressions,
    bound_state_residual,
    cancellation_gap,
    divergence_residual,
    matrix_entries,
    reflection_transmission,
    scattering_data,
    scattering_wavefunction,
    total_matrix,
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
    classify_second_angle,
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
    IntegrationConfig,
    integrate_bound,
    integrate_scatter,
    oracle_entries,
    scatter_grid,
)
from . import probes

__version__ = "0.1.0"

__all__ = [
    "EV_TO_INV_NM2",
    "SERIES_CUTOFF",
    "BoundLadder",
    "ChiProblem",
    "DivergentLimitError",
    "DoubleLayerSpec",
    "IntegrationConfig",
    "InteractionReport",
    "LadderReport",
    "NotAnEigenvalueError",
    "PairingResult",
    "PiecewiseWave",
    "RTCoefficients",
    "ScatteringData",
    "ScatteringPoleError",
    "SqueezeFamily",
    "SqueezedInteraction",
    "SweepResult",
    "TransferMatrix",
    "Wavenumber",
    "amplitude_grid",
    "amplitude_ratio_expressions",
    "as_wavenumber",
    "bound_state_residual",
    "build_chi_problem",
    "cancellation_gap",
    "classify_first_angle",
    "classify_region",
    "classify_second_angle",
    "convert_energy",
    "cos_sqrt",
    "delta_prime_pairing",
    "divergence_residual",
    "eps_log_grid",
    "find_roots",
    "forced_branch",
    "gamma_strength",
    "integrate_bound",
    "integrate_scatter",
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
    "total_matrix",
    "verify_ladder",
]
