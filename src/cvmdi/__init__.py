"""Security analysis toolkit for continuous-variable MDI QKD.

Computes asymptotic secret key rates of the squeezed-state protocol, its
trusted-added-noise variant, and the coherent-state baseline, plus the
distance sweeps and noise optimizations behind the comparison tables.
"""

__version__ = "0.1.0"

from .errors import (
    CVMDIError,
    InvalidParameterError,
    NumericDomainError,
    StructuralError,
)
from .gaussian import (
    GaussianState,
    TwoModeCov,
    apply_beamsplitter,
    epr_state,
    g_func,
    heterodyne_condition,
    homodyne_condition,
    linear_feedforward,
    partial_trace,
    symplectic_eigenvalues,
    symplectic_form,
    tensor,
    thermal_state,
    two_mode_symplectic,
    vacuum_state,
    von_neumann_entropy,
)
from .protocols import (
    AddedNoiseParams,
    KeyRateReport,
    ProtocolParams,
    build_mdi_state,
    channel_transmittance,
    cloner_variance,
    extract_two_mode,
    holevo_generic,
    holevo_rr_coherent,
    holevo_rr_modified,
    holevo_rr_squeezed,
    key_rate,
    mutual_information_heterodyne,
    mutual_information_homodyne,
    optimal_gain,
)
from .analysis import (
    ComparisonRow,
    ComparisonTable,
    MaxDistanceResult,
    SweepResult,
    SweepRow,
    SweepSpec,
    compare_protocols,
    max_distance,
    optimize_added_noise,
    sweep,
)

__all__ = [
    "__version__",
    "CVMDIError", "InvalidParameterError", "NumericDomainError", "StructuralError",
    "GaussianState", "TwoModeCov",
    "apply_beamsplitter", "epr_state", "g_func", "heterodyne_condition",
    "homodyne_condition", "linear_feedforward", "partial_trace",
    "symplectic_eigenvalues", "symplectic_form", "tensor", "thermal_state",
    "two_mode_symplectic", "vacuum_state", "von_neumann_entropy",
    "AddedNoiseParams", "KeyRateReport", "ProtocolParams",
    "build_mdi_state", "channel_transmittance", "cloner_variance",
    "extract_two_mode", "holevo_generic", "holevo_rr_coherent",
    "holevo_rr_modified", "holevo_rr_squeezed", "key_rate",
    "mutual_information_heterodyne", "mutual_information_homodyne",
    "optimal_gain",
    "ComparisonRow", "ComparisonTable", "MaxDistanceResult",
    "SweepResult", "SweepRow", "SweepSpec",
    "compare_protocols", "max_distance", "optimize_added_noise", "sweep",
]
