"""Security analysis toolkit for continuous-variable MDI QKD.

Computes asymptotic secret key rates of the squeezed-state protocol, its
trusted-added-noise variant, and the coherent-state baseline, plus the
distance sweeps and noise optimizations behind the comparison tables.
Every rate is a scalar function of the reduced relay state (a, b, c),
computed with ``math`` only, so ``import cvmdi`` does not load numpy.  The
multimode Gaussian engine, the tests' oracle, is not exported here and
not imported with the package: it is ``cvmdi.matrix``, loaded on first use.
"""

__version__ = "0.1.0"

from .errors import CVMDIError, InvalidParameterError, NumericDomainError
from .gaussian import g_func, two_mode_symplectic
from .protocols import (
    AddedNoiseParams,
    KeyRateReport,
    ProtocolParams,
    channel_transmittance,
    key_rate,
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
    "CVMDIError", "InvalidParameterError", "NumericDomainError",
    "AddedNoiseParams", "KeyRateReport", "ProtocolParams",
    "channel_transmittance", "g_func", "key_rate", "optimal_gain", "two_mode_symplectic",
    "ComparisonRow", "ComparisonTable", "MaxDistanceResult",
    "SweepResult", "SweepRow", "SweepSpec",
    "compare_protocols", "max_distance", "optimize_added_noise", "sweep",
]
