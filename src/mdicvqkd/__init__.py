"""Asymptotic key rates for discrete-modulated MDI-CV-QKD.

Coherent-state four- and eight-state protocols with an untrusted relay,
optionally preceded by zero-photon catalysis on the sender's arm.  The
package computes the collective-attack asymptotic rate from the
equivalent one-way channel reduction, optimizes the free parameters,
and emits the standard parameter studies as CSV datasets.
"""

__version__ = "0.1.0"

from .modulation import Scheme, correlation_z, gaussian_z, lambdas
from .zpc import ZpcSetting, apply_zpc
from .channel import (
    LinkGeometry,
    EquivalentChannel,
    equivalent_channel,
    equivalent_excess_noise,
    fiber_transmittance,
    optimal_g_sq,
)
from .keyrate import (
    KeyRateResult,
    NonPhysicalStateError,
    ProtocolConfig,
    evaluate_protocol,
    secret_key_rate,
)
from .optimize import (
    MaxDistance,
    OptimizationGrid,
    TOptimum,
    TvOptimum,
    beta_zero_crossing,
    max_distance,
    optimize_t,
    optimize_tv,
)
from .scenarios import Case, Dataset, Variant, run_figure

__all__ = [
    "Scheme",
    "correlation_z",
    "gaussian_z",
    "lambdas",
    "ZpcSetting",
    "apply_zpc",
    "LinkGeometry",
    "EquivalentChannel",
    "equivalent_channel",
    "equivalent_excess_noise",
    "fiber_transmittance",
    "optimal_g_sq",
    "KeyRateResult",
    "NonPhysicalStateError",
    "ProtocolConfig",
    "evaluate_protocol",
    "secret_key_rate",
    "MaxDistance",
    "OptimizationGrid",
    "TOptimum",
    "TvOptimum",
    "max_distance",
    "optimize_t",
    "optimize_tv",
    "Case",
    "Dataset",
    "Variant",
    "beta_zero_crossing",
    "run_figure",
    "__version__",
]
