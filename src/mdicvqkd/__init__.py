"""Asymptotic key rates for discrete-modulated MDI-CV-QKD.

Coherent-state four- and eight-state protocols with an untrusted relay,
optionally preceded by zero-photon catalysis on the sender's arm.  The
package computes the collective-attack asymptotic rate from the
equivalent one-way channel reduction, optimizes the free parameters,
and emits the standard parameter studies as CSV datasets.
"""

__version__ = "0.1.0"

from importlib import import_module

from .modulation import Scheme, correlation_z, gaussian_z, lambdas
from .zpc import ZpcSetting, apply_zpc
from .channel import LinkGeometry, EquivalentChannel, equivalent_channel, equivalent_excess_noise
from .channel import fiber_transmittance
from .keyrate import KeyRateResult, NonPhysicalStateError, ProtocolConfig, evaluate_protocol
from .keyrate import secret_key_rate
from .presets import Case, Variant

# Names of the optimizer and figure layers, and those two modules, resolve
# on first access, so importing the package (as every CLI process does)
# loads only the evaluation layers above.
_LAZY = {
    "optimize": "optimize",
    "scenarios": "scenarios",
    "OptimizationGrid": "optimize",
    "beta_zero_crossing": "optimize",
    "max_distance": "optimize",
    "optimize_t": "optimize",
    "optimize_tv": "optimize",
    "Dataset": "scenarios",
    "run_figure": "scenarios",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f"{__name__}.{_LAZY[name]}")
    return module if name == _LAZY[name] else getattr(module, name)


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
    "KeyRateResult",
    "NonPhysicalStateError",
    "ProtocolConfig",
    "evaluate_protocol",
    "secret_key_rate",
    "OptimizationGrid",
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
