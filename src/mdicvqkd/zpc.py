"""Zero-photon catalysis acting on one arm of the entangled source.

Passing a mode through a beam splitter of transmittance T, heralding on
zero photons in the auxiliary port, implements noiseless attenuation:
each coherent amplitude alpha is scaled to sqrt(T) alpha.  The herald
succeeds with probability exp(alpha^2 (T - 1)), which multiplies the
key rate, and the surviving state is the same constellation evaluated
at the attenuated amplitude.
"""

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ZpcSetting:
    """Catalysis configuration: enabled flag and transmittance t (1 when off)."""

    enabled: bool
    t: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.t <= 1.0):
            raise ValueError(f"catalysis transmittance must be in (0, 1], got {self.t}")
        if not self.enabled and self.t != 1.0:
            raise ValueError(f"disabled catalysis has t = 1, got {self.t}")

    @classmethod
    def off(cls) -> "ZpcSetting":
        return cls(enabled=False)

    @classmethod
    def on(cls, t: float) -> "ZpcSetting":
        return cls(enabled=True, t=t)

    def with_t(self, t: float) -> "ZpcSetting":
        """Same enabled flag, new transmittance (identity when disabled)."""
        if not self.enabled:
            return self
        return ZpcSetting(enabled=True, t=t)


def apply_zpc(alpha_sq: float, setting: ZpcSetting) -> tuple[float, float]:
    """Attenuate a mean photon number through the catalysis herald.

    Returns (T alpha^2, exp(alpha^2 (T - 1))).  A disabled setting has
    T = 1, which passes a finite alpha_sq through untouched with unit
    success probability (1.0 * x == x and exp(x * 0.0) == 1.0).
    """
    if alpha_sq < 0.0:
        raise ValueError(f"alpha_sq must be >= 0, got {alpha_sq}")
    return setting.t * alpha_sq, math.exp(alpha_sq * (setting.t - 1.0))
