"""Zero-photon catalysis acting on one arm of the entangled source.

Passing a mode through a beam splitter of transmittance T, heralding on
zero photons in the auxiliary port, implements noiseless attenuation:
each coherent amplitude alpha is scaled to sqrt(T) alpha.  The herald
succeeds with probability exp(alpha^2 (T - 1)), which multiplies the
key rate, and the surviving state is the same constellation evaluated
at the attenuated amplitude.
"""

import math

from .modulation import check_nonneg


class ZpcSetting:
    """Builds ProtocolConfig.zpc: a transmittance in (0, 1], or None when catalysis is off."""

    @staticmethod
    def on(t: float) -> float:
        if isinstance(t, bool) or not (0.0 < t <= 1.0):
            raise ValueError(f"catalysis transmittance must be in (0, 1], got {t}")
        return t

    @staticmethod
    def off() -> None:
        return None


def apply_zpc(alpha_sq: float, t: float) -> tuple[float, float]:
    """Attenuate a mean photon number through the herald at transmittance t.

    Returns (T alpha^2, exp(alpha^2 (T - 1))).  Catalysis off is T = 1,
    which passes a finite alpha_sq through untouched with unit success
    probability (1.0 * x == x and exp(x * 0.0) == 1.0).
    """
    check_nonneg("alpha_sq", alpha_sq)
    ZpcSetting.on(t)
    return t * alpha_sq, math.exp(alpha_sq * (t - 1.0))
