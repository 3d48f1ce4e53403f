"""Zero-photon catalysis acting on one arm of the entangled source.

Passing a mode through a beam splitter of transmittance T, heralding on
zero photons in the auxiliary port, implements noiseless attenuation:
each coherent amplitude alpha is scaled to sqrt(T) alpha.  The herald
succeeds with probability exp(alpha^2 (T - 1)), which multiplies the
key rate, and the surviving state is the same constellation evaluated
at the attenuated amplitude.
"""

import math
from collections import namedtuple


class ZpcSetting(namedtuple("ZpcSetting", "enabled t")):
    """Catalysis configuration: enabled flag and transmittance t (1 when off)."""

    __slots__ = ()
    # the stock _make, which _replace calls, skips __new__
    _make = classmethod(lambda cls, values: cls(*values))

    def __new__(cls, enabled: bool, t: float = 1.0):
        if not (0.0 < t <= 1.0):
            raise ValueError(f"catalysis transmittance must be in (0, 1], got {t}")
        if not enabled and t != 1.0:
            raise ValueError(f"disabled catalysis has t = 1, got {t}")
        return tuple.__new__(cls, (enabled, t))

    @classmethod
    def off(cls) -> "ZpcSetting":
        return cls(enabled=False)

    @classmethod
    def on(cls, t: float) -> "ZpcSetting":
        return cls(enabled=True, t=t)


def apply_zpc(alpha_sq: float, t: float) -> tuple[float, float]:
    """Attenuate a mean photon number through the herald at transmittance t.

    Returns (T alpha^2, exp(alpha^2 (T - 1))).  Catalysis off is T = 1,
    which passes a finite alpha_sq through untouched with unit success
    probability (1.0 * x == x and exp(x * 0.0) == 1.0).
    """
    if not (0.0 <= alpha_sq < math.inf):
        raise ValueError(f"alpha_sq must be finite and >= 0, got {alpha_sq}")
    if not (0.0 < t <= 1.0):
        raise ValueError(f"catalysis transmittance must be in (0, 1], got {t}")
    return t * alpha_sq, math.exp(alpha_sq * (t - 1.0))
