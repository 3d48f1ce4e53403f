"""Reduction of the two-link relay topology to one equivalent channel.

Alice and Bob each send through fiber to an untrusted middle node that
publishes a Bell-type measurement; Bob's displacement gain g folds his
link into an effective one-way channel from Alice.  The result is a
single transmittance T_C = g^2 T_A / 2 and an equivalent excess noise

    eps_th = 1 + chi_A + (T_B / T_A) (chi_B - 1)
           + (T_B / T_A) (sqrt(2 (V_B - 1) / (g^2 T_B)) - sqrt(V_B + 1))^2

where chi_i = (1 - T_i) / T_i + eps_i.  Choosing g^2 = 2 (V_B - 1) /
(T_B (V_B + 1)) kills the last term, which is the gain used throughout.
"""

import math
from collections import namedtuple
from typing import NamedTuple

# The one fiber loss, dB/km; a loss mu over L is the same channel as this over L mu / 0.2.
FIBER_LOSS_DB_PER_KM = 0.2


def fiber_transmittance(length_km: float) -> float:
    """Power transmittance of a fiber span, 10^(-mu L / 10), mu = FIBER_LOSS_DB_PER_KM."""
    if isinstance(length_km, bool) or not (0.0 <= length_km < math.inf):
        raise ValueError(f"length_km must be a finite number >= 0, got {length_km}")
    return 10.0 ** (-FIBER_LOSS_DB_PER_KM * length_km / 10.0)


def refuse_bool(**numbers) -> None:
    """Refuse a bool among the named numbers of a record: True is an int
    equal to 1, but no length, noise or variance."""
    for name, x in numbers.items():
        if isinstance(x, bool):
            raise ValueError(f"{name} must be a number, got {x}")


class LinkGeometry(namedtuple("LinkGeometry", "l_ac l_bc")):
    """Fiber lengths of the two links to the relay, in km, at FIBER_LOSS_DB_PER_KM."""

    __slots__ = ()
    # the stock _make, which _replace calls, skips __new__
    _make = classmethod(lambda cls, values: cls(*values))

    def __new__(cls, l_ac: float, l_bc: float):
        refuse_bool(l_ac=l_ac, l_bc=l_bc)
        if not (math.isfinite(l_ac) and math.isfinite(l_bc)):
            raise ValueError("link lengths must be finite")
        if l_ac < 0.0 or l_bc < 0.0:
            raise ValueError("link lengths must be >= 0")
        return tuple.__new__(cls, (l_ac, l_bc))

    @property
    def total_km(self) -> float:
        return self.l_ac + self.l_bc

    def scaled(self, total_km: float) -> "LinkGeometry":
        """Same arm ratio stretched to a new total length; a zero-length
        geometry has no ratio and becomes a single Alice-relay link."""
        refuse_bool(total_km=total_km)
        if self.total_km == 0.0:
            return LinkGeometry(total_km, 0.0)
        f = total_km / self.total_km
        if math.isinf(f):  # a subnormal total: stretch each arm's share instead
            share_ac, share_bc = self.l_ac / self.total_km, self.l_bc / self.total_km
            return LinkGeometry(share_ac * total_km, share_bc * total_km)
        return LinkGeometry(self.l_ac * f, self.l_bc * f)


class EquivalentChannel(NamedTuple):
    """One-way channel equivalent to the relay topology."""

    t_a: float
    t_b: float
    chi_a: float
    chi_b: float
    g_sq: float
    t_c: float
    eps_th: float
    chi_t: float


def equivalent_excess_noise(geometry: LinkGeometry, eps_a: float, eps_b: float) -> float:
    """eps_th at the mismatch-cancelling gain, where every v_bob > 1 gives the same value."""
    return equivalent_channel(geometry, eps_a, eps_b, v_bob=2.0).eps_th


def equivalent_channel(
    geometry: LinkGeometry, eps_a: float, eps_b: float, v_bob: float
) -> EquivalentChannel:
    """Collapse both links and Bob's modulation into one channel.

    v_bob is the variance of Bob's mode entering his fiber.  The gain is
    the mismatch-cancelling g^2 of the module docstring; any other gain
    would add that docstring's last term to eps_th.
    """
    numbers = not (isinstance(eps_a, bool) or isinstance(eps_b, bool))
    if not (numbers and 0.0 <= eps_a < math.inf and 0.0 <= eps_b < math.inf):
        raise ValueError(f"eps_a and eps_b must be finite numbers >= 0, got {eps_a}, {eps_b}")
    if not (1.0 < v_bob < math.inf):
        raise ValueError(f"v_bob must be finite and exceed 1, got {v_bob}")
    t_a = fiber_transmittance(geometry.l_ac)
    t_b = fiber_transmittance(geometry.l_bc)
    g_sq = 2.0 * (v_bob - 1.0) / (t_b * (v_bob + 1.0)) if t_b > 0.0 else 0.0
    t_c = g_sq * t_a / 2.0
    if t_a == 0.0 or t_c == 0.0:
        # a link underflowed, or a subnormal t_a made the relay's output do so
        loss_db = FIBER_LOSS_DB_PER_KM * max(geometry.l_ac, geometry.l_bc)
        raise ValueError(f"a {loss_db:g} dB link: its transmittance underflowed to zero")
    chi_a = (1.0 - t_a) / t_a + eps_a
    chi_b = (1.0 - t_b) / t_b + eps_b
    eps_th = 1.0 + chi_a + (t_b / t_a) * (chi_b - 1.0)
    chi_t = 1.0 / t_c - 1.0 + eps_th
    return tuple.__new__(EquivalentChannel, (t_a, t_b, chi_a, chi_b, g_sq, t_c, eps_th, chi_t))
