"""Conventions of the parameter studies: the protocol variants, the relay
placements, the preset beta, eps and source variances, and the configs
built from them, which also give the CLI its defaults."""

from enum import Enum

from .channel import LinkGeometry
from .keyrate import ProtocolConfig
from .modulation import Scheme, check_nonneg

DEFAULT_BETA = 0.95
DEFAULT_EPS = 0.002


class Case(Enum):
    """Relay placement: at Bob's site or midway."""

    ASYMMETRIC = "asymmetric"
    SYMMETRIC = "symmetric"


class Variant(Enum):
    """The four protocol flavors compared throughout."""

    FOUR = "four"
    EIGHT = "eight"
    FOUR_ZPC = "four_zpc"
    EIGHT_ZPC = "eight_zpc"

    @property
    def scheme(self) -> Scheme:
        return Scheme.FOUR if self in (Variant.FOUR, Variant.FOUR_ZPC) else Scheme.EIGHT

    @property
    def zpc_enabled(self) -> bool:
        return self in (Variant.FOUR_ZPC, Variant.EIGHT_ZPC)


# Source variances giving the best rate for each variant, from the
# variance-distance surfaces (asymmetric read near 30 km, symmetric
# near 0.1 km).
OPTIMAL_V = {
    (Case.ASYMMETRIC, Variant.FOUR): 1.4,
    (Case.ASYMMETRIC, Variant.EIGHT): 1.5,
    (Case.ASYMMETRIC, Variant.FOUR_ZPC): 2.5,
    (Case.ASYMMETRIC, Variant.EIGHT_ZPC): 2.6,
    (Case.SYMMETRIC, Variant.FOUR): 1.5,
    (Case.SYMMETRIC, Variant.EIGHT): 1.8,
    (Case.SYMMETRIC, Variant.FOUR_ZPC): 2.6,
    (Case.SYMMETRIC, Variant.EIGHT_ZPC): 2.7,
}


def geometry_for(case: Case, distance_km: float) -> LinkGeometry:
    """Link geometry whose reported distance is distance_km.

    Asymmetric: the whole span is the Alice-relay link.  Symmetric: the
    distance is the Alice-Bob total split in half.
    """
    check_nonneg("distance_km", distance_km)
    if case is Case.ASYMMETRIC:
        return LinkGeometry(distance_km, 0.0)
    return LinkGeometry(distance_km / 2.0, distance_km / 2.0)


def config_for(
    variant: Variant,
    case: Case,
    distance_km: float,
    variance_v: float | None = None,
    beta: float = DEFAULT_BETA,
    eps: float = DEFAULT_EPS,
) -> ProtocolConfig:
    """Preset configuration for one variant; T starts at 1 (optimizers
    and sweeps replace it)."""
    if variance_v is None:
        variance_v = OPTIMAL_V[(case, variant)]
    return ProtocolConfig(
        scheme=variant.scheme,
        zpc=1.0 if variant.zpc_enabled else None,
        variance_v=variance_v,
        beta=beta,
        eps_a=eps,
        eps_b=eps,
        geometry=geometry_for(case, distance_km),
    )
