"""Secret key rate of the relay protocol under collective attacks.

The pipeline: attenuate the source through the catalysis herald, build
the two-mode covariance matrix seen by Alice and the equivalent channel
output, then score it.  The rate is

    SKR = P_d (beta I_AB - chi_BE)

per protocol use, including the herald probability; negative values
mean no key at those settings and are reported as-is.
"""

import math
from collections import namedtuple
from collections.abc import Callable
from typing import NamedTuple

from .channel import EquivalentChannel, LinkGeometry, equivalent_channel
from .modulation import ALPHA_SQ_MAX, Scheme, check_nonneg, correlation_z
from .zpc import ZpcSetting, apply_zpc

# States are declared unphysical only below this, leaving room for
# honest rounding at pure-state boundaries where kappa = 1 exactly.
KAPPA_TOL = 1e-9

# Above this the two products in G(x) = (x+1) log2(x+1) - x log2 x cancel
# to a relative error of about x * 2^-53, all digits by x = 2^53, so G is
# summed as log2(x+1) + x log2(1 + 1/x) instead.  Below it the first form
# is within about 2e-13 and is kept, so every rate there keeps its digits.
_G_CANCELS = 1e3

# Largest source variance accepted, 1001: the weights take alpha^2 up to there,
# and the scorer's products of size V^2 still keep their O(1) differences.
VARIANCE_MAX = 1.0 + 2.0 * ALPHA_SQ_MAX

# Proven security region of the discrete-modulation argument: the
# effective modulation variance reaching the channel has to stay small
# for the Gaussian-channel reduction to hold.
DOMAIN_V_M_MAX = 0.5


class NonPhysicalStateError(ValueError):
    """Covariance matrix fails the physicality conditions."""


class ProtocolConfig(
    namedtuple("ProtocolConfig", "scheme zpc variance_v beta eps_a eps_b geometry")
):
    """Complete description of one protocol evaluation: a Scheme, the
    catalysis transmittance zpc (None when off), floats variance_v, beta,
    eps_a and eps_b, and a LinkGeometry.

    variance_v is the source variance V = 1 + V_M shared by both arms;
    catalysis attenuates only Alice's arm.  Excess noises are per-link,
    in shot-noise units.
    """

    __slots__ = ()
    # the stock _make, which _replace calls, skips __new__
    _make = classmethod(lambda cls, values: cls(*values))

    def __new__(cls, scheme, zpc, variance_v, beta, eps_a, eps_b, geometry):
        if not isinstance(scheme, Scheme):
            raise ValueError(f"scheme must be a Scheme, got {scheme!r}")
        if not isinstance(geometry, LinkGeometry):
            raise ValueError(f"geometry must be a LinkGeometry, got {geometry!r}")
        if zpc is not None:
            ZpcSetting.on(zpc)
        if isinstance(variance_v, bool) or not (1.0 < variance_v <= VARIANCE_MAX):
            raise ValueError(f"variance_v must be in (1, {VARIANCE_MAX:g}], got {variance_v}")
        if isinstance(beta, bool) or not (0.0 < beta <= 1.0):
            raise ValueError(f"beta must be in (0, 1], got {beta}")
        check_nonneg("eps_a", eps_a)
        check_nonneg("eps_b", eps_b)
        return tuple.__new__(cls, (scheme, zpc, variance_v, beta, eps_a, eps_b, geometry))

    @property
    def alpha_sq(self) -> float:
        return (self.variance_v - 1.0) / 2.0

    @property
    def warn_domain(self) -> bool:
        """True when the effective modulation variance T V_M leaves the region
        where the security argument is proven; evaluation still proceeds."""
        return self.t * (self.variance_v - 1.0) > DOMAIN_V_M_MAX

    @property
    def t(self) -> float:
        """The catalysis transmittance evaluated: zpc, or 1 when catalysis is off."""
        return 1.0 if self.zpc is None else self.zpc

    def at_t(self, t: float) -> "ProtocolConfig":
        """This config at catalysis transmittance t; itself when catalysis is off."""
        return self if self.zpc is None else self._replace(zpc=t)


# Computed, not given: plain NamedTuples (a NamedTuple cannot validate in __new__),
# which the scorer builds with tuple.__new__, skipping the generated __new__.
class KeyRateResult(NamedTuple):
    """Score of one configuration; fields are None when non-physical."""

    p_d: float
    i_ab: float | None
    chi_be: float | None
    kappa1: float | None
    kappa2: float | None
    kappa3: float | None
    skr: float | None
    physical: bool


class Evaluation(NamedTuple):
    """Key-rate result bundled with the intermediates that produced it."""

    result: KeyRateResult
    channel: EquivalentChannel
    attenuated_alpha_sq: float


def mutual_information(a: float, b: float, c: float) -> float:
    """Shannon information of the heterodyne outcomes, bits per use."""
    if not (-math.inf < a < math.inf and -math.inf < b < math.inf and -math.inf < c < math.inf):
        raise NonPhysicalStateError("covariance entries must be finite")
    denom = (a + 1.0) - c * c / (b + 1.0)
    if denom <= 0.0:
        raise NonPhysicalStateError(f"correlation exceeds the physical bound: c={c}")
    return math.log2((a + 1.0) / denom)


def von_neumann_g(x: float) -> float:
    """Thermal-state entropy G(x) = (x+1) log2(x+1) - x log2 x; rounding slop
    down to -KAPPA_TOL counts as 0, and NaN, inf and lower x are refused."""
    if 0.0 < x <= _G_CANCELS:
        return (x + 1.0) * math.log2(x + 1.0) - x * math.log2(x)
    if _G_CANCELS < x < math.inf:
        return math.log2(x + 1.0) + x * math.log1p(1.0 / x) / math.log(2.0)
    if -KAPPA_TOL <= x <= 0.0:
        return 0.0
    raise ValueError(f"G requires a finite x >= 0, got {x}")


def symplectic_eigenvalues(a: float, b: float, c: float) -> tuple[float, float, float]:
    """Symplectic spectrum (kappa1 >= kappa2) plus the conditional kappa3
    of the two-mode covariance with diagonal blocks a, b and correlation c.

    kappa_{1,2}^2 = [Delta +- sqrt(Delta^2 - 4 F^2)] / 2 with
    Delta = a^2 + b^2 - 2 c^2 and F = ab - c^2.  The discriminant is
    evaluated in the factored form (a-b)^2 ((a+b)^2 - 4c^2) and kappa2
    as F / kappa1, both to dodge cancellation; kappa1 kappa2 = F then
    holds to rounding by construction.
    """
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c)):
        raise NonPhysicalStateError("covariance entries must be finite")
    if a < 1.0 - KAPPA_TOL or b < 1.0 - KAPPA_TOL:
        raise NonPhysicalStateError(f"single-mode variances below vacuum: a={a}, b={b}")
    f = a * b - c * c
    # products, not **: float pow raises OverflowError where * yields inf,
    # and inf is handled below as a non-physical state
    disc = ((a - b) * (a - b)) * ((a + b) * (a + b) - 4.0 * c * c)
    if disc < 0.0 or f <= 0.0 or not math.isfinite(disc):
        raise NonPhysicalStateError(f"no real symplectic spectrum: disc={disc}, F={f}")
    delta = a * a + b * b - 2.0 * c * c
    kappa1 = math.sqrt((delta + math.sqrt(disc)) / 2.0)
    if not (kappa1 > 0.0):
        raise NonPhysicalStateError(f"Delta + sqrt(disc) rounded to zero with F={f}")
    kappa2 = f / kappa1
    kappa3 = a - c * c / (b + 1.0)
    for k in (kappa1, kappa2, kappa3):
        if not math.isfinite(k) or k < 1.0 - KAPPA_TOL:
            raise NonPhysicalStateError(f"symplectic eigenvalue below 1: {k}")
    return kappa1, kappa2, kappa3


def _score(
    config: ProtocolConfig, t: float, chan: EquivalentChannel
) -> tuple[KeyRateResult, float]:
    """Score config at catalysis transmittance t through channel chan.

    Alice's variance and the correlation are those of the attenuated
    source (a = 1 + 2 T alpha^2, Z at T alpha^2); the channel stretch and
    added noise act on the b and c entries.  Returns the result and T alpha^2.
    """
    atten, p_d = apply_zpc(config.alpha_sq, t)
    x_t = 1.0 + 2.0 * atten
    b = chan.t_c * (x_t + chan.chi_t)
    c = math.sqrt(chan.t_c) * correlation_z(config.scheme, atten)
    try:
        kappa1, kappa2, kappa3 = symplectic_eigenvalues(x_t, b, c)
    except NonPhysicalStateError:
        result = (p_d, None, None, None, None, None, None, False)
        return tuple.__new__(KeyRateResult, result), atten
    # accepted: finite entries and kappas >= 1 - KAPPA_TOL, so all below is finite
    i_ab = mutual_information(x_t, b, c)
    chi_be = (
        von_neumann_g((kappa1 - 1.0) / 2.0)
        + von_neumann_g((kappa2 - 1.0) / 2.0)
        - von_neumann_g((kappa3 - 1.0) / 2.0)
    )
    skr = p_d * (config.beta * i_ab - chi_be)
    result = (p_d, i_ab, chi_be, kappa1, kappa2, kappa3, skr, True)
    return tuple.__new__(KeyRateResult, result), atten


def rate_over_t(config: ProtocolConfig) -> Callable[[float], KeyRateResult]:
    """The key rate of config as a function of the catalysis transmittance.

    The channel does not depend on T (Bob's arm carries the unattenuated
    V), so it is built once here and no record is built per T: rate(t)
    equals secret_key_rate(config.at_t(t)) bit for bit (T = 1 when off).
    """
    chan = equivalent_channel(config.geometry, config.eps_a, config.eps_b, config.variance_v)

    def rate(t: float) -> KeyRateResult:
        return _score(config, config.t if config.zpc is None else t, chan)[0]

    return rate


def evaluate_protocol(config: ProtocolConfig) -> Evaluation:
    """Run the full pipeline, keeping the channel and T alpha^2 it scored.

    Non-physical covariances do not raise; they yield a result with
    physical = False and the score fields unset.
    """
    chan = equivalent_channel(config.geometry, config.eps_a, config.eps_b, config.variance_v)
    result, atten = _score(config, config.t, chan)
    return tuple.__new__(Evaluation, (result, chan, atten))


def secret_key_rate(config: ProtocolConfig) -> KeyRateResult:
    """Secret key rate in bits per protocol use (herald factor included)."""
    return evaluate_protocol(config).result
