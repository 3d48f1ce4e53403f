"""Discrete-modulation constants for coherent-state constellations.

A phase-encoded constellation of M coherent states (all with the same
real amplitude alpha) decomposes into M orthogonal states whose weights
lambda_k are the probabilities that a Poisson variable with mean alpha^2
falls in residue class k mod M.  Those weights determine the correlation
coefficient Z of the equivalent two-mode entangled state, which is the
only constellation-dependent quantity entering the key-rate analysis.

All quantities are in shot-noise units; the modulation variance is
V_M = 2 alpha^2.
"""

import math
from enum import Enum


class Scheme(Enum):
    """Modulation constellation: 4 or 8 phases."""

    FOUR = "four"
    EIGHT = "eight"


# Reading a member through its class costs several times a global read.
_FOUR, _EIGHT = Scheme.FOUR, Scheme.EIGHT

_SQRT2 = math.sqrt(2.0)

# Below this the closed forms cancel down to values near the 1e-16 noise
# floor of cosh/cos (the smallest weight scales like alpha_sq^7), so the
# all-positive Poisson sum is used there instead.
_CLOSED_FORM_MIN = 1.0

# Largest alpha_sq the weights take (keyrate.VARIANCE_MAX); every class holds 1/M
# there to 1e-13 (the deviation decays like exp(-alpha_sq * (1 - cos(2*pi/M)))).
ALPHA_SQ_MAX = 500.0

# Half an ulp of x is at least x * 2^-54, so x + t == x for any t below it.
_HALF_ULP = 2.0**-54

# Floor applied to denominators in the Z sum purely to avoid division
# exceptions; every affected term is zero or vanishes in exact arithmetic.
_DENOM_FLOOR = 1e-300


def check_nonneg(name: str, x: float) -> float:
    """The one check of an alpha_sq, length or excess noise: a finite number
    >= 0, and no bool (True is an int equal to 1); returns x."""
    if isinstance(x, bool) or not (0.0 <= x < math.inf):
        raise ValueError(f"{name} must be a finite number >= 0, got {x}")
    return x


def _poisson_residue_sums(alpha_sq: float, modulus: int) -> list[float]:
    """Accumulate the Poisson pmf with mean alpha_sq into residue classes.

    All terms are positive, so nothing cancels and every class keeps full
    relative precision.  `lambdas` sends only alpha_sq < 1, where each
    term is below the one before and the classes only grow: once every
    class holds its first term, a term below min(classes) * 2^-54, half
    an ulp of the smallest class, and every term after it round away.
    The list is bit for bit the one obtained by summing until the terms
    fall below 1e-300, which stays the exit for alpha_sq = 0 and for
    classes too small for that floor.
    """
    out = [0.0] * modulus
    term = math.exp(-alpha_sq)
    n = 0
    while n < modulus and term >= 1e-300:
        out[n] = term
        n += 1
        term *= alpha_sq / n
    limit = max(min(out) * _HALF_ULP, 1e-300)
    while term >= limit:
        out[n % modulus] += term
        n += 1
        term *= alpha_sq / n
    return out


def _lambdas_eight_closed(x: float) -> list[float]:
    # Discrete-Fourier resummation of the Poisson tail over the 8th roots
    # of unity; the cross terms live at x/sqrt(2).
    pref = 0.25 * math.exp(-x)
    ch, sh = math.cosh(x), math.sinh(x)
    co, si = math.cos(x), math.sin(x)
    xr = x / _SQRT2
    chr_, shr = math.cosh(xr), math.sinh(xr)
    cor, sir = math.cos(xr), math.sin(xr)
    even = 2.0 * cor * chr_
    odd_sum = _SQRT2 * (cor * shr + sir * chr_)
    mixed = 2.0 * sir * shr
    odd_diff = _SQRT2 * (cor * shr - sir * chr_)
    return [
        pref * (ch + co + even),
        pref * (sh + si + odd_sum),
        pref * (ch - co + mixed),
        pref * (sh - si - odd_diff),
        pref * (ch + co - even),
        pref * (sh + si - odd_sum),
        pref * (ch - co - mixed),
        pref * (sh - si + odd_diff),
    ]


def _lambdas_four_closed(x: float) -> list[float]:
    pref = 0.5 * math.exp(-x)
    ch, sh = math.cosh(x), math.sinh(x)
    co, si = math.cos(x), math.sin(x)
    return [
        pref * (ch + co),
        pref * (sh + si),
        pref * (ch - co),
        pref * (sh - si),
    ]


def lambdas(scheme: Scheme, alpha_sq: float) -> list[float]:
    """Weights of the orthogonal constellation states of a discrete scheme.

    lambda_k is the probability that a Poisson variable with mean
    alpha_sq equals k mod M, M = 8 or 4.  The weights are non-negative
    and sum to 1.  They come from the Poisson series below alpha_sq = 1
    and from the closed forms of Leverrier & Grangier (PRL 102, 180504)
    on [1, ALPHA_SQ_MAX]; a larger alpha_sq is refused.
    """
    x = check_nonneg("alpha_sq", alpha_sq)
    if scheme is _EIGHT:
        modulus, closed = 8, _lambdas_eight_closed
    elif scheme is _FOUR:
        modulus, closed = 4, _lambdas_four_closed
    else:
        raise ValueError(f"scheme must be a Scheme, got {scheme!r}")
    if x > ALPHA_SQ_MAX:
        raise ValueError(f"alpha_sq must be at most {ALPHA_SQ_MAX:g}, got {x}")
    if x < _CLOSED_FORM_MIN:
        return _poisson_residue_sums(x, modulus)
    return closed(x)


def gaussian_z(alpha_sq: float) -> float:
    """EPR correlation sqrt((V_M + 1)^2 - 1) = sqrt(V_M (V_M + 2)) of Gaussian
    modulation; the factored form does not cancel at small V_M."""
    v_m = 2.0 * check_nonneg("alpha_sq", alpha_sq)
    return math.sqrt(v_m * (v_m + 2.0))


def correlation_z(scheme: Scheme, alpha_sq: float) -> float:
    """Correlation coefficient Z of the two-mode state, shot-noise units.

    This is 2 alpha^2 * sum_k lambda_{k-1}^{3/2} / sqrt(lambda_k) with the
    index wrapping cyclically; it vanishes at alpha_sq = 0.
    """
    lams = lambdas(scheme, alpha_sq)  # checks alpha_sq
    sqrt, floor = math.sqrt, _DENOM_FLOOR
    total = 0.0
    prev = lams[-1]  # lambda_{k-1} wraps to the last weight at k = 0
    # the conditional returns lam wherever max(lam, floor) does, NaN included;
    # prev * sqrt(prev) rounds differently, and sum() compensates from 3.12
    for lam in lams:
        total += prev**1.5 / sqrt(floor if floor > lam else lam)
        prev = lam
    return 2.0 * alpha_sq * total
