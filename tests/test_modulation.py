"""Constellation weights and correlation coefficients."""

import decimal
import math
import random
import re
from fractions import Fraction

import pytest

from mdicvqkd.modulation import (
    ALPHA_SQ_MAX,
    Scheme,
    _lambdas_eight_closed,
    _lambdas_four_closed,
    _poisson_residue_sums,
    correlation_z,
    gaussian_z,
    lambdas,
)
from mdicvqkd.zpc import apply_zpc


def poisson_residue_oracle(alpha_sq: float, m: int, terms: int = 200) -> list[float]:
    """Residue-class Poisson masses by exact integer tail summation.

    Every x^n / n! is accumulated as an integer over the common
    denominator den^terms * terms!, so the only float operations are the
    final per-class division and the exp(-x) scaling.  Deliberately a
    different algorithm from the library's incremental float product.
    """
    if alpha_sq == 0.0:
        return [1.0 if k == 0 else 0.0 for k in range(m)]
    num, den = alpha_sq.as_integer_ratio()
    acc = [0] * m
    # t runs through num^n * den^(terms-n) * terms!/n!, always integral
    t = den**terms * math.factorial(terms)
    common = t
    for n in range(terms + 1):
        acc[n % m] += t
        t = t * num // (den * (n + 1))
    scale = math.exp(-alpha_sq)
    return [float(Fraction(a, common)) * scale for a in acc]


# Library outputs at alpha_sq = 0.25, pinned to catch silent drift.
LAMBDA8_QUARTER = (
    0.77880078336613601,
    0.1947001957760382,
    0.024337524471186076,
    0.0020281270392531019,
    0.00012675793995312504,
    6.3378969976532707e-06,
    2.640790415688419e-07,
    9.4313943417437178e-09,
)
LAMBDA4_QUARTER = (
    0.7789275413060891,
    0.19470653367303584,
    0.024337788550227644,
    0.0020281364706474436,
)


def test_frozen_quarter_point():
    got8 = lambdas(Scheme.EIGHT, 0.25)
    got4 = lambdas(Scheme.FOUR, 0.25)
    for got, want in zip(got8, LAMBDA8_QUARTER):
        assert got == pytest.approx(want, rel=1e-14)
    for got, want in zip(got4, LAMBDA4_QUARTER):
        assert got == pytest.approx(want, rel=1e-14)
    assert correlation_z(Scheme.EIGHT, 0.25) == pytest.approx(1.1006581866302116, rel=1e-13)
    assert correlation_z(Scheme.FOUR, 0.25) == pytest.approx(1.0965440197951635, rel=1e-13)
    assert gaussian_z(0.25) == pytest.approx(1.1180339887498949, rel=1e-14)


def test_matches_oracle_across_regimes():
    # spans the series branch (x < 1), the closed forms, and the switch;
    # up to x = 100 the Poisson mass beyond 400 terms is below 1e-100
    rng = random.Random(7)
    xs = [rng.uniform(0.0, 5.0) for _ in range(30)]
    xs += [0.001, 0.5, 0.999, 1.0, 1.001, 4.9]
    xs += [30.0, 42.5, 64.0, 99.75]
    for x in xs:
        for m, scheme in ((8, Scheme.EIGHT), (4, Scheme.FOUR)):
            want = poisson_residue_oracle(x, m, terms=400)
            got = lambdas(scheme, x)
            err = max(abs(g - w) for g, w in zip(got, want))
            assert err < 1e-13, f"x={x} m={m} err={err}"


def residue_sums_to_underflow(alpha_sq: float, modulus: int) -> list[float]:
    """The residue sum run until the terms fall below 1e-300 (no early stop)."""
    out = [0.0] * modulus
    term = math.exp(-alpha_sq)
    n = 0
    while True:
        out[n % modulus] += term
        n += 1
        term *= alpha_sq / n
        if term < 1e-300 and n > alpha_sq:
            return out


def test_early_stop_is_bit_identical():
    # the half-ulp stop may only skip additions that round to no-ops
    rng = random.Random(2009)
    xs = [0.0, 5e-324, 1e-300, 1e-40, 1.0, 30.0, 499.999, 500.0]
    xs += [rng.random() for _ in range(2000)]
    xs += [rng.uniform(30.0, 500.0) for _ in range(300)]
    xs += [10.0 ** rng.uniform(-12.0, 0.0) for _ in range(500)]
    xs += [math.nextafter(1.0, 0.0)]
    # tiny classes: the first-term loop ends at every n < M
    xs += [10.0 ** rng.uniform(-320.0, -12.0) for _ in range(200)]
    for x in xs:
        for m in (4, 8):
            assert _poisson_residue_sums(x, m) == residue_sums_to_underflow(x, m), (x, m)


def test_branches_agree_at_upper_switch():
    # the closed forms serve x up to ALPHA_SQ_MAX, where every weight is 1/M
    pairs = ((8, Scheme.EIGHT, _lambdas_eight_closed), (4, Scheme.FOUR, _lambdas_four_closed))
    for m, scheme, closed in pairs:
        for x in (499.5, ALPHA_SQ_MAX):
            a = closed(x)
            assert max(abs(p - 1.0 / m) for p in a) < 1e-13
            assert lambdas(scheme, x) == a


def poisson_residue_decimal(alpha_sq: float, m: int) -> list[decimal.Decimal]:
    """Residue-class Poisson masses summed term by term in 50-digit decimal,
    until past the mode the terms fall below 1e-60."""
    x = decimal.Decimal(alpha_sq)
    term = (-x).exp()
    acc = [decimal.Decimal(0)] * m
    n = 0
    while n <= alpha_sq or term >= decimal.Decimal("1e-60"):
        acc[n % m] += term
        n += 1
        term = term * x / n
    return acc


def test_closed_forms_within_ulps_of_50_digits():
    # measured worst cases on 457 points of [30, 500]: 2 ulp on a weight,
    # 4 on Z; the term-by-term float series reached 31 and 51 there
    xs = [30.0 + 470.0 * i / 36 for i in range(37)] + [42.5, 499.999]
    three_halves = decimal.Decimal("1.5")
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        for x in xs:
            for m, scheme in ((8, Scheme.EIGHT), (4, Scheme.FOUR)):
                want = poisson_residue_decimal(x, m)
                for got, w in zip(lambdas(scheme, x), want):
                    assert abs(decimal.Decimal(got) - w) <= 4 * math.ulp(float(w)), (x, m)
                z = sum(want[k - 1] ** three_halves / want[k].sqrt() for k in range(m))
                z *= 2 * decimal.Decimal(x)
                got_z = correlation_z(scheme, x)
                assert abs(decimal.Decimal(got_z) - z) <= 5 * math.ulp(float(z)), (x, m)


def test_normalized_and_nonnegative():
    xs = [10.0 * i / 199 for i in range(200)] + [500.0 * i / 99 for i in range(100)]
    for x in xs:
        for scheme in (Scheme.EIGHT, Scheme.FOUR):
            lams = lambdas(scheme, x)
            assert all(l >= 0.0 for l in lams)
            assert sum(lams) == pytest.approx(1.0, abs=1e-13)


def test_alpha_sq_above_the_bound_is_refused():
    # no config reaches past ALPHA_SQ_MAX (V <= 1001, T <= 1); gaussian_z,
    # outside the rate, has no bound
    for scheme in Scheme:
        for x in (math.nextafter(ALPHA_SQ_MAX, math.inf), 600.0, 1e5):
            with pytest.raises(ValueError, match="alpha_sq must be at most 500"):
                lambdas(scheme, x)
            with pytest.raises(ValueError, match="alpha_sq must be at most 500"):
                correlation_z(scheme, x)
    assert gaussian_z(1e5) == math.sqrt(2e5 * (2e5 + 2.0))


ENTRY_POINTS = {
    "lambdas": lambda x: lambdas(Scheme.EIGHT, x),
    "correlation_z": lambda x: correlation_z(Scheme.EIGHT, x),
    "gaussian_z": gaussian_z,
    "apply_zpc": lambda x: apply_zpc(x, 0.5),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_every_alpha_sq_entry_runs_the_one_check(entry):
    # True is an int equal to 1, but no alpha_sq; text is no number either
    for bad in (True, False, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="alpha_sq must be a finite number >= 0"):
            entry(bad)
    with pytest.raises(TypeError):
        entry("0.5")
    assert entry(1) == entry(1.0)  # an int is a number


def test_zero_amplitude():
    assert lambdas(Scheme.EIGHT, 0.0) == [1.0] + [0.0] * 7
    assert lambdas(Scheme.FOUR, 0.0) == [1.0] + [0.0] * 3
    for scheme in Scheme:
        assert correlation_z(scheme, 0.0) == 0.0
    assert gaussian_z(0.0) == 0.0


def test_correlation_ordering():
    # v_m up to 4, plus small amplitudes where a cancelling Gaussian Z fell below Z8
    for x in [2.0 * i / 100 for i in range(1, 101)] + [1e-12, 1e-8, 1e-6]:
        z4 = correlation_z(Scheme.FOUR, x)
        z8 = correlation_z(Scheme.EIGHT, x)
        zg = gaussian_z(x)
        assert 0.0 < z4 <= z8 <= zg


def test_eight_approaches_gaussian_at_small_amplitude():
    for v_m in (0.01, 0.025, 0.05):
        x = v_m / 2.0
        gap = gaussian_z(x) - correlation_z(Scheme.EIGHT, x)
        assert 0.0 <= gap < 1e-3


def test_gaussian_closed_form():
    assert gaussian_z(1.5) == pytest.approx(math.sqrt(4.0 * 4.0 - 1.0), rel=1e-15)
    # against 50 digits over 10^[-12, 1.5]: the two roundings under the
    # root count half each, the root's own once, so the error stays below 2^-52
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        for i in range(300):
            x = 10.0 ** (-12.0 + 13.5 * i / 299)
            v_m = 2 * decimal.Decimal(x)
            want = (v_m * (v_m + 2)).sqrt()
            assert abs(decimal.Decimal(gaussian_z(x)) - want) <= want * decimal.Decimal(2.0**-52)


def test_gaussian_scheme_has_no_weights():
    # Gaussian modulation has no Scheme member and gaussian_z needs no
    # weights, so lambdas takes only a Scheme, not even its value
    for scheme in ("gaussian", "eight"):
        with pytest.raises(ValueError, match=re.escape(f"must be a Scheme, got {scheme!r}")):
            lambdas(scheme, 1.0)


def test_rejects_bad_amplitude():
    for bad in (-0.1, math.nan, math.inf):
        for scheme in Scheme:
            with pytest.raises(ValueError, match="alpha_sq"):
                lambdas(scheme, bad)
            with pytest.raises(ValueError, match="alpha_sq"):
                correlation_z(scheme, bad)


# Z to the last bit at zero and in each weight band (below 1, [1, 500]),
# so a rewrite of the sum cannot move a figure digit
Z_PINS = {
    Scheme.FOUR: {
        0.0: 0.0,
        0.37: 1.3810569087265472,
        7.25: 14.500010969565071,
        42.5: 85.0,
    },
    Scheme.EIGHT: {
        0.0: 0.0,
        0.37: 1.3954258594532654,
        7.25: 14.592821287102588,
        42.5: 85.00000000057553,
    },
}


def test_correlation_pinned_bits():
    for scheme, pins in Z_PINS.items():
        for x, z in pins.items():
            assert correlation_z(scheme, x) == z, (scheme, x)
