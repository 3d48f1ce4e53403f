"""Zero-photon catalysis: noiseless attenuation with a heralding probability."""

import math

import pytest

from mdicvqkd.zpc import ZpcSetting, apply_zpc


def test_disabled_is_identity():
    atten, p = apply_zpc(0.73, ZpcSetting.off().t)
    assert atten == 0.73
    assert p == 1.0


def test_unit_transmittance_is_bitwise_identity():
    # 1.0 * x == x and exp(0.0) == 1.0, so T = 1 must equal "off" exactly
    for x in (0.0, 0.125, 0.25, 1.3, 42.0):
        assert apply_zpc(x, 1.0) == (x, 1.0)


def test_attenuation_and_success_probability():
    x = 0.8
    t = 0.6
    atten, p = apply_zpc(x, t)
    assert atten == pytest.approx(t * x, rel=1e-15)
    assert p == pytest.approx(math.exp(x * (t - 1.0)), rel=1e-15)
    assert 0.0 < p < 1.0


def test_success_probability_decreases_with_attenuation():
    x = 0.5
    probs = [apply_zpc(x, t)[1] for t in (0.9, 0.7, 0.5, 0.3)]
    assert probs == sorted(probs, reverse=True)


def test_transmittance_range():
    for bad in (0.0, -0.5, 1.0001, math.nan):
        with pytest.raises(ValueError):
            ZpcSetting.on(bad)
        with pytest.raises(ValueError):
            apply_zpc(0.5, bad)
    # catalysis off is T = 1: a disabled setting holds no other transmittance
    assert ZpcSetting.off().t == 1.0
    for bad in (0.5, 0.0, math.nan):
        with pytest.raises(ValueError):
            ZpcSetting(enabled=False, t=bad)


def test_rejects_negative_amplitude():
    with pytest.raises(ValueError):
        apply_zpc(-1.0, 1.0)


def test_rejects_non_finite_amplitude():
    # nan gave (nan, nan) and inf gave (inf, 0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            apply_zpc(bad, 0.5)
