"""Zero-photon catalysis: noiseless attenuation with a heralding probability."""

import math

import pytest

from mdicvqkd.keyrate import evaluate_protocol
from mdicvqkd.presets import Case, Variant, config_for
from mdicvqkd.zpc import ZpcSetting, apply_zpc


def test_disabled_is_identity():
    # catalysis off is no transmittance, and is evaluated at T = 1
    cfg = config_for(Variant.EIGHT, Case.ASYMMETRIC, 10.0)
    assert cfg.zpc is ZpcSetting.off() is None and cfg.t == 1.0
    ev = evaluate_protocol(cfg)
    assert (ev.attenuated_alpha_sq, ev.result.p_d) == (cfg.alpha_sq, 1.0)


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
    # True is an int equal to 1, but no transmittance
    for bad in (0.0, -0.5, 1.0001, math.nan, True):
        with pytest.raises(ValueError):
            ZpcSetting.on(bad)
        with pytest.raises(ValueError):
            apply_zpc(0.5, bad)
    assert ZpcSetting.on(0.5) == 0.5  # catalysis on is the transmittance itself


def test_rejects_negative_amplitude():
    with pytest.raises(ValueError):
        apply_zpc(-1.0, 1.0)


def test_rejects_non_finite_amplitude():
    # nan gave (nan, nan) and inf gave (inf, 0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            apply_zpc(bad, 0.5)
