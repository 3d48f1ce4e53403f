"""Equivalent one-way channel reduction of the two-link relay layout."""

import math

import pytest

from mdicvqkd.channel import (
    FIBER_LOSS_DB_PER_KM,
    LinkGeometry,
    equivalent_channel,
    equivalent_excess_noise,
    fiber_transmittance,
)
from mdicvqkd.presets import Case, geometry_for


def test_fiber_transmittance():
    assert fiber_transmittance(0.0) == 1.0
    assert fiber_transmittance(50.0) == pytest.approx(0.1, rel=1e-12)
    assert FIBER_LOSS_DB_PER_KM == 0.2
    for length in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="length_km"):
            fiber_transmittance(length)


def test_geometry_validation_and_total():
    g = LinkGeometry(30.0, 10.0)
    assert g.total_km == 40.0
    with pytest.raises(ValueError):
        LinkGeometry(-1.0, 0.0)
    with pytest.raises(ValueError):
        LinkGeometry(1.0, math.inf)
    with pytest.raises(TypeError):
        LinkGeometry(1.0, 1.0, 0.2)  # the loss is FIBER_LOSS_DB_PER_KM, no field


def test_geometry_scaling_preserves_arm_ratio():
    g = LinkGeometry(30.0, 10.0)
    s = g.scaled(8.0)
    assert s.total_km == pytest.approx(8.0, rel=1e-12)
    assert s.l_ac / s.l_bc == pytest.approx(3.0, rel=1e-12)
    z = LinkGeometry(0.0, 0.0)
    assert z.scaled(0.0).total_km == 0.0
    # no arm ratio to keep: a zero-length geometry stretches as one Alice-relay link
    assert z.scaled(5.0) == LinkGeometry(5.0, 0.0)
    # a subnormal total, by which the stretch factor total / 5e-324 overflows
    assert LinkGeometry(0.0, 5e-324).scaled(1.0) == LinkGeometry(0.0, 1.0)
    assert LinkGeometry(5e-324, 5e-324).scaled(3.0) == LinkGeometry(1.5, 1.5)


def _closed_form_g_sq(t_b: float, v: float) -> float:
    return 2.0 * (v - 1.0) / (t_b * (v + 1.0))


def test_optimal_gain():
    # g^2 = 2 (v - 1) / (t_b (v + 1)): 1 with the relay at Bob, 2 at t_b = 1/2
    at_bob = equivalent_channel(LinkGeometry(10.0, 0.0), 0.002, 0.002, v_bob=3.0)
    assert at_bob.g_sq == pytest.approx(1.0, rel=1e-15)
    halving = LinkGeometry(10.0, 50.0 * math.log10(2.0))  # 3.01 dB: t_b = 1/2
    halved = equivalent_channel(halving, 0.002, 0.002, v_bob=3.0)
    assert halved.t_b == pytest.approx(0.5, rel=1e-15)
    assert halved.g_sq == pytest.approx(2.0, rel=1e-15)
    for chan in (at_bob, halved):
        assert chan.g_sq == _closed_form_g_sq(chan.t_b, 3.0)


def test_extreme_asymmetric_noise_identity():
    # with the relay at Bob, eps_th collapses to eps_a + eps_b / t_a
    geom = LinkGeometry(25.0, 0.0)
    chan = equivalent_channel(geom, 0.002, 0.003, v_bob=1.5)
    t_a = fiber_transmittance(25.0)
    assert chan.t_b == 1.0
    assert chan.eps_th == pytest.approx(0.002 + 0.003 / t_a, rel=1e-12)


def test_symmetric_noise_identity():
    # equal arms: eps_th = 2 ((1 - t) / t + eps)
    geom = LinkGeometry(5.0, 5.0)
    eps = 0.004
    chan = equivalent_channel(geom, eps, eps, v_bob=2.0)
    t = fiber_transmittance(5.0)
    assert chan.eps_th == pytest.approx(2.0 * ((1.0 - t) / t + eps), rel=1e-12)


def test_optimal_gain_cancels_mismatch():
    geom = LinkGeometry(12.0, 7.0)
    v = 2.4
    chan = equivalent_channel(geom, 0.002, 0.002, v_bob=v)
    assert chan.g_sq == _closed_form_g_sq(chan.t_b, v)
    # the gain zeroes the mismatch term of the general eps_th ...
    root = math.sqrt(2.0 * (v - 1.0) / (chan.g_sq * chan.t_b)) - math.sqrt(v + 1.0)
    assert root == pytest.approx(0.0, abs=1e-12)
    # ... so eps_th is the rest of it
    rest = 1.0 + chan.chi_a + (chan.t_b / chan.t_a) * (chan.chi_b - 1.0)
    assert chan.eps_th == pytest.approx(rest, rel=1e-12)


def test_channel_composition():
    geom = LinkGeometry(10.0, 0.0)
    chan = equivalent_channel(geom, 0.002, 0.002, v_bob=1.5)
    assert chan.t_c == pytest.approx(chan.g_sq * chan.t_a / 2.0, rel=1e-15)
    assert chan.chi_t == pytest.approx(1.0 / chan.t_c - 1.0 + chan.eps_th, rel=1e-14)
    assert chan.chi_a == pytest.approx((1.0 - chan.t_a) / chan.t_a + 0.002, rel=1e-14)


def test_symmetric_effective_transmittance_is_distance_free():
    # equal arms at optimal gain: t_c = (v - 1) / (v + 1) regardless of length
    v = 2.0
    for arm in (0.05, 0.2, 0.7):
        chan = equivalent_channel(LinkGeometry(arm, arm), 0.002, 0.002, v_bob=v)
        assert chan.t_c == pytest.approx((v - 1.0) / (v + 1.0), rel=1e-12)


def test_equivalent_excess_noise_matches_channel():
    geom = LinkGeometry(18.0, 6.0)
    eps_th = equivalent_excess_noise(geom, 0.002, 0.002)
    chan = equivalent_channel(geom, 0.002, 0.002, v_bob=3.1)
    assert eps_th == pytest.approx(chan.eps_th, rel=1e-12)


def test_validation():
    geom = LinkGeometry(10.0, 0.0)
    with pytest.raises(ValueError):
        equivalent_channel(geom, -0.001, 0.002, v_bob=1.5)
    with pytest.raises(ValueError):
        equivalent_channel(geom, 0.002, 0.002, v_bob=1.0)
    with pytest.raises(ValueError):
        equivalent_channel(LinkGeometry(40000.0, 0.0), 0.002, 0.002, v_bob=1.5)
    # eps_th alone refuses the same links the full channel refuses
    for bad in (
        (LinkGeometry(40000.0, 0.0), 0.002, 0.002),
        (geom, -0.001, 0.002),
        (geom, 0.002, math.nan),
    ):
        with pytest.raises(ValueError):
            equivalent_excess_noise(*bad)


def test_non_finite_inputs_are_refused():
    # each returned nan or inf before it was refused
    geom = LinkGeometry(10.0, 0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="v_bob must be finite and exceed 1"):
            equivalent_channel(geom, 0.002, 0.002, v_bob=bad)
    for eps in ((0.0, math.inf), (math.inf, 0.0)):
        with pytest.raises(ValueError, match="finite"):
            equivalent_channel(geom, *eps, v_bob=2.0)


@pytest.mark.parametrize(
    "call, args, name",
    [
        (fiber_transmittance, (True,), "length_km"),
        (equivalent_channel, (LinkGeometry(1.0, 0.0), True, 0.0, 2.0), "eps_a"),
        (equivalent_channel, (LinkGeometry(1.0, 0.0), 0.0, True, 2.0), "eps_b"),
        (equivalent_channel, (LinkGeometry(1.0, 0.0), 0.0, 0.0, True), "v_bob"),
        (equivalent_excess_noise, (LinkGeometry(1.0, 0.0), 0.0, True), "eps_b"),
        (LinkGeometry(10.0, 0.0).scaled, (True,), "total_km"),
        (LinkGeometry(0.0, 0.0).scaled, (False,), "total_km"),
        (geometry_for, (Case.SYMMETRIC, True), "distance_km"),
        (geometry_for, (Case.ASYMMETRIC, True), "distance_km"),
        (LinkGeometry, (1.0, math.inf), "l_bc"),
        (LinkGeometry(1.0, 1.0).scaled, (math.nan,), "total_km"),
    ],
)
def test_bool_is_no_length_noise_or_variance(call, args, name):
    # True is an int equal to 1: each took it as a 1 km span, a unit noise or a
    # variance.  Every number but v_bob lies in [0, inf) and has its one message.
    message = name if name == "v_bob" else f"{name} must be a finite number >= 0"
    with pytest.raises(ValueError, match=message):
        call(*args)
