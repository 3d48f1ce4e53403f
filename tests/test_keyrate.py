"""Covariance assembly, entropic quantities, and the rate itself."""

import decimal
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mdicvqkd.keyrate
from mdicvqkd.channel import LinkGeometry, equivalent_channel
from mdicvqkd.keyrate import (
    VARIANCE_MAX,
    Evaluation,
    NonPhysicalStateError,
    ProtocolConfig,
    evaluate_protocol,
    mutual_information,
    rate_over_t,
    secret_key_rate,
    symplectic_eigenvalues,
    von_neumann_g,
)
from mdicvqkd.modulation import Scheme, correlation_z
from mdicvqkd.optimize import OptimizationGrid, beta_zero_crossing, optimize_t
from mdicvqkd.zpc import apply_zpc


def config(
    scheme=Scheme.EIGHT,
    zpc=None,
    variance_v=1.5,
    beta=0.95,
    eps=0.002,
    l_ac=10.0,
    l_bc=0.0,
):
    return ProtocolConfig(
        scheme=scheme,
        zpc=zpc,
        variance_v=variance_v,
        beta=beta,
        eps_a=eps,
        eps_b=eps,
        geometry=LinkGeometry(l_ac, l_bc),
    )


def random_config(rng: random.Random) -> ProtocolConfig:
    zpc = rng.uniform(0.05, 1.0) if rng.random() < 0.5 else None
    return config(
        scheme=rng.choice((Scheme.FOUR, Scheme.EIGHT)),
        zpc=zpc,
        variance_v=rng.uniform(1.01, 6.0),
        beta=rng.uniform(0.5, 1.0),
        eps=rng.uniform(0.0, 0.01),
        l_ac=rng.uniform(0.0, 40.0),
        l_bc=rng.uniform(0.0, 5.0),
    )


def covariance_of(cfg: ProtocolConfig, ev: Evaluation) -> tuple[float, float, float]:
    """(a, b, c) that evaluate_protocol(cfg) scored, rebuilt from the
    attenuated alpha^2 and channel of ev by the formula that
    test_covariance_assembly pins."""
    atten, chan = ev.attenuated_alpha_sq, ev.channel
    return (
        1.0 + 2.0 * atten,
        chan.t_c * (1.0 + 2.0 * atten + chan.chi_t),
        math.sqrt(chan.t_c) * correlation_z(cfg.scheme, atten),
    )


def test_frozen_reference_point():
    r = evaluate_protocol(config()).result
    assert r.physical
    assert r.p_d == 1.0
    assert r.i_ab == pytest.approx(0.043393813785620926, rel=1e-12)
    assert r.chi_be == pytest.approx(0.03083057585190796, rel=1e-12)
    assert r.kappa1 == pytest.approx(1.4389152940356362, rel=1e-12)
    assert r.kappa2 == pytest.approx(1.0026634114214474, rel=1e-12)
    assert r.kappa3 == pytest.approx(1.4259238773731264, rel=1e-12)
    assert r.skr == pytest.approx(0.010393547244431915, rel=1e-12)
    assert r.skr == pytest.approx(r.p_d * (0.95 * r.i_ab - r.chi_be), rel=1e-12)


def test_frozen_catalysis_point():
    cfg = config(zpc=0.6, variance_v=2.6, l_ac=20.0)
    ev = evaluate_protocol(cfg)
    assert ev.attenuated_alpha_sq == pytest.approx(0.48, rel=1e-15)
    r = ev.result
    assert r.p_d == pytest.approx(0.7261490370736908, rel=1e-12)
    assert r.skr == pytest.approx(0.005730719371310644, rel=1e-12)
    assert r.chi_be == pytest.approx(0.09847286033156655, rel=1e-12)


def test_covariance_assembly():
    cfg = config(zpc=0.7, variance_v=2.0, l_ac=15.0, l_bc=3.0)
    r = evaluate_protocol(cfg).result
    atten = 0.7 * cfg.alpha_sq
    chan = equivalent_channel(cfg.geometry, cfg.eps_a, cfg.eps_b, v_bob=cfg.variance_v)
    a = 1.0 + 2.0 * atten
    b = chan.t_c * (1.0 + 2.0 * atten + chan.chi_t)
    c = math.sqrt(chan.t_c) * correlation_z(cfg.scheme, atten)
    for got, want in zip((r.kappa1, r.kappa2, r.kappa3), symplectic_eigenvalues(a, b, c)):
        assert got == pytest.approx(want, rel=1e-14)
    assert r.i_ab == pytest.approx(mutual_information(a, b, c), rel=1e-14)


def test_unit_catalysis_equals_disabled():
    rng = random.Random(11)
    for _ in range(25):
        base = random_config(rng)
        on = base._replace(zpc=1.0)
        off = base._replace(zpc=None)
        assert evaluate_protocol(on).result == evaluate_protocol(off).result


def test_mutual_information_formula():
    want = math.log2(3.0 / (3.0 - 2.25 / 4.0))
    assert mutual_information(2.0, 3.0, 1.5) == pytest.approx(want, rel=1e-14)
    with pytest.raises(NonPhysicalStateError):
        mutual_information(1.0, 1.0, 2.01)
    # a non-finite entry is refused, not turned into nan or 0 bits
    for entries in ((math.nan, 2.0, 1.0), (2.0, math.inf, 1.0), (2.0, 3.0, -math.inf)):
        with pytest.raises(NonPhysicalStateError, match="finite"):
            mutual_information(*entries)


def test_entropy_function():
    assert von_neumann_g(0.0) == 0.0
    assert von_neumann_g(-1e-12) == 0.0  # rounding slop collapses to the vacuum value
    x = 0.37
    want = (x + 1.0) * math.log2(x + 1.0) - x * math.log2(x)
    assert von_neumann_g(x) == pytest.approx(want, rel=1e-14)
    with pytest.raises(ValueError):
        von_neumann_g(-0.01)
    # where the two products of the textbook form cancel (to 0 at x = 5e16,
    # which made a 170 dB link look secure), against 80 digits
    with decimal.localcontext() as ctx:
        ctx.prec = 80
        for x in (2e3, 1e8, 5e16, 1e20):
            d = decimal.Decimal(x)
            want = ((d + 1) * (d + 1).ln() - d * d.ln()) / decimal.Decimal(2).ln()
            assert von_neumann_g(x) == pytest.approx(float(want), rel=1e-14)


def test_entropy_refuses_non_finite_input():
    # nan returned nan, and inf gave inf * log1p(0) = nan
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            von_neumann_g(bad)


def test_symplectic_pure_squeezed_state():
    # a two-mode squeezed vacuum is pure: both eigenvalues sit at 1
    for v in (1.1, 2.0, 7.5):
        k1, k2, k3 = symplectic_eigenvalues(v, v, math.sqrt(v * v - 1.0))
        assert k1 == pytest.approx(1.0, abs=1e-9)
        assert k2 == pytest.approx(1.0, abs=1e-9)
        assert k3 == pytest.approx(v - (v * v - 1.0) / (v + 1.0), rel=1e-12)


def test_symplectic_product_state():
    k1, k2, _ = symplectic_eigenvalues(2.0, 5.0, 0.0)
    assert (k1, k2) == (5.0, 2.0)


def test_symplectic_determinant_identity():
    rng = random.Random(3)
    for _ in range(500):
        cfg = random_config(rng)
        a, b, c = covariance_of(cfg, evaluate_protocol(cfg))
        k1, k2, _ = symplectic_eigenvalues(a, b, c)
        det = a * b - c * c
        assert k1 * k2 == pytest.approx(det, rel=1e-12)
        assert k1 >= 1.0 - 1e-9 and k2 >= 1.0 - 1e-9


def test_symplectic_rejects_unphysical():
    with pytest.raises(NonPhysicalStateError):
        symplectic_eigenvalues(1.0, 1.0, 1.5)  # F < 0
    with pytest.raises(NonPhysicalStateError):
        symplectic_eigenvalues(2.0, 1.01, 1.0)  # kappa2 < 1


def test_symplectic_rejects_a_spectrum_rounded_to_zero():
    # F > 0 but Delta + sqrt(disc) rounds to 0, so kappa1 = 0: the state
    # is refused before F / kappa1 divides by zero
    a, c = 2.753944526072131e16, 2.753944526072131e16
    b = 2.7539445260721316e16
    assert a * b - c * c > 0.0
    with pytest.raises(NonPhysicalStateError):
        symplectic_eigenvalues(a, b, c)


def test_covariance_validation():
    # entries below vacuum or non-finite are refused before the spectrum
    for a, b, c in ((0.5, 2.0, 0.0), (2.0, 0.5, 0.0), (math.inf, 2.0, 0.0), (2.0, 2.0, math.nan)):
        with pytest.raises(NonPhysicalStateError):
            symplectic_eigenvalues(a, b, c)


def _holevo(a: float, b: float, c: float) -> float:
    k1, k2, k3 = symplectic_eigenvalues(a, b, c)
    return (
        von_neumann_g((k1 - 1.0) / 2.0)
        + von_neumann_g((k2 - 1.0) / 2.0)
        - von_neumann_g((k3 - 1.0) / 2.0)
    )


def test_holevo_composition():
    cfg = config()
    ev = evaluate_protocol(cfg)
    assert ev.result.chi_be == pytest.approx(_holevo(*covariance_of(cfg, ev)), rel=1e-14)


def test_negative_rate_reported_as_is():
    r = secret_key_rate(config(l_ac=60.0))
    assert r.physical
    assert r.skr < 0.0


def test_overflow_is_reported_not_raised():
    r = secret_key_rate(config(eps=1e300))
    assert not r.physical
    assert r.skr is None and r.i_ab is None and r.kappa1 is None
    assert r.p_d == 1.0  # herald probability is defined regardless


def test_domain_flag():
    assert config(variance_v=2.6).warn_domain
    assert not config(variance_v=2.6, zpc=0.15).warn_domain
    assert not config(variance_v=1.4).warn_domain
    # flagged configs still evaluate
    assert evaluate_protocol(config(variance_v=2.6)).result.physical


def test_scheme_ordering_at_reference_point():
    four, eight = (secret_key_rate(config(scheme=s)).skr for s in (Scheme.FOUR, Scheme.EIGHT))
    assert four < eight


def test_config_validation():
    with pytest.raises(ValueError):
        config(variance_v=1.0)
    # V is bounded where it enters: up to VARIANCE_MAX = 1001, and no further
    assert config(variance_v=VARIANCE_MAX).variance_v == 1001.0
    with pytest.raises(ValueError, match=re.escape("variance_v must be in (1, 1001]")):
        config(variance_v=math.nextafter(1001.0, math.inf))
    with pytest.raises(ValueError):
        config(beta=0.0)
    with pytest.raises(ValueError):
        config(beta=1.2)
    for bad_eps in (-0.001, math.nan, math.inf):
        with pytest.raises(ValueError):
            config(eps=bad_eps)


def test_secret_key_rate_is_evaluation_result():
    cfg = config(variance_v=2.2, zpc=0.5)
    assert secret_key_rate(cfg) == evaluate_protocol(cfg).result


def test_evaluation_is_single_pass(monkeypatch):
    calls = {"equivalent_channel": 0, "apply_zpc": 0, "config_new": 0}

    def counted(name):
        fn = getattr(mdicvqkd.keyrate, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("equivalent_channel", "apply_zpc"):
        monkeypatch.setattr(mdicvqkd.keyrate, name, counted(name))
    cfg = config(zpc=0.6, variance_v=2.6)
    evaluate_protocol(cfg)
    assert calls == {"equivalent_channel": 1, "apply_zpc": 1, "config_new": 0}

    # a T sweep builds its channel once and no config per T: one catalysis
    # step per evaluated T (the coarse scan, two golden-section probes and
    # one per refinement step); the optimum is not evaluated again
    new = ProtocolConfig.__new__

    def counted_new(cls, *args, **kwargs):
        calls["config_new"] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(ProtocolConfig, "__new__", counted_new)
    cfg.at_t(0.5)  # the counter sees each construction
    assert calls["config_new"] == 1
    grid = OptimizationGrid(t_steps=20, refine_iters=5)
    for optimizer in (optimize_t, beta_zero_crossing):
        calls.update(dict.fromkeys(calls, 0))
        optimizer(cfg, grid)
        evaluated = grid.t_steps + 2 + grid.refine_iters
        assert calls == {"equivalent_channel": 1, "apply_zpc": evaluated, "config_new": 0}


def test_records_are_immutable():
    cfg = config(zpc=0.5)
    ev = evaluate_protocol(cfg)
    records = (
        (ev, "result"),
        (ev.result, "skr"),
        (ev.channel, "t_c"),
        (cfg, "beta"),
        (cfg.geometry, "l_ac"),
        (OptimizationGrid(), "t_steps"),
    )
    for record, field in records:
        with pytest.raises(AttributeError):
            setattr(record, field, 0.0)


def test_at_t():
    on = config(zpc=0.4, variance_v=2.2)
    assert on.at_t(0.9) == on._replace(zpc=0.9) and on.at_t(0.9).t == 0.9
    assert on.zpc == 0.4  # the config it came from keeps its T
    with pytest.raises(ValueError):
        on.at_t(1.5)
    # catalysis off is T = 1 whatever t is asked for
    off = config(variance_v=2.2)
    assert off.at_t(0.3) is off and off.t == 1.0


def test_evaluation_matches_separate_steps():
    rng = random.Random(23)
    for _ in range(300):
        cfg = random_config(rng)
        ev = evaluate_protocol(cfg)
        assert ev.result.physical
        atten, p_d = apply_zpc(cfg.alpha_sq, cfg.t)
        assert (ev.attenuated_alpha_sq, ev.result.p_d) == (atten, p_d)
        cov = covariance_of(cfg, ev)
        assert ev.result.chi_be == _holevo(*cov)
        assert ev.result.i_ab == mutual_information(*cov)
        assert (ev.result.kappa1, ev.result.kappa2, ev.result.kappa3) == (
            symplectic_eigenvalues(*cov)
        )
        assert ev.channel == equivalent_channel(
            cfg.geometry, cfg.eps_a, cfg.eps_b, v_bob=cfg.variance_v
        )


def test_nonphysical_evaluation_keeps_intermediates():
    cfg = config(eps=1e300, zpc=0.5)
    ev = evaluate_protocol(cfg)
    assert not ev.result.physical
    assert ev._fields == ("result", "channel", "attenuated_alpha_sq")
    assert ev.attenuated_alpha_sq == 0.5 * cfg.alpha_sq
    assert ev.channel.t_c > 0.0
    with pytest.raises(NonPhysicalStateError):
        symplectic_eigenvalues(*covariance_of(cfg, ev))


def test_accepted_states_score_finite():
    # symplectic_eigenvalues is the scorer's one verdict: on every (a, b, c)
    # it accepts, I_AB, the three entropies and the rate must be finite
    rng = random.Random(621)
    accepted = 0
    for _ in range(6000):
        zpc = 10.0 ** rng.uniform(-300.0, 0.0) if rng.random() < 0.5 else None
        cfg = config(
            scheme=rng.choice(list(Scheme)),
            zpc=zpc,
            variance_v=1.0 + 10.0 ** rng.uniform(-12.0, 3.0),
            beta=1.0 - rng.random(),
            eps=10.0 ** rng.uniform(-12.0, 300.0) if rng.random() < 0.5 else rng.uniform(0.0, 0.1),
            l_ac=rng.uniform(0.0, 3000.0),
            l_bc=rng.uniform(0.0, 3000.0),
        )
        ev = evaluate_protocol(cfg)
        a, b, c = covariance_of(cfg, ev)
        try:
            kappas = symplectic_eigenvalues(a, b, c)
        except NonPhysicalStateError:
            assert not ev.result.physical
            continue
        accepted += 1
        scores = [mutual_information(a, b, c)] + [von_neumann_g((k - 1.0) / 2.0) for k in kappas]
        assert all(math.isfinite(x) for x in scores), (cfg, scores)
        assert ev.result.physical and math.isfinite(ev.result.skr), cfg
    assert 1000 < accepted < 5000  # 3847: the panel meets both verdicts


# Any scheme, catalysis on or off, any relay position, any accepted
# variance, and noises large enough to reach non-physical states.
CONFIGS = st.builds(
    ProtocolConfig,
    scheme=st.sampled_from(Scheme),
    zpc=st.one_of(st.none(), st.floats(0.0, 1.0, exclude_min=True)),
    variance_v=st.floats(1.0, VARIANCE_MAX, exclude_min=True),
    beta=st.floats(0.0, 1.0, exclude_min=True),
    eps_a=st.floats(0.0, 1e3),
    eps_b=st.floats(0.0, 1e3),
    geometry=st.builds(LinkGeometry, st.floats(0.0, 500.0), st.floats(0.0, 500.0)),
)


@settings(max_examples=300)
@given(CONFIGS, st.floats(0.0, 1.0, exclude_min=True))
def test_rate_over_t_is_the_per_t_path(cfg, t):
    assert repr(rate_over_t(cfg)(t)) == repr(secret_key_rate(cfg.at_t(t)))


# The physics properties of the rate over CONFIGS, each on a second config
# that differs in one quantity; a non-physical rate counts as -inf.  Where
# the quantity moves the rate by less than its rounding (a link of 100+ dB
# swamps any excess noise), the rate may wobble by a few ulps either way.
PROPERTY = settings(max_examples=150)


def _rate(cfg: ProtocolConfig) -> float:
    r = secret_key_rate(cfg)
    return r.skr if r.physical else -math.inf


def _not_above(x: float, y: float) -> bool:
    return x <= y or math.isclose(x, y, rel_tol=1e-12)


@PROPERTY
@given(CONFIGS, st.floats(0.0, 1e3))
def test_rate_does_not_rise_with_excess_noise(cfg, more):
    assert _not_above(_rate(cfg._replace(eps_a=cfg.eps_a + more)), _rate(cfg))


@PROPERTY
@given(CONFIGS, st.floats(0.0, 1.0, exclude_min=True))
def test_rate_does_not_fall_with_beta(cfg, beta):
    lo, hi = sorted((cfg.beta, beta))
    assert _not_above(_rate(cfg._replace(beta=lo)), _rate(cfg._replace(beta=hi)))


@PROPERTY
@given(CONFIGS)
def test_physical_results_have_kappa_at_least_one(cfg):
    r = secret_key_rate(cfg)
    if r.physical:
        assert min(r.kappa1, r.kappa2, r.kappa3) >= 1.0 - 1e-9


@PROPERTY
@given(CONFIGS, st.floats(1.0, 6.0))
def test_positive_rate_does_not_rise_with_distance(cfg, stretch):
    # both arms stretched by one factor, so the relay keeps its place; at
    # most 3000 km per arm, short of the ~16 140 km where a link is refused
    g = cfg.geometry
    far = _rate(cfg._replace(geometry=LinkGeometry(g.l_ac * stretch, g.l_bc * stretch)))
    if far > 0.0:
        assert _not_above(far, _rate(cfg))
