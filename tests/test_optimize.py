"""Grid-plus-golden-section searches over T, V, and reachable distance."""

import math
from types import SimpleNamespace

import pytest

import mdicvqkd.keyrate
import mdicvqkd.optimize
from mdicvqkd.channel import LinkGeometry
from mdicvqkd.keyrate import ProtocolConfig, secret_key_rate
from mdicvqkd.modulation import Scheme
from mdicvqkd.optimize import (
    T_LO,
    V_HI,
    V_LO,
    OptimizationGrid,
    _golden_max,
    _scan_and_refine,
    best_rate,
    beta_zero_crossing,
    linspace,
    max_distance,
    optimize_t,
    optimize_tv,
)
from mdicvqkd.presets import Case, Variant, config_for


def config(zpc=1.0, variance_v=2.6, beta=0.95, eps=0.002, l_ac=20.0, l_bc=0.0):
    """An eight-state config with catalysis on; zpc=None turns it off."""
    return ProtocolConfig(
        scheme=Scheme.EIGHT,
        zpc=zpc,
        variance_v=variance_v,
        beta=beta,
        eps_a=eps,
        eps_b=eps,
        geometry=LinkGeometry(l_ac, l_bc),
    )


def test_grid_points():
    grid = OptimizationGrid(t_steps=4, v_steps=3)
    ts = grid.t_points()
    assert len(ts) == 4
    assert ts[0] > T_LO  # lower end exclusive: T = 0 is no channel
    assert ts[-1] == 1.0
    vs = grid.v_points()
    assert vs == [V_LO, (V_LO + V_HI) / 2.0, V_HI]


def test_grid_ends_exactly_on_its_bounds():
    # lo + (hi - lo) * k / k can miss hi by an ulp either way: 0.9999999999999999
    # at (0.01, 1] in 12 steps, 1.0000000000000002 at (0.1, 1] in 13
    for t_steps in (12, 3):
        ts = OptimizationGrid(t_steps=t_steps).t_points()
        assert len(ts) == t_steps and ts[-1] == 1.0
        assert ts[:-1] == [T_LO + (1.0 - T_LO) * k / t_steps for k in range(1, t_steps)]
    for lo, steps in ((0.1, 13), (0.37, 7)):
        xs = linspace(lo, 1.0, steps + 1)
        assert len(xs) == steps + 1 and xs[-1] == 1.0
        assert xs[:-1] == [lo + (1.0 - lo) * k / steps for k in range(steps)]
    xs = linspace(0.8, 1.0, 4)
    assert (len(xs), xs[0], xs[-1]) == (4, 0.8, 1.0)
    with pytest.raises(ValueError):
        linspace(0.0, 1.0, 1)


def test_grid_validation():
    # the T bracket is (T_LO, 1] and the V box [V_LO, V_HI], no field
    for name, value in (("t_lo", 0.1), ("v_lo", 2.0), ("v_hi", 5.0)):
        with pytest.raises(TypeError):
            OptimizationGrid(**{name: value})
    with pytest.raises(ValueError):
        OptimizationGrid(t_steps=1)
    with pytest.raises(ValueError):
        OptimizationGrid(refine_iters=-1)


def identity(value):
    return value


def test_golden_section_finds_parabola_peak():
    x, fx = _golden_max(lambda x: -(x - 0.3) ** 2, identity, 0.0, 1.0, 60)
    assert x == pytest.approx(0.3, abs=1e-9)
    assert fx == pytest.approx(0.0, abs=1e-15)


def test_golden_section_tie_keeps_left():
    # on a flat function the bracket must collapse leftward
    x, _ = _golden_max(lambda x: 1.0, identity, 0.0, 1.0, 80)
    assert x < 0.5


def test_golden_section_never_probes_an_end_of_its_bracket():
    # a flat f collapses the bracket onto lo; after about 1 500 steps the
    # next probe would round onto lo itself, where this f, like the rate
    # at T = 0, is undefined
    def flat(x):
        if x <= 0.0:
            raise ValueError(f"probed x = {x}")
        return 1.0

    x, fx = _golden_max(flat, identity, 0.0, 1.0, 2000)
    assert 0.0 < x < 0.5 and fx == 1.0


def test_golden_section_never_probes_the_right_end_of_its_bracket():
    # an increasing f collapses the bracket onto hi; after 73 steps on
    # [0.5, 1] the next probe would round onto hi itself, where this f is
    # undefined (on [0, 1] the bracket's inner points meet first, and the
    # tie sends the search left)
    def rising(x):
        if x >= 1.0:
            raise ValueError(f"probed x = {x}")
        return x

    x, fx = _golden_max(rising, identity, 0.5, 1.0, 2000)
    assert 1.0 - 1e-15 < x < 1.0 and fx == x


@pytest.mark.parametrize("peak, refined", [(0.5, False), (0.4, True)])
def test_scan_and_refine_returns_the_object_f_made(peak, refined):
    # every call makes a new object; the search hands back the one made at
    # its x, whether the coarse point (peak on the grid) or the refinement wins
    made = []

    def f(x):
        made.append((x, [-((x - peak) ** 2)]))
        return made[-1][1]

    points = [0.25, 0.5, 0.75, 1.0]
    x, got = _scan_and_refine(f, lambda v: v[0], points, 0.0, 1.0, 20)
    assert (x not in points) is refined
    assert x == pytest.approx(peak, abs=1e-4)
    assert any(obj is got and at == x for at, obj in made)


def test_optimize_t_frozen_point():
    t_star, best = optimize_t(config())
    assert best.physical
    assert t_star == pytest.approx(0.3750390946409117, rel=1e-9)
    assert best.skr == pytest.approx(0.00849925022677363, rel=1e-9)


def test_optimize_t_beats_manual_sweep():
    cfg = config()
    _, best = optimize_t(cfg)
    for i in range(1, 51):
        t = i / 50.0
        skr = secret_key_rate(cfg._replace(zpc=t)).skr
        assert skr <= best.skr + 1e-15


def test_optimize_t_requires_catalysis():
    with pytest.raises(ValueError):
        optimize_t(config(zpc=None))


def test_optimize_t_no_key_flag():
    _, best = optimize_t(config(l_ac=200.0))
    assert best.physical and best.skr < 0.0
    # a non-physical optimum has no rate at all: skr is None, as in keyrate
    _, best = optimize_t(config(eps=1e300), OptimizationGrid(t_steps=4, refine_iters=3))
    assert not best.physical
    assert best.skr is None


def test_best_rate_pins_plain_protocol_at_unit_t():
    cfg = config(zpc=None, variance_v=1.5)
    assert best_rate(cfg) == (1.0, secret_key_rate(cfg))


def test_best_rate_matches_optimize_t():
    cfg = config()
    assert best_rate(cfg) == optimize_t(cfg)


def test_every_search_reaches_the_scorer_through_rate_over_t(monkeypatch):
    def refused(config):
        raise AssertionError("a search called evaluate_protocol")

    calls = {"equivalent_channel": 0, "apply_zpc": 0}

    def counted(name):
        fn = getattr(mdicvqkd.keyrate, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(mdicvqkd.keyrate, "evaluate_protocol", refused)
    for name in calls:
        monkeypatch.setattr(mdicvqkd.keyrate, name, counted(name))
    grid = OptimizationGrid(t_steps=10, v_steps=4, refine_iters=3)
    plain = config(zpc=None)
    for cfg in (config(), plain):
        best_rate(cfg, grid)
        optimize_tv(cfg, grid)
        max_distance(cfg, grid)
        beta_zero_crossing(cfg, grid)
    optimize_t(config(), grid)
    # without catalysis each T search is one channel and one evaluation at T = 1
    for search in (best_rate, beta_zero_crossing):
        calls.update(dict.fromkeys(calls, 0))
        search(plain, grid)
        assert calls == {"equivalent_channel": 1, "apply_zpc": 1}


def _per_t_optimize_t(cfg: ProtocolConfig, grid: OptimizationGrid):
    """Reference for optimize_t: a config and a full evaluation at every T."""

    def skr(t: float) -> float:
        r = secret_key_rate(cfg.at_t(t))
        return r.skr if r.physical else -math.inf

    t_star, _ = _scan_and_refine(
        skr, identity, grid.t_points(), T_LO, 1.0, grid.refine_iters
    )
    return t_star, secret_key_rate(cfg.at_t(t_star))


def _per_t_beta_zero_crossing(cfg: ProtocolConfig, grid: OptimizationGrid):
    """Reference for beta_zero_crossing, per-T like _per_t_optimize_t."""

    def neg_ratio(t: float) -> float:
        r = secret_key_rate(cfg.at_t(t))
        if not r.physical or r.i_ab <= 0.0:
            return -math.inf
        return -r.chi_be / r.i_ab

    if cfg.zpc is None:
        return -neg_ratio(1.0), 1.0
    t_at, neg_beta = _scan_and_refine(
        neg_ratio, identity, grid.t_points(), T_LO, 1.0, grid.refine_iters
    )
    return -neg_beta, t_at


def test_t_sweeps_match_the_per_t_path():
    grid = OptimizationGrid(t_steps=40, refine_iters=10)
    for scheme in Scheme:
        for l_ac, l_bc in ((5.0, 0.0), (30.0, 0.0), (0.6, 0.6), (12.0, 4.0)):
            # the last state is non-physical at every T
            for v, eps in ((1.3, 0.002), (2.6, 0.002), (6.0, 0.002), (2.6, 1e300)):
                cfg = config(variance_v=v, eps=eps, l_ac=l_ac, l_bc=l_bc)._replace(scheme=scheme)
                assert repr(optimize_t(cfg, grid)) == repr(_per_t_optimize_t(cfg, grid))
                for c in (cfg, cfg._replace(zpc=None)):
                    got = beta_zero_crossing(c, grid)
                    assert repr(got) == repr(_per_t_beta_zero_crossing(c, grid))


def test_optimize_tv_frozen_point():
    cfg = config(zpc=None, variance_v=1.5, l_ac=25.0)
    cfg = cfg._replace(scheme=Scheme.FOUR)
    v_star, (t_star, best) = optimize_tv(cfg)
    assert t_star == 1.0
    assert v_star == pytest.approx(1.4395566593036926, rel=1e-9)
    assert best.physical and best.skr > 0.0
    assert (t_star, best) == best_rate(cfg._replace(variance_v=v_star))


def test_optimize_tv_beats_variance_sweep():
    cfg = config(l_ac=30.0)
    _, (_, best) = optimize_tv(cfg)
    for v in (1.5, 2.0, 2.6, 3.5, 5.0):
        assert best_rate(cfg._replace(variance_v=v))[1].skr <= best.skr + 1e-15


@pytest.mark.parametrize("rising", [True, False], ids=["rising", "falling"])
def test_optimize_tv_searches_only_the_v_box(rising, monkeypatch):
    # a rate rising toward either end of [V_LO, V_HI] pins v* on that end,
    # and the refinement beside it probes nothing outside the box
    probes = []

    def monotone(cfg, grid):
        v = cfg.variance_v
        probes.append(v)
        return 1.0, SimpleNamespace(physical=True, skr=v if rising else 1.0 / v)

    monkeypatch.setattr(mdicvqkd.optimize, "best_rate", monotone)
    v_star, _ = optimize_tv(config(), OptimizationGrid(v_steps=5))
    assert v_star == (V_HI if rising else V_LO)
    assert len(probes) > 5  # the golden refinement ran
    assert V_LO <= min(probes) and max(probes) <= V_HI


def test_max_distance_brackets_the_crossing():
    cfg = config(l_ac=10.0)
    reach = max_distance(cfg)
    assert 40.0 < reach < 55.0
    geom = cfg.geometry
    above = cfg._replace(geometry=geom.scaled(reach - 0.2))
    below = cfg._replace(geometry=geom.scaled(reach + 0.2))
    assert best_rate(above)[1].skr > 0.0
    assert best_rate(below)[1].skr < 0.0


def test_max_distance_preserves_arm_ratio():
    cfg = config(variance_v=2.7, l_ac=1.0, l_bc=1.0)
    reach = max_distance(cfg)
    # the symmetric split collapses the reach to around a kilometre
    assert 0.3 < reach < 1.5
    arm = reach / 2.0
    edge = cfg._replace(geometry=LinkGeometry(arm + 0.2, arm + 0.2))
    assert best_rate(edge)[1].skr < 0.0


def test_max_distance_no_key_at_zero():
    cfg = config(zpc=None, variance_v=1.5, eps=0.25, l_ac=0.0)
    assert max_distance(cfg) == 0.0


def test_max_distance_from_zero_length_scans_a_single_link():
    cfg = config(l_ac=0.0)
    assert max_distance(cfg) == max_distance(cfg._replace(geometry=LinkGeometry(1.0, 0.0)))


def test_max_distance_tolerance_below_float_spacing_terminates(monkeypatch):
    # a rate positive only at zero length keeps lo at 0 while hi halves;
    # no relative stop holds there, so the adjacent-float guard ends the search
    calls = []

    def only_at_zero(cfg, grid):
        calls.append(cfg.geometry.total_km)
        return 1.0, SimpleNamespace(physical=True, skr=1.0 if calls[-1] == 0.0 else -1.0)

    monkeypatch.setattr(mdicvqkd.optimize, "best_rate", only_at_zero)
    reach = max_distance(config(l_ac=1.0))
    assert reach == 0.0  # no key at any positive length
    assert min(calls[1:]) == 5e-324  # the smallest subnormal


def test_max_distance_resolves_the_midway_reach():
    # at about 1 km an absolute 0.05 km bisection tied V = 9.53 and V = 10
    # at 1.203125 km; a stop relative to the bracket tells them apart
    def reference(cfg):
        def positive(total_km):
            scaled = cfg._replace(geometry=cfg.geometry.scaled(total_km))
            result = best_rate(scaled)[1]
            return result.physical and result.skr > 0.0

        lo, hi = 0.0, 1.0
        while positive(hi):
            lo, hi = hi, 2.0 * hi
        while hi - lo > 1e-9:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if positive(mid) else (lo, mid)
        return 0.5 * (lo + hi)

    reaches = []
    for v in (9.53, 10.0):
        cfg = config_for(Variant.EIGHT_ZPC, Case.SYMMETRIC, 1.0, variance_v=v)
        reach = max_distance(cfg)
        assert abs(reach - reference(cfg)) <= 1e-3 * reach
        reaches.append(reach)
    assert reaches[0] != reaches[1]


def test_deterministic_repeat():
    cfg = config()
    assert optimize_t(cfg) == optimize_t(cfg)
    assert max_distance(cfg) == max_distance(cfg)
