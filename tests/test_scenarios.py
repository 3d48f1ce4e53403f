"""Parameter studies: presets, dataset shapes, and their invariants."""

import inspect
import math
import re

import pytest

import mdicvqkd
from mdicvqkd import optimize, scenarios
from mdicvqkd.channel import LinkGeometry, equivalent_excess_noise
from mdicvqkd.keyrate import KeyRateResult, evaluate_protocol
from mdicvqkd.modulation import Scheme
from mdicvqkd.optimize import OptimizationGrid, beta_zero_crossing, linspace, max_distance
from mdicvqkd.presets import DEFAULT_BETA, OPTIMAL_V, geometry_for
from mdicvqkd.scenarios import (
    BETA_SCAN_DISTANCES,
    DEFAULT_EPS,
    EXTRA_EPS,
    FIGURES,
    L_MAX,
    RELAY_POSITIONS,
    Case,
    Variant,
    asymmetry_rate_curves,
    config_for,
    correlation_curves,
    excess_noise_transition,
    rate_surface,
    rate_vs_beta,
    rate_vs_distance,
    run_figure,
)


def test_variant_properties():
    assert Variant.FOUR.scheme is Scheme.FOUR
    assert Variant.EIGHT_ZPC.scheme is Scheme.EIGHT
    assert not Variant.EIGHT.zpc_enabled
    assert Variant.FOUR_ZPC.zpc_enabled


def test_geometry_conventions():
    asym = geometry_for(Case.ASYMMETRIC, 30.0)
    assert (asym.l_ac, asym.l_bc) == (30.0, 0.0)
    sym = geometry_for(Case.SYMMETRIC, 30.0)
    assert (sym.l_ac, sym.l_bc) == (15.0, 15.0)


def test_config_presets():
    cfg = config_for(Variant.EIGHT_ZPC, Case.ASYMMETRIC, 25.0)
    assert cfg.variance_v == OPTIMAL_V[(Case.ASYMMETRIC, Variant.EIGHT_ZPC)]
    assert cfg.beta == DEFAULT_BETA
    assert cfg.eps_a == cfg.eps_b == DEFAULT_EPS
    assert cfg.zpc == 1.0
    assert config_for(Variant.FOUR, Case.SYMMETRIC, 1.0, variance_v=3.3).variance_v == 3.3
    assert config_for(Variant.FOUR, Case.SYMMETRIC, 1.0).zpc is None


def test_correlation_curve_dataset():
    (ds,) = correlation_curves(steps=50)
    assert ds.name == "fig2"
    assert ds.columns == ("v_m_tilde", "z4", "z8", "zg")
    assert len(ds.rows) == 50
    assert ds.rows[0] == (0.0, 0.0, 0.0, 0.0)
    axis = [r[0] for r in ds.rows]
    assert axis == sorted(axis)
    for _, z4, z8, zg in ds.rows:
        assert z4 <= z8 <= zg


def test_distance_curve_datasets():
    out = rate_vs_distance(Case.ASYMMETRIC, l_steps=5)
    names = [ds.name for ds in out]
    assert names[:4] == ["fig4_four", "fig4_eight", "fig4_four_zpc", "fig4_eight_zpc"]
    assert names[4:] == [
        "fig4_eight_zpc_eps0.0015",
        "fig4_eight_zpc_eps0.00225",
        "fig4_eight_zpc_eps0.003",
    ]
    for ds in out:
        assert ds.columns == (
            "distance_km",
            "skr_bits_per_use",
            "p_d",
            "i_ab",
            "chi_be",
            "t_star",
        )
        assert len(ds.rows) == 5
        axis = [r[0] for r in ds.rows]
        assert axis == sorted(axis)
    # plain variants stay at unit transmittance and certain heralding
    for ds in out[:2]:
        for row in ds.rows:
            assert row[2] == 1.0 and row[5] == 1.0


def test_beta_curve_datasets():
    out = rate_vs_beta(Case.SYMMETRIC, beta_steps=6)
    assert [ds.name for ds in out] == [
        "fig8_four",
        "fig8_eight",
        "fig8_four_zpc",
        "fig8_eight_zpc",
    ]
    for ds in out:
        assert len(ds.rows) == 24
        # within each distance block the rate rises with beta
        for l in BETA_SCAN_DISTANCES[Case.SYMMETRIC]:
            skrs = [r[2] for r in ds.rows if r[0] == l]
            assert skrs == sorted(skrs)


def test_surface_datasets():
    out = rate_surface(Case.ASYMMETRIC, v_steps=4, l_steps=3)
    assert len(out) == 4
    for ds in out:
        assert ds.columns == ("variance_v", "distance_km", "skr_bits_per_use", "t_star")
        assert len(ds.rows) == 12
        axis = [(r[0], r[1]) for r in ds.rows]
        assert axis == sorted(axis)


def _fixed_best_rate(skr: float, t_star: float):
    """A stand-in for best_rate: the optimum (skr, t_star) at every config."""
    physical = math.isfinite(skr)
    x = 0.5 if physical else None
    result = KeyRateResult(1.0, x, x, x, x, x, skr if physical else None, physical)
    return lambda cfg: (t_star, result)


def test_nonphysical_best_rate_written_as_nan(monkeypatch):
    monkeypatch.setattr(scenarios, "best_rate", _fixed_best_rate(-math.inf, 1.0))
    surface = rate_surface(Case.ASYMMETRIC, v_steps=2, l_steps=2)
    beta = rate_vs_beta(Case.SYMMETRIC, beta_steps=2)
    (asym,) = asymmetry_rate_curves(l_steps=2)
    for ds in surface + beta + [asym]:
        assert all(math.isnan(row[2]) for row in ds.rows), ds.name


def test_dataset_warn_domain_judged_at_t_star(monkeypatch):
    # at T* = 0.05 the catalysis variants stay in the domain up to V = 11;
    # the plain variants run at T = 1, so V = 10 is outside it
    monkeypatch.setattr(scenarios, "best_rate", _fixed_best_rate(1.0, 0.05))
    surface = rate_surface(Case.ASYMMETRIC, v_steps=2, l_steps=2)
    assert {ds.name: ds.rows_out_of_domain > 0 for ds in surface} == {
        "fig3_four": True,
        "fig3_eight": True,
        "fig3_four_zpc": False,
        "fig3_eight_zpc": False,
    }
    assert asymmetry_rate_curves(l_steps=2)[0].rows_out_of_domain == 0
    monkeypatch.setattr(scenarios, "best_rate", _fixed_best_rate(1.0, 1.0))
    assert asymmetry_rate_curves(l_steps=2)[0].rows_out_of_domain > 0
    curves = rate_vs_distance(Case.SYMMETRIC, l_steps=2)
    # V = 1.5/1.8/2.6/2.7, then the three extra-noise curves at V = 2.7
    assert [ds.rows_out_of_domain > 0 for ds in curves] == [
        False, True, True, True, True, True, True
    ]
    # every such row has a key here; without one it counts only as out of domain
    assert [ds.key_rows_out_of_domain for ds in curves] == [0, 2, 2, 2, 2, 2, 2]
    monkeypatch.setattr(scenarios, "best_rate", _fixed_best_rate(-1.0, 1.0))
    curves = rate_vs_distance(Case.SYMMETRIC, l_steps=2)
    assert [(ds.rows_out_of_domain, ds.key_rows_out_of_domain) for ds in curves[:2]] == [
        (0, 0),
        (2, 0),
    ]
    assert correlation_curves(steps=2)[0].rows_out_of_domain == 0


@pytest.mark.parametrize(
    "fid, overrides, message",
    [
        ("fig6", {"sym_per_arm": True}, "fig6 takes no keyword sym_per_arm"),
        ("fig9a", {"arm_diff_axis": True}, "fig9a takes no keyword arm_diff_axis"),
        ("fig4", {"v_steps": 2}, "fig4 takes no keyword v_steps"),
        ("fig2", {"foo": 1}, "fig2 takes no keyword foo"),
        ("fig4", {"extra_eps": (math.nan,)}, "fig4 takes no keyword extra_eps"),
        ("fig4", {"extra_eps": (0.001, math.inf)}, "fig4 takes no keyword extra_eps"),
        ("fig4", {"extra_eps": (-1.0,)}, "fig4 takes no keyword extra_eps"),
        ("fig2", {"steps": 2.0}, "steps must be an integer, got 2.0"),
        ("fig3", {"v_steps": True}, "v_steps must be an integer, got True"),
        ("fig3", {"v_steps": 1}, "v_steps must be >= 2, got 1"),
        ("fig2", {"steps": 0}, "steps must be >= 2, got 0"),
        ("fig9b", {"l_steps": -3}, "l_steps must be >= 2, got -3"),
        ("fig4", {"l_steps": 2, "extra_eps": (0.001,)}, "fig4 takes no keyword extra_eps"),
    ],
)
def test_run_figure_refuses_before_any_evaluation(fid, overrides, message, monkeypatch):
    # a keyword outside the figure's --steps keys, the extra excess noises
    # (fixed by EXTRA_EPS) among them, is refused before the first rate is
    # evaluated
    calls = []
    monkeypatch.setattr(scenarios, "best_rate", lambda cfg: calls.append(cfg))
    with pytest.raises(ValueError, match=message):
        run_figure(fid, **overrides)
    assert calls == []


class _Count(int):
    """An int subclass, as an IntEnum member is."""


@pytest.mark.parametrize(
    "value, error",
    [
        (_Count(3), None),
        (3.0, "must be an integer, got 3.0"),
        (True, "must be an integer, got True"),
        (1, "must be >= 2, got 1"),
    ],
)
def test_step_counts_follow_one_rule(value, error):
    # a grid, a figure and linspace take or refuse each count alike
    for name, call in (
        ("t_steps", lambda: OptimizationGrid(t_steps=value)),
        ("steps", lambda: run_figure("fig2", steps=value)),
        ("steps", lambda: linspace(0.0, 1.0, value)),
    ):
        if error is None:
            call()
        else:
            with pytest.raises(ValueError, match=f"^{re.escape(f'{name} {error}')}$"):
                call()


def test_no_figure_clips_its_key_region():
    # each figure's distance axis reaches past the key region of its curves,
    # at the V ends of fig3/fig6, the beta = 1 end of fig5/fig8 and the extra
    # eps of fig4/fig7; every config starts at the axis end, since a
    # zero-length geometry would stretch as one Alice-relay link
    for case in Case:
        configs = [
            config_for(variant, case, L_MAX[case], **setting)
            for variant in Variant
            for setting in ({"variance_v": 1.05}, {"variance_v": 10.0}, {"beta": 1.0})
        ]
        configs += [
            config_for(Variant.EIGHT_ZPC, case, L_MAX[case], eps=eps) for eps in EXTRA_EPS[case]
        ]
        for cfg in configs:
            assert max_distance(cfg) < L_MAX[case], cfg
    # fig9a's relay at Bob (d = 0) loses its key before l_ac = 50 km
    at_bob = config_for(Variant.EIGHT_ZPC, Case.ASYMMETRIC, 50.0, variance_v=2.7)
    assert max_distance(at_bob) < 50.0


def test_beta_zero_crossing_plain():
    assert optimize.beta_zero_crossing is mdicvqkd.beta_zero_crossing
    cfg = config_for(Variant.EIGHT, Case.ASYMMETRIC, 25.0)
    b0, t_at = beta_zero_crossing(cfg)
    assert t_at == 1.0
    res = evaluate_protocol(cfg).result
    assert b0 == pytest.approx(res.chi_be / res.i_ab, rel=1e-14)
    # the rate is linear in beta, so it vanishes exactly at the threshold
    crossing = cfg._replace(beta=min(1.0, b0))
    skr = evaluate_protocol(crossing).result.skr
    assert abs(skr) < 1e-15


def test_beta_zero_crossing_catalysis():
    cfg = config_for(Variant.EIGHT_ZPC, Case.ASYMMETRIC, 25.0)
    b0, t_at = beta_zero_crossing(cfg)
    assert 0.0 < t_at <= 1.0
    res = evaluate_protocol(cfg.at_t(t_at)).result
    assert b0 == pytest.approx(res.chi_be / res.i_ab, rel=1e-12)
    # optimizing T can only lower the threshold
    at_unit = evaluate_protocol(cfg).result
    assert b0 <= at_unit.chi_be / at_unit.i_ab + 1e-12


def test_asymmetry_curveset():
    (ds,) = asymmetry_rate_curves(l_steps=4)
    assert ds.name == "fig9a"
    assert ds.columns == ("distance_km", "d", "skr_bits_per_use", "t_star")
    assert len(ds.rows) == 20
    axis = [(r[0], r[1]) for r in ds.rows]
    assert axis == sorted(axis)
    # the one distance convention: traversed total l_ac (1 + d), l_ac up to 50 km
    top = max(r[0] for r in ds.rows if r[1] == 0.5)
    assert top == pytest.approx(75.0, rel=1e-12)


def test_excess_noise_curveset():
    (ds,) = excess_noise_transition(l_steps=5)
    assert ds.name == "fig9b"
    assert ds.columns == ("distance_km", "d", "eps_th")
    eps_at = {(r[0], r[1]): r[2] for r in ds.rows}
    # zero distance leaves only the intrinsic excess noise on both links
    for d in RELAY_POSITIONS:
        assert eps_at[0.0, d] == pytest.approx(0.004, abs=1e-12)
    # the split l_ac = total / (1 + d), l_bc = d l_ac
    for total, d, l_ac, l_bc in ((60.0, 1.0, 30.0, 30.0), (30.0, 0.5, 20.0, 10.0)):
        geom = LinkGeometry(l_ac, l_bc)
        assert eps_at[total, d] == pytest.approx(
            equivalent_excess_noise(geom, DEFAULT_EPS, DEFAULT_EPS), rel=1e-12
        )
    gaps = []
    for l in sorted({r[0] for r in ds.rows}):
        at_l = {r[1]: r[2] for r in ds.rows if r[0] == l}
        gaps.append(at_l[1.0] - at_l[0.0])
    assert gaps == sorted(gaps)


def test_run_figure_dispatch():
    (ds,) = run_figure("fig2", steps=10)
    assert ds.name == "fig2"
    out = run_figure("fig7", l_steps=3)
    assert [d.name for d in out] == [
        "fig7_four",
        "fig7_eight",
        "fig7_four_zpc",
        "fig7_eight_zpc",
        *(f"fig7_eight_zpc_eps{eps!r}" for eps in EXTRA_EPS[Case.SYMMETRIC]),
    ]
    # every builder returns its list of datasets, which run_figure passes on
    builders = {build: (args, keys) for build, args, keys in FIGURES.values()}
    for build, (args, keys) in builders.items():
        assert isinstance(build(*args, **dict.fromkeys(keys, 2)), list), build.__name__
    with pytest.raises(ValueError):
        run_figure("fig1")
    # one spelling per id, the one the CLI's choices admit
    with pytest.raises(ValueError):
        run_figure("FIG2")


def test_builders_take_only_what_the_figure_command_sets():
    # a builder's keywords are exactly the --steps keys of the figure ids
    # registered to it, so the study axes have one setting
    taken = {}
    for build, args, step_keys in FIGURES.values():
        entry = taken.setdefault(build, (len(args), set()))
        assert entry[0] == len(args), build.__name__
        entry[1].update(step_keys)
    for build, (n_fixed, keys) in taken.items():
        params = list(inspect.signature(build).parameters)[n_fixed:]
        assert set(params) == keys, build.__name__


def test_beta_scan_presets():
    assert BETA_SCAN_DISTANCES[Case.ASYMMETRIC] == (20.0, 25.0, 30.0, 35.0)
    assert BETA_SCAN_DISTANCES[Case.SYMMETRIC] == (0.1, 0.2, 0.3, 0.4)
