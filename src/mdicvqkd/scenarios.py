"""Named parameter studies emitted as tabular datasets.

Each study builds its configs with presets.config_for, where the
conventions are declared.  The asymmetric layout reports l_ac; the
symmetric layout reports the total distance.
"""

import math
from functools import partial
from typing import NamedTuple

from .channel import LinkGeometry, equivalent_excess_noise
from .modulation import Scheme, correlation_z, gaussian_z
from .optimize import best_rate, check_steps, linspace
from .presets import DEFAULT_EPS, Case, Variant, config_for

# Distance axis of the rate surfaces and distance curves, km.
L_MAX = {Case.ASYMMETRIC: 60.0, Case.SYMMETRIC: 1.5}

BETA_SCAN_DISTANCES = {
    Case.ASYMMETRIC: (20.0, 25.0, 30.0, 35.0),
    Case.SYMMETRIC: (0.1, 0.2, 0.3, 0.4),
}

# Relay positions d = l_bc / l_ac of the relay-position studies, from Bob
# (0) to the middle (1).
RELAY_POSITIONS = (0.0, 0.25, 0.5, 0.75, 1.0)

# Extra excess-noise presets for the distance curves of the best variant.
EXTRA_EPS = {
    Case.ASYMMETRIC: (0.0015, 0.00225, 0.0030),
    Case.SYMMETRIC: (0.0015, 0.0025, 0.0030),
}


class Dataset(NamedTuple):
    """One table: a name, a column header, and row tuples.
    rows_out_of_domain counts the rows reported at a config outside the
    trusted domain, judged at that row's T, and key_rows_out_of_domain
    those of them with a key."""

    name: str
    columns: tuple[str, ...]
    rows: list[tuple]
    rows_out_of_domain: int = 0
    key_rows_out_of_domain: int = 0


def correlation_curves(steps: int = 200) -> list[Dataset]:
    """Correlation coefficient of the three modulations versus the
    effective modulation variance, over [0, 4]."""
    rows = []
    for v_m in linspace(0.0, 4.0, steps):
        x = v_m / 2.0
        rows.append(
            (
                v_m,
                correlation_z(Scheme.FOUR, x),
                correlation_z(Scheme.EIGHT, x),
                gaussian_z(x),
            )
        )
    return [Dataset(_figure_id(correlation_curves), ("v_m_tilde", "z4", "z8", "zg"), rows)]


def _or_nan(x: float | None) -> float:
    return math.nan if x is None else x


def _rate_table(
    name: str,
    axes: tuple[str, ...],
    points: list[tuple],
    make_config,
    fields: tuple[str, ...] = (),
) -> Dataset:
    """One row per point: its axis values, the best rate over T at
    make_config(*point), the given KeyRateResult fields there, and that
    T.  Undefined values (no physical T) are written as nan."""
    rows, out_of_domain, key_out_of_domain = [], 0, 0
    for point in points:
        cfg = make_config(*point)
        t_star, result = best_rate(cfg)
        values = (_or_nan(getattr(result, f)) for f in ("skr", *fields))
        rows.append((*point, *values, t_star))
        if cfg.at_t(t_star).warn_domain:
            out_of_domain += 1
            key_out_of_domain += result.physical and result.skr > 0.0
    columns = (*axes, "skr_bits_per_use", *fields, "t_star")
    return Dataset(name, columns, rows, out_of_domain, key_out_of_domain)


def _best_rate_tables(
    name: str, axes: tuple[str, ...], points: list[tuple], make_config, fields: tuple[str, ...] = ()
) -> list[Dataset]:
    """One rate table per variant, named name_variant, at
    make_config(variant, *point), with the given KeyRateResult fields."""
    return [
        _rate_table(f"{name}_{v.value}", axes, points, partial(make_config, v), fields)
        for v in Variant
    ]


def rate_surface(case: Case, v_steps: int = 100, l_steps: int = 100) -> list[Dataset]:
    """Rate over the (variance, distance) plane, one table per variant.

    Variances sample [1.05, 10] and distances [0, L_MAX[case]];
    non-positive rates are recorded as-is so the positive region's
    boundary stays visible in the data.
    """
    points = [
        (v, l)
        for v in linspace(1.05, 10.0, v_steps)
        for l in linspace(0.0, L_MAX[case], l_steps)
    ]
    return _best_rate_tables(
        _figure_id(rate_surface, case),
        ("variance_v", "distance_km"),
        points,
        lambda variant, v, l: config_for(variant, case, l, variance_v=v),
    )


def rate_vs_distance(case: Case, l_steps: int = 200) -> list[Dataset]:
    """Rate against distance at each variant's preset variance, plus the
    best variant rerun at each extra excess noise of EXTRA_EPS[case]."""
    name, axes = _figure_id(rate_vs_distance, case), ("distance_km",)
    distances = [(l,) for l in linspace(0.0, L_MAX[case], l_steps)]
    fields = ("p_d", "i_ab", "chi_be")
    out = _best_rate_tables(name, axes, distances, lambda v, l: config_for(v, case, l), fields)
    for eps in EXTRA_EPS[case]:
        at_eps = partial(config_for, Variant.EIGHT_ZPC, case, eps=eps)
        out.append(_rate_table(f"{name}_eight_zpc_eps{eps!r}", axes, distances, at_eps, fields))
    return out


def rate_vs_beta(case: Case, beta_steps: int = 200) -> list[Dataset]:
    """Rate against reconciliation efficiency in [0.8, 1] at the preset
    distances, transmittance re-optimized at every point."""
    betas = linspace(0.8, 1.0, beta_steps)
    points = [(l, beta) for l in BETA_SCAN_DISTANCES[case] for beta in betas]
    return _best_rate_tables(
        _figure_id(rate_vs_beta, case),
        ("distance_km", "beta"),
        points,
        lambda variant, l, beta: config_for(variant, case, l, beta=beta),
    )


def asymmetry_rate_curves(l_steps: int = 200) -> list[Dataset]:
    """Eight-state catalysis rate at V = 2.7 versus distance as the relay
    slides from Bob toward the middle, over l_ac in [0, 50] km at each d
    of RELAY_POSITIONS; d is the ratio l_bc / l_ac.

    The distance column is the Alice-Bob total l_ac (1 + d), from which
    the arm difference l_ac - l_bc = distance (1 - d) / (1 + d) follows.
    Rows are sorted by distance then d; a non-finite best rate is
    written as nan.
    """
    base = config_for(Variant.EIGHT_ZPC, Case.ASYMMETRIC, 0.0, variance_v=2.7)
    ds = _rate_table(
        _figure_id(asymmetry_rate_curves),
        ("distance_km", "d"),
        [(l_ac, d) for d in RELAY_POSITIONS for l_ac in linspace(0.0, 50.0, l_steps)],
        lambda l_ac, d: base._replace(geometry=LinkGeometry(l_ac, d * l_ac)),
    )
    # the rows carry l_ac until here; report the total, sorted
    rows = [(l * (1.0 + d), d, *r) for l, d, *r in ds.rows]
    return [ds._replace(rows=sorted(rows, key=lambda r: (r[0], r[1])))]


def excess_noise_transition(l_steps: int = 200) -> list[Dataset]:
    """Equivalent excess noise versus total distance on [0, 60] km for
    each relay position, at the preset excess noise on both links, each
    total split in the ratio 1 : d."""
    distances = linspace(0.0, 60.0, l_steps)
    rows = []
    for d in RELAY_POSITIONS:
        for total in distances:
            geom = LinkGeometry(1.0, d).scaled(total)
            rows.append((total, d, equivalent_excess_noise(geom, DEFAULT_EPS, DEFAULT_EPS)))
    rows.sort(key=lambda r: (r[0], r[1]))
    return [Dataset(_figure_id(excess_noise_transition), ("distance_km", "d", "eps_th"), rows)]


# The figures: id -> (builder, its fixed positional arguments, the keyword
# arguments `--steps` sets).
FIGURES = {
    "fig2": (correlation_curves, (), ("steps",)),
    "fig3": (rate_surface, (Case.ASYMMETRIC,), ("v_steps", "l_steps")),
    "fig4": (rate_vs_distance, (Case.ASYMMETRIC,), ("l_steps",)),
    "fig5": (rate_vs_beta, (Case.ASYMMETRIC,), ("beta_steps",)),
    "fig6": (rate_surface, (Case.SYMMETRIC,), ("v_steps", "l_steps")),
    "fig7": (rate_vs_distance, (Case.SYMMETRIC,), ("l_steps",)),
    "fig8": (rate_vs_beta, (Case.SYMMETRIC,), ("beta_steps",)),
    "fig9a": (asymmetry_rate_curves, (), ("l_steps",)),
    "fig9b": (excess_noise_transition, (), ("l_steps",)),
}

FIGURE_IDS = tuple(FIGURES)


def _figure_id(builder, *args) -> str:
    """The id registered for builder called with args; its datasets are
    named after it."""
    return next(fid for fid, fig in FIGURES.items() if fig[:2] == (builder, args))


def run_figure(figure_id: str, **steps) -> list[Dataset]:
    """Build a registered figure's datasets.  figure_id is one of
    FIGURE_IDS, spelled as registered; the keywords are its `--steps`
    keys, as FIGURES lists them.  Any other keyword, and a step count
    that optimize.check_steps refuses below 2, are refused first."""
    try:
        build, args, step_keys = FIGURES[figure_id]
    except KeyError:
        raise ValueError(f"unknown figure id {figure_id!r}") from None
    for key, value in steps.items():
        if key not in step_keys:
            raise ValueError(f"{figure_id} takes no keyword {key}")
        check_steps(key, value, 2)
    return build(*args, **steps)
