"""Acceptance suite: one test per numbered criterion.

Every test prints a `criterion NN [PASS|FAIL]` line before asserting, so
a full run (use -s to see the lines live) always yields the complete
scoreboard.  Tolerances are part of the criteria and must not be
loosened here.
"""

import math
import random
import time

from test_keyrate import covariance_of
from test_modulation import poisson_residue_oracle

from mdicvqkd.channel import LinkGeometry
from mdicvqkd.cli_io import main
from mdicvqkd.keyrate import (
    ProtocolConfig,
    evaluate_protocol,
    secret_key_rate,
    symplectic_eigenvalues,
)
from mdicvqkd.modulation import Scheme, correlation_z, gaussian_z, lambdas
from mdicvqkd.optimize import (
    V_HI,
    V_LO,
    OptimizationGrid,
    _scan_and_refine,
    best_rate,
    beta_zero_crossing,
    linspace,
    max_distance,
    optimize_tv,
)
from mdicvqkd.presets import DEFAULT_EPS
from mdicvqkd.scenarios import Case, Variant, config_for, excess_noise_transition


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}]: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _random_config(rng: random.Random) -> ProtocolConfig:
    zpc = rng.uniform(0.05, 1.0) if rng.random() < 0.5 else None
    return ProtocolConfig(
        scheme=rng.choice((Scheme.FOUR, Scheme.EIGHT)),
        zpc=zpc,
        variance_v=rng.uniform(1.01, 6.0),
        beta=rng.uniform(0.5, 1.0),
        eps_a=rng.uniform(0.0, 0.01),
        eps_b=rng.uniform(0.0, 0.01),
        geometry=LinkGeometry(rng.uniform(0.0, 40.0), rng.uniform(0.0, 5.0)),
    )


def test_criterion_01_weight_oracle():
    rng = random.Random(1)
    # the big-integer oracle runs before the timer, which times lambdas only
    cases = []
    for _ in range(50):
        x = rng.uniform(0.0, 5.0)
        for m, scheme in ((8, Scheme.EIGHT), (4, Scheme.FOUR)):
            cases.append((scheme, x, poisson_residue_oracle(x, m)))
    start = time.perf_counter()
    got = [lambdas(scheme, x) for scheme, x, _ in cases]
    elapsed = time.perf_counter() - start
    worst = max(abs(g - w) for ws, (_, _, want) in zip(got, cases) for g, w in zip(ws, want))
    ok = worst < 1e-12 and elapsed < 1.0
    _report(1, ok, f"max weight error {worst:.2e} (< 1e-12), runtime {elapsed:.2f} s (< 1 s)")


def test_criterion_02_normalization():
    worst = 0.0
    for i in range(1000):
        x = 10.0 * i / 999
        for scheme in (Scheme.EIGHT, Scheme.FOUR):
            worst = max(worst, abs(sum(lambdas(scheme, x)) - 1.0))
    ok = worst < 1e-12
    _report(2, ok, f"max |sum(lambda) - 1| = {worst:.2e} (< 1e-12) over both schemes")


def test_criterion_03_correlation_ordering():
    ordered = True
    worst_gap = 0.0
    for i in range(1, 201):
        v_m = 4.0 * i / 200
        x = v_m / 2.0
        z4 = correlation_z(Scheme.FOUR, x)
        z8 = correlation_z(Scheme.EIGHT, x)
        zg = gaussian_z(x)
        if not (zg >= z8 >= z4):
            ordered = False
    for v_m in (0.01, 0.02, 0.025, 0.04, 0.05):
        x = v_m / 2.0
        worst_gap = max(worst_gap, abs(correlation_z(Scheme.EIGHT, x) - gaussian_z(x)))
    ok = ordered and worst_gap < 1e-3
    _report(
        3,
        ok,
        f"zg >= z8 >= z4 at 200 points: {ordered}; "
        f"max |z8 - zg| = {worst_gap:.2e} (< 1e-3) for v_m <= 0.05",
    )


def test_criterion_04_symplectic_physicality():
    rng = random.Random(4)
    worst_det = 0.0
    min_kappa = math.inf
    for _ in range(10_000):
        cfg = _random_config(rng)
        a, b, c = covariance_of(cfg, evaluate_protocol(cfg))
        k1, k2, _ = symplectic_eigenvalues(a, b, c)
        det = a * b - c * c
        worst_det = max(worst_det, abs(k1 * k2 - det))
        min_kappa = min(min_kappa, k1, k2)
    worst_pure = 0.0
    for i in range(50):
        v = 1.1 + (10.0 - 1.1) * i / 49
        k1, k2, _ = symplectic_eigenvalues(v, v, math.sqrt(v * v - 1.0))
        worst_pure = max(worst_pure, abs(k1 - 1.0), abs(k2 - 1.0))
    ok = worst_det < 1e-10 and min_kappa >= 1.0 - 1e-9 and worst_pure < 1e-9
    _report(
        4,
        ok,
        f"det identity error {worst_det:.2e} (< 1e-10), min kappa {min_kappa:.12f}, "
        f"pure-state deviation {worst_pure:.2e} (< 1e-9) over 10^4 states",
    )


def test_criterion_05_identity_reduction():
    rng = random.Random(5)
    equal = True
    for _ in range(100):
        base = _random_config(rng)
        on = evaluate_protocol(base._replace(zpc=1.0))
        off = evaluate_protocol(base._replace(zpc=None))
        if on != off:
            equal = False
            break
    _report(5, equal, "catalysis at T = 1 equals disabled, all fields exact, 100 configs")


def test_criterion_06_reference_distances_relay_at_bob():
    start = time.perf_counter()
    eight = config_for(Variant.EIGHT_ZPC, Case.ASYMMETRIC, 10.0, variance_v=2.6)
    four = config_for(Variant.FOUR_ZPC, Case.ASYMMETRIC, 10.0, variance_v=2.5)
    d8 = max_distance(eight)
    d4 = max_distance(four)
    elapsed = time.perf_counter() - start
    ok = 45.0 <= d8 <= 55.0 and 40.5 <= d4 <= 49.5 and d8 > d4 and elapsed < 60.0
    _report(
        6,
        ok,
        f"eight+zpc {d8:.2f} km (50 +- 10%), four+zpc {d4:.2f} km (45 +- 10%), "
        f"eight > four: {d8 > d4}, runtime {elapsed:.1f} s (< 60 s)",
    )


def test_criterion_07_reference_distances_relay_midway():
    eight = config_for(Variant.EIGHT_ZPC, Case.SYMMETRIC, 1.0, variance_v=2.7)
    four = config_for(Variant.FOUR_ZPC, Case.SYMMETRIC, 1.0, variance_v=2.6)
    d8 = max_distance(eight)
    d4 = max_distance(four)
    ok = 1.02 <= d8 <= 1.38 and 0.765 <= d4 <= 1.035
    _report(
        7,
        ok,
        f"eight+zpc {d8:.3f} km (want 1.2 +- 15%), four+zpc {d4:.3f} km (want 0.9 +- 15%)",
    )


def test_criterion_07_targets_match_the_v_axis_end():
    # A reading of criterion 7's targets, which leaves that criterion as it
    # is: maximized over fig6's V axis (20 of its points), each midway reach
    # peaks at the axis's upper end, lies inside criterion 7's band, and is
    # reported outside the trusted domain.  Consistent with the targets, not
    # confirmed by the paper.
    axis = linspace(1.05, V_HI, 20)
    lines, ok = [], True
    for variant, want in ((Variant.EIGHT_ZPC, 1.2), (Variant.FOUR_ZPC, 0.9)):
        configs = [config_for(variant, Case.SYMMETRIC, 1.0, variance_v=v) for v in axis]
        reaches = [max_distance(cfg) for cfg in configs]
        best = max(range(len(axis)), key=reaches.__getitem__)
        reached = configs[best]._replace(geometry=configs[best].geometry.scaled(reaches[best]))
        flagged = reached.at_t(best_rate(reached)[0]).warn_domain
        ok &= axis[best] == V_HI and 0.85 * want <= reaches[best] <= 1.15 * want and flagged
        lines.append(
            f"{variant.value} {reaches[best]:.3f} km at V = {axis[best]:g} "
            f"(want {want} +- 15% at V = {V_HI:g}), outside the domain: {flagged}"
        )
    print("criterion 07 at the V axis end: " + "; ".join(lines))
    assert ok, lines


def test_criterion_08_optimal_variances():
    targets = {
        (Case.ASYMMETRIC, Variant.FOUR): 1.4,
        (Case.ASYMMETRIC, Variant.EIGHT): 1.5,
        (Case.ASYMMETRIC, Variant.FOUR_ZPC): 2.5,
        (Case.ASYMMETRIC, Variant.EIGHT_ZPC): 2.6,
        (Case.SYMMETRIC, Variant.FOUR): 1.5,
        (Case.SYMMETRIC, Variant.EIGHT): 1.8,
        (Case.SYMMETRIC, Variant.FOUR_ZPC): 2.6,
        (Case.SYMMETRIC, Variant.EIGHT_ZPC): 2.7,
    }
    eval_distance = {Case.ASYMMETRIC: 30.0, Case.SYMMETRIC: 0.1}
    misses = []
    for (case, variant), want in targets.items():
        cfg = config_for(variant, case, eval_distance[case])
        got, _ = optimize_tv(cfg)
        if abs(got - want) > 0.2:
            misses.append(f"{case.value}/{variant.value}: {got:.2f} vs {want}")
    ok = not misses
    _report(8, ok, "all eight v* within 0.2" if ok else "; ".join(misses))


def test_criterion_09_excess_noise_sensitivity():
    base = config_for(Variant.EIGHT_ZPC, Case.ASYMMETRIC, 10.0, variance_v=2.6)
    low = config_for(Variant.EIGHT_ZPC, Case.ASYMMETRIC, 10.0, variance_v=2.6, eps=0.0015)
    gain = max_distance(low) - max_distance(base)
    ok = 3.0 <= gain <= 7.0
    _report(9, ok, f"distance gain at eps 0.0015: {gain:.2f} km (want 5 +- 2)")


# Criterion 10 ranks the protocols by the lowest reconciliation efficiency
# at which each still gives a key: the smallest beta_zero_crossing over its
# own (T, V), searched on the default OptimizationGrid box.  V is scanned
# and refined as optimize_tv does, with T optimized inside; the coarse
# scans give the thresholds of a 40 x 200 scan to within 1e-9.
BETA_GRID = OptimizationGrid(v_steps=10, t_steps=25, refine_iters=20)


def _beta_threshold(variant: Variant, case: Case, distance_km: float):
    """Smallest crossing over V, with the config at the (v*, t*) attaining it."""

    def crossing(v: float) -> tuple[float, float]:
        return beta_zero_crossing(config_for(variant, case, distance_km, variance_v=v), BETA_GRID)

    v_star, (beta0, t_at) = _scan_and_refine(
        crossing, lambda c: -c[0], BETA_GRID.v_points(), V_LO, V_HI, BETA_GRID.refine_iters
    )
    cfg = config_for(variant, case, distance_km, variance_v=v_star)
    return beta0, cfg.at_t(t_at)


def test_criterion_10_beta_threshold_ordering():
    # At a shared (T, V) the eight-state threshold is the lower one, since
    # Z8 >= Z4 (criterion 3), so the links 8Z <= 4Z and 8 <= 4 follow once
    # both minima are found; 4Z <= 8, catalysis against none, does not.
    # The catalysis thresholds keep falling up to V = 10, so their v* sits
    # on the grid edge, but 4Z <= 8 holds as well with 4Z at its preset
    # variance; the non-catalysis optima lie inside the grid.  At the
    # preset variances of OPTIMAL_V, the rate optima read at one distance,
    # the non-catalysis pair inverts at 20 km and 0.1 km.
    presets = {
        Case.ASYMMETRIC: (20.0, 25.0, 30.0, 35.0),
        Case.SYMMETRIC: (0.1, 0.2, 0.3, 0.4),
    }
    chain = (Variant.EIGHT_ZPC, Variant.FOUR_ZPC, Variant.EIGHT, Variant.FOUR)
    violations = []
    points = []
    worst_analytic = 0.0
    for case, distances in presets.items():
        for dist in distances:
            b0 = {}
            for variant in Variant:
                beta0, cfg = _beta_threshold(variant, case, dist)
                res = evaluate_protocol(cfg).result
                worst_analytic = max(worst_analytic, abs(beta0 - res.chi_be / res.i_ab))
                v, t_at = cfg.variance_v, cfg.t
                at = f"v* {v:.3f}, t* {t_at:.3f}"
                if min(v - V_LO, V_HI - v) < 1e-3:
                    at += " [grid edge]"
                if cfg.warn_domain:
                    at += f" [T V_M {t_at * (v - 1.0):.2f} > 0.5]"
                b0[variant] = (beta0, at)
            seq = [b0[v][0] for v in chain]
            if not all(seq[i] <= seq[i + 1] for i in range(3)):
                violations.append(f"{case.value} {dist} km")
            points.append(
                f"{case.value} {dist} km: "
                + " / ".join(f"{beta0:.4f} ({at})" for beta0, at in (b0[v] for v in chain))
            )
    ok = not violations and worst_analytic < 1e-9
    detail = f"analytic match {worst_analytic:.1e} (< 1e-9); "
    detail += (
        "ordering holds at all presets"
        if not violations
        else "ordering violated at " + ", ".join(violations)
    )
    detail += "; thresholds 8Z / 4Z / 8 / 4 at " + "; ".join(points)
    _report(10, ok, detail)


def test_criterion_11_monotonicity_lattice():
    # a box inside the positive-rate region, where the rate is monotone
    n = 20
    distances = [2.0 + (25.0 - 2.0) * i / (n - 1) for i in range(n)]
    noises = [0.0005 + (0.003 - 0.0005) * j / (n - 1) for j in range(n)]
    betas = [0.92 + (1.0 - 0.92) * k / (n - 1) for k in range(n)]
    skr = {}
    for i, l in enumerate(distances):
        for j, e in enumerate(noises):
            for k, b in enumerate(betas):
                cfg = ProtocolConfig(
                    scheme=Scheme.EIGHT,
                    zpc=None,
                    variance_v=1.5,
                    beta=b,
                    eps_a=e,
                    eps_b=e,
                    geometry=LinkGeometry(l, 0.0),
                )
                skr[i, j, k] = secret_key_rate(cfg).skr
    violations = 0
    positive = all(v > 0.0 for v in skr.values())
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if i + 1 < n and skr[i + 1, j, k] > skr[i, j, k]:
                    violations += 1
                if j + 1 < n and skr[i, j + 1, k] > skr[i, j, k]:
                    violations += 1
                if k + 1 < n and skr[i, j, k + 1] < skr[i, j, k]:
                    violations += 1
    ok = violations == 0 and positive
    _report(
        11,
        ok,
        f"{violations} monotonicity violations over a 20^3 lattice "
        f"(distance and noise falling, beta rising); all rates positive: {positive}",
    )


def test_criterion_12_determinism(tmp_path, capsys):
    outs = []
    for name in ("a", "b"):
        out_dir = tmp_path / name
        code = main(["figure", "fig2", "--out", str(out_dir)])
        assert code == 0
        code = main(["figure", "fig9b", "--steps", "40", "--out", str(out_dir)])
        assert code == 0
        outs.append(
            (out_dir / "fig2.csv").read_bytes() + (out_dir / "fig9b.csv").read_bytes()
        )
    capsys.readouterr()  # swallow the file listings
    ok = outs[0] == outs[1]
    _report(12, ok, "repeated figure runs have byte-identical csv bodies")


def test_criterion_13_relay_position_transition():
    ratios = (0.0, 0.25, 0.5, 0.75, 1.0)
    reach = []
    for d in ratios:
        cfg = ProtocolConfig(
            scheme=Scheme.EIGHT,
            zpc=1.0,
            variance_v=2.7,
            beta=0.95,
            eps_a=0.002,
            eps_b=0.002,
            geometry=LinkGeometry(1.0, d),
        )
        reach.append(max_distance(cfg))
    decreasing = all(reach[i + 1] < reach[i] for i in range(len(reach) - 1))
    rows = excess_noise_transition(l_steps=100)[0].rows
    eps0 = {l: eps for l, d, eps in rows if d == 0.0}
    eps1 = {l: eps for l, d, eps in rows if d == 1.0}
    distances = sorted(eps0)
    gaps = [eps1[l] - eps0[l] for l in distances]
    widening = all(gaps[i + 1] > gaps[i] for i in range(len(gaps) - 1))
    ok = decreasing and widening
    _report(
        13,
        ok,
        "reach strictly falls as the relay moves to the middle: "
        + " > ".join(f"{r:.2f}" for r in reach)
        + f"; noise gap widening: {widening}",
    )


def _tolerable_eps(variant: Variant, case: Case, distance_km: float) -> float:
    """Largest excess noise on both links that still gives a key at the
    variant's preset variance with T optimized, bisected to 1e-8."""

    def has_key(eps: float) -> bool:
        _, result = best_rate(config_for(variant, case, distance_km, eps=eps))
        return result.physical and result.skr > 0.0

    lo, hi = 0.0, DEFAULT_EPS
    while has_key(hi):
        lo, hi = hi, 2.0 * hi
    while hi - lo > 1e-8:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if has_key(mid) else (lo, mid)
    return lo


def test_criterion_14_tolerable_noise_and_rate():
    # The abstract's claim that the eight-state protocol with catalysis
    # tolerates the most excess noise and gives the highest rate, checked
    # at each variant's preset variance with T optimized; the rate is read
    # at the preset eps.  Over each protocol's own (T, V) the check waits
    # for a cheaper V search.
    distances = {Case.ASYMMETRIC: (10.0, 20.0, 30.0), Case.SYMMETRIC: (0.1, 0.3)}
    others = [v for v in Variant if v is not Variant.EIGHT_ZPC]
    losses, points = [], []
    for case, case_distances in distances.items():
        for dist in case_distances:
            eps = {v: _tolerable_eps(v, case, dist) for v in Variant}
            skr = {v: best_rate(config_for(v, case, dist))[1].skr for v in Variant}
            where = f"{case.value} {dist:g} km"
            for table, name in ((eps, "eps"), (skr, "rate")):
                best = table[Variant.EIGHT_ZPC]
                losses += [f"{where} {name}: {v.value}" for v in others if not best > table[v]]
            points.append(
                f"{where}: eps "
                + " / ".join(f"{eps[v]:.5f}" for v in Variant)
                + ", rate "
                + " / ".join(f"{skr[v]:.3e}" for v in Variant)
            )
    ok = not losses
    detail = "eight_zpc leads on tolerable eps and rate at every point"
    if not ok:
        detail = "eight_zpc does not lead at " + ", ".join(losses)
    detail += "; " + " / ".join(v.value for v in Variant) + " at " + "; ".join(points)
    _report(14, ok, detail)
