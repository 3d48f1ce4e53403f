"""Deterministic optimizers: catalysis transmittance, source variance,
maximum transmission distance, and the reconciliation-efficiency
threshold.

Everything is coarse-grid scan plus golden-section refinement around the
best bracket.  No randomness, no gradient estimates; ties break toward
the smaller parameter value so repeated runs agree bit for bit.  The
rate surface is smooth but not assumed unimodal: the refined value is
only trusted when it beats the coarse scan.
"""

import math
from collections import namedtuple
from typing import NamedTuple

from .keyrate import KeyRateResult, ProtocolConfig, rate_over_t

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

# Bisection tolerance of max_distance, km.
TOL_KM = 0.05


def linspace(lo: float, hi: float, steps: int) -> list[float]:
    """steps evenly spaced points from lo to hi; the last is hi itself,
    which lo + (hi - lo) * k / k can miss by an ulp."""
    if steps < 2:
        raise ValueError("steps must be >= 2")
    return [lo + (hi - lo) * i / (steps - 1) for i in range(steps - 1)] + [hi]


class OptimizationGrid(
    namedtuple("OptimizationGrid", "t_lo t_hi t_steps v_lo v_hi v_steps refine_iters")
):
    """Scan ranges and refinement depth shared by all optimizers.

    The transmittance range is open at the bottom (the rate vanishes
    with T, so the excluded sliver cannot hold the optimum) and closed
    at 1; the variance range is closed on both ends.
    """

    __slots__ = ()
    # the stock _make, which _replace calls, skips __new__
    _make = classmethod(lambda cls, values: cls(*values))

    def __new__(
        cls,
        t_lo: float = 0.01,
        t_hi: float = 1.0,
        t_steps: int = 200,
        v_lo: float = 1.01,
        v_hi: float = 10.0,
        v_steps: int = 200,
        refine_iters: int = 30,
    ):
        self = tuple.__new__(cls, (t_lo, t_hi, t_steps, v_lo, v_hi, v_steps, refine_iters))
        for name in ("t_lo", "t_hi", "v_lo", "v_hi"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not (0.0 <= self.t_lo < self.t_hi <= 1.0):
            raise ValueError(f"need 0 <= t_lo < t_hi <= 1, got ({self.t_lo}, {self.t_hi}]")
        if not (1.0 < self.v_lo < self.v_hi):
            raise ValueError(f"need 1 < v_lo < v_hi, got [{self.v_lo}, {self.v_hi}]")
        for name in ("t_steps", "v_steps"):
            if getattr(self, name) < 2:
                raise ValueError(f"{name} must be >= 2, got {getattr(self, name)}")
        if self.refine_iters < 0:
            raise ValueError("refine_iters must be >= 0")
        return self

    def t_points(self) -> list[float]:
        """Grid over (t_lo, t_hi]: lo excluded, hi included."""
        return linspace(self.t_lo, self.t_hi, self.t_steps + 1)[1:]

    def v_points(self) -> list[float]:
        return linspace(self.v_lo, self.v_hi, self.v_steps)


class TOptimum(NamedTuple):
    t_star: float
    skr_star: float
    result: KeyRateResult
    no_key: bool


class TvOptimum(NamedTuple):
    t_star: float
    v_star: float
    skr_star: float
    no_key: bool


class MaxDistance(NamedTuple):
    distance_km: float
    no_key: bool


def _golden_max(f, lo: float, hi: float, iters: int) -> tuple[float, float]:
    """Golden-section maximum of f on [lo, hi]; ties keep the left
    subinterval so the smaller argument wins."""
    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_PHI * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_PHI * (hi - lo)
            fd = f(d)
    if fc >= fd:
        return c, fc
    return d, fd


def _scan_and_refine(f, points: list[float], lo_cap: float, hi_cap: float, iters: int):
    """Best of a coarse scan and a golden pass around its bracket.

    Returns (x, f(x)) with f(x) >= every coarse value; ties on the scan
    keep the first (smallest) point.
    """
    best_i = 0
    best_f = f(points[0])
    for i in range(1, len(points)):
        fi = f(points[i])
        if fi > best_f:
            best_i, best_f = i, fi
    lo = points[best_i - 1] if best_i > 0 else lo_cap
    hi = points[best_i + 1] if best_i + 1 < len(points) else hi_cap
    x_ref, f_ref = _golden_max(f, lo, hi, iters)
    if f_ref > best_f:
        return x_ref, f_ref
    return points[best_i], best_f


def _skr(r: KeyRateResult) -> float:
    return r.skr if r.physical else -math.inf


def _optimum(t_star: float, result: KeyRateResult) -> TOptimum:
    skr = _skr(result)
    return TOptimum(t_star, skr, result, not (skr > 0.0))


def best_rate(config: ProtocolConfig, grid: OptimizationGrid = OptimizationGrid()) -> TOptimum:
    """The rate optimum with T scanned and refined when catalysis is on,
    a single evaluation at T = 1 otherwise.  The T stored in config is a
    placeholder and does not bias the search."""
    rate = rate_over_t(config)
    if not config.zpc.enabled:
        return _optimum(1.0, rate(1.0))
    t_star, _ = _scan_and_refine(
        lambda t: _skr(rate(t)), grid.t_points(), grid.t_lo, grid.t_hi, grid.refine_iters
    )
    return _optimum(t_star, rate(t_star))


def optimize_t(config: ProtocolConfig, grid: OptimizationGrid = OptimizationGrid()) -> TOptimum:
    """Transmittance maximizing the key rate, everything else fixed; the
    catalysis setting must be enabled."""
    if not config.zpc.enabled:
        raise ValueError("optimize_t requires an enabled catalysis setting")
    return best_rate(config, grid)


def optimize_tv(config: ProtocolConfig, grid: OptimizationGrid = OptimizationGrid()) -> TvOptimum:
    """Joint optimum over source variance and (when enabled) transmittance.

    Nested search: a variance scan with the transmittance optimizer
    inside, then golden refinement of the variance around the best
    bracket.  Without catalysis the inner stage is a single evaluation
    at T = 1.
    """
    t_for: dict[float, float] = {}

    def f(v: float) -> float:
        opt = best_rate(config._replace(variance_v=v), grid)
        t_for[v] = opt.t_star
        return opt.skr_star

    v_star, skr_star = _scan_and_refine(
        f, grid.v_points(), grid.v_lo, grid.v_hi, grid.refine_iters
    )
    return TvOptimum(t_for[v_star], v_star, skr_star, not (skr_star > 0.0))


def beta_zero_crossing(
    config: ProtocolConfig, grid: OptimizationGrid = OptimizationGrid()
) -> tuple[float, float]:
    """Reconciliation efficiency at which the best achievable rate turns
    positive, with the transmittance attaining it.  "Best" is over T at
    the config's own variance; the variance is not optimized.

    The rate is linear in beta with slope P_d I_AB, so for every fixed T
    the crossing sits at chi_BE / I_AB and optimizing T means taking the
    smallest such ratio.  Values above 1 mean no key at any efficiency;
    inf means no physical operating point at all.
    """
    rate = rate_over_t(config)

    def neg_ratio(t: float) -> float:
        res = rate(t)
        if not res.physical or res.i_ab <= 0.0:
            return -math.inf
        return -res.chi_be / res.i_ab

    if not config.zpc.enabled:
        return -neg_ratio(1.0), 1.0
    t_at, neg_beta = _scan_and_refine(
        neg_ratio, grid.t_points(), grid.t_lo, grid.t_hi, grid.refine_iters
    )
    return -neg_beta, t_at


def max_distance(
    config: ProtocolConfig,
    grid: OptimizationGrid = OptimizationGrid(),
    tol_km: float = TOL_KM,
) -> MaxDistance:
    """Largest total distance with a positive (T-optimized) key rate.

    The arm ratio of config.geometry is preserved while the total length
    is scaled; the zero crossing is bracketed by doubling and then
    bisected to tol_km.  Degenerate configs with no key even at zero
    distance return 0 with the no_key flag set.
    """
    if not (tol_km > 0.0 and math.isfinite(tol_km)):
        raise ValueError(f"tol_km must be finite and > 0, got {tol_km}")
    base = config.geometry

    def rate_at(total_km: float) -> float:
        return best_rate(config._replace(geometry=base.scaled(total_km)), grid).skr_star

    if not (rate_at(0.0) > 0.0):
        return MaxDistance(0.0, True)
    lo, hi = 0.0, max(base.total_km, 1.0)
    while rate_at(hi) > 0.0:
        lo, hi = hi, 2.0 * hi
        if hi > 1e5:
            raise RuntimeError("no zero crossing found below 1e5 km")
    while hi - lo > tol_km:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break  # lo and hi are adjacent floats: tol_km is below their spacing
        if rate_at(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return MaxDistance(0.5 * (lo + hi), False)
