"""Deterministic optimizers: catalysis transmittance, source variance,
maximum transmission distance, and the reconciliation-efficiency
threshold.

Two searches.  T and V are a coarse-grid scan plus golden-section
refinement around the best bracket; the rate surface is smooth but not
assumed unimodal, so the refined value is only trusted when it beats the
coarse scan.  The reach brackets the rate's zero crossing by doubling the
total length, then bisects that bracket.  No randomness, no gradient
estimates; ties break toward the smaller parameter value so repeated runs
agree bit for bit.
"""

import math
from collections import namedtuple

from .channel import refuse_bool
from .keyrate import VARIANCE_MAX, KeyRateResult, ProtocolConfig, rate_over_t

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

# max_distance bisects until its bracket is this fraction of its upper end.
REACH_RTOL = 1e-3

# Open lower end of every catalysis T search over (T_LO, 1]: the rate
# vanishes as T -> 0, so the excluded sliver cannot hold the optimum.
T_LO = 0.01


def check_steps(name: str, value: int, least: int) -> None:
    """Refuse a step count that is no int (a bool is none) or is below least."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def linspace(lo: float, hi: float, steps: int) -> list[float]:
    """steps evenly spaced points from lo to hi; the last is hi itself,
    which lo + (hi - lo) * k / k can miss by an ulp."""
    check_steps("steps", steps, 2)
    return [lo + (hi - lo) * i / (steps - 1) for i in range(steps - 1)] + [hi]


class OptimizationGrid(
    namedtuple("OptimizationGrid", "t_steps v_lo v_hi v_steps refine_iters")
):
    """Scan ranges and refinement depth shared by all optimizers: T over
    (T_LO, 1], V over [v_lo, v_hi]."""

    __slots__ = ()
    # the stock _make, which _replace calls, skips __new__
    _make = classmethod(lambda cls, values: cls(*values))

    def __new__(
        cls,
        t_steps: int = 200,
        v_lo: float = 1.01,
        v_hi: float = 10.0,
        v_steps: int = 200,
        refine_iters: int = 30,
    ):
        refuse_bool(v_lo=v_lo, v_hi=v_hi)
        self = tuple.__new__(cls, (t_steps, v_lo, v_hi, v_steps, refine_iters))
        for name in ("v_lo", "v_hi"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not (1.0 < self.v_lo < self.v_hi <= VARIANCE_MAX):
            raise ValueError(
                f"need 1 < v_lo < v_hi <= {VARIANCE_MAX:g}, got [{self.v_lo}, {self.v_hi}]"
            )
        for name, least in (("t_steps", 2), ("v_steps", 2), ("refine_iters", 0)):
            check_steps(name, getattr(self, name), least)
        return self

    def t_points(self) -> list[float]:
        """Grid over (T_LO, 1]: T_LO excluded, 1 included."""
        return linspace(T_LO, 1.0, self.t_steps + 1)[1:]

    def v_points(self) -> list[float]:
        return linspace(self.v_lo, self.v_hi, self.v_steps)


def _golden_max(f, key, lo: float, hi: float, iters: int):
    """Golden-section maximum of key(f(x)) on [lo, hi], as (x, f(x)).  Ties
    keep the left subinterval so the smaller argument wins; the search stops
    before a probe that would not lie strictly inside its bracket."""
    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if key(fc) >= key(fd):
            x = d - _INV_PHI * (d - lo)
            if not lo < x < d:
                break
            hi, d, fd = d, c, fc
            c, fc = x, f(x)
        else:
            x = c + _INV_PHI * (hi - c)
            if not c < x < hi:
                break
            lo, c, fc = c, d, fd
            d, fd = x, f(x)
    return (c, fc) if key(fc) >= key(fd) else (d, fd)


def _scan_and_refine(f, key, points: list[float], lo_cap: float, hi_cap: float, iters: int):
    """Best of a coarse scan and a golden pass around its bracket.

    Returns (x, f(x)), f(x) being the object f returned at x, with
    key(f(x)) >= key of every coarse value; ties on the scan keep the
    first (smallest) point.
    """
    values = [f(x) for x in points]
    best_i = max(range(len(points)), key=lambda i: key(values[i]))
    lo = points[best_i - 1] if best_i > 0 else lo_cap
    hi = points[best_i + 1] if best_i + 1 < len(points) else hi_cap
    x_ref, f_ref = _golden_max(f, key, lo, hi, iters)
    if key(f_ref) > key(values[best_i]):
        return x_ref, f_ref
    return points[best_i], values[best_i]


def _skr(r: KeyRateResult) -> float:
    return r.skr if r.physical else -math.inf


def _neg_ratio(r: KeyRateResult) -> float:
    """-chi_BE / I_AB, the negated reconciliation efficiency at which r's
    rate turns positive; -inf where there is no such efficiency."""
    if not r.physical or r.i_ab <= 0.0:
        return -math.inf
    return -r.chi_be / r.i_ab


def _best_t(config: ProtocolConfig, grid: OptimizationGrid, key) -> tuple[float, KeyRateResult]:
    """(T, result at T) maximizing key(result): the T search of every
    optimizer.  T is scanned and refined when catalysis is on, and a
    single evaluation at T = 1 otherwise.  The T stored in config is a
    placeholder and does not bias the search."""
    rate = rate_over_t(config)
    if config.zpc is None:
        return config.t, rate(config.t)
    return _scan_and_refine(rate, key, grid.t_points(), T_LO, 1.0, grid.refine_iters)


def best_rate(
    config: ProtocolConfig, grid: OptimizationGrid = OptimizationGrid()
) -> tuple[float, KeyRateResult]:
    """The rate optimum over T (T = 1 when catalysis is off), as (t*, the
    result at t*); its skr is None where no T gives a physical state."""
    return _best_t(config, grid, _skr)


def optimize_t(
    config: ProtocolConfig, grid: OptimizationGrid = OptimizationGrid()
) -> tuple[float, KeyRateResult]:
    """Transmittance maximizing the key rate, everything else fixed, as
    best_rate's (t*, result); catalysis must be on."""
    if config.zpc is None:
        raise ValueError("optimize_t requires an enabled catalysis setting")
    return best_rate(config, grid)


def optimize_tv(
    config: ProtocolConfig, grid: OptimizationGrid = OptimizationGrid()
) -> tuple[float, tuple[float, KeyRateResult]]:
    """Joint optimum over source variance and (with catalysis on)
    transmittance, as (v*, best_rate's (t*, result) at v*).

    A variance scan with best_rate inside, then golden refinement around
    the best bracket.  V is keyed by the rate where it is positive, else
    by the margin beta - chi_BE / I_AB, which has the rate's sign but,
    unlike it, does not rise toward V = 1 past a narrow key window.
    """

    def opt_at(v: float) -> tuple[float, KeyRateResult]:
        return best_rate(config._replace(variance_v=v), grid)

    def key(opt: tuple[float, KeyRateResult]) -> float:
        skr = _skr(opt[1])
        return skr if skr > 0.0 else config.beta + _neg_ratio(opt[1])

    return _scan_and_refine(opt_at, key, grid.v_points(), grid.v_lo, grid.v_hi, grid.refine_iters)


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
    t_at, result = _best_t(config, grid, _neg_ratio)
    return -_neg_ratio(result), t_at


def max_distance(config: ProtocolConfig, grid: OptimizationGrid = OptimizationGrid()) -> float:
    """Largest total distance, km, with a positive (T-optimized) key rate.

    The arm ratio of config.geometry is preserved while the total length
    is scaled; the zero crossing is bracketed by doubling and then
    bisected until hi - lo <= REACH_RTOL * hi, so the reach is resolved
    to 0.1 % of itself at every scale.  A config with no key even at zero
    length gives 0.0; every other config gives a reach above 0.  A key
    that outlasts the doubling ends in the channel's refusal of an
    underflowed link.
    """
    base = config.geometry

    def rate_at(total_km: float) -> float:
        return _skr(best_rate(config._replace(geometry=base.scaled(total_km)), grid)[1])

    if not (rate_at(0.0) > 0.0):
        return 0.0
    lo, hi = 0.0, max(base.total_km, 1.0)
    while rate_at(hi) > 0.0:
        lo, hi = hi, 2.0 * hi
    while hi - lo > REACH_RTOL * hi:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break  # lo = 0 and hi has halved to the smallest subnormal
        if rate_at(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
