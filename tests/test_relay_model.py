"""An independent model of the relay reduction (Li et al., PRA 89, 052301
(2014)) held against channel.equivalent_channel.

Each quadrature is a linear form over independent unit-variance sources,
a dict from source name to coefficient, and a covariance is the dot
product of two forms.  Nothing here reuses the closed forms of
channel.py: the model is built from the optics alone.
  - Alice and Bob each keep one mode of a two-mode squeezed vacuum and
    send the other; the x quadratures are correlated, the p quadratures
    anticorrelated.
  - Each fiber of transmittance T_i and excess noise eps_i adds
    1 - T_i + T_i eps_i of noise.
  - The relay mixes the two arrivals on a 50:50 beam splitter and
    measures x- = (x_A - x_B) / sqrt2 and p+ = (p_A + p_B) / sqrt2.
  - Bob displaces his kept mode to x_B + g x-, p_B + g p+.
"""

import math
import random

from mdicvqkd.channel import LinkGeometry, equivalent_channel, fiber_transmittance

# Alice's kept mode A against Bob's displaced mode B'': the scorer writes
# the covariance as [[a I, c Z], [c Z, b I]] with Z = diag(1, -1), and its
# Delta = a^2 + b^2 - 2 c^2 holds for that sign pattern only.
SIGNS = {"x": 1.0, "p": -1.0}
REL = 1e-12


def _panel(n: int = 200, seed: int = 18) -> list[tuple]:
    """Seeded (geometry, eps_a, eps_b, V, catalysis T) draws: V - 1
    log-uniform in [1e-2, 1e2], l_ac <= 60 km, l_bc <= 20 km, eps <= 0.1."""
    rng = random.Random(seed)
    return [
        (
            LinkGeometry(rng.uniform(0.0, 60.0), rng.uniform(0.0, 20.0)),
            rng.uniform(0.0, 0.1),
            rng.uniform(0.0, 0.1),
            1.0 + 10.0 ** rng.uniform(-2.0, 2.0),
            rng.uniform(0.05, 1.0),
        )
        for _ in range(n)
    ]


PANEL = _panel()


def _sum(*terms) -> dict:
    """The form sum of coef * form over the (coef, form) terms."""
    out: dict = {}
    for coef, form in terms:
        for source, x in form.items():
            out[source] = out.get(source, 0.0) + coef * x
    return out


def _cov(f: dict, g: dict) -> float:
    return math.fsum(x * g.get(source, 0.0) for source, x in f.items())


def _tmsv(v: float, name: str, sign: float) -> tuple[dict, dict]:
    """The kept and the sent quadrature of a two-mode squeezed vacuum of
    variance v; their covariance is sign * sqrt(v^2 - 1)."""
    a, b = math.sqrt((v + 1.0) / 2.0), math.sqrt((v - 1.0) / 2.0)
    return {name + "1": a, name + "2": sign * b}, {name + "1": sign * b, name + "2": a}


def _fiber(form: dict, t: float, eps: float, noise: str) -> dict:
    return _sum((math.sqrt(t), form), (math.sqrt(1.0 - t + t * eps), {noise: 1.0}))


def _relay_entries(geometry, eps_a, eps_b, v_a, v_b, g_sq, p_sign=-1.0) -> dict:
    """quadrature -> (Var A, Var B'', Cov(A, B'')) at Bob's gain g_sq; the
    p quadratures of both sources are correlated with sign p_sign."""
    t_a = fiber_transmittance(geometry.l_ac)
    t_b = fiber_transmittance(geometry.l_bc)
    g = math.sqrt(g_sq)
    entries = {}
    for quad, (sign, bob_at_relay) in {"x": (1.0, -1.0), "p": (p_sign, 1.0)}.items():
        kept_a, sent_a = _tmsv(v_a, "alice", sign)
        kept_b, sent_b = _tmsv(v_b, "bob", sign)
        arrived_a = _fiber(sent_a, t_a, eps_a, "fiber_a")
        arrived_b = _fiber(sent_b, t_b, eps_b, "fiber_b")
        measured = _sum((math.sqrt(0.5), arrived_a), (bob_at_relay * math.sqrt(0.5), arrived_b))
        displaced = _sum((1.0, kept_b), (g, measured))
        entries[quad] = (_cov(kept_a, kept_a), _cov(displaced, displaced), _cov(kept_a, displaced))
    return entries


def _worst_mismatch(p_sign: float = -1.0) -> list[float]:
    """Largest relative gaps over the panel, per entry, between the model
    and a = V_A, b = t_c (V_A + chi_t), c = +-sqrt(t_c) sqrt(V_A^2 - 1),
    for V_A = V_B = V and for Alice's source attenuated by catalysis."""
    worst = [0.0, 0.0, 0.0]
    for geometry, eps_a, eps_b, v, t in PANEL:
        chan = equivalent_channel(geometry, eps_a, eps_b, v_bob=v)
        for v_a in (v, 1.0 + t * (v - 1.0)):
            entries = _relay_entries(geometry, eps_a, eps_b, v_a, v, chan.g_sq, p_sign)
            b = chan.t_c * (v_a + chan.chi_t)
            c = math.sqrt(chan.t_c) * math.sqrt(v_a * v_a - 1.0)
            for quad, got in entries.items():
                want = (v_a, b, SIGNS[quad] * c)
                gaps = (abs(g - w) / abs(w) for g, w in zip(got, want))
                worst = [max(pair) for pair in zip(worst, gaps)]
    return worst


def test_relay_model_gives_the_scorer_entries():
    assert max(_worst_mismatch()) < REL


def test_flipped_p_sign_fails_the_c_check():
    # with both p quadratures correlated, Cov(p_A, p_B'') is +c, the sign
    # pattern of c I rather than c Z, and the c check catches it
    assert _worst_mismatch(p_sign=1.0)[2] > 1.0


def test_half_gain_adds_the_last_term_of_eps_th():
    # at any gain the model's b is t_c (V_A + chi_t) with the full eps_th of
    # channel.py's docstring; at half the mismatch-cancelling g^2 its last
    # term is (T_B / T_A) (sqrt(2) - 1)^2 (V_B + 1), not zero
    for geometry, eps_a, eps_b, v, _ in PANEL:
        chan = equivalent_channel(geometry, eps_a, eps_b, v_bob=v)
        g_sq = chan.g_sq / 2.0
        root = math.sqrt(2.0 * (v - 1.0) / (g_sq * chan.t_b)) - math.sqrt(v + 1.0)
        last = (chan.t_b / chan.t_a) * root * root
        assert math.isclose(last, (chan.t_b / chan.t_a) * (math.sqrt(2.0) - 1.0) ** 2 * (v + 1.0))
        t_c = g_sq * chan.t_a / 2.0
        chi_t = 1.0 / t_c - 1.0 + chan.eps_th + last
        for _, b, _ in _relay_entries(geometry, eps_a, eps_b, v, v, g_sq).values():
            assert math.isclose(b, t_c * (v + chi_t), rel_tol=REL)
            assert not math.isclose(b, t_c * (v + chi_t - last), rel_tol=1e-6)
