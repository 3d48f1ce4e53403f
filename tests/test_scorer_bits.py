"""Bit pin of the scorer: one sha256 over the repr of every record a seeded
panel of configurations produces.

The figure digests only reach alpha^2 <= 4.5; this panel spans the weight
paths a config reaches (the Poisson series below alpha^2 = 1 and the closed
forms on [1, 500]; V <= 1001 keeps alpha^2 <= 500), both schemes, catalysis
on and off, the relay at Bob, midway and in between, and a few non-physical
points.  A change made for speed must leave the digest as it is; a change
that moves a bit must say which and why, and update it.
"""

import hashlib
import random

from mdicvqkd.channel import LinkGeometry
from mdicvqkd.keyrate import ProtocolConfig, evaluate_protocol, rate_over_t
from mdicvqkd.modulation import Scheme

DIGEST = "24ed9f334e4398026829052852af82ce79d53c544b1ffdd69c18da37681c8864"

# Attenuated alpha^2 bands: series, closed forms (split at 30).
BANDS = ((0.001, 1.0), (1.0, 30.0), (30.0, 500.0))

# (scheme, zpc, V, eps_a): accepted configs whose excess noise overflows the
# covariance, so they score as non-physical at every T.
NON_PHYSICAL = [
    (Scheme.FOUR, None, 2.0, 1e300),
    (Scheme.FOUR, 0.5, 1001.0, 1e308),
    (Scheme.EIGHT, None, 1001.0, 1e300),
    (Scheme.EIGHT, 0.5, 1.5, 1e308),
]


def panel() -> list[tuple[ProtocolConfig, float]]:
    """Seeded (config, T) pairs; T is the point rate_over_t is scored at."""
    rng = random.Random(20231)
    out = []
    for i in range(1200):
        lo, hi = BANDS[i % len(BANDS)]
        atten = rng.uniform(lo, hi)
        # T at least atten / 500, so that V = 1 + 2 atten / T stays at most 1001
        zpc = rng.uniform(max(0.05, atten / 500.0), 1.0) if rng.random() < 0.5 else None
        t = 1.0 if zpc is None else zpc
        d = rng.choice((0.0, 1.0, rng.random()))  # l_bc / l_ac: at Bob, midway, between
        l_ac = rng.uniform(0.0, 60.0) / (1.0 + d)
        config = ProtocolConfig(
            scheme=(Scheme.FOUR, Scheme.EIGHT)[i % 2],
            zpc=zpc,
            variance_v=1.0 + 2.0 * atten / t,
            beta=rng.uniform(0.8, 1.0),
            eps_a=rng.uniform(0.0, 0.01),
            eps_b=rng.uniform(0.0, 0.01),
            geometry=LinkGeometry(l_ac, d * l_ac),
        )
        out.append((config, rng.uniform(0.05, 1.0)))
    for scheme, zpc, v, eps in NON_PHYSICAL:
        geometry = LinkGeometry(0.0, 0.0)
        out.append((ProtocolConfig(scheme, zpc, v, 1.0, eps, 0.0, geometry), 0.5))
    return out


def test_scorer_bits_are_pinned():
    h = hashlib.sha256()
    for config, t in panel():
        h.update(repr(evaluate_protocol(config)).encode())
        h.update(repr(rate_over_t(config)(t)).encode())
    assert h.hexdigest() == DIGEST


def test_records_have_their_arity():
    # the scorer builds its records with tuple.__new__, which skips the
    # arity check of the positional constructor
    non_physical = 0
    for config, t in panel():
        evaluation = evaluate_protocol(config)
        rate = rate_over_t(config)(t)
        for record in (evaluation, *evaluation[:2], rate):
            assert len(record) == len(type(record)._fields)
            assert record == type(record)(*record)
        non_physical += (not evaluation.result.physical) + (not rate.physical)
    assert non_physical >= 2 * len(NON_PHYSICAL)
