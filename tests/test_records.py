"""The validating input records: immutable tuples whose every way of
being built (the constructor, _make and _replace) runs their checks."""

import math
import pickle
import re

import pytest

from mdicvqkd.channel import LinkGeometry
from mdicvqkd.keyrate import ProtocolConfig
from mdicvqkd.modulation import Scheme
from mdicvqkd.optimize import OptimizationGrid


def config(**changes) -> ProtocolConfig:
    """A valid config built by keywords, as perfbench/worker.py's
    scatter_configs builds its configs."""
    fields = {
        "scheme": Scheme.EIGHT,
        "zpc": 0.5,
        "variance_v": 2.6,
        "beta": 0.95,
        "eps_a": 0.002,
        "eps_b": 0.003,
        "geometry": LinkGeometry(10.0, 2.0),
    }
    return ProtocolConfig(**{**fields, **changes})


RECORDS = [LinkGeometry(10.0, 2.0), config(), OptimizationGrid()]

# A valid record, one of its fields and a value that field refuses.
REFUSED = [
    (LinkGeometry(10.0, 2.0), "l_bc", -1.0),
    (config(), "variance_v", 1.0),
    (config(), "eps_b", math.nan),
    (config(), "zpc", 1.5),
    (config(zpc=None), "zpc", True),  # catalysis is a transmittance, not a switch
    (OptimizationGrid(), "t_steps", 1),
    (OptimizationGrid(), "t_steps", 20.0),
    (OptimizationGrid(), "v_steps", 20.0),
    (OptimizationGrid(), "refine_iters", 5.0),
    # bool is an int subclass, but True is no step count
    (OptimizationGrid(), "t_steps", True),
    (OptimizationGrid(), "refine_iters", True),
    (OptimizationGrid(), "v_lo", 20.0),
    # nor is a bool any length, noise or bound, though True == 1 and False == 0
    (LinkGeometry(10.0, 2.0), "l_ac", True),
    (LinkGeometry(10.0, 2.0), "l_bc", False),
    (config(), "beta", True),
    (config(), "eps_a", False),
    (config(), "eps_b", True),
    (OptimizationGrid(), "v_hi", True),
    # a scheme is a Scheme and a geometry a LinkGeometry, not its name or fields
    (config(), "scheme", "eight"),
    (config(), "geometry", (10.0, 0.0, 0.2)),
    (config(), "geometry", None),
]


@pytest.mark.parametrize(
    "record, field, bad", REFUSED, ids=[f"{type(r).__name__}.{f}={bad}" for r, f, bad in REFUSED]
)
def test_replace_and_make_refuse_what_the_constructor_refuses(record, field, bad):
    cls = type(record)
    with pytest.raises(ValueError) as direct:
        cls(**{**record._asdict(), field: bad})
    message = re.escape(str(direct.value))
    with pytest.raises(ValueError, match=message):
        record._replace(**{field: bad})
    with pytest.raises(ValueError, match=message):
        cls._make(bad if name == field else value for name, value in zip(record._fields, record))
    # and both still build the record from valid values
    assert type(record._replace(**{field: getattr(record, field)})) is cls
    assert cls._make(tuple(record)) == record


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_no_attribute_can_be_set(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[-1], getattr(record, record._fields[-1]))
    # __slots__ = () leaves no instance dict to take a new name
    with pytest.raises(AttributeError):
        record.note = "set"
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_survive_pickling(record):
    assert pickle.loads(pickle.dumps(record)) == record


def test_keyword_construction_validates():
    cfg = config(scheme=Scheme.FOUR, zpc=None, geometry=LinkGeometry(4.0, 1.5))
    assert (cfg.scheme, cfg.zpc, cfg.variance_v) == (Scheme.FOUR, None, 2.6)
    assert (cfg.geometry.l_ac, cfg.geometry.l_bc) == (4.0, 1.5)
    assert OptimizationGrid(t_steps=20, refine_iters=5)._asdict() == {
        "t_steps": 20,
        "v_lo": 1.01,
        "v_hi": 10.0,
        "v_steps": 200,
        "refine_iters": 5,
    }
    for build in (
        lambda: config(beta=1.5),
        lambda: config(eps_a=-0.001),
        lambda: config(zpc=0.0),
        lambda: LinkGeometry(l_ac=math.nan, l_bc=0.0),
        lambda: OptimizationGrid(refine_iters=-1),
    ):
        with pytest.raises(ValueError):
            build()
    with pytest.raises(TypeError):
        LinkGeometry(l_ac=1.0)  # l_bc has no default
