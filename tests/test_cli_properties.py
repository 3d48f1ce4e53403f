"""Property test of the CLI contract on drawn flag values: the exit code is
0, 1 or 2, nothing but SystemExit escapes, a printed payload is strict
JSON, and a figure's manifest lists each file it wrote once."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from mdicvqkd.cli_io import _SCENARIO_KEYS, main
from mdicvqkd.keyrate import VARIANCE_MAX
from mdicvqkd.scenarios import FIGURE_IDS

HOSTILE = st.one_of(
    st.floats().map(repr),
    st.sampled_from(
        ["nan", "-nan", "inf", "-inf", "1e308", "-1e308", "1e-320", "0", "-0", "1", "1e300"]
        + ["off", "OFF", " Off ", "EIGHT", "Four", "GAUSSIAN", "bogus", "", "1_0", "0x1"]
    ),
    st.text(max_size=6),
)


def _number(lo: float, hi: float, exclude_min: bool = False):
    return st.floats(min_value=lo, max_value=hi, exclude_min=exclude_min).map(repr)


def _valid(typical, lo: float, hi: float, exclude_min: bool = False):
    """A flag value in the typical range or anywhere the CLI accepts."""
    return st.one_of(typical, _number(lo, hi, exclude_min))


# A valid flag set, which every call must accept (exit 0 or 2), and up
# to two keys overridden by hostile text, which may be refused (exit 1).
VALID = st.fixed_dictionaries(
    {},
    optional={
        "scheme": st.sampled_from(["four", "Eight"]),
        "zpc_t": _valid(st.sampled_from(["off", "OFF"]), 0.0, 1.0, exclude_min=True),
        "variance": _valid(_number(1.01, 12.0), 1.0, VARIANCE_MAX, exclude_min=True),
        "beta": _valid(_number(0.5, 1.0), 0.0, 1.0, exclude_min=True),
        "eps_a": _valid(_number(0.0, 0.1), 0.0, 1e308),
        "eps_b": _valid(_number(0.0, 0.1), 0.0, 1e308),
        # at most 15 000 km per link: a transmittance that underflows to
        # zero, past about 16 140 km, is refused
        "lac": _valid(_number(0.0, 100.0), 0.0, 15000.0),
        "lbc": _valid(_number(0.0, 100.0), 0.0, 15000.0),
    },
)
# Reduced grids keep a drawn optimize call to milliseconds; any of their
# flags may be overridden by hostile text as the protocol keys are.
REDUCED_GRID = st.fixed_dictionaries(
    {
        "t_steps": st.integers(2, 6).map(str),
        "v_steps": st.integers(2, 4).map(str),
        "refine_iters": st.integers(0, 2).map(str),
    },
)
GRID_KEYS = ["t_steps", "v_steps", "refine_iters"]


def _hostile_over(*keys: str):
    return st.dictionaries(st.sampled_from(list(_SCENARIO_KEYS) + list(keys)), HOSTILE, max_size=2)


FUZZ = settings(max_examples=100)


def _argv(flags: dict) -> list[str]:
    # --flag=value, so a value such as "-inf" reaches the flag as its text
    return [f"--{key.replace('_', '-')}={text}" for key, text in flags.items()]


def _strict(token):
    raise ValueError(f"non-strict JSON constant {token}")


def _check(argv: list[str], valid: bool) -> None:
    """valid: the call must not be refused (exit 1)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert not (valid and code == 1), (argv, err.getvalue())
    if code == 1:
        assert out.getvalue() == "", argv
    else:
        json.loads(out.getvalue(), parse_constant=_strict)


@FUZZ
@given(VALID, _hostile_over())
def test_keyrate_flags_keep_the_cli_contract(flags, hostile):
    _check(["keyrate", *_argv({**flags, **hostile})], valid=not hostile)


@FUZZ
@given(VALID, REDUCED_GRID, _hostile_over(*GRID_KEYS))
def test_optimize_t_flags_keep_the_cli_contract(flags, grid, hostile):
    argv = _argv({**flags, **grid, **hostile})
    # --optimize t refuses '--zpc-t off'
    valid = not hostile and flags.get("zpc_t", "").lower() != "off"
    _check(["optimize", "--optimize", "t", *argv], valid)


@FUZZ
@given(VALID, REDUCED_GRID, _hostile_over(*GRID_KEYS))
def test_optimize_tv_flags_keep_the_cli_contract(flags, grid, hostile):
    argv = _argv({**flags, **grid, **hostile})
    _check(["optimize", "--optimize", "tv", *argv], valid=not hostile)


@FUZZ
@given(VALID, REDUCED_GRID, _hostile_over(*GRID_KEYS))
def test_optimize_distance_flags_keep_the_cli_contract(flags, grid, hostile):
    argv = _argv({**flags, **grid, **hostile})
    _check(["optimize", "--optimize", "distance", *argv], not hostile)


def _as_int(text: str):
    try:
        return int(text)
    except ValueError:
        return None


# A drawn figure call takes --steps 2 or 3, and possibly hostile
# overrides: --steps text, and --extra-eps text, a flag no figure takes.
# An integer above 3 is a valid but slow --steps, so hostile text never
# parses to one.
FIGURE_FLAGS = {"steps": "--steps", "extra_eps": "--extra-eps"}
HOSTILE_FIGURE = st.one_of(
    st.just({}),
    st.fixed_dictionaries(
        {},
        optional={
            "steps": HOSTILE.filter(lambda s: (_as_int(s) or 0) <= 3),
            "extra_eps": HOSTILE,
        },
    ),
)


@settings(max_examples=50)
@given(st.sampled_from(FIGURE_IDS), st.sampled_from(["2", "3"]), HOSTILE_FIGURE)
def test_figure_flags_keep_the_cli_contract(fid, steps, hostile):
    flags = {"steps": steps, **hostile}
    argv = [f"{FIGURE_FLAGS[k]}={v}" for k, v in flags.items()]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(["figure", fid, "--out", tmp, *argv])
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1), (argv, code, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if not hostile:
            assert code == 0, (fid, argv, err.getvalue())
        if "extra_eps" in hostile:
            assert code == 1, argv
        if code == 1:
            assert out.getvalue() == "", argv
            return
        # the manifest lists each written file once, and nothing else
        manifest = f"{fid}_manifest.json"
        files = json.loads((Path(tmp) / manifest).read_text(encoding="utf-8"))["files"]
        assert len(set(files)) == len(files), files
        assert sorted(files) == sorted(p.name for p in Path(tmp).iterdir() if p.name != manifest)
        assert out.getvalue().splitlines() == [str(Path(tmp) / n) for n in (*files, manifest)]
