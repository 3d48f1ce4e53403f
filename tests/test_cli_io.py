"""CLI behavior, scenario files, and CSV serialization."""

import hashlib
import json
import math
import re
import shlex
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

import mdicvqkd.keyrate
import mdicvqkd.optimize
from mdicvqkd import __version__
from mdicvqkd.channel import LinkGeometry
from mdicvqkd.cli_io import (
    _DOMAIN_WARNING,
    _SCENARIO_KEYS,
    DEFAULT_CONFIG,
    _spec_echo,
    dataset_to_csv,
    format_value,
    load_scenario_file,
    main,
    parse_scenario,
    write_datasets,
)
from mdicvqkd.modulation import Scheme
from mdicvqkd.optimize import T_LO, OptimizationGrid, max_distance
from mdicvqkd.presets import Case, Variant, config_for
from mdicvqkd.scenarios import FIGURES, Dataset


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def scenario_text(config) -> str:
    """A scenario file holding the CLI's echo of config."""
    return "".join(f"{key} = {format_value(v)}\n" for key, v in _spec_echo(config).items())


# --- serialization -------------------------------------------------------


def test_format_value():
    assert format_value(0.0) == "0"
    assert format_value(1.0) == "1"
    assert format_value(-3.0) == "-3"
    assert format_value(0.25) == "0.25"
    assert format_value(1 / 3) == "0.3333333333333333"
    assert format_value(math.nan) == "nan"
    assert format_value(-math.inf) == "-inf"
    assert format_value("text") == "text"
    # shortest representation must round-trip exactly
    for x in (0.1, 2.675, 1e-17, 123456.789):
        assert float(format_value(x)) == x


def test_dataset_to_csv():
    ds = Dataset(name="demo", columns=("a", "b"), rows=[(0.0, 0.5), (1.0, float("nan"))])
    text = dataset_to_csv(ds)
    assert text == "# manifest: manifest.json\na,b\n0,0.5\n1,nan\n"
    bad = Dataset(name="demo", columns=("a", "b"), rows=[(1.0,)])
    with pytest.raises(ValueError):
        dataset_to_csv(bad)


def test_manifest_timestamp_is_utc_to_the_second(tmp_path):
    ds = Dataset(name="demo", columns=("a",), rows=[(1.0,)])
    write_datasets([ds], tmp_path, {})
    stamp = json.loads((tmp_path / "manifest.json").read_text())["timestamp"]
    assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00", stamp)
    assert abs(datetime.fromisoformat(stamp) - datetime.now(timezone.utc)) < timedelta(minutes=5)


# --- scenario files ------------------------------------------------------


def test_empty_scenario_gives_defaults():
    spec = parse_scenario("")
    assert spec == DEFAULT_CONFIG
    assert spec.scheme is Scheme.EIGHT
    assert spec.zpc is None
    assert (spec.variance_v, spec.beta, spec.eps_a, spec.eps_b) == (1.5, 0.95, 0.002, 0.002)
    assert (spec.geometry.l_ac, spec.geometry.l_bc) == (0, 0)


def test_scenario_parsing():
    text = """
    # relay at Bob, catalysis on
    scheme = four
    zpc_t = 0.75
    variance = 2.5
    lac = 30  # km
    eps = 0.003
    """
    spec = parse_scenario(text)
    assert spec.scheme is Scheme.FOUR
    assert spec.zpc == 0.75
    assert spec.variance_v == 2.5
    assert spec.geometry.l_ac == 30.0 and spec.geometry.l_bc == 0.0
    assert spec.eps_a == spec.eps_b == 0.003


def test_scenario_errors():
    with pytest.raises(ValueError, match="line 1.*unknown key"):
        parse_scenario("vairance = 2.5")
    with pytest.raises(ValueError, match="line 2.*duplicate"):
        parse_scenario("beta = 0.9\nbeta = 0.8")
    with pytest.raises(ValueError, match="eps conflicts"):
        parse_scenario("eps = 0.002\neps_a = 0.001")
    with pytest.raises(ValueError, match="expected 'key = value'"):
        parse_scenario("beta 0.9")
    with pytest.raises(ValueError):
        parse_scenario("zpc_t = 0")  # out of range
    with pytest.raises(ValueError):
        parse_scenario("variance = 0.5")
    with pytest.raises(ValueError):
        parse_scenario("beta = fast")


def test_scenario_round_trip():
    specs = [
        DEFAULT_CONFIG,
        DEFAULT_CONFIG._replace(
            scheme=Scheme.FOUR,
            zpc=0.3,
            variance_v=2.7,
            geometry=LinkGeometry(12.5, 4.25),
        ),
        DEFAULT_CONFIG._replace(
            eps_a=0.0015, eps_b=0.0035, geometry=LinkGeometry(0, 0), beta=1.0
        ),
    ]
    for spec in specs:
        assert parse_scenario(scenario_text(spec)) == spec


def test_load_scenario_file(tmp_path):
    p = tmp_path / "run.scenario"
    p.write_text("variance = 3.0\nzpc_t = off\n", encoding="utf-8")
    spec = load_scenario_file(p)
    assert spec.variance_v == 3.0 and spec.zpc is None
    with pytest.raises(ValueError, match="cannot read"):
        load_scenario_file(tmp_path / "missing.scenario")
    # a byte-order mark, as some editors save UTF-8, is no part of the first key
    p.write_bytes(b"\xef\xbb\xbfscheme = four\n")
    assert load_scenario_file(p).scheme is Scheme.FOUR
    p.write_bytes(b"variance = 3.0\xff\n")
    with pytest.raises(ValueError, match="cannot read scenario file .*run.scenario: 'utf-8'"):
        load_scenario_file(p)


# --- parser --------------------------------------------------------------

# Exit code, stdout and stderr of the help texts and the top-level errors,
# keyed by argv; argparse wraps to the terminal, so they hold at COLUMNS=80.
# Regenerate the file from the repository root with:
# COLUMNS=80 PYTHONPATH=src python3 -c 'import json, subprocess, sys; p = "tests/cli_help_golden.json"; run = lambda a: subprocess.run([sys.executable, "-m", "mdicvqkd.cli_io", *a.split()], capture_output=True, text=True); json.dump({a: [(r := run(a)).returncode, r.stdout, r.stderr] for a in json.load(open(p))}, open(p, "w"), indent=1)'
HELP_GOLDEN = json.loads(Path(__file__).with_name("cli_help_golden.json").read_text("utf-8"))


@pytest.mark.parametrize("argv", HELP_GOLDEN)
def test_cli_help_and_top_level_errors_golden(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert list(run_cli(argv.split(), capsys)) == HELP_GOLDEN[argv]


# --- keyrate command -----------------------------------------------------


def test_cli_keyrate_json(capsys):
    code, out, _ = run_cli(
        "keyrate --scheme eight --zpc-t off --variance 1.5 --beta 0.95"
        " --eps 0.002 --lac 10 --lbc 0".split(),
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["p_d"] == 1.0
    assert doc["physical"] is True
    assert doc["skr"] == pytest.approx(0.010393547244431915, rel=1e-12)
    assert doc["config"]["zpc_t"] == "off"
    assert doc["channel"]["t_b"] == 1.0
    assert doc["warnings"] == []


def test_cli_keyrate_domain_warning_only_for_discrete_schemes(capsys):
    # T V_M = 0.5 * 2 > 0.5, a bound of the discrete-modulation argument;
    # every scheme is discrete, so every scheme is held to it
    flags = "--zpc-t 0.5 --variance 3 --lac 5".split()
    _, out, _ = run_cli(["keyrate", "--scheme", "eight", *flags], capsys)
    assert json.loads(out)["warnings"] == [_DOMAIN_WARNING]


# keyrate stdout byte for byte, key order and every value, for a physical
# and a non-physical config; @VERSION@ and @WARNING@ stand for the tool
# version and the domain warning
KEYRATE_GOLDEN = {
    "--scheme eight --zpc-t 0.4 --variance 2.6 --eps-a 0.002 --eps-b 0.003 --lac 12.5 --lbc 3": (
        0,
        """\
{
  "tool_version": "@VERSION@",
  "config": {
    "scheme": "eight",
    "zpc_t": 0.4,
    "variance": 2.6,
    "beta": 0.95,
    "eps_a": 0.002,
    "eps_b": 0.003,
    "lac": 12.5,
    "lbc": 3.0
  },
  "p_d": 0.6187833918061408,
  "i_ab": 0.1146225455460596,
  "chi_be": 0.433505063697336,
  "kappa1": 1.472518830509395,
  "kappa2": 1.149770945191179,
  "kappa3": 1.4383671705158019,
  "skr": -0.20086553254485232,
  "physical": true,
  "attenuated_alpha_sq": 0.32000000000000006,
  "channel": {
    "t_a": 0.5623413251903491,
    "t_b": 0.8709635899560806,
    "chi_a": 0.7802794100389229,
    "chi_b": 0.15115362149688283,
    "g_sq": 1.0205809968861181,
    "t_c": 0.2869574351265136,
    "eps_th": 0.46557203210962084,
    "chi_t": 2.950409424662703
  },
  "warnings": [
    "@WARNING@"
  ]
}
""",
    ),
    "--scheme four --eps-a 1e300 --lac 10": (
        2,
        """\
{
  "tool_version": "@VERSION@",
  "config": {
    "scheme": "four",
    "zpc_t": "off",
    "variance": 1.5,
    "beta": 0.95,
    "eps_a": 1e+300,
    "eps_b": 0.002,
    "lac": 10.0,
    "lbc": 0.0
  },
  "p_d": 1.0,
  "i_ab": null,
  "chi_be": null,
  "kappa1": null,
  "kappa2": null,
  "kappa3": null,
  "skr": null,
  "physical": false,
  "attenuated_alpha_sq": 0.25,
  "channel": {
    "t_a": 0.6309573444801932,
    "t_b": 1.0,
    "chi_a": 1e+300,
    "chi_b": 0.002,
    "g_sq": 0.4,
    "t_c": 0.12619146889603866,
    "eps_th": 1e+300,
    "chi_t": 1e+300
  },
  "warnings": []
}
""",
    ),
}


# padded, upper-case flag text reads as its stripped, lower-case value
KEYRATE_GOLDEN["--scheme ' Four ' --zpc-t ' Off ' --eps-a ' 1E300 ' --lac 10"] = KEYRATE_GOLDEN[
    "--scheme four --eps-a 1e300 --lac 10"
]


@pytest.mark.parametrize("flags", KEYRATE_GOLDEN)
def test_cli_keyrate_golden_bytes(flags, capsys):
    code, out, _ = run_cli(["keyrate", *shlex.split(flags)], capsys)
    want_code, want = KEYRATE_GOLDEN[flags]
    assert code == want_code
    assert out == want.replace("@VERSION@", __version__).replace("@WARNING@", _DOMAIN_WARNING)


def test_cli_keyrate_domain_warning(capsys):
    code, out, _ = run_cli("keyrate --variance 2.6 --lac 5".split(), capsys)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["warnings"]) == 1


def _strict(token):
    raise ValueError(f"non-strict JSON constant {token}")


def test_cli_keyrate_nonphysical_exit(capsys):
    code, out, _ = run_cli("keyrate --eps-a 1e300 --lac 10".split(), capsys)
    assert code == 2
    doc = json.loads(out)
    assert doc["physical"] is False
    assert doc["skr"] is None
    # a channel quantity that overflows is written as null, still with exit 2
    for argv in ("keyrate --eps 1e308", "keyrate --lac 15500"):
        code, out, err = run_cli(argv.split(), capsys)
        assert code == 2, err
        doc = json.loads(out, parse_constant=_strict)
        assert doc["physical"] is False
        assert doc["channel"]["eps_th"] is None


def test_cli_keyrate_bad_flags(capsys):
    code, _, err = run_cli("keyrate --zpc-t 1.2".split(), capsys)
    assert code == 1
    assert "transmittance must be in (0, 1]" in err
    code, _, _ = run_cli("keyrate --eps 0.002 --eps-a 0.001".split(), capsys)
    assert code == 1
    code, _, _ = run_cli("keyrate --no-such-flag".split(), capsys)
    assert code == 1
    code, _, _ = run_cli("keyrate --variance 0.5".split(), capsys)
    assert code == 1


def test_cli_rejects_non_finite(capsys):
    for argv, message in (
        ("keyrate --eps nan", "excess noise must be finite"),
        ("keyrate --lac 16139", "transmittance underflowed to zero"),
        ("keyrate --lac 16200", "transmittance underflowed to zero"),
        ("optimize --optimize tv --v-hi inf", "v_hi must be finite"),
    ):
        code, out, err = run_cli(argv.split(), capsys)
        assert code == 1, argv
        assert out == ""
        assert "Traceback" not in err
        assert message in err, argv


def test_cli_scenario_with_flag_override(tmp_path, capsys):
    p = tmp_path / "base.scenario"
    p.write_text("variance = 2.0\nlac = 10\n", encoding="utf-8")
    code, out, _ = run_cli(["keyrate", "--scenario", str(p), "--variance", "1.5"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["variance"] == 1.5  # flags beat the file
    assert doc["config"]["lac"] == 10.0


def test_cli_flags_mirror_scenario_keys(tmp_path, capsys):
    texts = (
        "scheme = four\nzpc_t = 0.75\nvariance = 2.5\nlac = 30\neps = 0.003\n",
        scenario_text(
            DEFAULT_CONFIG._replace(
                variance_v=1.7,
                beta=0.9,
                eps_a=0.001,
                eps_b=0.004,
                geometry=LinkGeometry(3, 2),
            )
        ),
        "scheme = EIGHT\nzpc_t = OFF\nvariance = 1.6\nlac = 12\n",
    )
    for text in texts:
        path = tmp_path / "run.scenario"
        path.write_text(text, encoding="utf-8")
        flags = []
        for line in text.splitlines():
            key, _, value = line.partition(" = ")
            flags += ["--" + key.replace("_", "-"), value]
        from_file = run_cli(["keyrate", "--scenario", str(path)], capsys)
        from_flags = run_cli(["keyrate", *flags], capsys)
        assert from_file[0] == 0
        assert from_flags == from_file
    code, out, _ = run_cli(["keyrate", "--help"], capsys)
    assert code == 0
    for key in _SCENARIO_KEYS:
        assert f"--{key.replace('_', '-')} " in out, key


# --- optimize command ----------------------------------------------------


def test_cli_optimize_t(capsys):
    code, out, _ = run_cli(
        "optimize --optimize t --variance 2.6 --lac 20".split(), capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["t_star"] == pytest.approx(0.3750390946409117, rel=1e-9)
    assert doc["no_key"] is False
    assert doc["grid"]["t_steps"] == 200
    assert len(doc["warnings"]) == 1  # T* V_M = 0.600


def test_cli_optimize_warns_at_reported_point(capsys):
    # each input and its reported optimum lie on opposite sides of T V_M = 0.5
    for argv, t_domain in (
        ("optimize --optimize tv --zpc-t off --variance 1.2 --lac 20", 0.673),
        (
            "optimize --optimize tv --zpc-t 0.5 --variance 1.2 --lac 20 --v-steps 20 --t-steps 50",
            0.597,
        ),
        ("optimize --optimize t --scheme four --variance 2 --lac 10", 0.439),
    ):
        code, out, _ = run_cli(argv.split(), capsys)
        assert code == 0
        doc = json.loads(out)
        v_star = doc.get("v_star", doc["config"]["variance"])
        assert doc["t_star"] * (v_star - 1.0) == pytest.approx(t_domain, abs=5e-4)
        assert len(doc["warnings"]) == (t_domain > 0.5), argv


def test_cli_optimize_t_rejects_disabled(capsys):
    code, _, err = run_cli(
        "optimize --optimize t --zpc-t off --variance 2.6 --lac 20".split(), capsys
    )
    assert code == 1
    assert "catalysis" in err


def test_cli_optimize_t_rejects_disabled_in_scenario_file(tmp_path, capsys):
    # a file and a flag accept the same values, so 'zpc_t = off' is refused too
    p = tmp_path / "off.scenario"
    p.write_text("zpc_t = off\nvariance = 2.6\n", encoding="utf-8")
    code, out, err = run_cli(["optimize", "--optimize", "t", "--scenario", str(p)], capsys)
    assert code == 1
    assert out == ""
    assert "catalysis" in err


def test_cli_optimize_tv(capsys):
    code, out, _ = run_cli(
        "optimize --optimize tv --scheme four --zpc-t off --lac 25".split(), capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["t_star"] == 1.0
    assert doc["v_star"] == pytest.approx(1.4395566593036926, rel=1e-9)


def test_cli_optimize_tv_finds_a_key_window_between_grid_points(capsys):
    # every 20-point V has a negative rate here, and the least negative is
    # V = 1.01; the margin key still brackets the window around V = 1.77
    argv = "optimize --optimize tv --scheme eight --zpc-t off --eps 0.012355 --lac 0.05"
    code, out, _ = run_cli(f"{argv} --lbc 0.05 --v-steps 20".split(), capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["no_key"] is False
    assert doc["v_star"] == pytest.approx(1.7727, abs=1e-3)
    assert doc["skr_star"] == pytest.approx(6.27e-5, rel=1e-2)


def test_cli_optimize_distance(capsys):
    argv = "optimize --optimize distance --variance 2.6 --zpc-t 1 --lac 10".split()
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    doc = json.loads(out)
    assert 40.0 < doc["max_distance_km"] < 55.0
    # byte-identical on repeat: no timestamps on stdout
    _, out2, _ = run_cli(argv, capsys)
    assert out2 == out


def test_cli_optimize_distance_ignores_the_input_t(capsys):
    # the reach is searched with T optimized at every length, so the input
    # T is a placeholder: the domain warning is judged at the reach's T*
    # (0.283 here, T V_M = 0.453), not at the input's
    docs = []
    for t in ("1", "0.2"):
        argv = f"optimize --optimize distance --variance 2.6 --lac 10 --zpc-t {t}".split()
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        docs.append(json.loads(out))
    assert docs[0]["max_distance_km"] == 45.33203125
    assert docs[0]["warnings"] == []
    assert docs[0]["config"].pop("zpc_t") == 1.0
    assert docs[1]["config"].pop("zpc_t") == 0.2
    assert docs[0] == docs[1]


@pytest.mark.parametrize(
    "flags, reach",
    [
        ("", 41.078125),  # the default config: a zero-length link
        ("--lac 0 --lbc 0 --zpc-t 0.5 --variance 2.6", 45.328125),
    ],
)
def test_cli_optimize_distance_from_zero_length(flags, reach, capsys):
    code, out, _ = run_cli(["optimize", "--optimize", "distance", *flags.split()], capsys)
    assert code == 0
    assert json.loads(out)["max_distance_km"] == reach


def test_cli_optimize_distance_without_crossing(monkeypatch, capsys):
    # a rate that never falls doubles the length until the channel refuses
    # a link: an arm of 16 384 km underflows, so the search needs no guard
    monkeypatch.setattr(mdicvqkd.optimize, "_skr", lambda result: 1.0)
    grid = OptimizationGrid(t_steps=2, refine_iters=0)
    message = "a 3276.8 dB link: its transmittance underflowed to zero"
    with pytest.raises(ValueError, match=re.escape(message)):
        max_distance(DEFAULT_CONFIG, grid)
    argv = "optimize --optimize distance --t-steps 2 --refine-iters 0"
    code, out, err = run_cli(argv.split(), capsys)
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if "error:" in line] == [
        f"mdicvqkd optimize: error: {message}"
    ]


def test_cli_optimize_grid_override(capsys):
    code, out, _ = run_cli(
        "optimize --optimize t --variance 2.6 --lac 20 --t-steps 40 --refine-iters 5".split(),
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["grid"]["t_steps"] == 40
    assert doc["grid"]["refine_iters"] == 5


@pytest.mark.parametrize("flag, field", [("--t-steps", "t_steps"), ("--v-steps", "v_steps")])
def test_cli_optimize_refuses_a_one_point_grid(flag, field, capsys):
    code, out, err = run_cli(f"optimize --optimize t --zpc-t 0.5 {flag} 1".split(), capsys)
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert f"{field} must be >= 2, got 1" in err


def test_cli_optimize_t_never_probes_t_zero(capsys):
    # every state is non-physical at this excess noise, so every rate ties
    # and the golden section keeps the left subinterval until its bracket
    # collapses onto T_LO; the search stops short of it
    argv = "optimize --optimize t --eps-a 1e300 --t-steps 2 --refine-iters 2000"
    code, out, err = run_cli(argv.split(), capsys)
    assert code == 0, err
    doc = json.loads(out)
    assert doc["no_key"] is True
    assert T_LO < doc["t_star"] <= 1.0


def test_cli_optimize_t_grid_ends_on_its_bound(capsys):
    # 0.01 + 0.99 * 12 / 12 is 0.9999999999999999; the rate here rises to
    # T = 1, so the grid's last point, 1.0 itself, is the optimum
    argv = "optimize --optimize t --t-steps 12 --variance 1.5 --lac 0"
    code, out, err = run_cli(argv.split(), capsys)
    assert code == 0, err
    assert json.loads(out)["t_star"] == 1.0


# optimize stdout byte for byte in each mode: with a key, without one, and
# (t) at a non-physical state, whose rate is written as null, all on
# reduced grids; @VERSION@ and @WARNING@ as in KEYRATE_GOLDEN
OPTIMIZE_GOLDEN = {
    "t --zpc-t 0.5 --variance 2.6 --lac 20 --t-steps 20 --refine-iters 8": (
        0,
        """\
{
  "tool_version": "@VERSION@",
  "config": {
    "scheme": "eight",
    "zpc_t": 0.5,
    "variance": 2.6,
    "beta": 0.95,
    "eps_a": 0.002,
    "eps_b": 0.002,
    "lac": 20.0,
    "lbc": 0.0
  },
  "mode": "t",
  "grid": {
    "t_steps": 20,
    "v_lo": 1.01,
    "v_hi": 10.0,
    "v_steps": 200,
    "refine_iters": 8
  },
  "t_star": 0.37500485192846894,
  "skr_star": 0.008499250156189447,
  "no_key": false,
  "warnings": [
    "@WARNING@"
  ]
}
""",
    ),
    "t --variance 2.6 --lac 200 --t-steps 20 --refine-iters 8": (
        0,
        """\
{
  "tool_version": "@VERSION@",
  "config": {
    "scheme": "eight",
    "zpc_t": 1.0,
    "variance": 2.6,
    "beta": 0.95,
    "eps_a": 0.002,
    "eps_b": 0.002,
    "lac": 200.0,
    "lbc": 0.0
  },
  "mode": "t",
  "grid": {
    "t_steps": 20,
    "v_lo": 1.01,
    "v_hi": 10.0,
    "v_steps": 200,
    "refine_iters": 8
  },
  "t_star": 0.010804931256822551,
  "skr_star": -0.0025338013111606368,
  "no_key": true,
  "warnings": []
}
""",
    ),
    "t --scheme four --eps-a 1e300 --lac 10 --t-steps 4 --refine-iters 3": (
        0,
        """\
{
  "tool_version": "@VERSION@",
  "config": {
    "scheme": "four",
    "zpc_t": 1.0,
    "variance": 1.5,
    "beta": 0.95,
    "eps_a": 1e+300,
    "eps_b": 0.002,
    "lac": 10.0,
    "lbc": 0.0
  },
  "mode": "t",
  "grid": {
    "t_steps": 4,
    "v_lo": 1.01,
    "v_hi": 10.0,
    "v_steps": 200,
    "refine_iters": 3
  },
  "t_star": 0.2575,
  "skr_star": null,
  "no_key": true,
  "warnings": []
}
""",
    ),
    "tv --zpc-t 0.5 --variance 2 --lac 20 --v-steps 6 --t-steps 10 --refine-iters 4": (
        0,
        """\
{
  "tool_version": "@VERSION@",
  "config": {
    "scheme": "eight",
    "zpc_t": 0.5,
    "variance": 2.0,
    "beta": 0.95,
    "eps_a": 0.002,
    "eps_b": 0.002,
    "lac": 20.0,
    "lbc": 0.0
  },
  "mode": "tv",
  "grid": {
    "t_steps": 10,
    "v_lo": 1.01,
    "v_hi": 10.0,
    "v_steps": 6,
    "refine_iters": 4
  },
  "t_star": 0.3936634320476874,
  "v_star": 2.5074026825354623,
  "skr_star": 0.008504348229724455,
  "no_key": false,
  "warnings": [
    "@WARNING@"
  ]
}
""",
    ),
    "tv --scheme eight --zpc-t off --eps 0.012355 --lac 0.05 --lbc 0.05 --v-steps 20": (
        0,
        """\
{
  "tool_version": "@VERSION@",
  "config": {
    "scheme": "eight",
    "zpc_t": "off",
    "variance": 1.5,
    "beta": 0.95,
    "eps_a": 0.012355,
    "eps_b": 0.012355,
    "lac": 0.05,
    "lbc": 0.05
  },
  "mode": "tv",
  "grid": {
    "t_steps": 200,
    "v_lo": 1.01,
    "v_hi": 10.0,
    "v_steps": 20,
    "refine_iters": 30
  },
  "t_star": 1.0,
  "v_star": 1.7727131743069833,
  "skr_star": 6.268367898970562e-05,
  "no_key": false,
  "warnings": [
    "@WARNING@"
  ]
}
""",
    ),
    "tv --scheme four --zpc-t off --lac 200 --v-steps 5 --refine-iters 3": (
        0,
        """\
{
  "tool_version": "@VERSION@",
  "config": {
    "scheme": "four",
    "zpc_t": "off",
    "variance": 1.5,
    "beta": 0.95,
    "eps_a": 0.002,
    "eps_b": 0.002,
    "lac": 200.0,
    "lbc": 0.0
  },
  "mode": "tv",
  "grid": {
    "t_steps": 200,
    "v_lo": 1.01,
    "v_hi": 10.0,
    "v_steps": 5,
    "refine_iters": 3
  },
  "t_star": 1.0,
  "v_star": 10.0,
  "skr_star": -0.010234022485442107,
  "no_key": true,
  "warnings": [
    "@WARNING@"
  ]
}
""",
    ),
    "distance --zpc-t 0.5 --variance 2.6 --lac 10 --t-steps 10 --refine-iters 4": (
        0,
        """\
{
  "tool_version": "@VERSION@",
  "config": {
    "scheme": "eight",
    "zpc_t": 0.5,
    "variance": 2.6,
    "beta": 0.95,
    "eps_a": 0.002,
    "eps_b": 0.002,
    "lac": 10.0,
    "lbc": 0.0
  },
  "mode": "distance",
  "grid": {
    "t_steps": 10,
    "v_lo": 1.01,
    "v_hi": 10.0,
    "v_steps": 200,
    "refine_iters": 4
  },
  "max_distance_km": 45.33203125,
  "no_key": false,
  "warnings": []
}
""",
    ),
    "distance --zpc-t 0.5 --variance 2.7 --lac 1 --lbc 1 --t-steps 10 --refine-iters 4": (
        0,
        """\
{
  "tool_version": "@VERSION@",
  "config": {
    "scheme": "eight",
    "zpc_t": 0.5,
    "variance": 2.7,
    "beta": 0.95,
    "eps_a": 0.002,
    "eps_b": 0.002,
    "lac": 1.0,
    "lbc": 1.0
  },
  "mode": "distance",
  "grid": {
    "t_steps": 10,
    "v_lo": 1.01,
    "v_hi": 10.0,
    "v_steps": 200,
    "refine_iters": 4
  },
  "max_distance_km": 0.756591796875,
  "no_key": false,
  "warnings": [
    "@WARNING@"
  ]
}
""",
    ),
    "distance --zpc-t off --variance 1.5 --eps 0.25 --lac 0": (
        0,
        """\
{
  "tool_version": "@VERSION@",
  "config": {
    "scheme": "eight",
    "zpc_t": "off",
    "variance": 1.5,
    "beta": 0.95,
    "eps_a": 0.25,
    "eps_b": 0.25,
    "lac": 0.0,
    "lbc": 0.0
  },
  "mode": "distance",
  "grid": {
    "t_steps": 200,
    "v_lo": 1.01,
    "v_hi": 10.0,
    "v_steps": 200,
    "refine_iters": 30
  },
  "max_distance_km": 0.0,
  "no_key": true,
  "warnings": []
}
""",
    ),
}


@pytest.mark.parametrize("flags", OPTIMIZE_GOLDEN)
def test_cli_optimize_golden_bytes(flags, capsys):
    code, out, _ = run_cli(["optimize", "--optimize", *flags.split()], capsys)
    want_code, want = OPTIMIZE_GOLDEN[flags]
    assert code == want_code
    assert out == want.replace("@VERSION@", __version__).replace("@WARNING@", _DOMAIN_WARNING)


# --- figure command ------------------------------------------------------


def test_cli_figure_fig2(tmp_path, capsys):
    out_dir = tmp_path / "figs"
    code, out, _ = run_cli(["figure", "fig2", "--out", str(out_dir), "--steps", "20"], capsys)
    assert code == 0
    csv_path = out_dir / "fig2.csv"
    manifest_path = out_dir / "fig2_manifest.json"
    assert csv_path.exists() and manifest_path.exists()
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "# manifest: fig2_manifest.json"
    assert lines[1] == "v_m_tilde,z4,z8,zg"
    assert lines[2] == "0,0,0,0"
    assert len(lines) == 22
    manifest = json.loads(manifest_path.read_text())
    assert manifest["files"] == ["fig2.csv"]
    assert manifest["config_echo"]["figure"] == "fig2"


def test_cli_figure_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for out_dir in (a, b):
        code, _, _ = run_cli(["figure", "fig9b", "--out", str(out_dir), "--steps", "15"], capsys)
        assert code == 0
    assert (a / "fig9b.csv").read_bytes() == (b / "fig9b.csv").read_bytes()


FIGURE_IDS = ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9a", "fig9b")
REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference"


@pytest.mark.parametrize("fid", FIGURE_IDS)
def test_cli_figure_steps_set_registered_axes(fid, tmp_path, capsys):
    code, _, _ = run_cli(["figure", fid, "--steps", "2", "--out", str(tmp_path)], capsys)
    assert code == 0
    manifest = json.loads((tmp_path / f"{fid}_manifest.json").read_text())
    step_keys = FIGURES[fid][2]
    assert manifest["config_echo"] == {"figure": fid, **dict.fromkeys(step_keys, 2)}
    # fig2 and fig9b evaluate no protocol; each rate figure has a reported
    # point outside the domain (fig7's eight-state curve runs at V_M = 0.8)
    assert manifest["warnings"] == ([] if fid in ("fig2", "fig9b") else [_DOMAIN_WARNING])
    counts = manifest["rows_out_of_domain"]
    assert {f"{name}.csv" for name in counts} == set(manifest["files"])
    assert (sum(counts.values()) > 0) == bool(manifest["warnings"])
    # the axis --steps leaves alone: four preset distances, five relay positions
    fixed = {"fig5": 4, "fig8": 4, "fig9a": 5, "fig9b": 5}.get(fid, 1)
    for name in manifest["files"]:
        assert name.startswith(fid)
        lines = (tmp_path / name).read_text().splitlines()
        assert len(lines) - 2 == 2 ** len(step_keys) * fixed, name


@pytest.mark.parametrize("fid", FIGURE_IDS)
def test_cli_figure_matches_reference_digests(fid, tmp_path, capsys):
    # the committed byte-identity gate: every CSV of `figure ID --steps 3`
    # hashes to the digest recorded beside the reference CSVs
    digests = json.loads((REFERENCE / "digests.json").read_text(encoding="utf-8"))[fid]
    code, _, err = run_cli(["figure", fid, "--steps", "3", "--out", str(tmp_path)], capsys)
    assert code == 0, err
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == sorted(digests)
    for name, sha in digests.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == sha, name


def test_cli_figure_manifest_counts_rows_outside_the_domain(tmp_path, capsys):
    # each fig4 and fig7 dataset counts its rows whose config, at the row's
    # t*, lies outside the trusted domain, and those of them with a key
    totals = {}
    for fid, case in (("fig4", Case.ASYMMETRIC), ("fig7", Case.SYMMETRIC)):
        argv = ["figure", fid, "--steps", "3", "--out", str(tmp_path)]
        code, _, err = run_cli(argv, capsys)
        assert code == 0, err
        manifest = json.loads((tmp_path / f"{fid}_manifest.json").read_text())
        counts, key_counts = manifest["rows_out_of_domain"], manifest["key_rows_out_of_domain"]
        want, want_key = {}, {}
        for path in sorted(tmp_path.glob(f"{fid}_*.csv")):
            name = path.stem
            variant, _, eps = name.removeprefix(f"{fid}_").partition("_eps")
            eps = {"eps": float(eps)} if eps else {}
            want[name] = want_key[name] = 0
            for line in path.read_text().splitlines()[2:]:
                distance, skr, *_, t_star = map(float, line.split(","))
                cfg = config_for(Variant(variant), case, distance, **eps)
                outside = cfg.at_t(t_star).warn_domain
                want[name] += outside
                want_key[name] += outside and skr > 0.0  # nan, a non-physical rate, is no key
        assert counts == want and key_counts == want_key, fid
        assert 0 < sum(counts.values()) < 3 * len(counts), fid
        # the manifest warns exactly when some dataset has a row outside
        warned = any(c > 0 for c in counts.values())
        assert manifest["warnings"] == ([_DOMAIN_WARNING] if warned else []), fid
        totals[fid] = sum(key_counts.values()), sum(counts.values())
    # at 3 points every fig4 row outside the domain has a key; not so in fig7
    assert 0 < totals["fig4"][0] == totals["fig4"][1]
    assert 0 < totals["fig7"][0] < totals["fig7"][1]
    # and stays silent when no row is outside
    code, _, err = run_cli(["figure", "fig2", "--steps", "3", "--out", str(tmp_path)], capsys)
    assert code == 0, err
    manifest = json.loads((tmp_path / "fig2_manifest.json").read_text())
    assert manifest["rows_out_of_domain"] == {"fig2": 0} and manifest["warnings"] == []


def test_cli_figure_flag_scoping(tmp_path, capsys):
    # --steps and --out are the only figure flags: the extra excess noises
    # of fig4 and fig7 are fixed, and no figure takes --extra-eps
    for fid in FIGURE_IDS:
        argv = ["figure", fid, "--steps", "2", "--extra-eps", "0.001", "--out", str(tmp_path)]
        code, out, err = run_cli(argv, capsys)
        assert code == 1, argv
        assert out == "" and "unrecognized arguments: --extra-eps" in err
    assert list(tmp_path.iterdir()) == []
    code, _, _ = run_cli(["figure", "nope"], capsys)
    assert code == 1


def test_cli_figure_unwritable_dir(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("x", encoding="utf-8")
    code, _, err = run_cli(["figure", "fig2", "--steps", "5", "--out", str(blocker)], capsys)
    assert code == 1
    assert "cannot write" in err


def _no_evaluation(*_):
    raise AssertionError("a refused input was evaluated")


@pytest.mark.parametrize(
    "argv, message",
    [
        ("figure fig2 --steps 1", "steps must be >= 2"),
        ("optimize --optimize t --zpc-t off", "catalysis"),
        ("figure fig2 --steps 2 --out blocker", "cannot write to blocker"),
        ("figure fig6 --steps 2 --per-arm", "unrecognized arguments: --per-arm"),
        ("figure fig7 --extra-eps 0.001", "unrecognized arguments: --extra-eps"),
        ("optimize --optimize distance --tol-km 0.01", "unrecognized arguments: --tol-km 0.01"),
        ("keyrate --scheme gaussian", "scheme: 'gaussian' is not a valid Scheme"),
        ("keyrate --variance 1001.5", "variance_v must be in (1, 1001], got 1001.5"),
        ("optimize --optimize tv --v-hi 2000", "need 1 < v_lo < v_hi <= 1001"),
    ],
)
def test_cli_library_refusals_leave_through_main(argv, message, tmp_path, monkeypatch, capsys):
    # the library refuses these inputs, and argparse a flag no figure
    # takes; each leaves as a bad flag does, before any evaluation: the
    # usage, then one error line, and exit 1
    monkeypatch.chdir(tmp_path)
    (tmp_path / "blocker").write_text("x", encoding="utf-8")
    monkeypatch.setattr(mdicvqkd.keyrate, "_score", _no_evaluation)
    argv = argv.split()
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    assert "Traceback" not in err
    prog = f"mdicvqkd {argv[0]}"
    lines = err.splitlines()
    assert lines[0].startswith(f"usage: {prog} ")
    assert lines[-1].startswith(f"{prog}: error: ") and message in lines[-1]
    assert sum(": error:" in line for line in lines) == 1
    assert [p.name for p in tmp_path.iterdir()] == ["blocker"]
