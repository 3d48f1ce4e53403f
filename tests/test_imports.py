"""What importing the package and running each CLI command loads: the
optimizer and figure layers only when a command runs them, never
dataclasses, whose import pulls in inspect, ast, dis and tokenize, and
nothing outside the standard library.  And the README's library quick
start runs as written, its scenario file parses, and its figure table
names each figure's flags."""

import ast
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mdicvqkd

SRC = str(Path(mdicvqkd.__file__).resolve().parents[1])


def run_fresh(code: str, *argv: str) -> str:
    """stdout of code run in a new interpreter with argv, importing this
    checkout's package."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# main() with no argument reads sys.argv[1:], as the console script calls it.
_CLI_MODULES = """
import contextlib, io, json, sys
from mdicvqkd import cli_io
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = cli_io.main()
    except SystemExit as exc:  # help, version and parser errors exit here
        code = exc.code
loaded = [m for m in sys.modules if m.startswith("mdicvqkd") or m == "dataclasses"]
print(json.dumps([code, sorted(loaded)]))
"""


@pytest.mark.parametrize(
    "argv, loaded, absent",
    [
        (["keyrate"], ["keyrate"], ["optimize", "scenarios"]),
        (["optimize", "--optimize", "t", "--t-steps", "20"], ["optimize"], ["scenarios"]),
        # top-level help, version and errors add no subcommand's flags
        (["--help"], [], ["optimize", "scenarios"]),
        (["--version"], [], ["optimize", "scenarios"]),
        (["bogus"], [], ["optimize", "scenarios"]),
    ],
)
def test_cli_command_imports_only_its_layers(argv, loaded, absent):
    code, modules = json.loads(run_fresh(_CLI_MODULES, *argv))
    assert code == (1 if argv == ["bogus"] else 0)  # an unknown subcommand is a flag error
    assert all(f"mdicvqkd.{m}" in modules for m in loaded), modules
    assert not any(f"mdicvqkd.{m}" in modules for m in absent), modules
    assert "dataclasses" not in modules


_PACKAGE = """
import sys
import mdicvqkd
before = sorted(m for m in sys.modules if m.startswith("mdicvqkd"))
print(before, mdicvqkd.optimize.__name__, mdicvqkd.scenarios.__name__)
star = {}
exec("from mdicvqkd import *", star)
print(sorted(set(mdicvqkd.__all__) - set(star)))
"""


def test_package_loads_the_optimizer_and_figures_on_first_access():
    first, unbound = run_fresh(_PACKAGE).splitlines()
    before, optimize, scenarios = first.rsplit(" ", 2)
    assert "mdicvqkd.optimize" not in before and "mdicvqkd.scenarios" not in before
    assert (optimize, scenarios) == ("mdicvqkd.optimize", "mdicvqkd.scenarios")
    assert unbound == "[]"  # from mdicvqkd import * binds every name in __all__


def test_src_imports_only_the_standard_library():
    # the runtime is pure standard library: every absolute import names a
    # standard module, and the relative ones stay inside the package
    paths = sorted(Path(SRC, "mdicvqkd").glob("*.py"))
    assert paths
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.partition(".")[0] in sys.stdlib_module_names, (path.name, name)


def test_package_names_resolve():
    for name in mdicvqkd.__all__:
        assert getattr(mdicvqkd, name) is not None
    assert mdicvqkd.optimize_t is mdicvqkd.optimize.optimize_t
    assert mdicvqkd.run_figure is mdicvqkd.scenarios.run_figure
    assert mdicvqkd.Case is mdicvqkd.scenarios.Case
    with pytest.raises(AttributeError, match="no_such_name"):
        mdicvqkd.no_such_name


def test_readme_library_quick_start_runs():
    # the README's one python block, run as written in a new interpreter;
    # its import pins the public names it promises, optimize_t and
    # max_distance among them, which the package resolves on first access
    readme = Path(__file__).resolve().parents[1].joinpath("README.md").read_text("utf-8")
    (block,) = re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)
    assert "optimize_t, max_distance" in block
    lines = [line.split() for line in run_fresh(block).splitlines()]
    # (skr, p_d, chi_be), (t_star, skr) and the reach
    assert [len(words) for words in lines] == [3, 2, 1]
    assert all(math.isfinite(float(word)) for words in lines for word in words)


def test_readme_scenario_file_parses():
    # the README's scenario-file example, read as the CLI reads a file, so a
    # key the CLI no longer takes (such as a stale mu line) fails here
    from mdicvqkd.cli_io import parse_scenario
    from mdicvqkd.modulation import Scheme

    readme = Path(__file__).resolve().parents[1].joinpath("README.md").read_text("utf-8")
    (block,) = re.findall(r"^## Scenario files\n.*?^```\n(.*?)^```", readme, re.S | re.M)
    cfg = parse_scenario(block)
    assert (cfg.scheme, cfg.zpc, cfg.variance_v, cfg.beta) == (Scheme.EIGHT, 0.6, 2.6, 0.95)
    assert (cfg.eps_a, cfg.eps_b, tuple(cfg.geometry)) == (0.002, 0.002, (20.0, 0.0))


def test_readme_figure_table_lists_the_figure_flags():
    # --steps is the one figure flag besides --out; each row's "--steps
    # sets" cell names the axes of the step keys FIGURES registers for the
    # figure: steps the points of fig2's one axis, v_steps V, l_steps L
    # and beta_steps β
    from mdicvqkd.scenarios import FIGURE_IDS, FIGURES

    axis = {"steps": "points", "v_steps": "V", "l_steps": "L", "beta_steps": "β"}
    readme = Path(__file__).resolve().parents[1].joinpath("README.md").read_text("utf-8")
    lines = readme.splitlines()
    assert "| id | contents | columns | `--steps` sets |" in lines
    rows = [line.split("|")[1:-1] for line in lines if line.startswith("| fig")]
    table = {cells[0].strip(): set(cells[3].split()) - {"and"} for cells in rows}
    assert list(table) == list(FIGURE_IDS)
    for fid, words in table.items():
        assert words == {"points", *(axis[key] for key in FIGURES[fid][2])}, fid
