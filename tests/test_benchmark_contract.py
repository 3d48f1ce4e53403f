"""The benchmark's interface to the package.

perfbench/worker.py and perfbench/run.py are imported as they are and
driven in-process: the scatter configs through evaluate_protocol, and the
first CLI call of each kind through cli_io.main, judged by the benchmark's
own checks.  A change that drops a name, flag or output field the
benchmark uses then fails here, and not only in a benchmark run.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from mdicvqkd import cli_io, keyrate

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")

# run.py imports its siblings by bare name
sys.path.insert(0, PERFBENCH)
try:
    import run as bench_run
    import worker
finally:
    sys.path.remove(PERFBENCH)


def test_scatter_configs_pass_the_invariants():
    configs = worker.scatter_configs(1, 90)
    assert len(configs) == 90
    for cfg in configs:
        assert worker.scatter_ok(cfg, keyrate.evaluate_protocol(cfg)), cfg


def _main(argv: list[str]) -> int:
    """cli_io.main's exit code; a refused input exits through argparse."""
    try:
        return cli_io.main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("kind", [kind for kind, _ in bench_run.CLI_BLOCK])
def test_first_cli_call_of_each_kind(kind, tmp_path, capsys):
    calls = bench_run.cli_block(1, tmp_path)
    _, argv, expected, check = next(call for call in calls if call[0] == kind)
    code = _main(argv)
    out, err = capsys.readouterr()
    assert code == expected, (argv, err)
    # exit code, no traceback, and the payload parsed as strict JSON and checked
    proc = subprocess.CompletedProcess(argv, code, out, err)
    failed, _ = bench_run.check_cli(proc, expected, check)
    assert not failed, (argv, out, err)
    if kind == "figure":
        ok, _ = worker.check_figure(bench_run.CLI_FIGURE, Path(argv[-1]), worker.load_digests())
        assert ok, argv


# KNOWN_BAD is left out: its --mu rows are already refused as unknown
# flags, a name the package dropped, and only a benchmark edit can
# replace them with refusals of a real input.
@pytest.mark.parametrize("argv", bench_run.REJECTS, ids=" ".join)
def test_benchmark_rejects_are_refused_by_the_library(argv, capsys):
    # a refusal the benchmark counts must stay a refusal of the input, not
    # turn into argparse's refusal of a flag the package no longer has
    assert _main(list(argv)) == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1, errors
    assert "unrecognized arguments" not in errors[0]
