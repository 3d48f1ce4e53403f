"""One timed pass of the `scatter` or `figures` workload, in a fresh process.

    python3 perfbench/worker.py scatter|figures SEED [SPANS_PATH]

Each pass runs in its own interpreter so that any cache the package keeps
starts cold, as it does for every user's process.  Inputs are made from
SEED before timing starts.  With SPANS_PATH the module boundaries are
traced and the spans are written to SPANS_PATH.csv.gz after the pass.
The last stdout line is a JSON record for perfbench/run.py.
"""

import hashlib
import json
import math
import random
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference"

SCATTER_CALLS = 20000

# The nine paper figures at the reduced size `mdicvqkd figure ID --steps 3`
# gives; the T optimizer inside keeps its default 200-point grid.
FIGURE_IDS = ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9a", "fig9b")
FIGURE_STEPS = 3
_STEP_KEY = {
    "fig2": "steps",
    "fig3": "v_steps",
    "fig6": "v_steps",
    "fig4": "l_steps",
    "fig7": "l_steps",
    "fig5": "beta_steps",
    "fig8": "beta_steps",
    "fig9a": "l_steps",
    "fig9b": "l_steps",
}

# CSV values match the reference within this tolerance; the markers below
# all mean "non-physical point" and count as equal to one another.
REL_TOL = 1e-6
ABS_TOL = 1e-12
NONPHYSICAL = frozenset(("nan", "-inf", "None"))

KAPPA_TOL = 1e-9
RATE_REL_TOL = 1e-12


def figure_overrides(fid: str) -> dict:
    """The run_figure keyword arguments `--steps FIGURE_STEPS` maps to."""
    overrides = {_STEP_KEY[fid]: FIGURE_STEPS}
    if fid in ("fig3", "fig6"):
        overrides["l_steps"] = FIGURE_STEPS
    return overrides


def write_figure(fid: str, out_dir) -> None:
    """Build one figure and write its CSVs and manifest, as the CLI does."""
    from mdicvqkd import cli_io, scenarios

    overrides = figure_overrides(fid)
    datasets = scenarios.run_figure(fid, **overrides)
    echo = {"figure": fid, **overrides}
    cli_io.write_datasets(datasets, out_dir, echo, f"{fid}_manifest.json")


def scatter_configs(seed: int, n: int) -> list:
    """Random single-evaluation configs covering the input space.

    The attenuated alpha^2 = T (V - 1) / 2 lands a third each below 1,
    in [1, 30] and above 30, the three code paths of the constellation
    weights; almost no value repeats.
    """
    from mdicvqkd.channel import LinkGeometry
    from mdicvqkd.keyrate import ProtocolConfig
    from mdicvqkd.modulation import Scheme
    from mdicvqkd.zpc import ZpcSetting

    rng = random.Random(seed)
    bands = [(0.001, 1.0), (1.0, 30.0), (30.0, 49.5)]
    picks = [bands[i % 3] for i in range(n)]
    rng.shuffle(picks)
    out = []
    for lo, hi in picks:
        atten = rng.uniform(lo, hi)
        if rng.random() < 0.5:
            zpc, t = ZpcSetting.off(), 1.0
        else:
            # keep V = 1 + 2 atten / T at or below 100
            t = rng.uniform(max(0.05, atten / 49.5), 1.0)
            zpc = ZpcSetting.on(t)
        total = rng.uniform(0.0, 80.0)
        d = rng.random()  # relay position l_bc / l_ac: 0 at Bob, 1 midway
        l_ac = total / (1.0 + d)
        out.append(
            ProtocolConfig(
                scheme=rng.choice((Scheme.FOUR, Scheme.EIGHT)),
                zpc=zpc,
                variance_v=1.0 + 2.0 * atten / t,
                beta=rng.uniform(0.8, 1.0),
                eps_a=rng.uniform(0.0, 0.01),
                eps_b=rng.uniform(0.0, 0.01),
                geometry=LinkGeometry(l_ac, d * l_ac),
            )
        )
    return out


def scatter_ok(config, evaluation) -> bool:
    """Invariants that hold for any config."""
    r = evaluation.result
    if not (0.0 < r.p_d <= 1.0):
        return False
    if not r.physical:
        return True
    values = (r.i_ab, r.chi_be, r.skr, r.kappa1, r.kappa2, r.kappa3)
    if not all(v is not None and math.isfinite(v) for v in values):
        return False
    if min(r.kappa1, r.kappa2, r.kappa3) < 1.0 - KAPPA_TOL:
        return False
    expected = r.p_d * (config.beta * r.i_ab - r.chi_be)
    scale = r.p_d * (config.beta * abs(r.i_ab) + abs(r.chi_be))
    return abs(r.skr - expected) <= RATE_REL_TOL * scale


def same_csv(got: str, ref: str) -> bool:
    g, r = got.splitlines(), ref.splitlines()
    if len(g) != len(r):
        return False
    for got_line, ref_line in zip(g, r):
        if got_line == ref_line:
            continue
        gc, rc = got_line.split(","), ref_line.split(",")
        if len(gc) != len(rc):
            return False
        for a, b in zip(gc, rc):
            if a == b or (a in NONPHYSICAL and b in NONPHYSICAL):
                continue
            try:
                fa, fb = float(a), float(b)
            except ValueError:
                return False
            if not math.isclose(fa, fb, rel_tol=REL_TOL, abs_tol=ABS_TOL):
                return False
    return True


def load_digests() -> dict:
    """{figure id: {csv name: sha256}} of the committed reference CSVs."""
    return json.loads((REFERENCE / "digests.json").read_text(encoding="utf-8"))


def check_figure(fid: str, out_dir: Path, digests: dict) -> tuple[bool, int]:
    """(values match the reference, CSVs byte-identical to it) for one figure."""
    expected = digests[fid]
    produced = {p.name for p in out_dir.glob(f"{fid}*.csv")}
    ok = produced == set(expected)
    identical = 0
    for name, sha in expected.items():
        path = out_dir / name
        if not path.exists():
            continue
        data = path.read_bytes()
        identical += hashlib.sha256(data).hexdigest() == sha
        ref = (REFERENCE / name).read_text(encoding="utf-8")
        ok = ok and same_csv(data.decode("utf-8"), ref)
    return ok, identical


def main(argv: list[str]) -> int:
    workload, seed = argv[0], int(argv[1])
    spans_path = argv[2] if len(argv) > 2 else None
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import mdicvqkd.cli_io  # noqa: F401  (the import a CLI user pays)
    from mdicvqkd import keyrate

    import_s = time.perf_counter() - t0

    if workload == "scatter":
        inputs = scatter_configs(seed, SCATTER_CALLS)
    elif workload == "figures":
        inputs = list(FIGURE_IDS)
        random.Random(seed).shuffle(inputs)
        digests = load_digests()
        OUT.mkdir(exist_ok=True)
        out_dir = Path(tempfile.mkdtemp(prefix="figures-", dir=OUT))
    else:
        raise SystemExit(f"unknown workload {workload!r}")

    tracer = None
    if spans_path:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    clock = time.perf_counter_ns
    op_ns, outputs = [], []
    for i, item in enumerate(inputs):
        if tracer is not None:
            tracer.op = i
        t_op = clock()
        try:
            if workload == "scatter":
                out = keyrate.evaluate_protocol(item)
            else:
                out = write_figure(item, out_dir)
        except Exception as exc:  # a failed operation, counted below
            out = exc
        op_ns.append(clock() - t_op)
        outputs.append(out)

    trace = tracer.finish(spans_path) if tracer is not None else None

    failed = wrong = identical = files = 0
    try:
        for item, out in zip(inputs, outputs):
            if isinstance(out, Exception):
                failed += 1
                continue
            if workload == "scatter":
                ok = scatter_ok(item, out)
            else:
                ok, same = check_figure(item, out_dir, digests)
                identical += same
                files += len(digests[item])
            if not ok:
                failed += 1
                wrong += 1
    finally:
        if workload == "figures":
            shutil.rmtree(out_dir, ignore_errors=True)

    errors = sorted({f"{type(o).__name__}: {o}" for o in outputs if isinstance(o, Exception)})
    record = {
        "op_ns": op_ns,
        "attempted": len(inputs),
        "failed": failed,
        "wrong": wrong,
        "errors": errors[:5],
        "import_s": import_s,
        "digest_match": [identical, files],
        "trace": trace,
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
