"""Benchmark of mdicvqkd, driven from outside through its public functions and CLI.

    python3 perfbench/run.py --workload scatter|figures|cli|all \\
        --seed N --seconds S --trace 0|1

Run from anywhere; paths resolve against the repository root.  Every
timed pass runs in a fresh interpreter, one at a time, so the package's
caches start cold and nothing runs in parallel.  The pass is repeated
until S seconds have gone by (and a workload's minimum number of passes
is reached).  Before timing, fresh interpreters import mdicvqkd.cli_io
several times; the median is `setup_s`.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
and traced passes and prints the per-layer metrics, including the
tracing overhead.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.  See perfbench/README.md.
"""

import argparse
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
from worker import FIGURE_STEPS, check_figure, load_digests

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("scatter", "figures", "cli")
MIN_PASSES = 3
SETUP_REPEATS = 9
CHILD_TIMEOUT_S = 120

_IMPORT_PROBE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import mdicvqkd.cli_io\n"
    "t = time.perf_counter() - t\n"
    "print(t, mdicvqkd.cli_io.__file__)\n"
)


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _run(cmd: list[str]) -> subprocess.CompletedProcess:
    """Run one child to completion; on timeout it is killed and reaped."""
    try:
        return subprocess.run(
            cmd, cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"timed out after {CHILD_TIMEOUT_S} s: {cmd}") from exc


def measure_setup() -> list[float]:
    """Import times of mdicvqkd.cli_io in fresh interpreters.

    The first import is discarded: it may also compile bytecode.
    """
    times = []
    for i in range(SETUP_REPEATS + 1):
        proc = _run([sys.executable, "-c", _IMPORT_PROBE])
        if proc.returncode != 0:
            last = (proc.stderr.strip().splitlines() or ["no output"])[-1]
            raise BenchError(f"cannot import mdicvqkd.cli_io from {SRC}: {last}")
        seconds, origin = proc.stdout.split()
        if not Path(origin).resolve().is_relative_to(SRC):
            raise BenchError(f"mdicvqkd imported from {origin}, not from {SRC}")
        if i:
            times.append(float(seconds))
    return times


# ---------------------------------------------------------------------------
# scatter and figures: one worker process per pass


def worker_pass(workload: str, seed: int, spans_path: Path | None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed)]
    if spans_path is not None:
        cmd.append(str(spans_path))
    proc = _run(cmd)
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr}")
    rec = json.loads(proc.stdout.splitlines()[-1])
    return {
        "op_s": [ns / 1e9 for ns in rec["op_ns"]],
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "wrong": rec["wrong"],
        "errors": rec["errors"],
        "import_s": [rec["import_s"]],
        "digest_match": rec["digest_match"],
        "traces": [rec["trace"]] if rec["trace"] else [],
    }


# ---------------------------------------------------------------------------
# cli: a block of fresh `python -m mdicvqkd.cli_io` processes per pass

# Calls per block, by kind.  The block is the pass; a run repeats it.
# About 70% are cheap calls (keyrate, scenario, refusals), 25% are
# `optimize --optimize t` and 7% the slow distance and tv searches and a
# figure, so the median latency sits among the cheap calls and the 90th
# percentile among the T optimizations, away from the edges between kinds.
CLI_BLOCK = (
    ("keyrate", 17),
    ("scenario", 1),
    ("reject", 4),
    ("known_bad", 6),
    ("optimize_t", 10),
    ("optimize_distance", 1),
    ("optimize_tv", 1),
    ("figure", 1),
)

# The figure call: the T optimizer inside scenarios, then write_datasets;
# its CSV is checked against the committed reference.
CLI_FIGURE = "fig9a"

# Inputs the CLI must refuse with exit 1 and a message, no traceback.
REJECTS = (
    ("keyrate", "--beta", "1.5"),
    ("keyrate", "--variance", "0.9"),
    ("keyrate", "--zpc-t", "1.5"),
    ("keyrate", "--eps", "-0.1"),
    ("keyrate", "--lac", "-3"),
    ("keyrate", "--scheme", "bogus"),
    ("keyrate", "--eps", "0.01", "--eps-a", "0.01"),
    ("optimize", "--optimize", "t", "--zpc-t", "off"),
    ("optimize", "--optimize", "tv", "--v-steps", "1"),
)

# Non-finite inputs that should be refused the same way but are not:
# --mu nan / --mu inf die with a traceback and --eps nan exits 2.  They
# stay in every block so the defect shows in `failed` until it is fixed.
KNOWN_BAD = (("--mu", "nan"), ("--mu", "inf"), ("--eps", "nan"))

TV_GRID = ("--v-steps", "20", "--t-steps", "150", "--refine-iters", "10")


def _num(x: float) -> str:
    return f"{x:.6g}"


def _protocol(rng: random.Random, zpc: bool, lac_max: float = 40.0) -> dict:
    lac = rng.uniform(0.0, lac_max)
    flags = {
        "--scheme": rng.choice(("four", "eight")),
        "--variance": _num(rng.uniform(1.1, 3.0)),
        "--beta": _num(rng.uniform(0.85, 1.0)),
        "--eps": _num(rng.uniform(0.0, 0.005)),
        "--lac": _num(lac),
        "--lbc": _num(rng.uniform(0.0, 1.0) * lac),
    }
    if zpc:
        flags["--zpc-t"] = "off" if rng.random() < 0.3 else _num(rng.uniform(0.2, 1.0))
    return flags


def _flat(flags: dict) -> list[str]:
    return [s for kv in flags.items() for s in kv]


def _finite(payload: dict, key: str) -> bool:
    v = payload.get(key)
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _check_keyrate(p: dict) -> bool:
    return p.get("physical") is True and _finite(p, "skr")


def _check_t(p: dict) -> bool:
    return _finite(p, "t_star") and 0.0 < p["t_star"] <= 1.0 and _finite(p, "skr_star")


def _check_distance(p: dict) -> bool:
    return _finite(p, "max_distance_km") and p["max_distance_km"] >= 0.0


def _check_tv(p: dict) -> bool:
    return (
        _check_t(p) and _finite(p, "v_star") and p["grid"]["v_lo"] <= p["v_star"] <= p["grid"]["v_hi"]
    )


def cli_block(seed: int, scratch: Path) -> list[tuple]:
    """The seeded block of (kind, argv, expected exit, payload check)."""
    rng = random.Random(seed)
    calls = []
    for kind, count in CLI_BLOCK:
        for i in range(count):
            if kind == "keyrate":
                calls.append((kind, ["keyrate", *_flat(_protocol(rng, True))], 0, _check_keyrate))
            elif kind == "optimize_t":
                argv = ["optimize", "--optimize", "t", *_flat(_protocol(rng, False))]
                calls.append((kind, argv, 0, _check_t))
            elif kind == "optimize_distance":
                # relay at Bob and a narrow preset range: the bisection
                # length, and so the latency, then varies little by seed
                flags = _protocol(rng, False, lac_max=15.0)
                flags.update({"--scheme": "eight", "--lbc": "0",
                              "--variance": _num(rng.uniform(2.4, 2.8)),
                              "--beta": _num(rng.uniform(0.93, 0.97)),
                              "--eps": _num(rng.uniform(0.001, 0.003)),
                              "--zpc-t": _num(rng.uniform(0.4, 0.8))})
                calls.append((kind, ["optimize", "--optimize", "distance", *_flat(flags)], 0,
                              _check_distance))
            elif kind == "optimize_tv":
                flags = _protocol(rng, False)
                flags["--zpc-t"] = _num(rng.uniform(0.2, 1.0))
                argv = ["optimize", "--optimize", "tv", *TV_GRID, *_flat(flags)]
                calls.append((kind, argv, 0, _check_tv))
            elif kind == "scenario":
                flags = _protocol(rng, True)
                path = scratch / f"scenario-{i}.txt"
                path.write_text(
                    "".join(f"{k[2:].replace('-', '_')} = {v}\n" for k, v in flags.items()),
                    encoding="utf-8",
                )
                calls.append((kind, ["keyrate", "--scenario", str(path)], 0, _check_keyrate))
            elif kind == "figure":
                argv = ["figure", CLI_FIGURE, "--steps", str(FIGURE_STEPS),
                        "--out", str(scratch / "figure")]
                calls.append((kind, argv, 0, None))
            elif kind == "reject":
                calls.append((kind, list(rng.choice(REJECTS)), 1, None))
            else:
                flags = _protocol(rng, True)
                bad_flag, bad_value = KNOWN_BAD[i % len(KNOWN_BAD)]
                flags[bad_flag] = bad_value
                calls.append((kind, ["keyrate", *_flat(flags)], 1, None))
    rng.shuffle(calls)
    return calls


def _strict(token):
    raise ValueError(f"non-standard JSON constant {token}")


def check_cli(proc, expected: int, check) -> tuple[bool, bool]:
    """(failed, wrong value) for one CLI call; a figure's CSV is checked apart."""
    if proc.returncode != expected or "Traceback" in proc.stderr:
        return True, False
    if expected != 0:
        return bool(proc.stdout.strip() or not proc.stderr.strip()), False
    if check is None:
        return False, False
    try:
        payload = json.loads(proc.stdout, parse_constant=_strict)
    except ValueError:
        return True, False
    ok = isinstance(payload, dict) and check(payload)
    return not ok, not ok


def cli_pass(calls: list[tuple], spans_dir: Path | None, tag: str) -> dict:
    op_s, failed, wrong, errors, traces = [], 0, 0, [], []
    identical = files = 0
    digests = load_digests()
    for j, (kind, argv, expected, check) in enumerate(calls):
        if spans_dir is None:
            cmd = [sys.executable, "-m", "mdicvqkd.cli_io", *argv]
        else:
            spans = spans_dir / f"{tag}-{j}"
            cmd = [sys.executable, str(HERE / "cli_traced.py"), str(spans), *argv]
        t0 = time.perf_counter()
        proc = _run(cmd)
        op_s.append(time.perf_counter() - t0)
        bad, wrong_value = check_cli(proc, expected, check)
        if kind == "figure":
            out_dir = Path(argv[-1])
            if not bad:
                ok, same = check_figure(CLI_FIGURE, out_dir, digests)
                bad = wrong_value = not ok
                identical += same
            files += len(digests[CLI_FIGURE])
            shutil.rmtree(out_dir, ignore_errors=True)
        failed += bad
        wrong += wrong_value
        if bad:
            last = (proc.stderr.strip().splitlines() or [""])[-1]
            errors.append(f"{kind} exit {proc.returncode}: {' '.join(argv)}: {last}")
        if spans_dir is not None:
            traces.append(json.loads(Path(f"{spans}.json").read_text(encoding="utf-8")))
    return {
        "op_s": op_s,
        "attempted": len(calls),
        "failed": failed,
        "wrong": wrong,
        "errors": sorted(set(errors)),
        "import_s": [t["import_s"] for t in traces],
        "digest_match": [identical, files],
        "traces": traces,
    }


# ---------------------------------------------------------------------------
# one workload


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    scratch = OUT / f"run-{workload}-{os.getpid()}"
    spans_dir = OUT / "spans" / workload if trace else None
    if spans_dir is not None:
        shutil.rmtree(spans_dir, ignore_errors=True)
        spans_dir.mkdir(parents=True)
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        setup = measure_setup()
        calls = cli_block(seed, scratch) if workload == "cli" else None

        def one_pass(traced: bool, k: int) -> dict:
            tag = f"{'traced' if traced else 'plain'}-{k}"
            if workload == "cli":
                return cli_pass(calls, spans_dir if traced else None, tag)
            return worker_pass(workload, seed, spans_dir / tag if traced else None)

        plain, traced = [], []
        min_passes = 1 if trace else MIN_PASSES
        start = time.perf_counter()
        while len(plain) < min_passes or time.perf_counter() - start < seconds:
            plain.append(one_pass(False, len(plain)))
            if trace:
                traced.append(one_pass(True, len(traced)))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    wrong = sum(p["wrong"] for p in passes)
    errors = sorted({e for p in passes for e in p["errors"]})
    op_s = op_times(workload, plain)
    counts = {"setup": len(setup), "passes": len(plain), "ops": len(op_s),
              "traced_passes": len(traced)}
    if trace:
        metrics = layer_metrics(workload, plain, traced)
    else:
        # inclusive: interpolates between observed latencies, as numpy does
        pct = statistics.quantiles(op_s, n=100, method="inclusive")
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (sum(op_s), "s"),
            "op_p50_ms": (pct[49] * 1e3, "ms"),
            "op_p90_ms": (pct[89] * 1e3, "ms"),
            "ops_per_s": (len(op_s) / sum(op_s), "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        counts["op_p99_ms"] = pct[98] * 1e3
    return {
        "workload": workload,
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "metrics": metrics,
        "counts": counts,
        "spans_dir": str(spans_dir.relative_to(ROOT)) if spans_dir else None,
    }


def op_times(workload: str, passes: list[dict]) -> list[float]:
    """Each operation's latency, taken over the passes of the run.

    Every pass runs the same operations in the same order.  In-process
    work (scatter, figures) is deterministic and CPU-bound, and load from
    outside the process only adds to it, so an operation's fastest pass
    is its steadiest estimate.  A CLI call also pays process start-up,
    which has a spread of its own; there the median over passes is
    steadier.  The workload's wall time is the sum over operations.
    """
    pick = statistics.median if workload == "cli" else min
    return [pick(col) for col in zip(*(p["op_s"] for p in passes))]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(workload: str, plain: list[dict], traced: list[dict]) -> dict:
    """Per-layer metrics of the traced passes, per pass."""
    total = tracer.merge([t for p in traced for t in p["traces"]])
    n = len(traced)
    calls, self_ns = total["calls"], total["self_ns"]
    evals = calls["keyrate.evaluate_protocol"]
    out = {}
    for name in tracer.SPAN_NAMES:
        out[f"{name}.calls"] = (calls[name] / n, "count")
        out[f"{name}.self_s"] = (self_ns[name] / 1e9 / n, "s")
    identical = sum(p["digest_match"][0] for p in traced)
    files = sum(p["digest_match"][1] for p in traced)
    out.update(
        {
            "modulation.z_reuse": (1.0 - _ratio(total["z_distinct"], total["z_calls"])
                                   if total["z_calls"] else 0.0, "fraction"),
            "modulation.poisson_frac": (
                _ratio(calls["modulation.poisson_residue_sums"], total["z_discrete"]), "fraction"),
            "channel.calls_per_eval": (_ratio(calls["channel.equivalent_channel"], evals), "ratio"),
            "keyrate.nonphysical_frac": (_ratio(total["nonphysical"], evals), "fraction"),
            "optimize.evals_per_optimize_t": (
                _ratio(total["evals_in_optimize_t"], calls["optimize.optimize_t"]), "ratio"),
            "cli_io.import_s": (statistics.median(t for p in traced for t in p["import_s"]), "s"),
            "scenarios.csv_digest_match": (_ratio(identical, files), "fraction"),
            "trace.overhead": (
                sum(op_times(workload, traced)) / sum(op_times(workload, plain)), "ratio"),
        }
    )
    if total["missing"]:
        print(f"warning: not traced, missing from the package: {total['missing']}",
              file=sys.stderr)
    return out


# ---------------------------------------------------------------------------
# reporting


def _commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int, seconds: float, trace: bool) -> dict:
    return {
        "python": platform.python_version(),
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
    }


def print_summary(res: dict) -> None:
    w, c = res["workload"], res["counts"]
    per_op = f"n={c['ops']} ops x {c['passes']} passes"
    samples = {
        "setup_s": f"n={c['setup']} imports",
        "wall_s": per_op,
        "op_p50_ms": per_op,
        "op_p90_ms": per_op,
        "ops_per_s": per_op,
        "peak_rss_mb": "max over child processes",
    }
    print(f"== {w}")
    for name, (value, unit) in res["metrics"].items():
        label = samples.get(name, f"per traced pass, n={c['traced_passes']}")
        print(f"  {name:42s} {value:14.6g} {unit:9s} {label}")
    if "op_p99_ms" in c:
        m = res["metrics"]
        if w == "scatter":
            print(f"  {'evals_per_s':42s} {m['ops_per_s'][0]:14.6g} {'1/s':9s} {per_op}")
            for q, v in (("p50", m["op_p50_ms"][0]), ("p99", c["op_p99_ms"])):
                print(f"  {'eval_' + q + '_us':42s} {v * 1e3:14.6g} {'us':9s} {per_op}")
        if w == "cli":
            for q in ("p50", "p90"):
                v = m[f"op_{q}_ms"][0]
                print(f"  {'cli_' + q + '_ms':42s} {v:14.6g} {'ms':9s} {per_op}")
    frac = res["failed"] / res["attempted"]
    print(f"  {'failed_frac':42s} {frac:14.6g} {'fraction':9s} "
          f"{res['failed']}/{res['attempted']} ops")
    for e in res["errors"][:8]:
        print(f"  failed: {e}")
    if res["spans_dir"]:
        print(f"  spans written to {res['spans_dir']}/")


def run_all(args) -> int:
    """Each workload in its own run.py process, so that child resource
    usage (peak_rss_mb) is not shared between workloads."""
    results = []
    for w in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            return proc.returncode
        *summary, last = proc.stdout.splitlines()
        print("\n".join(summary))
        results.append((w, json.loads(last)))
    print(json.dumps({
        "correct": all(r["correct"] for _, r in results),
        "attempted": sum(r["attempted"] for _, r in results),
        "failed": sum(r["failed"] for _, r in results),
        "metrics": {f"{w}.{k}": m for w, r in results for k, m in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "mdicvqkd" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}", file=sys.stderr)
        return 1
    if args.workload == "all":
        return run_all(args)
    trace = bool(args.trace)
    try:
        res = run_workload(args.workload, args.seed, args.seconds, trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    res["provenance"] = provenance(args.seed, args.seconds, trace)
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(res, indent=1) + "\n", encoding="utf-8")
    print_summary(res)
    print("provenance " + json.dumps(res["provenance"]))
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
