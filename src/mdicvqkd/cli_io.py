"""Command-line entry point, scenario files, and dataset serialization.

Output contract: floats are written as the shortest decimal that parses
back to the same value (integral values drop the trailing .0), CSV rows
follow generation order (sorted by first axis), and repeated runs with
the same inputs produce byte-identical CSV bodies.  Manifests carry the
tool version, the resolved configuration, a timestamp, and any warnings;
the timestamp is the only non-deterministic output and lives only in
the manifest.
"""

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .keyrate import ProtocolConfig, evaluate_protocol
from .channel import LinkGeometry
from .modulation import Scheme
from .optimize import OptimizationGrid, max_distance, optimize_t, optimize_tv
from .scenarios import FIGURE_IDS, Dataset, run_figure
from .zpc import ZpcSetting

_DOMAIN_WARNING = (
    "effective modulation variance exceeds 0.5 shot-noise units; "
    "the bound is outside its trusted domain"
)


# ---------------------------------------------------------------------------
# scenario files


class ScenarioError(ValueError):
    """Raised for malformed or contradictory scenario files."""


@dataclass(frozen=True)
class SweepSpec:
    """A fully resolved run configuration, the scenario-file contents.

    Defaults describe the baseline study: eight-state, no catalysis,
    beta 0.95, excess noise 0.002 per link, 0.2 dB/km fiber.
    """

    scheme: Scheme = Scheme.EIGHT
    zpc: ZpcSetting = ZpcSetting.off()
    variance: float = 1.5
    beta: float = 0.95
    eps_a: float = 0.002
    eps_b: float = 0.002
    lac: float = 0.0
    lbc: float = 0.0
    mu: float = 0.2

    def config(self) -> ProtocolConfig:
        return ProtocolConfig(
            scheme=self.scheme,
            zpc=self.zpc,
            variance_v=self.variance,
            beta=self.beta,
            eps_a=self.eps_a,
            eps_b=self.eps_b,
            geometry=LinkGeometry(self.lac, self.lbc, self.mu),
        )


_SCENARIO_KEYS = (
    "scheme",
    "zpc_t",
    "variance",
    "beta",
    "eps",
    "eps_a",
    "eps_b",
    "lac",
    "lbc",
    "mu",
)


def _parse_zpc_value(text: str) -> ZpcSetting:
    if text.strip().lower() == "off":
        return ZpcSetting.off()
    return ZpcSetting.on(float(text))


def parse_scenario(text: str) -> SweepSpec:
    """Resolve `key = value` lines (with # comments) into a SweepSpec.

    Unknown keys, duplicates, and an eps next to eps_a/eps_b are hard
    errors; everything unspecified takes its default.
    """
    seen: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise ScenarioError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        if key not in _SCENARIO_KEYS:
            raise ScenarioError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ScenarioError(f"line {lineno}: duplicate key {key!r}")
        seen[key] = value
    if "eps" in seen and ("eps_a" in seen or "eps_b" in seen):
        raise ScenarioError("eps conflicts with eps_a/eps_b; give one or the other")

    kwargs = {}
    try:
        if "scheme" in seen:
            kwargs["scheme"] = Scheme(seen["scheme"].lower())
        if "zpc_t" in seen:
            kwargs["zpc"] = _parse_zpc_value(seen["zpc_t"])
        if "eps" in seen:
            kwargs["eps_a"] = kwargs["eps_b"] = float(seen["eps"])
        for key in ("variance", "beta", "eps_a", "eps_b", "lac", "lbc", "mu"):
            if key in seen:
                kwargs[key] = float(seen[key])
        spec = SweepSpec(**kwargs)
        spec.config()  # validate ranges eagerly
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
    return spec


def load_scenario_file(path) -> SweepSpec:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    return parse_scenario(text)


def serialize_scenario(spec: SweepSpec) -> str:
    """Scenario-file text that parses back to an equal SweepSpec."""
    zpc_t = format_value(spec.zpc.t) if spec.zpc.enabled else "off"
    lines = [
        f"scheme = {spec.scheme.value}",
        f"zpc_t = {zpc_t}",
        f"variance = {format_value(spec.variance)}",
        f"beta = {format_value(spec.beta)}",
        f"eps_a = {format_value(spec.eps_a)}",
        f"eps_b = {format_value(spec.eps_b)}",
        f"lac = {format_value(spec.lac)}",
        f"lbc = {format_value(spec.lbc)}",
        f"mu = {format_value(spec.mu)}",
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# dataset serialization


def format_value(value) -> str:
    """Shortest decimal that round-trips; integral floats drop the .0."""
    if isinstance(value, str):
        return value
    x = float(value)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def dataset_to_csv(dataset: Dataset, manifest_name: str = "manifest.json") -> str:
    lines = [f"# manifest: {manifest_name}", ",".join(dataset.columns)]
    width = len(dataset.columns)
    for row in dataset.rows:
        if len(row) != width:
            raise ValueError(f"{dataset.name}: row width {len(row)} != {width} columns")
        lines.append(",".join(format_value(v) for v in row))
    return "\n".join(lines) + "\n"


def write_datasets(
    datasets: list[Dataset],
    out_dir,
    config_echo: dict,
    manifest_name: str = "manifest.json",
) -> list[Path]:
    """Write one CSV per dataset plus the manifest they reference."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for ds in datasets:
        path = out / f"{ds.name}.csv"
        path.write_text(dataset_to_csv(ds, manifest_name), encoding="utf-8")
        paths.append(path)
    manifest = {
        "tool_version": __version__,
        "config_echo": config_echo,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "warnings": [],
        "files": [p.name for p in paths],
    }
    manifest_path = out / manifest_name
    manifest_path.write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    paths.append(manifest_path)
    return paths


# ---------------------------------------------------------------------------
# CLI


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; the contract reserves 2 for
    # non-physical results, so flag problems exit 1 instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_protocol_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", metavar="FILE", help="scenario file supplying defaults")
    p.add_argument("--scheme", choices=[s.value for s in Scheme])
    p.add_argument(
        "--zpc-t",
        dest="zpc_t",
        metavar="T|off",
        help="catalysis beam-splitter transmittance in (0,1], or 'off'",
    )
    p.add_argument("--variance", type=float, help="source variance V > 1")
    p.add_argument("--beta", type=float, help="reconciliation efficiency in (0,1]")
    p.add_argument("--eps", type=float, help="excess noise for both links")
    p.add_argument("--eps-a", dest="eps_a", type=float)
    p.add_argument("--eps-b", dest="eps_b", type=float)
    p.add_argument("--lac", type=float, help="Alice-relay fiber length, km")
    p.add_argument("--lbc", type=float, help="Bob-relay fiber length, km")
    p.add_argument("--mu", type=float, help="fiber loss, dB/km (default 0.2)")


def _add_grid_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--t-lo", dest="t_lo", type=float)
    p.add_argument("--t-hi", dest="t_hi", type=float)
    p.add_argument("--t-steps", dest="t_steps", type=int)
    p.add_argument("--v-lo", dest="v_lo", type=float)
    p.add_argument("--v-hi", dest="v_hi", type=float)
    p.add_argument("--v-steps", dest="v_steps", type=int)
    p.add_argument("--refine-iters", dest="refine_iters", type=int)


def _resolve_spec(args, parser: argparse.ArgumentParser) -> SweepSpec:
    if args.eps is not None and (args.eps_a is not None or args.eps_b is not None):
        parser.error("--eps conflicts with --eps-a/--eps-b")
    try:
        base = load_scenario_file(args.scenario) if args.scenario else SweepSpec()
    except ScenarioError as exc:
        parser.error(str(exc))
    kwargs = {}
    if args.scheme is not None:
        kwargs["scheme"] = Scheme(args.scheme)
    if args.zpc_t is not None:
        try:
            kwargs["zpc"] = _parse_zpc_value(args.zpc_t)
        except ValueError as exc:
            parser.error(str(exc))
    if args.eps is not None:
        kwargs["eps_a"] = kwargs["eps_b"] = args.eps
    for key in ("variance", "beta", "eps_a", "eps_b", "lac", "lbc", "mu"):
        val = getattr(args, key)
        if val is not None:
            kwargs[key] = val
    spec = replace(base, **kwargs)
    try:
        spec.config()
    except ValueError as exc:
        parser.error(str(exc))
    return spec


def _resolve_grid(args, parser: argparse.ArgumentParser) -> OptimizationGrid:
    defaults = OptimizationGrid()
    kwargs = {}
    for key in ("t_lo", "t_hi", "t_steps", "v_lo", "v_hi", "v_steps", "refine_iters"):
        val = getattr(args, key)
        if val is not None:
            kwargs[key] = val
    try:
        return replace(defaults, **kwargs)
    except ValueError as exc:
        parser.error(str(exc))


def _spec_echo(spec: SweepSpec) -> dict:
    return {
        "scheme": spec.scheme.value,
        "zpc_t": spec.zpc.t if spec.zpc.enabled else "off",
        "variance": spec.variance,
        "beta": spec.beta,
        "eps_a": spec.eps_a,
        "eps_b": spec.eps_b,
        "lac": spec.lac,
        "lbc": spec.lbc,
        "mu": spec.mu,
    }


def _jsonable(x):
    """None for non-finite floats; json would emit bare Infinity otherwise."""
    if isinstance(x, float) and not math.isfinite(x):
        return None
    return x


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _cmd_keyrate(args, parser) -> int:
    spec = _resolve_spec(args, parser)
    cfg = spec.config()
    ev = evaluate_protocol(cfg)
    res = ev.result
    warnings = [_DOMAIN_WARNING] if cfg.warn_domain else []
    chan = ev.channel
    payload = {
        "tool_version": __version__,
        "config": _spec_echo(spec),
        "p_d": res.p_d,
        "i_ab": res.i_ab,
        "chi_be": res.chi_be,
        "kappa1": res.kappa1,
        "kappa2": res.kappa2,
        "kappa3": res.kappa3,
        "skr": res.skr,
        "physical": res.physical,
        "attenuated_alpha_sq": ev.attenuated_alpha_sq,
        "channel": {
            "t_a": chan.t_a,
            "t_b": chan.t_b,
            "chi_a": chan.chi_a,
            "chi_b": chan.chi_b,
            "g_sq": chan.g_sq,
            "t_c": chan.t_c,
            "eps_th": chan.eps_th,
            "chi_t": chan.chi_t,
        },
        "warnings": warnings,
    }
    _print_json(payload)
    return 0 if res.physical else 2


def _cmd_optimize(args, parser) -> int:
    spec = _resolve_spec(args, parser)
    grid = _resolve_grid(args, parser)
    mode = args.optimize
    if mode == "t":
        if args.zpc_t is not None and args.zpc_t.strip().lower() == "off":
            parser.error("--optimize t needs catalysis; drop '--zpc-t off'")
        if not spec.zpc.enabled:
            # t is the optimized variable, so an omitted flag means "on"
            spec = replace(spec, zpc=ZpcSetting.on(1.0))
    cfg = spec.config()
    payload = {
        "tool_version": __version__,
        "config": _spec_echo(spec),
        "mode": mode,
        "grid": {
            "t_lo": grid.t_lo,
            "t_hi": grid.t_hi,
            "t_steps": grid.t_steps,
            "v_lo": grid.v_lo,
            "v_hi": grid.v_hi,
            "v_steps": grid.v_steps,
            "refine_iters": grid.refine_iters,
        },
    }
    if mode == "t":
        opt = optimize_t(cfg, grid)
        payload.update(
            t_star=opt.t_star, skr_star=_jsonable(opt.skr_star), no_key=opt.no_key
        )
    elif mode == "tv":
        opt = optimize_tv(cfg, grid)
        payload.update(
            t_star=opt.t_star,
            v_star=opt.v_star,
            skr_star=_jsonable(opt.skr_star),
            no_key=opt.no_key,
        )
    else:
        md = max_distance(cfg, grid, tol_km=args.tol_km)
        payload.update(max_distance_km=md.distance_km, no_key=md.no_key)
    if spec.config().warn_domain:
        payload["warnings"] = [_DOMAIN_WARNING]
    else:
        payload["warnings"] = []
    _print_json(payload)
    return 0


def _figure_overrides(args, parser) -> dict:
    fid = args.figure_id
    overrides = {}
    if args.steps is not None:
        if args.steps < 2:
            parser.error("--steps must be >= 2")
        key = {
            "fig2": "steps",
            "fig3": "v_steps",
            "fig6": "v_steps",
            "fig4": "l_steps",
            "fig7": "l_steps",
            "fig5": "beta_steps",
            "fig8": "beta_steps",
            "fig9a": "l_steps",
            "fig9b": "l_steps",
        }[fid]
        overrides[key] = args.steps
        if fid in ("fig3", "fig6"):
            overrides["l_steps"] = args.steps
    if args.extra_eps is not None:
        if fid not in ("fig4", "fig7"):
            parser.error("--extra-eps applies only to fig4 and fig7")
        try:
            overrides["extra_eps"] = tuple(float(s) for s in args.extra_eps.split(","))
        except ValueError:
            parser.error(f"--extra-eps expects comma-separated numbers, got {args.extra_eps!r}")
        if any(not (e >= 0.0) or math.isinf(e) for e in overrides["extra_eps"]):
            parser.error(f"--extra-eps must be finite and >= 0, got {args.extra_eps!r}")
    if args.per_arm:
        if fid not in ("fig6", "fig7", "fig8"):
            parser.error("--per-arm applies only to the symmetric figures (fig6/7/8)")
        overrides["sym_per_arm"] = True
    if args.arm_diff:
        if fid != "fig9a":
            parser.error("--arm-diff applies only to fig9a")
        overrides["arm_diff_axis"] = True
    return overrides


def _cmd_figure(args, parser) -> int:
    overrides = _figure_overrides(args, parser)
    datasets = run_figure(args.figure_id, **overrides)
    echo = {"figure": args.figure_id}
    echo.update({k: list(v) if isinstance(v, tuple) else v for k, v in overrides.items()})
    try:
        # one manifest per figure so several runs can share a directory
        paths = write_datasets(datasets, args.out, echo, f"{args.figure_id}_manifest.json")
    except OSError as exc:
        print(f"{parser.prog}: error: cannot write to {args.out}: {exc}", file=sys.stderr)
        return 1
    for p in paths:
        print(p)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mdicvqkd", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_rate = sub.add_parser("keyrate", help="evaluate one configuration, print JSON")
    _add_protocol_flags(p_rate)
    p_rate.set_defaults(func=_cmd_keyrate, subparser=p_rate)

    p_opt = sub.add_parser("optimize", help="optimize t, (t, v), or reachable distance")
    _add_protocol_flags(p_opt)
    _add_grid_flags(p_opt)
    p_opt.add_argument("--optimize", required=True, choices=("t", "tv", "distance"))
    p_opt.add_argument(
        "--tol-km", dest="tol_km", type=float, default=0.05, help="distance bisection tolerance"
    )
    p_opt.set_defaults(func=_cmd_optimize, subparser=p_opt)

    p_fig = sub.add_parser("figure", help="write a figure's datasets as CSV + manifest")
    p_fig.add_argument("figure_id", choices=FIGURE_IDS)
    p_fig.add_argument("--out", default=".", help="output directory (default .)")
    p_fig.add_argument("--steps", type=int, help="points along the primary axis")
    p_fig.add_argument(
        "--extra-eps",
        dest="extra_eps",
        metavar="E1,E2,...",
        help="extra excess-noise curves for the best variant (fig4/fig7)",
    )
    p_fig.add_argument(
        "--per-arm",
        dest="per_arm",
        action="store_true",
        help="report per-arm rather than total distance in symmetric figures",
    )
    p_fig.add_argument(
        "--arm-diff",
        dest="arm_diff",
        action="store_true",
        help="fig9a: report the arm difference l_ac-l_bc instead of the traversed total",
    )
    p_fig.set_defaults(func=_cmd_figure, subparser=p_fig)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args, args.subparser)


if __name__ == "__main__":
    sys.exit(main())
