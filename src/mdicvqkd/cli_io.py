"""Command-line entry point, scenario files, and dataset serialization.

Output contract: floats are written as the shortest decimal that parses
back to the same value (integral values drop the trailing .0), CSV rows
follow generation order (sorted by first axis), and repeated runs with
the same inputs produce byte-identical CSV bodies.  Manifests carry the
tool version, the resolved configuration, a timestamp, any warnings and
each dataset's count of rows outside the trusted domain, and of those
with a key; the timestamp is the only non-deterministic output and lives
only in the manifest.
"""

import argparse
import json
import math
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .keyrate import DOMAIN_V_M_MAX, VARIANCE_MAX, ProtocolConfig, evaluate_protocol
from .modulation import Scheme
from .presets import Case, Variant, config_for

# The optimizer and figure layers are imported by the commands that run
# them, so a keyrate process does not load them.
if TYPE_CHECKING:
    from .scenarios import Dataset

_DOMAIN_WARNING = (
    f"effective modulation variance exceeds {DOMAIN_V_M_MAX} shot-noise units; "
    "the bound is outside its trusted domain"
)


# ---------------------------------------------------------------------------
# scenario files


# What an unspecified scenario key takes: the eight-state preset of the
# figures at zero length.
DEFAULT_CONFIG = config_for(Variant.EIGHT, Case.ASYMMETRIC, 0.0)

# Scenario-file keys -> (the record fields each sets, the help of the flag
# that sets the same value, which is --key with "-" for "_").
_SCENARIO_KEYS = {
    "scheme": ("scheme", "modulation constellation: " + ", ".join(s.value for s in Scheme)),
    "zpc_t": ("zpc", "catalysis beam-splitter transmittance T in (0,1], or 'off'"),
    "variance": ("variance_v", f"source variance V in (1, {VARIANCE_MAX:g}]"),
    "beta": ("beta", "reconciliation efficiency in (0,1]"),
    "eps": ("eps_a eps_b", "excess noise for both links"),
    "eps_a": ("eps_a", "excess noise of the Alice-relay link"),
    "eps_b": ("eps_b", "excess noise of the Bob-relay link"),
    "lac": ("l_ac", "Alice-relay fiber length, km"),
    "lbc": ("l_bc", "Bob-relay fiber length, km"),
}


def _with_keys(base: ProtocolConfig, values: dict[str, str]) -> ProtocolConfig:
    """base with the scenario keys in values set from their text, as a
    file or the flags give it."""
    if "eps" in values and ("eps_a" in values or "eps_b" in values):
        raise ValueError("eps conflicts with eps_a/eps_b; give one or the other")
    fields = {}
    for key, text in values.items():
        text = text.strip().lower()
        try:
            if key == "scheme":
                value = Scheme(text)
            elif key == "zpc_t" and text == "off":
                value = None
            else:
                value = float(text)
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from None
        fields.update(dict.fromkeys(_SCENARIO_KEYS[key][0].split(), value))
    geometry = {name: fields.pop(name) for name in base.geometry._fields if name in fields}
    return base._replace(geometry=base.geometry._replace(**geometry), **fields)


def parse_scenario(text: str, base: ProtocolConfig = DEFAULT_CONFIG) -> ProtocolConfig:
    """Resolve `key = value` lines (with # comments) into a config.

    Unknown keys, duplicates, and an eps next to eps_a/eps_b are hard
    errors; everything unspecified keeps its value in base.
    """
    seen: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        if key not in _SCENARIO_KEYS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        seen[key] = value
    return _with_keys(base, seen)


def load_scenario_file(path, base: ProtocolConfig = DEFAULT_CONFIG) -> ProtocolConfig:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read scenario file {path}: {exc}") from exc
    return parse_scenario(text, base)


def _spec_echo(config: ProtocolConfig) -> dict:
    """The config under its scenario keys; eps, which sets two fields, is
    written as eps_a and eps_b."""
    fields = {**config._asdict(), **config.geometry._asdict()}
    echo = {key: fields[name] for key, (name, _) in _SCENARIO_KEYS.items() if name in fields}
    echo.update(scheme=config.scheme.value, zpc_t="off" if config.zpc is None else config.zpc)
    return echo


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


def dataset_to_csv(dataset: "Dataset", manifest_name: str = "manifest.json") -> str:
    lines = [f"# manifest: {manifest_name}", ",".join(dataset.columns)]
    width = len(dataset.columns)
    for row in dataset.rows:
        if len(row) != width:
            raise ValueError(f"{dataset.name}: row width {len(row)} != {width} columns")
        lines.append(",".join(format_value(v) for v in row))
    return "\n".join(lines) + "\n"


def write_datasets(
    datasets: "list[Dataset]",
    out_dir,
    config_echo: dict,
    manifest_name: str = "manifest.json",
) -> list[Path]:
    """Write one CSV per dataset plus the manifest they reference, which
    counts each dataset's rows outside the trusted domain, and those of
    them with a key."""
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
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime()),
        "warnings": [_DOMAIN_WARNING] if any(ds.rows_out_of_domain for ds in datasets) else [],
        "rows_out_of_domain": {ds.name: ds.rows_out_of_domain for ds in datasets},
        "key_rows_out_of_domain": {ds.name: ds.key_rows_out_of_domain for ds in datasets},
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
    for key, (_, help_text) in _SCENARIO_KEYS.items():
        p.add_argument("--" + key.replace("_", "-"), dest=key, help=help_text)


def _resolve_spec(args, base: ProtocolConfig = DEFAULT_CONFIG) -> ProtocolConfig:
    """base updated by the scenario file, if any, and then by the protocol
    flags given."""
    given = {key: getattr(args, key) for key in _SCENARIO_KEYS if getattr(args, key) is not None}
    return _with_keys(load_scenario_file(args.scenario, base) if args.scenario else base, given)


def _jsonable(x):
    """x with every non-finite float, also inside dicts, as None; json
    would emit bare Infinity or NaN otherwise."""
    if isinstance(x, dict):
        return {key: _jsonable(val) for key, val in x.items()}
    if isinstance(x, float) and not math.isfinite(x):
        return None
    return x


def _report(cfg: ProtocolConfig, fields: dict, reported: ProtocolConfig) -> None:
    """Print the JSON report of cfg: the tool version, its echo, fields,
    and the domain warning judged at the reported point."""
    payload = {
        "tool_version": __version__,
        "config": _spec_echo(cfg),
        **fields,
        "warnings": [_DOMAIN_WARNING] if reported.warn_domain else [],
    }
    print(json.dumps(_jsonable(payload), indent=2, allow_nan=False))


def _cmd_keyrate(args) -> int:
    cfg = _resolve_spec(args)
    ev = evaluate_protocol(cfg)
    fields = {
        **ev.result._asdict(),
        "attenuated_alpha_sq": ev.attenuated_alpha_sq,
        "channel": ev.channel._asdict(),
    }
    _report(cfg, fields, cfg)
    return 0 if ev.result.physical else 2


def _cmd_optimize(args) -> int:
    from .optimize import V_HI, V_LO, OptimizationGrid, best_rate, max_distance, optimize_t
    from .optimize import optimize_tv

    mode = args.optimize
    # t is the optimized variable, so an unset zpc_t means "on"
    base = DEFAULT_CONFIG._replace(zpc=1.0) if mode == "t" else DEFAULT_CONFIG
    cfg = _resolve_spec(args, base)
    grid = OptimizationGrid._make(getattr(args, name) for name in OptimizationGrid._fields)
    # the V box is a constant, echoed between t_steps and v_steps
    echo = {"t_steps": grid.t_steps, "v_lo": V_LO, "v_hi": V_HI, **grid._asdict()}
    fields = {"mode": mode, "grid": echo}
    if mode == "t":
        t_star, best = optimize_t(cfg, grid)
        no_key = not (best.physical and best.skr > 0.0)
        fields.update(t_star=t_star, skr_star=best.skr, no_key=no_key)
        reported = cfg.at_t(t_star)
    elif mode == "tv":
        v_star, (t_star, best) = optimize_tv(cfg, grid)
        no_key = not (best.physical and best.skr > 0.0)
        fields.update(t_star=t_star, v_star=v_star, skr_star=best.skr, no_key=no_key)
        reported = cfg.at_t(t_star)._replace(variance_v=v_star)
    else:
        reach = max_distance(cfg, grid)
        fields.update(max_distance_km=reach, no_key=reach == 0.0)
        # the search optimized T at every length, so judge the reach at its T*
        reached = cfg._replace(geometry=cfg.geometry.scaled(reach))
        reported = reached.at_t(best_rate(reached, grid)[0])
    _report(cfg, fields, reported)
    return 0


def _cmd_figure(args) -> int:
    from .scenarios import FIGURES, run_figure

    # --steps sets every step key of the figure
    steps = {} if args.steps is None else dict.fromkeys(FIGURES[args.figure_id][2], args.steps)
    datasets = run_figure(args.figure_id, **steps)
    echo = {"figure": args.figure_id, **steps}
    try:
        # one manifest per figure so several runs can share a directory
        paths = write_datasets(datasets, args.out, echo, f"{args.figure_id}_manifest.json")
    except OSError as exc:
        raise ValueError(f"cannot write to {args.out}: {exc}") from exc
    for p in paths:
        print(p)
    return 0


def _optimize_flags(p: argparse.ArgumentParser) -> None:
    from .optimize import T_LO, V_HI, V_LO, OptimizationGrid

    _add_protocol_flags(p)
    helps = {
        "t_steps": f"T scan points over ({T_LO:g}, 1]",
        "v_steps": f"V scan points over [{V_LO:g}, {V_HI:g}]",
        "refine_iters": "golden-section steps",
    }
    for name, default in OptimizationGrid()._asdict().items():
        p.add_argument("--" + name.replace("_", "-"), type=int, default=default, help=helps[name])
    p.add_argument("--optimize", required=True, choices=("t", "tv", "distance"))


def _figure_flags(p: argparse.ArgumentParser) -> None:
    from .scenarios import FIGURE_IDS

    p.add_argument("figure_id", choices=FIGURE_IDS)
    p.add_argument("--out", default=".", help="output directory (default .)")
    p.add_argument("--steps", type=int, help="points along the primary axis")


# Subcommands -> (help, the function adding their flags, the function running them).
_COMMANDS = {
    "keyrate": ("evaluate one configuration, print JSON", _add_protocol_flags, _cmd_keyrate),
    "optimize": ("optimize t, (t, v), or reachable distance", _optimize_flags, _cmd_optimize),
    "figure": ("write a figure's datasets as CSV + manifest", _figure_flags, _cmd_figure),
}


def build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser for argv.  Only the subcommand argv starts with gets its
    flags, since adding them imports the layers it runs; top-level help,
    --version and errors need none."""
    parser = _Parser(prog="mdicvqkd", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (help_text, add_flags, run) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name in argv[:1]:
            add_flags(p)
        p.set_defaults(func=run, subparser=p)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv)
    args, unknown = parser.parse_known_args(argv)
    if unknown:
        # a subcommand given first reports them, with the usage of its flags
        (args.subparser if argv[0] == args.command else parser).error(
            f"unrecognized arguments: {' '.join(unknown)}"
        )
    try:
        return args.func(args)
    except ValueError as exc:
        args.subparser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
