"""Span recorder wrapped around the mdicvqkd module boundaries.

Tracing never edits the package: it replaces, in each calling module,
the name that module looks up (``mdicvqkd.keyrate.correlation_z``,
``mdicvqkd.optimize.secret_key_rate``, ...) with a wrapper that records
one span per call: span id, parent span id, operation id, layer name,
start and end in nanoseconds.  Spans stay in memory as a flat integer
array and are written to a file only by ``Tracer.finish``, after the
timed work has ended.

A name missing from the package (renamed or deleted by a later change)
is skipped and listed in the summary, so its layer reads zero calls
instead of crashing the benchmark.
"""

import array
import gzip
import itertools
import json
import time
from importlib import import_module

# (module whose global is replaced, attribute, layer.function span name)
BOUNDARIES = (
    ("mdicvqkd.keyrate", "correlation_z", "modulation.correlation_z"),
    ("mdicvqkd.scenarios", "correlation_z", "modulation.correlation_z"),
    ("mdicvqkd.modulation", "_poisson_residue_sums", "modulation.poisson_residue_sums"),
    ("mdicvqkd.keyrate", "apply_zpc", "zpc.apply_zpc"),
    ("mdicvqkd.keyrate", "equivalent_channel", "channel.equivalent_channel"),
    (
        "mdicvqkd.scenarios",
        "equivalent_excess_noise_curve",
        "channel.equivalent_excess_noise_curve",
    ),
    ("mdicvqkd.keyrate", "evaluate_protocol", "keyrate.evaluate_protocol"),
    ("mdicvqkd.cli_io", "evaluate_protocol", "keyrate.evaluate_protocol"),
    ("mdicvqkd.optimize", "secret_key_rate", "keyrate.secret_key_rate"),
    ("mdicvqkd.scenarios", "secret_key_rate", "keyrate.secret_key_rate"),
    ("mdicvqkd.optimize", "optimize_t", "optimize.optimize_t"),
    ("mdicvqkd.cli_io", "optimize_t", "optimize.optimize_t"),
    ("mdicvqkd.optimize", "best_rate", "optimize.best_rate"),
    ("mdicvqkd.scenarios", "best_rate", "optimize.best_rate"),
    ("mdicvqkd.cli_io", "optimize_tv", "optimize.optimize_tv"),
    ("mdicvqkd.cli_io", "max_distance", "optimize.max_distance"),
    ("mdicvqkd.scenarios", "run_figure", "scenarios.run_figure"),
    ("mdicvqkd.cli_io", "run_figure", "scenarios.run_figure"),
    ("mdicvqkd.cli_io", "write_datasets", "cli_io.write_datasets"),
    ("mdicvqkd.cli_io", "main", "cli_io.main"),
)
CONFIG_INIT = "keyrate.config_init"

# Every span name, in report order; per-layer metrics are derived from these.
SPAN_NAMES = tuple(dict.fromkeys([b[2] for b in BOUNDARIES] + [CONFIG_INIT]))

_FIELDS = 6  # id, parent, op, name index, start_ns, end_ns


class Tracer:
    """Records nested spans for one process; install once, finish once."""

    def __init__(self):
        self.spans = array.array("q")
        self.op = 0
        self.missing = []
        self.z_calls = 0
        self.z_discrete = 0
        self.z_args = set()
        self.nonphysical = 0
        self._stack = [0]
        self._ids = itertools.count(1)

    def _wrap(self, name, fn, observe=None):
        name_idx = SPAN_NAMES.index(name)
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.extend((sid, parent, tracer.op, name_idx, start, end))
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _observe_z(self, args, _result):
        scheme, alpha_sq = args[0], args[1]
        self.z_calls += 1
        if getattr(scheme, "value", scheme) != "gaussian":
            self.z_discrete += 1
        self.z_args.add((scheme, alpha_sq))

    def _observe_eval(self, _args, evaluation):
        if not evaluation.result.physical:
            self.nonphysical += 1

    def install(self):
        """Replace every boundary name in the imported package."""
        observers = {
            "modulation.correlation_z": self._observe_z,
            "keyrate.evaluate_protocol": self._observe_eval,
        }
        for module_name, attr, name in BOUNDARIES:
            module = import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(name, fn, observers.get(name)))
        config_cls = getattr(import_module("mdicvqkd.keyrate"), "ProtocolConfig", None)
        post_init = getattr(config_cls, "__post_init__", None)
        if post_init is None:
            self.missing.append("mdicvqkd.keyrate.ProtocolConfig.__post_init__")
        else:
            config_cls.__post_init__ = self._wrap(CONFIG_INIT, post_init)

    def summary(self) -> dict:
        """Per-name calls and self time plus the counts behind the ratios.

        Self time is a span's duration minus its direct children's.  The
        values are sums, so the summaries of several processes add up.
        """
        s = self.spans
        n = len(s) // _FIELDS
        parent_of, name_of, dur_of = {}, {}, {}
        child_ns = {}
        for i in range(0, n * _FIELDS, _FIELDS):
            sid, parent, _op, name_idx, start, end = s[i : i + _FIELDS]
            parent_of[sid] = parent
            name_of[sid] = name_idx
            dur_of[sid] = end - start
            child_ns[parent] = child_ns.get(parent, 0) + end - start
        calls = dict.fromkeys(SPAN_NAMES, 0)
        self_ns = dict.fromkeys(SPAN_NAMES, 0)
        for sid, name_idx in name_of.items():
            name = SPAN_NAMES[name_idx]
            calls[name] += 1
            self_ns[name] += dur_of[sid] - child_ns.get(sid, 0)

        opt_t = SPAN_NAMES.index("optimize.optimize_t")
        evaluate = SPAN_NAMES.index("keyrate.evaluate_protocol")
        under = {0: False}

        def under_optimize_t(sid):
            # walk up to the first ancestor whose answer is known
            path = []
            while sid not in under:
                path.append(sid)
                sid = parent_of.get(sid, 0)
            known = under[sid]
            for p in reversed(path):
                known = known or name_of.get(p) == opt_t
                under[p] = known
            return known

        evals_in_opt_t = sum(
            1
            for sid, name_idx in name_of.items()
            if name_idx == evaluate and under_optimize_t(parent_of[sid])
        )
        return {
            "calls": calls,
            "self_ns": self_ns,
            "z_calls": self.z_calls,
            "z_discrete": self.z_discrete,
            "z_distinct": len(self.z_args),
            "nonphysical": self.nonphysical,
            "evals_in_optimize_t": evals_in_opt_t,
            "missing": self.missing,
        }

    def finish(self, path, extra=None) -> dict:
        """Summarize, then write the spans as gzip CSV and the summary as JSON."""
        summary = self.summary()
        summary.update(extra or {})
        s = self.spans
        with gzip.open(f"{path}.csv.gz", "wt", compresslevel=1, encoding="ascii") as f:
            f.write("id,parent,op,name,start_ns,end_ns\n")
            for i in range(0, len(s), _FIELDS):
                sid, parent, op, name_idx, start, end = s[i : i + _FIELDS]
                f.write(f"{sid},{parent},{op},{SPAN_NAMES[name_idx]},{start},{end}\n")
        with open(f"{path}.json", "w", encoding="utf-8") as f:
            json.dump(summary, f)
        return summary


_COUNTS = ("z_calls", "z_discrete", "z_distinct", "nonphysical", "evals_in_optimize_t")


def merge(summaries: list[dict]) -> dict:
    """Add up the summaries of several traced processes."""
    total = dict.fromkeys(_COUNTS, 0)
    total.update(calls=dict.fromkeys(SPAN_NAMES, 0), self_ns=dict.fromkeys(SPAN_NAMES, 0))
    total["missing"] = []
    for s in summaries:
        for key in _COUNTS:
            total[key] += s[key]
        for key in ("calls", "self_ns"):
            for name, v in s[key].items():
                total[key][name] += v
        total["missing"] = sorted(set(total["missing"]) | set(s["missing"]))
    return total
