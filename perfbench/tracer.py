"""Span tracer that wraps tempcert's public functions from outside the package.

`Tracer.install` replaces each function in `SPANNED` (and `Observable.__init__`)
with a wrapper, in every tempcert module that holds the original by name, so
calls made through `from .x import f` bindings are seen too. `uninstall` puts
the originals back. Spans (name, start, end, parent, op id) are kept in
memory; self time is a span's duration minus the time its direct children
cover. Counters that only the caller can see (seesaw sweeps, refused rows,
bound checks held, bytes the CLI wrote) are read off return values at the same
boundaries.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import sys
import time
from collections import Counter

from tempcert import scenario
from tempcert.inequality import QUANTUM_BOUND

#: (module, attribute) of every function that gets a span. The span name is
#: the module's short name and the attribute, except for `correlations`,
#: whose span name carries the mode ("seqcorr.correlations.exact-sum").
SPANNED = (
    ("tempcert.linalg", "eig_hermitian"),
    ("tempcert.linalg", "op_norm"),
    ("tempcert.linalg", "inv_sqrt_psd"),
    ("tempcert.linalg", "expi_hermitian"),
    ("tempcert.scenario", "project_involution"),
    ("tempcert.scenario", "purify_scenario"),
    ("tempcert.scenario", "save_scenario"),
    ("tempcert.scenario", "load_scenario"),
    ("tempcert.seqcorr", "correlations"),
    ("tempcert.inequality", "eval_IT"),
    ("tempcert.optimize", "seesaw"),
    ("tempcert.optimize", "optimal_state"),
    ("tempcert.optimize", "optimal_observable"),
    ("tempcert.optimize", "coefficient_operator"),
    ("tempcert.optimize", "expression_value"),
    ("tempcert.certify", "certify"),
    ("tempcert.certify", "build_subspace"),
    ("tempcert.certify", "algebra_residuals"),
    ("tempcert.certify", "align"),
    ("tempcert.robustness", "sweep"),
    ("tempcert.robustness", "apply_noise"),
    ("tempcert.robustness", "check_robustness_bounds"),
    ("tempcert.cli", "main"),
)

#: Functions counted but not timed: a span would cost more than the call.
COUNTED = (("tempcert.linalg", "as_matrix"),)

OBSERVABLE_SPAN = "scenario.Observable"

#: Every span name, in report order.
SPAN_NAMES = tuple(
    [f"{m.rsplit('.', 1)[1]}.{a}" for m, a in SPANNED if a != "correlations"]
    + [f"seqcorr.correlations.{mode}" for mode in ("analytic", "exact-sum", "sampled")]
    + [OBSERVABLE_SPAN]
)
COUNT_NAMES = tuple(f"{m.rsplit('.', 1)[1]}.{a}" for m, a in COUNTED)
LAYERS = ("linalg", "scenario", "seqcorr", "inequality", "optimize", "certify",
          "robustness", "cli")

#: A seed counts as a hit when its final value is within this of the bound.
HIT_TOL = 1e-8


def _correlations_name(args, kwargs) -> str:
    mode = args[1] if len(args) > 1 else kwargs.get("mode", "analytic")
    return f"seqcorr.correlations.{mode}"


def _tempcert_modules():
    return [m for n, m in sorted(sys.modules.items())
            if n == "tempcert" or n.startswith("tempcert.")]


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start_ns, end_ns, parent index, op id]
        self.calls = Counter()
        self.self_ns = Counter()
        self.counters = Counter()
        self.op = -1
        self._stack = []         # [span index, ns covered by children]
        self._patched = []       # (owner, attribute, original)

    # -- wrappers ---------------------------------------------------------

    def _spanned(self, fn, name_of, observe=None):
        spans, stack, calls, self_ns = self.spans, self._stack, self.calls, self.self_ns
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = name_of(args, kwargs)
            index = len(spans)
            parent = stack[-1][0] if stack else -1
            frame = [index, 0]
            spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                calls[name] += 1
                self_ns[name] += duration - frame[1]
                spans[index] = (name, start, end, parent, self.op)
            if observe is not None:
                observe(self.counters, args, result)
            return result

        return wrapper

    def _counted(self, fn, name):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------

    def _rebind(self, module_name, attr, wrapped_of):
        original = getattr(sys.modules[module_name], attr)
        wrapped = wrapped_of(original)
        for module in _tempcert_modules():
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
                    self._patched.append((module, key, original))

    def install(self):
        for module_name, attr in SPANNED:
            short = module_name.rsplit(".", 1)[1]
            if attr == "correlations":
                name_of = _correlations_name
            else:
                fixed = f"{short}.{attr}"
                name_of = lambda args, kwargs, fixed=fixed: fixed
            observe = _OBSERVERS.get(f"{short}.{attr}")
            self._rebind(module_name, attr,
                         lambda fn, n=name_of, o=observe: self._spanned(fn, n, o))
        for module_name, attr in COUNTED:
            name = f"{module_name.rsplit('.', 1)[1]}.{attr}"
            self._rebind(module_name, attr, lambda fn, name=name: self._counted(fn, name))
        init = scenario.Observable.__dict__["__init__"]
        scenario.Observable.__init__ = self._spanned(init, lambda a, k: OBSERVABLE_SPAN)
        self._patched.append((scenario.Observable, "__init__", init))

    def uninstall(self):
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)

    def restored(self) -> bool:
        """True when every rebound name is the original object again."""
        return all(getattr(owner, key) is original for owner, key, original in self._patched)

    # -- results ----------------------------------------------------------

    def per_op(self, ops: int, time_scale: float = 1.0) -> dict:
        """Per-op calls and self milliseconds (times `time_scale`), layer
        totals and counters."""
        ms = time_scale / 1e6 / ops
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = self.calls[name] / ops
            out[f"{name}.self_ms"] = self.self_ns[name] * ms
        for name in COUNT_NAMES:
            out[f"{name}.calls"] = self.calls[name] / ops
        for layer in LAYERS:
            ns = sum(v for k, v in self.self_ns.items() if k.split(".", 1)[0] == layer)
            out[f"{layer}.self_ms"] = ns * ms
        c = self.counters
        out["optimize.sweeps"] = c["sweeps"] / ops
        out["optimize.degenerate_steps"] = c["degenerate_steps"] / ops
        out["optimize.hit_ratio"] = c["hits"] / c["seeds"] if c["seeds"] else 0.0
        out["certify.refused_ratio"] = c["refused_rows"] / c["rows"] if c["rows"] else 0.0
        out["robustness.bounds_held_ratio"] = (
            c["bounds_held"] / c["bound_checks"] if c["bound_checks"] else 0.0)
        out["cli.bytes_written"] = c["bytes_written"] / ops
        return out

    def write_spans(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(["name", "start_ns", "end_ns", "parent", "op"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# -- counters read off return values ----------------------------------------

def _observe_seesaw(counters, args, result):
    _, traces = result
    counters["seeds"] += len(traces)
    counters["sweeps"] += sum(len(t.values) for t in traces)
    counters["degenerate_steps"] += sum(t.degenerate_steps for t in traces)
    counters["hits"] += sum(1 for t in traces if t.best_value >= QUANTUM_BOUND - HIT_TOL)


def _observe_sweep(counters, args, rows):
    counters["rows"] += len(rows)
    counters["refused_rows"] += sum(1 for r in rows if r.failed)


def _observe_bounds(counters, args, checks):
    counters["bound_checks"] += len(checks)
    counters["bounds_held"] += sum(1 for c in checks if c.holds)


def _observe_cli(counters, args, code):
    argv = list(args[0]) if args else []
    for flag in ("--out", "--trace", "--report"):
        if flag in argv[:-1]:
            path = argv[argv.index(flag) + 1]
            if os.path.exists(path):
                counters["bytes_written"] += os.path.getsize(path)


_OBSERVERS = {
    "optimize.seesaw": _observe_seesaw,
    "robustness.sweep": _observe_sweep,
    "robustness.check_robustness_bounds": _observe_bounds,
    "cli.main": _observe_cli,
}
