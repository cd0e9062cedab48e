"""Command-line surface: evaluate, classical-bound, optimize, certify,
simulate, sweep.

Human-readable summaries go to stdout; machine-readable artifacts go to
files. Exit codes: 0 success, 2 parse/usage errors, 3 numeric degeneracy,
4 I/O errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .errors import ParseError, TempcertError
from .inequality import classical_bound, eval_INC, eval_IT
from .optimize import SeesawConfig, seesaw
from .robustness import (
    Depolarizing,
    ObservableTilt,
    UnitaryJitter,
    sweep,
    sweep_csv,
    sweep_report,
)
from .scenario import atomic_write_text, canonical_scenario, load_scenario, save_scenario
from .seqcorr import CORRELATOR_FIELDS, TERMS, correlations
from .certify import certify

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def _fmt(x: float) -> str:
    """x to 12 decimals; a value that rounds to zero prints unsigned."""
    return f"{round(x, 12) + 0.0:.12f}"


def _parse_grid(spec: str):
    """Grid spec: comma-separated values, or start:stop:count[:log|lin]."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) not in (3, 4):
            raise ParseError(f"grid spec {spec!r}: expected start:stop:count[:log|lin]")
        try:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ParseError(f"grid spec {spec!r}: {exc}") from exc
        if not np.isfinite([start, stop]).all():
            raise ParseError(f"grid spec {spec!r}: endpoints must be finite")
        scale = parts[3] if len(parts) == 4 else "log"
        if count < 1:
            raise ParseError(f"grid spec {spec!r}: count must be >= 1")
        if scale == "log":
            if start <= 0 or stop <= 0:
                raise ParseError(f"grid spec {spec!r}: log scale needs positive endpoints")
            return list(np.geomspace(start, stop, count))
        if scale == "lin":
            return list(np.linspace(start, stop, count))
        raise ParseError(f"grid spec {spec!r}: unknown scale {scale!r}")
    try:
        grid = [float(x) for x in spec.split(",") if x.strip()]
    except ValueError as exc:
        raise ParseError(f"grid spec {spec!r}: {exc}") from exc
    if not grid or not np.isfinite(grid).all():
        raise ParseError(f"grid spec {spec!r}: needs one or more finite values")
    return grid


def cmd_evaluate(args) -> int:
    s = load_scenario(args.scenario)
    corr = correlations(s, "analytic")
    it = eval_IT(corr)
    inc, compat = eval_INC(s)
    for name in CORRELATOR_FIELDS:
        print(f"{name:<11} = {_fmt(getattr(corr, name))}")
    print(f"I_T         = {_fmt(it.value)}   (classical bound {it.classical_bound:g}, "
          f"quantum bound {it.quantum_bound:g})")
    print(f"epsilon     = {_fmt(it.deficit)}")
    print(f"I_NC        = {_fmt(inc)}")
    status = "compatible" if compat.compatible else "FLAG: non-physical (contexts do not commute)"
    print(f"compatibility: {status}; max commutator norm = {compat.max_norm:.3e}")
    if args.out:
        doc = {
            "correlators": corr.as_dict(),
            "I_T": it.value,
            "epsilon": it.deficit,
            "I_NC": inc,
            "compatible": compat.compatible,
            "commutator_norms": {f"A{i}A{j}": v for (i, j), v in compat.commutator_norms.items()},
        }
        atomic_write_text(args.out, json.dumps(doc, indent=1) + "\n")
    return EXIT_OK


def cmd_classical_bound(args) -> int:
    bound, argmax = classical_bound()
    print(bound)
    print(f"maximizers: {len(argmax)}")
    for a in argmax:
        print(" ".join(f"{x:+d}" for x in a))
    return EXIT_OK


def cmd_optimize(args) -> int:
    try:
        config = SeesawConfig(dim=args.dim, max_sweeps=args.max_sweeps, tol=args.tol,
                              seeds=args.seeds, rng_seed=args.seed)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    best, traces = seesaw(config)
    print(f"best value  = {_fmt(best.best_value)}   (seed {best.seed_index}, "
          f"{len(best.values)} sweeps, converged={best.converged})")
    hits = sum(1 for t in traces if t.best_value >= best.best_value - 1e-8)
    print(f"seeds at best value: {hits}/{len(traces)}")
    if args.out:
        save_scenario(best.scenario, args.out)
        print(f"scenario written to {args.out}")
    if args.trace:
        doc = {
            "best_seed": best.seed_index,
            "traces": [
                {"seed": t.seed_index, "values": t.values, "converged": t.converged,
                 "degenerate_steps": t.degenerate_steps}
                for t in traces
            ],
        }
        atomic_write_text(args.trace, json.dumps(doc) + "\n")
        print(f"trace written to {args.trace}")
    return EXIT_OK


def cmd_certify(args) -> int:
    s = load_scenario(args.scenario)
    report = certify(s)
    print(f"I_T         = {_fmt(report.violation.value)}")
    print(f"epsilon     = {_fmt(report.violation.deficit)}")
    print(f"fidelity    = {_fmt(report.fidelity)}")
    print(f"witness     = {_fmt(report.fidelity_witness)}")
    print(f"lower bound = {_fmt(report.fidelity_lower_bound)}")
    print(f"max commutator residual     = {max(report.commutator_residuals.values()):.3e}")
    print(f"max anticommutator residual = {max(report.anticommutator_residuals.values()):.3e}")
    print(f"max constraint residual     = {max(report.constraint_residuals.values()):.3e}")
    print(f"max leakage                 = {max(report.leakage):.3e}")
    print(f"max operator distance       = {report.max_operator_distance:.3e}")
    print(f"signs (pre-fix)             = {report.sign3:+.0f}, {report.sign6:+.0f}")
    if args.out:
        report.save(args.out)
        print(f"report written to {args.out}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    s = load_scenario(args.scenario)
    try:
        sampled = correlations(s, "sampled", shots=args.shots, rng_seed=args.seed)
    except ValueError as exc:  # --shots or --seed out of range
        raise ParseError(str(exc)) from exc
    exact = correlations(s, "analytic")
    for name in CORRELATOR_FIELDS:
        est = getattr(sampled, name)
        se = sampled.stderr[name]
        print(f"{name:<11} = {_fmt(est)} +- {se:.2e}   (exact {_fmt(getattr(exact, name))})")
    it = eval_IT(sampled)
    combined = float(np.sqrt(sum((abs(weight) * sampled.stderr[name]) ** 2
                                 for name, _, weight in TERMS)))
    print(f"I_T         = {_fmt(it.value)} +- {combined:.2e}   "
          f"(exact {_fmt(eval_IT(exact).value)})")
    return EXIT_OK


def cmd_sweep(args) -> int:
    base = load_scenario(args.scenario) if args.scenario else canonical_scenario()
    grid = _parse_grid(args.grid)
    family = {
        "depolarizing": Depolarizing,
        "tilt": lambda angle: ObservableTilt(args.slot, angle),
        "jitter": lambda strength: UnitaryJitter(strength, rng_seed=args.seed),
    }[args.model]
    try:
        models = {param: family(param) for param in grid}
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    for path in filter(None, (args.out, args.report)):  # refuse before the first row, not the last
        if os.path.isdir(path):
            raise IsADirectoryError(f"{path!r} is a directory")
        tempfile.TemporaryFile(dir=os.path.dirname(os.path.abspath(path))).close()
    rows = sweep(base, models.__getitem__, grid)
    atomic_write_text(args.out, sweep_csv(rows))
    print(f"{len(rows)} rows written to {args.out}")
    failed = [r for r in rows if r.failed]
    if failed:
        print(f"{len(failed)} row(s) failed:")
        for r in failed:
            print(f"  param={r.param:g}: {r.error}")
    if args.report:
        atomic_write_text(args.report, json.dumps(sweep_report(rows), indent=1) + "\n")
        print(f"bound detail written to {args.report}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; each parse_args call gets a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="tempcert",
        description="Evaluate, optimize, and certify realizations of the "
                    "sequential-measurement temporal inequality.",
        epilog="Exit codes: 0 success, 2 parse/usage error, "
               "3 numeric degeneracy, 4 I/O error.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evaluate", help="correlators, I_T, and I_NC of a scenario file")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--out", help="write a JSON report here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("classical-bound",
                       help="enumerate deterministic assignments; prints the bound")
    p.set_defaults(func=cmd_classical_bound)

    p = sub.add_parser("optimize", help="seesaw maximization from random starts")
    p.add_argument("--dim", type=int, default=4)
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--seed", type=int, default=0, help="master RNG seed")
    p.add_argument("--max-sweeps", type=int, default=200)
    p.add_argument("--tol", type=float, default=1e-13, help="sweep-improvement stop threshold")
    p.add_argument("--out", help="write the best scenario here")
    p.add_argument("--trace", help="write per-seed value traces here (JSON)")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("certify", help="self-testing extraction report")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", help="write the certification report here (JSON)")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("simulate", help="finite-shot sampled correlators")
    p.add_argument("--scenario", required=True)
    p.add_argument("--shots", type=int, default=10**6)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="noise sweep with certification and bound checks")
    p.add_argument("--scenario", help="base scenario (default: canonical realization)")
    p.add_argument("--model", required=True, choices=["depolarizing", "tilt", "jitter"])
    p.add_argument("--grid", required=True,
                   help="comma list '1e-3,1e-2' or range 'start:stop:count[:log|lin]'")
    p.add_argument("--slot", type=int, default=5, help="tilted slot (tilt model)")
    p.add_argument("--seed", type=int, default=0, help="jitter RNG seed")
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--report", help="sidecar JSON with full bound detail")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except TempcertError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
