"""tempcert benchmark: three fixed-seed workloads, timed end to end and traced
per module.

    python3 perfbench/run.py --workload seesaw-d4 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1

With `--trace 0` each workload is measured as a closed loop (one caller, one
op at a time) for `--seconds`, and the end-to-end metrics are printed:
setup_s, ops_per_s, op_p50_ms and op_p90_ms, plus the error rate. With
`--trace 1` a fixed number of ops runs untraced and then traced, the two runs'
outputs must be bit-identical, and the per-module metrics are printed. Every
output is checked. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; each run also leaves a result file,
with the environment, under .perfbench/results/ for perfbench/compare.py.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

# The matrices are 4x4 to 64x64: one BLAS thread (at most nproc) keeps the
# timings steady and the results bit-identical between runs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
STATE_DIR = os.path.join(ROOT, ".perfbench")

#: Seed reserved for confirming a claimed gain; never used while tuning.
CONFIRM_SEED = 20230713

#: Fresh-process set-ups per run; setup_s is their median.
SETUP_SAMPLES = 5

#: Seconds one `Calibrator.sample` takes at the reference speed, the speed of
#: an uncontended core of a 2-vCPU KVM guest on an Intel Xeon (family 6,
#: model 207, 2.1 GHz) with Python 3.11 and numpy 2.4. Reported times are
#: scaled to this speed; the times as measured are kept beside them.
CAL_REF_S = 0.5e-3

#: Calibration time after each op, as a share of the op's time.
CAL_SHARE = 0.03

#: Calibration seconds just before and just after each set-up.
SETUP_CAL_S = 0.02

#: Per-layer metrics that are counts or ratios and must repeat exactly.
EXACT_SUFFIXES = (".calls", "optimize.sweeps", "optimize.degenerate_steps",
                  "optimize.hit_ratio", "certify.refused_ratio",
                  "robustness.bounds_held_ratio", "cli.bytes_written")

_SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import tempcert
sys.path.insert(0, {bench!r})
import workloads
w = workloads.WORKLOADS[{name!r}]({seed!r}, {workdir!r})
w.setup()
w.op(0)
elapsed = time.perf_counter() - t0
import run
print(elapsed, run.Calibrator().sample(run.SETUP_CAL_S))
"""


class Calibrator:
    """A fixed kernel timed next to every measurement.

    On a shared host the core's speed drifts by up to 2x over seconds to
    minutes. The kernel is made of the same kind of work as tempcert's (4x4
    eigh, spectral norm, matmul and kron under Python call overhead), so its
    time tracks the drift; a time measured beside it is scaled by
    CAL_REF_S / (kernel time) to the reference speed.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.Generator(np.random.PCG64(7))
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        self._np = np
        self._h = (g + g.conj().T) / 2
        self._eye = np.eye(4)

    def _kernel(self) -> float:
        np, h = self._np, self._h
        start = time.perf_counter()
        for _ in range(8):
            w, v = np.linalg.eigh(h)
            x = (v * np.sign(w)) @ v.conj().T
            np.linalg.norm(x @ x - self._eye, 2)
            np.kron(x[:2, :2], x[2:, 2:])
        return time.perf_counter() - start

    def sample(self, seconds: float = 0.0) -> float:
        """Kernel seconds: the faster of two runs (which drops one-off
        interrupts), repeated for at least `seconds`; the median is returned."""
        end = time.perf_counter() + seconds
        times = [min(self._kernel(), self._kernel())]
        while time.perf_counter() < end:
            times.append(min(self._kernel(), self._kernel()))
        return statistics.median(times)


# -- environment -------------------------------------------------------------

def _blas_threads() -> int:
    """OpenBLAS's own thread count when numpy bundles it, else the setting above."""
    import ctypes

    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_hash() -> str:
    """Hash of the package and benchmark sources: identifies the code measured."""
    h = hashlib.sha256()
    for pattern in (os.path.join(SRC, "tempcert", "*.py"), os.path.join(BENCH_DIR, "*.py")):
        for path in sorted(glob.glob(pattern)):
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "commit": _git_commit(),
        "source_sha256": source_hash(),
        "seed": seed,
        "confirm_seed": CONFIRM_SEED,
    }


# -- measurement -------------------------------------------------------------

def _setup_seconds(name: str, seed: int, workdir: str, cal: Calibrator) -> tuple:
    """Import tempcert, build the inputs and run one warm-up op in a fresh
    process; return (time at reference speed, time as measured)."""
    code = _SETUP_PROBE.format(src=SRC, bench=BENCH_DIR, name=name, seed=seed,
                               workdir=workdir)
    before = cal.sample(SETUP_CAL_S)
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                         text=True, timeout=150, check=True)
    raw, after = (float(x) for x in out.stdout.split()[-2:])
    return raw * CAL_REF_S / ((before + after) / 2), raw


def _run_op(w, i):
    try:
        return w.op(i), None
    except Exception as exc:  # an op that raises counts as failed; the run goes on
        return None, f"{type(exc).__name__}: {exc}"


def _ops(w, cal: Calibrator, seconds: float = None, count: int = None, tracer=None):
    """Closed loop, one op at a time, for `seconds` or for `count` ops.

    A calibration sample lasting CAL_SHARE of the op's time (at least one
    kernel pair) follows every op; each op's latency is scaled by the mean of
    the samples on either side. Returns (scaled latencies, measured
    latencies, outputs, wall seconds).
    """
    scaled, measured, outputs = [], [], []
    clock = time.perf_counter
    start = clock()
    previous = cal.sample()
    i = 0
    while (count is None or i < count) and (seconds is None or clock() - start < seconds):
        if tracer is not None:
            tracer.op = i
        t0 = clock()
        outputs.append(_run_op(w, i))
        t1 = clock()
        current = cal.sample(CAL_SHARE * (t1 - t0))
        measured.append(t1 - t0)
        scaled.append((t1 - t0) * CAL_REF_S / ((previous + current) / 2))
        previous = current
        i += 1
    return scaled, measured, outputs, clock() - start


def _failures(w, outputs) -> list:
    """Error message of every op that raised or whose output fails its check."""
    errors = []
    for i, (out, err) in enumerate(outputs):
        err = err or w.check(out)
        if err:
            errors.append(f"op {i}: {err}")
    return errors


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(name: str, seed: int, seconds: float, workdir: str) -> dict:
    import numpy as np
    import workloads

    w = workloads.WORKLOADS[name](seed, workdir)
    w.setup()
    _run_op(w, 0)
    cal = Calibrator()
    setups = [_setup_seconds(name, seed, workdir, cal) for _ in range(SETUP_SAMPLES)]
    scaled, measured, outputs, wall = _ops(w, cal, seconds=seconds)
    errors = _failures(w, outputs)
    n = len(scaled)
    setup_s = statistics.median(s for s, _ in setups)
    ops_per_s = n / sum(scaled)
    p50, p90 = np.percentile(np.array(scaled) * 1e3, [50, 90])
    raw50, raw90 = np.percentile(np.array(measured) * 1e3, [50, 90])
    lines = [
        f"setup_s = {setup_s:.4f} s (median of {SETUP_SAMPLES} fresh processes; "
        f"as measured: {', '.join(f'{raw:.4f}' for _, raw in setups)})",
        f"ops_per_s = {ops_per_s:.4f} 1/s ({n} ops; as measured "
        f"{n / sum(measured):.4f}, and {n / wall:.4f} over {wall:.3f} s of wall time "
        "with calibration)",
        f"op_p50_ms = {p50:.4f} ms (n={n}; as measured {raw50:.4f})",
        f"op_p90_ms = {p90:.4f} ms (n={n}, {n - int(np.ceil(0.9 * n))} beyond; "
        f"as measured {raw90:.4f})",
        f"error_rate = {len(errors) / n:.6g} ({len(errors)}/{n})",
    ]
    return {
        "attempted": n,
        "errors": errors,
        "faults": [],
        "lines": lines,
        "metrics": {
            "setup_s": _metric(setup_s, "s"),
            "ops_per_s": _metric(ops_per_s, "1/s"),
            "op_p50_ms": _metric(float(p50), "ms"),
            "op_p90_ms": _metric(float(p90), "ms"),
        },
        "measured": {"setup_s": [raw for _, raw in setups], "latency_s": measured,
                     "wall_s": wall},
    }


def _unit(metric: str) -> str:
    if metric.endswith("self_ms") or metric == "trace.op_ms":
        return "ms/op"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric == "cli.bytes_written":
        return "B/op"
    return "count/op"


def _check_counts_repeat(name: str, seed: int, counts: dict) -> list:
    """Compare exact counts with the first traced run of the same code and seed."""
    path = os.path.join(STATE_DIR, "counts", f"{name}-seed{seed}-{source_hash()}.json")
    if not os.path.exists(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(counts, fh, indent=1, sort_keys=True)
        return []
    with open(path, encoding="utf-8") as fh:
        first = json.load(fh)
    return [f"count {k} = {counts.get(k)!r} differs from {first[k]!r} in an earlier run"
            for k in sorted(first) if counts.get(k) != first[k]]


def per_layer(name: str, seed: int, workdir: str) -> dict:
    import tracer as tracing
    import workloads

    w = workloads.WORKLOADS[name](seed, workdir)
    w.setup()
    _run_op(w, 0)
    n = w.traced_ops
    cal = Calibrator()
    plain_scaled, _, plain, _ = _ops(w, cal, count=n)
    tr = tracing.Tracer()
    tr.install()
    try:
        traced_scaled, traced_measured, traced, _ = _ops(w, cal, count=n, tracer=tr)
    finally:
        tr.uninstall()
    faults = []
    if not tr.restored():
        faults.append("a traced function was not restored")
    errors = _failures(w, plain) + _failures(w, traced)
    mismatched = [i for i, (a, b) in enumerate(zip(plain, traced))
                  if a[1] != b[1] or (a[1] is None and w.fingerprint(a[0]) != w.fingerprint(b[0]))]
    if mismatched:
        faults.append(f"traced outputs differ from untraced ones at ops {mismatched[:10]}")
    tr.write_spans(os.path.join(STATE_DIR, "spans", f"{name}-seed{seed}.jsonl.gz"))

    values = tr.per_op(n, time_scale=sum(traced_scaled) / sum(traced_measured))
    values["trace.op_ms"] = sum(traced_scaled) * 1e3 / n
    values["trace.overhead_ratio"] = sum(traced_scaled) / sum(plain_scaled)
    counts = {k: v for k, v in values.items() if k.endswith(EXACT_SUFFIXES)}
    faults += _check_counts_repeat(name, seed, counts)

    op_ms = values["trace.op_ms"]
    shares = ", ".join(f"{layer} {100 * values[f'{layer}.self_ms'] / op_ms:.1f}%"
                       for layer in tracing.LAYERS)
    lines = [f"traced {n} ops: {op_ms:.4f} ms/op traced, "
             f"{sum(plain_scaled) * 1e3 / n:.4f} ms/op untraced; outputs bit-identical: "
             f"{not mismatched}; originals restored: {tr.restored()}",
             f"self-time share of traced op time: {shares}"]
    lines += [f"{k} = {v:.6g} {_unit(k)}" for k, v in values.items()]
    return {
        "attempted": 2 * n,
        "errors": errors,
        "faults": faults,
        "lines": lines,
        "metrics": {k: _metric(v, _unit(k)) for k, v in values.items()},
        "measured": {"traced_latency_s": traced_measured},
    }


# -- entry point ---------------------------------------------------------------

def _save(result: dict) -> None:
    directory = os.path.join(STATE_DIR, "results")
    os.makedirs(directory, exist_ok=True)
    stem = f"{result['workload']}-seed{result['seed']}-trace{result['trace']}-{time.time_ns()}"
    with open(os.path.join(directory, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(SRC, "tempcert", "__init__.py")):
        print(f"error: no tempcert sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = environment(args.seed)
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    workdir = os.path.join(STATE_DIR, "work")
    os.makedirs(workdir, exist_ok=True)

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        started = time.time()
        if args.trace:
            r = per_layer(name, args.seed, workdir)
        else:
            r = end_to_end(name, args.seed, args.seconds, workdir)
        for line in r["lines"]:
            print(f"{name}: {line}")
        for msg in r["errors"] + [f"BENCHMARK FAULT: {f}" for f in r["faults"]]:
            print(f"{name}: {msg}", file=sys.stderr)
        correct = not r["errors"] and not r["faults"]
        _save({"workload": name, "seed": args.seed, "trace": args.trace,
               "seconds": args.seconds, "started": started, "env": env,
               "correct": correct, "attempted": r["attempted"], "failed": len(r["errors"]),
               "errors": r["errors"], "faults": r["faults"], "metrics": r["metrics"],
               "measured": r["measured"]})
        summary["correct"] = summary["correct"] and correct
        summary["attempted"] += r["attempted"]
        summary["failed"] += len(r["errors"])
        prefix = "" if len(names) == 1 else f"{name}."
        summary["metrics"].update({prefix + k: v for k, v in r["metrics"].items()})
    for leftover in glob.glob(os.path.join(workdir, "*")):
        os.unlink(leftover)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
