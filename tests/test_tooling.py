"""The benchmark tracer wraps tempcert functions by (module, attribute) name.
A name that no longer resolves would leave its per-layer metric at zero
without any error, so each one is checked here."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = load_tracer()
    names = tracer.SPANNED + tracer.COUNTED
    assert len(names) >= 20
    missing = [(module, attribute) for module, attribute in names
               if not callable(getattr(importlib.import_module(module), attribute, None))]
    assert missing == []


def test_observable_span_names_a_class():
    tracer = load_tracer()
    module, attribute = tracer.OBSERVABLE_SPAN.split(".")
    assert isinstance(getattr(importlib.import_module(f"tempcert.{module}"), attribute), type)


WORKLOADS = TRACER.parent / "workloads.py"


def run_smoke(name, tmp_path):
    """Eight ops of a benchmark workload pass its own check, and their
    fingerprints repeat on a second run, so a change that breaks the
    benchmark's check fails here first."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    runs = []
    for _ in range(2):
        w = workloads.WORKLOADS[name](1, str(tmp_path))
        w.setup()
        outs = [w.op(i) for i in range(8)]
        assert [w.check(out) for out in outs] == [None] * 8
        runs.append([w.fingerprint(out) for out in outs])
    assert runs[0] == runs[1]


def test_certify_sweep_workload_smoke(tmp_path):
    run_smoke("certify-sweep", tmp_path)


def test_correlators_workload_smoke(tmp_path):
    # its ops, not its setup, take the scenarios' first involution-residual
    # reads and form their products
    run_smoke("correlators-d4", tmp_path)


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("0*.py")))
def test_demo_runs_cleanly(demo, tmp_path):
    """Each demo, run as a script from an empty directory, exits 0 and writes
    nothing to stderr: the demos call the public API and no other test runs
    them."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
