"""The benchmark tracer wraps tempcert functions by (module, attribute) name.
A name that no longer resolves would leave its per-layer metric at zero
without any error, so each one is checked here."""

import ast
import hashlib
import importlib
import importlib.util
import json
import os
import re
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


def test_every_error_class_is_named_outside_errors():
    """Each warning and error class of tempcert.errors, the base class aside, is
    named in another tempcert module: a class that nothing raises, warns with
    or catches fails here instead of lingering in the public hierarchy."""
    from tempcert import errors

    classes = [name for name, obj in vars(errors).items()
               if isinstance(obj, type) and obj.__module__ == errors.__name__
               and obj is not errors.TempcertError]
    sources = "\n".join(path.read_text(encoding="utf-8")
                        for path in sorted((ROOT / "src" / "tempcert").glob("*.py"))
                        if path.name != "errors.py")
    assert len(classes) >= 10
    assert [name for name in classes if not re.search(rf"\b{name}\b", sources)] == []


def test_every_imported_name_is_used():
    """Each name a tempcert module imports is read in that module: with no
    linter installed, an import whose last use was deleted would stay. The
    package's __init__.py imports to re-export, and `from __future__` imports
    are directives, so neither counts."""
    unused = []
    for path in sorted((ROOT / "src" / "tempcert").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = [alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__" for alias in node.names]
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in imported if name not in read]
    assert unused == []


#: numpy names README's Modules table may cite.
NUMPY_NAMES = {"eigh"}


def modules_table_names():
    """The names in backticks in README's Modules table: dotted identifiers,
    and the function of a call such as `correlations(s, mode, shots, rng_seed)`."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = readme.split("\n## Modules\n", 1)[1].split("\n## ", 1)[0]
    spans = re.findall(r"`([^`]+)`", table)
    return [m[1] for m in (re.fullmatch(r"([A-Za-z_]\w*(?:\.\w+)*)(?:\(.*\))?", s) for s in spans)
            if m]


def test_every_name_in_the_modules_table_exists():
    """Each name of `modules_table_names` is a tempcert module, an attribute of
    one (a dotted name read on through attributes or, last, a dataclass
    field), a builtin, or one of NUMPY_NAMES: a name deleted from the package
    cannot stay in the docs."""
    import builtins
    import dataclasses
    import pkgutil

    import tempcert

    modules = [tempcert] + [importlib.import_module(f"tempcert.{m.name}")
                            for m in pkgutil.iter_modules(tempcert.__path__)]

    def exists(name):
        if name.startswith("tempcert."):
            return importlib.util.find_spec(name) is not None
        head, *rest = name.split(".")
        owners = [m for m in (*modules, builtins) if hasattr(m, head)]
        if not owners:
            return head in NUMPY_NAMES and not rest
        obj = getattr(owners[0], head)
        for i, part in enumerate(rest):
            if not hasattr(obj, part):
                return (i == len(rest) - 1 and dataclasses.is_dataclass(obj)
                        and part in {f.name for f in dataclasses.fields(obj)})
            obj = getattr(obj, part)
        return True

    names = modules_table_names()
    assert len(names) >= 80
    assert [name for name in dict.fromkeys(names) if not exists(name)] == []


def test_every_exported_name_is_in_the_modules_table():
    """Each name in `tempcert.__all__` that is not a module appears in README's
    Modules table, the reverse of the test above: a public name cannot go
    undocumented."""
    import types

    import tempcert

    names = modules_table_names()
    documented = set(names) | {name.split(".")[0] for name in names}
    exported = [name for name in tempcert.__all__
                if not isinstance(getattr(tempcert, name), types.ModuleType)]
    assert [name for name in exported if name not in documented] == []


WORKLOADS = TRACER.parent / "workloads.py"


#: SHA-256 of the repr of the eight fingerprints `run_smoke` computes at seed 1.
#: A change that moves one bit of a benchmarked output fails here. Like the
#: other golden hashes they hold the bits of the BLAS and LAPACK kernels
#: (numpy 2.4, OpenBLAS, one thread), which may differ per CPU.
WORKLOAD_FINGERPRINT_SHA256 = {
    "seesaw-d4": "a081006369548bae5c8bb26d57d6d35a6fba05489c43a01b86b6df413bef3d66",
    "correlators-d4": "75dfdda2dfdae0e4f5c9baff67032f656c1d0cfea4290127d9d7d0595de3a534",
    "certify-sweep": "f77b8b1aebb62ea85f75f70ca70e7a2561dd9c4b7932f01bf1175f3b4f3e878f",
}


def run_smoke(name, tmp_path):
    """Eight ops of a benchmark workload pass its own check, and their
    fingerprints repeat on a second run and match the recorded hash, so a
    change that breaks the benchmark's check or moves its outputs fails here
    first."""
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
    assert hashlib.sha256(repr(runs[0]).encode()).hexdigest() == WORKLOAD_FINGERPRINT_SHA256[name]


def test_seesaw_workload_smoke(tmp_path):
    # each op runs `optimize` through cli.main and reads its two files back
    run_smoke("seesaw-d4", tmp_path)


def test_certify_sweep_workload_smoke(tmp_path):
    run_smoke("certify-sweep", tmp_path)


def test_correlators_workload_smoke(tmp_path):
    # its ops, not its setup, form each scenario's state images A_k psi, A_j A_k psi
    run_smoke("correlators-d4", tmp_path)


#: SHA-256 of each demo's stdout. Every number a demo prints is fixed-seed,
#: so a change that moves one bit of what the demos show fails here. Like the
#: other golden hashes they hold the bits of the BLAS and LAPACK kernels
#: (numpy 2.4, OpenBLAS, one thread).
DEMO_STDOUT_SHA256 = {
    "01_canonical_violation.py":
        "61d6c86debf38171f511a234570e98a41c31f7ebf78ec576584a4a7f221b3854",
    "02_sequential_measurements.py":
        "95fbcd528974da940c267056024fa2957ef64504ddb07cdefe0578716793c35c",
    "03_seesaw_optimization.py":
        "9469c9089a1e59f32030f62a9617a10b8ed43f578883d89741b03bdcacfbe46f",
    "04_self_testing.py":
        "bddb0a4621f3e77efcaeb1e706885c9faa8c88405f4308f528d276822d9c0e1a",
    "05_noise_robustness.py":
        "7632ff05938aa885b5ff75500cbf59d91bfbd3165a9b859c65b6951a12510be2",
}


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("0*.py")))
def test_demo_runs_cleanly(demo, tmp_path):
    """Each demo, run as a script from an empty directory with one BLAS
    thread, exits 0, writes nothing to stderr and prints its recorded stdout:
    the demos call the public API and no other test runs them."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == DEMO_STDOUT_SHA256[demo]


def strict_json(text: str):
    """json.loads refusing NaN and Infinity, which RFC 8259 JSON has no
    number for and which Python's json module writes and reads by default."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_every_json_file_the_cli_writes_is_strict_json(tmp_path, capsys):
    from tempcert.cli import EXIT_OK, main
    from tempcert.scenario import canonical_scenario, save_scenario

    scenario = tmp_path / "canonical.json"
    save_scenario(canonical_scenario(), scenario)
    written = {name: tmp_path / f"{name}.json" for name in ("evaluate", "trace", "certify", "sweep")}
    for argv in (
        ["evaluate", "--scenario", str(scenario), "--out", str(written["evaluate"])],
        ["optimize", "--dim", "4", "--seeds", "2", "--max-sweeps", "5",
         "--trace", str(written["trace"])],
        ["certify", "--scenario", str(scenario), "--out", str(written["certify"])],
        # jitter 0.3 at seed 1 is a row certify refuses: no fidelity, no distance
        ["sweep", "--model", "jitter", "--grid", "1e-3,0.3", "--seed", "1",
         "--out", str(tmp_path / "sweep.csv"), "--report", str(written["sweep"])],
    ):
        assert main(argv) == EXIT_OK
    for path in written.values():
        strict_json(path.read_text())
    rows = strict_json(written["sweep"].read_text())["rows"]
    assert [r["failed"] for r in rows] == [False, True]
    assert rows[1]["fidelity"] is None and rows[1]["max_op_distance"] is None
    assert "nan" in (tmp_path / "sweep.csv").read_text().splitlines()[2]
