import json

import numpy as np
import pytest

from tempcert import cli
from tempcert.cli import (
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_PARSE,
    _fmt,
    build_parser,
    cmd_evaluate,
    main,
)
from tempcert.scenario import (
    CANONICAL_MATRICES,
    PHI_PLUS,
    PureState,
    canonical_scenario,
    complex_pairs,
    load_scenario,
    random_scenario,
    save_scenario,
    scenario_to_dict,
)
from tempcert.optimize import SeesawConfig, seesaw
from tempcert.robustness import Depolarizing, apply_noise
from tempcert.seqcorr import correlations


@pytest.fixture
def canonical_file(tmp_path):
    path = tmp_path / "canonical.json"
    save_scenario(canonical_scenario(), path)
    return str(path)


@pytest.mark.parametrize("deviation", [0.99e-12, -0.99e-12])
def test_state_at_the_norm_tolerance_runs_every_command(tmp_path, capsys, deviation):
    # the loader accepts ||psi|| within NORM_TOL of 1; the correlators and outcome
    # sums scale with ||psi||^2, so they must accept the same states
    doc = scenario_to_dict(canonical_scenario())
    doc["state"]["vector"] = complex_pairs(PHI_PLUS * (1 + deviation))
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(doc))
    assert abs(np.linalg.norm(load_scenario(path).state.amplitudes) - 1) > 0.9e-12
    for command in (["evaluate"], ["certify"], ["simulate", "--shots", "1000"],
                    ["sweep", "--model", "depolarizing", "--grid", "0:0.1:2:lin",
                     "--out", str(tmp_path / "sweep.csv")]):
        assert main([command[0], "--scenario", str(path), *command[1:]]) == EXIT_OK
    assert "error" not in capsys.readouterr().err


def test_observables_at_the_involution_tolerance_run_every_command(tmp_path, capsys):
    # Observable accepts ||A^2 - 1|| <= INVOLUTION_TOL, so ||A|| up to sqrt(1 + 1e-8):
    # A1 and A4 scaled by 1 + 4e-9 (residual 8e-9) give triple_123 = 1 + 4e-9
    doc = scenario_to_dict(canonical_scenario())
    for slot in (1, 4):
        doc["observables"][f"A{slot}"] = complex_pairs(
            CANONICAL_MATRICES[slot - 1].reshape(-1) * (1 + 4e-9))
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(doc))
    assert correlations(load_scenario(path)).triple_123 > 1 + 3.9e-9
    sweep = ["sweep", "--grid", "0:0.1:2:lin", "--out", str(tmp_path / "sweep.csv")]
    for command in (["evaluate"], ["certify"], ["simulate", "--shots", "1000"],
                    [*sweep, "--model", "depolarizing"], [*sweep, "--model", "tilt"]):
        assert main([command[0], "--scenario", str(path), *command[1:]]) == EXIT_OK
    assert "error" not in capsys.readouterr().err


def test_fmt_prints_a_rounded_zero_unsigned():
    # a deficit negative only by rounding must not read as a negative deficit
    assert _fmt(-1e-16) == _fmt(-0.0) == "0.000000000000"
    assert _fmt(-1.5e-12) == "-0.000000000002"


class TestEvaluate:
    def test_canonical(self, canonical_file, capsys):
        assert main(["evaluate", "--scenario", canonical_file]) == EXIT_OK
        out = capsys.readouterr().out
        assert "I_T         = 5.000000000000" in out
        assert "I_NC        = 5.000000000000" in out
        assert "compatible" in out

    def test_depolarized(self, tmp_path, capsys):
        s = apply_noise(canonical_scenario(), Depolarizing(0.1))
        path = tmp_path / "depol.json"
        save_scenario(s, path)
        assert main(["evaluate", "--scenario", str(path)]) == EXIT_OK
        assert "I_T         = 4.700000000000" in capsys.readouterr().out

    def test_zero_state_parse_error(self, tmp_path, capsys):
        doc = scenario_to_dict(canonical_scenario())
        doc["state"]["vector"] = [[0.0, 0.0]] * 4
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(doc))
        assert main(["evaluate", "--scenario", str(path)]) == EXIT_PARSE

    def test_non_finite_observable_parse_error(self, tmp_path, capsys):
        doc = scenario_to_dict(canonical_scenario())
        doc["observables"]["A1"][0] = [float("nan"), 0.0]
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))
        assert main(["evaluate", "--scenario", str(path)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_huge_integer_entry_parse_error(self, tmp_path, capsys):
        # float() of a 400-digit integer overflows; that must be a parse error
        doc = scenario_to_dict(canonical_scenario())
        doc["observables"]["A1"][0] = [10**400, 0]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        assert main(["evaluate", "--scenario", str(path)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_non_utf8_file_parse_error(self, tmp_path, capsys):
        # a UTF-16 byte-order mark is not UTF-8: one error line, no traceback
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe" + json.dumps(scenario_to_dict(canonical_scenario())).encode())
        assert main(["evaluate", "--scenario", str(path)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_missing_file_io_error(self, tmp_path):
        assert main(["evaluate", "--scenario", str(tmp_path / "nope.json")]) == EXIT_IO

    def test_report_file(self, canonical_file, tmp_path, capsys):
        out = tmp_path / "eval.json"
        assert main(["evaluate", "--scenario", canonical_file, "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert abs(doc["I_T"] - 5.0) <= 1e-12
        assert doc["compatible"] is True


class TestClassicalBound:
    def test_prints_three_first(self, capsys):
        assert main(["classical-bound"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "3"
        assert lines[1] == "maximizers: 20"
        assert len(lines) == 22


class TestOptimize:
    def test_writes_round_trippable_scenario(self, tmp_path, capsys):
        out = tmp_path / "best.json"
        trace = tmp_path / "trace.json"
        code = main(["optimize", "--dim", "4", "--seeds", "3", "--seed", "0",
                     "--out", str(out), "--trace", str(trace)])
        assert code == EXIT_OK
        s = load_scenario(out)
        text1 = out.read_text()
        save_scenario(s, out)
        assert out.read_text() == text1  # bit-identical re-serialization
        # the trace is compact JSON, one line, and carries seesaw's traces as they are
        text = trace.read_text()
        assert text.count("\n") == 1 and text.endswith("\n")
        best, traces = seesaw(SeesawConfig(dim=4, seeds=3, rng_seed=0))
        assert json.loads(text) == {"best_seed": best.seed_index, "traces": [
            {"seed": t.seed_index, "values": t.values, "converged": t.converged,
             "degenerate_steps": t.degenerate_steps} for t in traces]}

    @pytest.mark.parametrize("flag, value", [
        ("--dim", "1"), ("--seeds", "0"), ("--max-sweeps", "0"), ("--tol", "0"),
        ("--tol", "inf"), ("--tol", "nan"), ("--seed", "-1"),
    ])
    def test_invalid_config_is_usage_error(self, flag, value, capsys):
        assert main(["optimize", flag, value]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    def test_deterministic_output(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        main(["optimize", "--dim", "4", "--seeds", "2", "--seed", "5", "--out", str(a)])
        out_a = capsys.readouterr().out
        main(["optimize", "--dim", "4", "--seeds", "2", "--seed", "5", "--out", str(b)])
        out_b = capsys.readouterr().out
        assert a.read_text() == b.read_text()
        assert out_a.replace(str(a), "") == out_b.replace(str(b), "")


class TestCertify:
    def test_canonical_report(self, canonical_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["certify", "--scenario", canonical_file, "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert abs(doc["fidelity"] - 1.0) <= 1e-10

    def test_degenerate_exit_code(self, tmp_path):
        s = canonical_scenario().with_state(PureState([1, 0, 0, 0]))
        path = tmp_path / "prod.json"
        save_scenario(s, path)
        assert main(["certify", "--scenario", str(path)]) == EXIT_NUMERIC

    def test_dimension_below_four_exit_code(self, tmp_path, capsys):
        # a d = 3 pure state's factor has 3 entries: no room for a 4-dimensional V
        path = tmp_path / "d3.json"
        save_scenario(random_scenario(3, np.random.Generator(np.random.PCG64(3))), path)
        assert main(["certify", "--scenario", str(path)]) == EXIT_NUMERIC
        assert capsys.readouterr().err == (
            "error: ShapeMismatch: dimension 3 < 4 cannot hold the subspace\n")


class TestSimulate:
    def test_canonical_close_to_five(self, canonical_file, capsys):
        assert main(["simulate", "--scenario", canonical_file,
                     "--shots", "1000000", "--seed", "42"]) == EXIT_OK
        out = capsys.readouterr().out
        line = [l for l in out.splitlines() if l.startswith("I_T")][0]
        assert "5.000000000000" in line

    def test_byte_identical_repeat(self, canonical_file, capsys):
        main(["simulate", "--scenario", canonical_file, "--shots", "10000", "--seed", "9"])
        a = capsys.readouterr().out
        main(["simulate", "--scenario", canonical_file, "--shots", "10000", "--seed", "9"])
        b = capsys.readouterr().out
        assert a == b


class TestSweep:
    def test_depolarizing_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        report = tmp_path / "bounds.json"
        code = main(["sweep", "--model", "depolarizing", "--grid", "1e-4:1e-2:4:log",
                     "--out", str(out), "--report", str(report)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "param,epsilon,I_T,fidelity,max_op_distance,bounds_all_hold"
        assert len(lines) == 5
        assert all(l.endswith(",true") for l in lines[1:])
        doc = json.loads(report.read_text())
        assert len(doc["rows"]) == 4

    def test_grid_comma_list(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--model", "tilt", "--slot", "1",
                     "--grid", "1e-3,1e-2", "--out", str(out)]) == EXIT_OK
        assert len(out.read_text().splitlines()) == 3

    def test_bad_grid_spec(self, tmp_path, capsys):
        code = main(["sweep", "--model", "depolarizing", "--grid", "a:b:c",
                     "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_PARSE

    def test_out_directory_is_io_error_and_leaves_no_temp_file(self, tmp_path, capsys):
        # the rename onto a directory fails: the temporary file is removed
        out = tmp_path / "taken"
        out.mkdir()
        assert main(["sweep", "--model", "depolarizing", "--grid", "1e-3",
                     "--out", str(out)]) == EXIT_IO
        TestParser.assert_one_error_line(capsys)
        assert list(tmp_path.glob("*.tmp")) == [] and list(out.iterdir()) == []

    @pytest.mark.parametrize("flag, path", [("--out", "taken"), ("--report", "taken"),
                                            ("--out", "missing/s.csv")])
    def test_unwritable_path_fails_before_the_first_row(self, flag, path, tmp_path, capsys,
                                                         monkeypatch):
        def unreachable(*args):
            raise AssertionError("sweep ran before its output paths were checked")

        monkeypatch.setattr(cli, "sweep", unreachable)
        (tmp_path / "taken").mkdir()
        paths = {"--out": "s.csv", "--report": "r.json", flag: path}
        argv = ["sweep", "--model", "jitter", "--grid", "1e-3"]
        assert main(argv + [x for k, v in paths.items() for x in (k, str(tmp_path / v))]) == EXIT_IO
        TestParser.assert_one_error_line(capsys)
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]
        assert list((tmp_path / "taken").iterdir()) == []

    def test_explicit_scenario(self, canonical_file, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--scenario", canonical_file, "--model", "jitter",
                     "--grid", "1e-3", "--seed", "4", "--out", str(out)]) == EXIT_OK


class TestParser:
    @pytest.mark.parametrize("argv", [
        ["simulate", "--shots", "0"],
        ["sweep", "--model", "tilt", "--slot", "9", "--grid", "1e-3"],
        ["sweep", "--model", "depolarizing", "--grid", "2"],
        ["sweep", "--model", "depolarizing", "--grid", "nan"],
        ["sweep", "--model", "depolarizing", "--grid", ","],
        ["sweep", "--model", "jitter", "--grid", "inf"],
        ["sweep", "--model", "tilt", "--grid", "1e-3:nan:3"],
        ["simulate", "--shots", "10", "--seed", "-1"],
        ["sweep", "--model", "jitter", "--grid", "1e-3", "--seed", "-1"],
        ["simulate", "--shots", "100000000000000000000"],
    ])
    def test_invalid_simulate_and_sweep_input_is_usage_error(
            self, argv, canonical_file, tmp_path, capsys):
        out = tmp_path / "x.csv"
        extra = (["--scenario", canonical_file] if argv[0] == "simulate"
                 else ["--out", str(out)])
        assert main(argv + extra) == EXIT_PARSE
        self.assert_one_error_line(capsys)
        assert not out.exists()

    @staticmethod
    def assert_one_error_line(capsys, match=""):
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and match in lines[0]

    @pytest.mark.parametrize("edit, match", [
        (lambda d: {**d, "observables": {**d["observables"], "A1": "x"}},
         "observables.A1: expected a list"),
        (lambda d: [d], "must be a JSON object"),
        (lambda d: {**d, "dim": 1}, "must be >= 2, got 1"),
        (lambda d: {k: v for k, v in d.items() if k != "state"}, "field 'state': missing"),
        (lambda d: {**d, "state": {"vector": d["state"]["vector"][:3]}}, "length 3 != dim 4"),
        (lambda d: {**d, "state": {"density": complex_pairs(np.eye(4).reshape(-1) / 4)[:15]}},
         "state.density: length 15 != dim^2"),
        (lambda d: {**d, "state": {}}, "needs 'vector' or 'density'"),
        (lambda d: {k: v for k, v in d.items() if k != "observables"},
         "field 'observables': missing"),
        (lambda d: {**d, "observables": {**d["observables"], "A3": d["observables"]["A3"][:15]}},
         "observables.A3: length 15 != dim^2"),
    ])
    def test_invalid_scenario_file_is_usage_error(self, edit, match, tmp_path, capsys):
        # edit maps the canonical document to the one written
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(edit(scenario_to_dict(canonical_scenario()))))
        assert main(["evaluate", "--scenario", str(path)]) == EXIT_PARSE
        self.assert_one_error_line(capsys, match)

    @pytest.mark.parametrize("grid, match", [
        ("1:2", "expected start:stop:count"),
        ("1:2:x", "invalid literal"),
        ("1:2:0", "count must be >= 1"),
        ("0:1:3:log", "log scale needs positive endpoints"),
        ("1:2:3:cubic", "unknown scale 'cubic'"),
        ("1,abc", "could not convert string to float"),
    ])
    def test_invalid_grid_spec_is_usage_error(self, grid, match, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["sweep", "--model", "depolarizing", "--grid", grid,
                     "--out", str(out)]) == EXIT_PARSE
        self.assert_one_error_line(capsys, match)
        assert not out.exists()

    def test_parser_is_reused_with_a_fresh_namespace(self, canonical_file, tmp_path, capsys):
        assert build_parser() is build_parser()
        out = tmp_path / "best.json"
        assert main(["optimize", "--dim", "2", "--seeds", "2", "--out", str(out)]) == EXIT_OK
        out.unlink()
        capsys.readouterr()
        assert main(["optimize", "--dim", "2", "--seeds", "2"]) == EXIT_OK
        assert not out.exists() and "written" not in capsys.readouterr().out
        assert main(["optimize", "--seeds", "0"]) == EXIT_PARSE  # usage error after good calls
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert main(["evaluate", "--scenario", canonical_file]) == EXIT_OK
        assert not out.exists() and "I_T" in capsys.readouterr().out
        args = build_parser().parse_args(["evaluate", "--scenario", canonical_file])
        assert vars(args) == {"command": "evaluate", "scenario": canonical_file, "out": None,
                              "func": cmd_evaluate}

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["evaluate"])  # missing --scenario
        assert exc.value.code == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
