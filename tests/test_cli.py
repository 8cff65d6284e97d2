import contextlib
import csv
import dataclasses
import gc
import hashlib
import io
import json
import math
import os
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import contextprob
from contextprob import (
    DEFAULT_SIGNS,
    AnglePair,
    BinaryDistribution,
    LhvStrategy,
    SimConfig,
    SignConvention,
    SimReport,
    TimeDistribution,
    cli,
    conditional_probabilities,
    run_property_suite,
    run_simulation,
    setting_correlation,
    simulation,
)
from contextprob.cli import main

OPTIMAL_ARGS = ["--settings", "0,0.7853981633974483,0.39269908169872414,1.1780972450961724"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLambdaCommand:
    def test_maximal_interference_example(self, capsys):
        code, out, _ = run(
            capsys,
            "lambda", "--observed", "1.0", "--prior", "0.5",
            "--matrix", "0.5,0.5,0.5,0.5", "--beta", "+",
        )
        assert code == 0
        assert "lambda    : 1" in out
        assert "regime    : trigonometric" in out
        assert "theta     : 0 rad" in out

    def test_classical_observation(self, capsys):
        code, out, _ = run(
            capsys,
            "lambda", "--observed", "0.5", "--prior", "0.5",
            "--matrix", "0.5,0.5,0.5,0.5",
        )
        assert code == 0
        assert "lambda    : 0" in out

    def test_json_carries_full_values(self, capsys):
        code, out, _ = run(
            capsys,
            "lambda", "--observed", "0.85", "--prior", "0.3",
            "--matrix", "0.2,0.9,0.8,0.1", "--beta", "+", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["command"] == "lambda"
        assert data["seed"] is None
        classical = 0.3 * 0.2 + 0.7 * 0.9
        assert data["results"]["classical"] == classical
        expected = (0.85 - classical) / (2.0 * math.sqrt(0.3 * 0.2 * 0.7 * 0.9))
        assert data["results"]["lambda"] == expected

    def test_degenerate_denominator_renders(self, capsys):
        code, out, _ = run(
            capsys,
            "lambda", "--observed", "0.5", "--prior", "1.0",
            "--matrix", "0.5,0.5,0.5,0.5",
        )
        assert code == 0
        assert "degenerate-denominator" in out
        assert "undefined" in out

    def test_json_degenerate_uses_null(self, capsys):
        _, out, _ = run(
            capsys,
            "lambda", "--observed", "0.5", "--prior", "1.0",
            "--matrix", "0.5,0.5,0.5,0.5", "--format", "json",
        )
        data = json.loads(out)
        assert data["results"]["lambda"] is None
        assert data["results"]["theta"] is None

    def test_invalid_observed_exits_two(self, capsys):
        code, _, err = run(
            capsys,
            "lambda", "--observed", "1.5", "--prior", "0.5",
            "--matrix", "0.5,0.5,0.5,0.5",
        )
        assert code == 2
        assert "[0, 1]" in err

    @pytest.mark.parametrize("prior", ["1.2", "-0.1", "nan"])
    def test_unnormalized_prior_exits_two(self, capsys, prior):
        code, _, err = run(
            capsys,
            "lambda", "--observed", "0.5", "--prior", prior,
            "--matrix", "0.5,0.5,0.5,0.5",
        )
        assert code == 2
        assert err == f"error: p_plus must lie in [0, 1], got {float(prior)}\n"

    def test_bad_matrix_column_exits_two(self, capsys):
        code, _, err = run(
            capsys,
            "lambda", "--observed", "0.5", "--prior", "0.5",
            "--matrix", "0.6,0.5,0.6,0.5",
        )
        assert code == 2
        assert "column" in err

    def test_malformed_matrix_exits_two(self, capsys):
        code, _, _ = run(
            capsys,
            "lambda", "--observed", "0.5", "--prior", "0.5", "--matrix", "0.5,0.5",
        )
        assert code == 2

    def test_csv_round_trips_floats(self, capsys):
        _, out, _ = run(
            capsys,
            "lambda", "--observed", "0.85", "--prior", "0.3",
            "--matrix", "0.2,0.9,0.8,0.1", "--format", "csv",
        )
        rows = {r["field"]: r["value"] for r in csv.DictReader(io.StringIO(out))}
        classical = 0.3 * 0.2 + 0.7 * 0.9
        assert float(rows["classical"]) == classical


class TestEprCommand:
    def test_degree_units(self, capsys):
        code, out, _ = run(capsys, "epr", "--xi", "60", "--eta", "30", "--unit", "deg")
        assert code == 0
        assert "0.25" in out and "0.75" in out

    def test_json_matches_closed_form(self, capsys):
        code, out, _ = run(
            capsys, "epr", "--xi", "1.0471975511965976", "--eta", "0.5235987755982988",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        results = data["results"]
        np.testing.assert_allclose(results["closed_form"], [[0.25, 0.75], [0.75, 0.25]], atol=1e-12)
        assert results["closed_form"] == results["reconstructed"]
        assert results["max_abs_difference"] <= 1e-12
        assert results["correlation"] == pytest.approx(-0.5, abs=1e-12)

    def test_flip_signs_moves_to_angle_sum(self, capsys):
        _, out, _ = run(
            capsys, "epr", "--xi", "60", "--eta", "30", "--unit", "deg",
            "--flip-signs", "--format", "json",
        )
        data = json.loads(out)
        assert data["results"]["reconstructed"][0][0] == pytest.approx(1.0, abs=1e-12)
        assert data["inputs"]["signs"] == {"cos_theta_plus": 1.0, "cos_theta_minus": -1.0}

    def test_boundary_angle_exits_two(self, capsys):
        code, _, err = run(capsys, "epr", "--xi", "0", "--eta", "0.5")
        assert code == 2
        assert "(0, pi/2)" in err

    def test_csv_has_matrix_cells(self, capsys):
        _, out, _ = run(capsys, "epr", "--xi", "0.9", "--eta", "0.4", "--format", "csv")
        rows = list(csv.DictReader(io.StringIO(out)))
        closed = [r for r in rows if r["record"] == "closed_form"]
        assert len(closed) == 4
        assert any(r["record"] == "correlation" for r in rows)

    def test_csv_values_parse_as_the_json_floats(self, capsys):
        argv = ["epr", "--xi", "0.9", "--eta", "0.4", "--marginal", "0.3"]
        _, out, _ = run(capsys, *argv, "--format", "csv")
        _, js, _ = run(capsys, *argv, "--format", "json")
        values = {r["record"]: float(r["value"]) for r in csv.DictReader(io.StringIO(out))}
        results = json.loads(js)["results"]
        assert values["correlation"] == results["correlation"]
        assert values["max_abs_difference"] == results["max_abs_difference"]


class TestVerifyCommand:
    def test_default_run_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--samples", "150", "--seed", "4")
        assert code == 0
        assert out.count("PASS") == 7
        assert "FAIL" not in out
        assert "seed 4" in out

    def test_break_flag_reports_the_expected_fail(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--samples", "60", "--seed", "4", "--break-phase-flip"
        )
        assert code == 1
        assert "FAIL" in out
        assert "flip suppressed" in out

    def test_zero_samples_exits_two(self, capsys):
        code, _, _ = run(capsys, "verify", "--samples", "0")
        assert code == 2

    def test_json_report_structure(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--samples", "50", "--seed", "10", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["seed"] == 10
        assert data["results"]["all_passed"] is True
        names = [c["name"] for c in data["results"]["checks"]]
        assert "reconstruction-agreement" in names and "chsh-bound" in names

    def test_same_seed_same_bytes(self, capsys):
        _, out1, _ = run(capsys, "verify", "--samples", "80", "--seed", "3", "--format", "json")
        _, out2, _ = run(capsys, "verify", "--samples", "80", "--seed", "3", "--format", "json")
        assert out1 == out2

    @pytest.mark.parametrize("extra", [[], ["--break-phase-flip"]])
    def test_csv_residuals_parse_as_the_json_floats(self, capsys, extra):
        argv = ["verify", "--samples", "50", "--seed", "1", *extra]
        _, out, _ = run(capsys, *argv, "--format", "csv")
        _, js, _ = run(capsys, *argv, "--format", "json")
        rows = list(csv.DictReader(io.StringIO(out)))
        checks = json.loads(js)["results"]["checks"]
        assert [r["property"] for r in rows] == [c["name"] for c in checks]
        for row, check in zip(rows, checks):
            assert int(row["samples"]) == check["n_samples"]
            assert float(row["worst_residual"]) == check["worst_residual"]
            assert row["status"] == ("PASS" if check["passed"] else "FAIL")

    def test_out_into_missing_directory_exits_two_before_computing(
        self, capsys, tmp_path, monkeypatch
    ):
        def not_reached(*args, **kwargs):
            raise AssertionError("computed before opening the output")

        monkeypatch.setattr(cli, "run_property_suite", not_reached)
        target = tmp_path / "missing" / "report.json"
        code, out, err = run(capsys, "verify", "--samples", "10", "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(target) in err


class TestSimulateCommand:
    BASE = ["simulate", "--xi", "1.0471975511965976", "--eta", "0.5235987755982988"]

    def test_seed_echoed_and_results_deterministic(self, capsys):
        code, out1, _ = run(capsys, *self.BASE, "--n", "2000", "--seed", "42", "--format", "json")
        assert code == 0
        data = json.loads(out1)
        assert data["seed"] == 42
        assert data["inputs"]["seed"] == 42
        _, out2, _ = run(capsys, *self.BASE, "--n", "2000", "--seed", "42", "--format", "json")
        assert out1 == out2

    def test_chunks_do_not_change_bytes(self, capsys, monkeypatch):
        _, out1, _ = run(capsys, *self.BASE, "--n", "3000", "--seed", "5", "--format", "json")
        monkeypatch.setattr(simulation, "_BLOCK", 7)
        _, out2, _ = run(capsys, *self.BASE, "--n", "3000", "--seed", "5", "--format", "json")
        assert out1 == out2

    def test_time_mode_does_not_change_estimates(self, capsys):
        _, out1, _ = run(capsys, *self.BASE, "--n", "2000", "--seed", "8", "--format", "json")
        _, out2, _ = run(
            capsys, *self.BASE, "--n", "2000", "--seed", "8",
            "--time-dist", "fixed-order", "--format", "json",
        )
        d1, d2 = json.loads(out1), json.loads(out2)
        assert d1["results"]["counts"] == d2["results"]["counts"]
        assert (
            d1["results"]["estimated_conditionals"]
            == d2["results"]["estimated_conditionals"]
        )

    def test_entropy_seed_is_echoed(self, capsys):
        code, out, _ = run(capsys, *self.BASE, "--n", "100", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert isinstance(data["seed"], int) and 0 <= data["seed"] < 1 << 64

    def test_csv_schema(self, capsys):
        code, out, err = run(
            capsys, *self.BASE, "--n", "1500", "--seed", "2", "--format", "csv"
        )
        assert code == 0
        assert "seed: 2" in err
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["beta"] + r["gamma"] for r in rows] == ["++", "+-", "-+", "--"]
        assert sum(int(r["count"]) for r in rows) == 1500
        for r in rows:
            estimate = float(r["estimate"])
            assert 0.0 <= estimate <= 1.0
            assert float(r["std_error"]) < 0.1

    def test_out_writes_identical_bytes(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out_direct, _ = run(
            capsys, *self.BASE, "--n", "500", "--seed", "1", "--format", "json"
        )
        assert code == 0
        code, out, _ = run(
            capsys, *self.BASE, "--n", "500", "--seed", "1", "--format", "json",
            "--out", str(target),
        )
        assert code == 0 and out == ""
        assert target.read_text(encoding="utf-8") == out_direct

    def test_trace_writes_one_line_per_trial(self, capsys, tmp_path):
        trace = tmp_path / "trials.ndjson"
        code, out, _ = run(
            capsys, *self.BASE, "--n", "120", "--seed", "6", "--format", "json",
            "--trace", str(trace),
        )
        assert code == 0
        lines = trace.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 120
        first = json.loads(lines[0])
        assert set(first) == {"t_selection", "t_measurement", "gamma", "beta"}
        counts = json.loads(out)["results"]["counts"]
        plus_plus = sum(
            1 for line in lines
            if (rec := json.loads(line))["beta"] == 1 and rec["gamma"] == 1
        )
        assert plus_plus == counts[0][0]

    def test_zero_trials_exits_two(self, capsys):
        code, _, _ = run(capsys, *self.BASE, "--n", "0")
        assert code == 2

    @pytest.mark.parametrize("n", [2**63, 2**64])
    def test_a_count_from_two_to_the_63_exits_two_before_running(self, capsys, n):
        code, out, err = run(capsys, *self.BASE, "--n", str(n), "--format", "json")
        assert (code, out) == (2, "")
        assert err == f"error: n_pairs must be a positive integer, got {n}\n"

    @pytest.mark.parametrize("flag", ["--out", "--trace"])
    def test_output_into_missing_directory_exits_two_before_computing(
        self, capsys, tmp_path, monkeypatch, flag
    ):
        def not_reached(*args, **kwargs):
            raise AssertionError("computed before opening the output")

        monkeypatch.setattr(cli, "run_simulation", not_reached)
        target = tmp_path / "missing" / "file"
        code, out, err = run(capsys, *self.BASE, "--n", "10", "--seed", "1", flag, str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(target) in err

    @pytest.mark.parametrize("alias", ["same-path", "symlink", "hard-link"])
    def test_out_and_trace_on_one_file_exit_two_before_computing(
        self, capsys, tmp_path, monkeypatch, alias
    ):
        # Each stream has its own offset, so writing both would overwrite the
        # start of the trace with the report.
        def not_reached(*args, **kwargs):
            raise AssertionError("computed with --out and --trace on one file")

        monkeypatch.setattr(cli, "run_simulation", not_reached)
        out = tmp_path / "report"
        trace = tmp_path / "trace"
        if alias == "same-path":
            trace = out
        elif alias == "symlink":
            trace.symlink_to(out)
        else:
            out.touch()
            os.link(out, trace)
        code, stdout, err = run(
            capsys, *self.BASE, "--n", "10", "--seed", "1", "--format", "json",
            "--out", str(out), "--trace", str(trace),
        )
        assert code == 2
        assert stdout == ""
        assert err == "error: --out and --trace name the same file\n"

    def test_degenerate_marginal_serializes_null_cells(self, capsys):
        code, out, _ = run(
            capsys, *self.BASE, "--n", "50", "--seed", "3", "--marginal", "1.0",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["results"]["estimated_conditionals"][0][1] is None


class TestChshCommand:
    def test_optimal_flag_matches_explicit_settings(self, capsys):
        _, out1, _ = run(
            capsys, "chsh", "--optimal", "--n", "400", "--seed", "11", "--format", "json"
        )
        _, out2, _ = run(
            capsys, "chsh", *OPTIMAL_ARGS, "--n", "400", "--seed", "11", "--format", "json"
        )
        assert out1 == out2

    def test_analytic_value_present(self, capsys):
        _, out, _ = run(
            capsys, "chsh", "--optimal", "--n", "300", "--seed", "1", "--format", "json"
        )
        data = json.loads(out)
        assert data["results"]["s_analytic"] == pytest.approx(
            -2.0 * math.sqrt(2.0), abs=1e-12
        )
        assert data["results"]["s_abs"] == abs(data["results"]["s_estimate"])

    def test_baseline_block(self, capsys):
        _, out, _ = run(
            capsys, "chsh", "--optimal", "--n", "2000", "--seed", "9",
            "--baseline", "deterministic-sign", "--format", "json",
        )
        data = json.loads(out)
        baseline = data["results"]["baseline"]
        assert baseline["strategy"] == "deterministic-sign"
        assert abs(baseline["s_estimate"]) <= 2.2

    def test_degree_settings(self, capsys):
        _, out, _ = run(
            capsys, "chsh", "--settings", "0,45,22.5,67.5", "--unit", "deg",
            "--n", "300", "--seed", "11", "--format", "json",
        )
        data = json.loads(out)
        assert data["inputs"]["settings"][1] == pytest.approx(math.pi / 4.0, abs=1e-12)

    def test_missing_settings_exits_two(self, capsys):
        code, _, err = run(capsys, "chsh", "--n", "100")
        assert code == 2
        assert "--settings" in err

    def test_conflicting_settings_exit_two(self, capsys):
        code, out, err = run(capsys, "chsh", "--optimal", *OPTIMAL_ARGS, "--n", "100")
        assert code == 2
        assert out == ""
        assert err.endswith(
            "error: argument --settings: not allowed with argument --optimal\n"
        )

    def test_same_seed_same_bytes_across_chunks(self, capsys, monkeypatch):
        argv = ["chsh", "--optimal", "--n", "5000", "--seed", "3",
                "--baseline", "random-local", "--format", "json"]
        _, out1, _ = run(capsys, *argv)
        monkeypatch.setattr(simulation, "_BLOCK", 6)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    @pytest.mark.parametrize("bad", ["inf", "nan"])
    def test_non_finite_setting_exits_two(self, capsys, bad):
        code, out, err = run(
            capsys, "chsh", "--settings", f"{bad},0,0,0", "--n", "100", "--seed", "1",
            "--baseline", "deterministic-sign",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: setting a must be finite")

    def test_csv_values_parse_as_the_json_floats(self, capsys):
        argv = ["chsh", "--optimal", "--n", "300", "--seed", "4", "--baseline", "deterministic-sign"]
        _, out, _ = run(capsys, *argv, "--format", "csv")
        _, js, _ = run(capsys, *argv, "--format", "json")
        values = {r["quantity"]: float(r["value"]) for r in csv.DictReader(io.StringIO(out))}
        results = json.loads(js)["results"]
        assert values["s_analytic"] == results["s_analytic"]
        assert values["s_estimate"] == results["s_estimate"]
        assert values["baseline_deterministic-sign"] == results["baseline"]["s_estimate"]


class TestParserBasics:
    def test_no_command_exits_two(self, capsys):
        assert run(capsys, *[])[0] == 2

    def test_unknown_command_exits_two(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_bad_number_exits_two(self, capsys):
        code, _, _ = run(
            capsys, "lambda", "--observed", "abc", "--prior", "0.5",
            "--matrix", "0.5,0.5,0.5,0.5",
        )
        assert code == 2

    def test_non_integer_count_names_the_text(self, capsys):
        code, out, err = run(capsys, "simulate", "--xi", "1.0", "--eta", "0.5", "--n", "x")
        assert (code, out) == (2, "")
        assert "not an integer: 'x'" in err

    def test_bad_seed_exits_two(self, capsys):
        code, _, _ = run(
            capsys, "simulate", "--xi", "1.0", "--eta", "0.5", "--n", "10",
            "--seed", str(1 << 64),
        )
        assert code == 2


SIMULATE_SMALL = ["simulate", "--xi", "0.3", "--eta", "0.2", "--n", "5", "--seed", "1"]
needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
SIMULATE_BLOCKS = [*SIMULATE_SMALL[:5], "--n", str(3 * simulation._TRACE_BLOCK + 1)]


class TestWriteFailures:
    # a write that fails exits 2 with one line on stderr and nothing on stdout
    @needs_dev_full
    @pytest.mark.parametrize("flag", ["--out", "--trace"])
    def test_full_output_file_exits_two(self, capsys, flag):
        code, out, err = run(capsys, *SIMULATE_SMALL, flag, "/dev/full")
        assert code == 2 and out == ""
        assert err.startswith("error: cannot write output:") and err.count("\n") == 1

    @needs_dev_full
    @pytest.mark.parametrize("flags", [[], ["-u"]], ids=["buffered", "unbuffered"])
    def test_full_stdout_exits_two(self, run_python, flags):
        with open("/dev/full", "w") as full:
            child = run_python(*flags, "-m", "contextprob.cli", *SIMULATE_SMALL, stdout=full)
        assert child.returncode == 2
        assert child.stderr.startswith("error: cannot write output:")
        assert child.stderr.count("\n") == 1

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
    def test_trace_to_a_closed_pipe_exits_two(self, run_python):
        argv = ["simulate", "--xi", "0.3", "--eta", "0.2", "--n", "20000", "--trace", "/dev/stdout"]
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader has left before the trace is written
        try:
            child = run_python("-m", "contextprob.cli", *argv, stdout=write_end)
        finally:
            os.close(write_end)
        assert child.returncode == 2
        assert child.stderr.startswith("error: cannot write output:")
        assert child.stderr.count("\n") == 1

    # a trace of several blocks fails the same way, and needs no temporary file
    @needs_dev_full
    def test_full_trace_file_past_one_block_exits_two(self, run_python):
        child = run_python("-m", "contextprob.cli", *SIMULATE_BLOCKS, "--trace", "/dev/full")
        assert (child.returncode, child.stdout) == (2, "")
        assert child.stderr.startswith("error: cannot write output:")
        assert child.stderr.count("\n") == 1

    def test_a_trace_is_written_without_a_temporary_directory(self, run_python, tmp_path):
        launch = ("import os, sys, tempfile; tempfile.tempdir = os.path.join(sys.argv[1], "
                  "'missing'); from contextprob.cli import main; sys.exit(main(sys.argv[2:]))")
        trace = tmp_path / "trace"
        child = run_python("-c", launch, str(tmp_path), *SIMULATE_BLOCKS, "--trace", str(trace))
        assert (child.returncode, child.stderr) == (0, "")
        assert trace.read_text().count("\n") == 3 * simulation._TRACE_BLOCK + 1

    def test_a_trace_without_orjson_exits_two_with_one_line(self, tmp_path):
        # a stub that fails to import shadows orjson, in the child alone
        (tmp_path / "orjson.py").write_text(
            "raise ModuleNotFoundError(\"No module named 'orjson'\", name='orjson')\n")
        src = Path(simulation.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp_path), str(src)]))

        def child(*argv):
            return subprocess.run([sys.executable, "-B", "-m", "contextprob.cli", *argv],
                                  env=env, capture_output=True, text=True, timeout=60)

        trace = tmp_path / "trace"
        traced = child(*SIMULATE_SMALL, "--trace", str(trace))
        assert (traced.returncode, traced.stdout, trace.read_text()) == (2, "", "")
        assert traced.stderr.startswith("error: --trace needs orjson")
        assert traced.stderr.count("\n") == 1
        # without --trace the stub is never imported
        assert child(*SIMULATE_SMALL).returncode == 0

    def test_closed_stdout_exits_two(self, capsys, monkeypatch):
        # an interpreter started with fd 1 closed has sys.stdout set to None
        monkeypatch.setattr(sys, "stdout", None)
        code, _, err = run(capsys, *SIMULATE_SMALL)
        assert code == 2
        assert err.startswith("error: cannot write output:") and err.count("\n") == 1

    def test_started_with_stdout_closed_exits_two(self, run_python):
        launch = ("import os, sys; os.close(1); "
                  "os.execv(sys.executable, [sys.executable, '-B', '-m', 'contextprob.cli', "
                  "*sys.argv[1:]])")
        child = run_python("-c", launch, *SIMULATE_SMALL)
        assert child.returncode == 2
        assert child.stderr.startswith("error: cannot write output:")
        assert child.stderr.count("\n") == 1


# ---------------------------------------------------------------- pinned output

# Every command in every format, and the error paths, as (id, argv). "{tmp}"
# stands for a fresh directory; tests/cli_pinned.json holds the exit code,
# stdout, stderr (with that directory written back as "{tmp}"), the --out
# file and the sha256 of the --trace file each case gave before the output
# code was folded into one render path. Rewrite it only for a deliberate
# output change: PYTHONPATH=src python tests/test_cli.py
LAMBDA_TRIG = ["lambda", "--observed", "0.85", "--prior", "0.3", "--matrix", "0.2,0.9,0.8,0.1"]
LAMBDA_HYPER = ["lambda", "--observed", "0.9", "--prior", "0.3", "--matrix", "0.2,0.9,0.8,0.1",
                "--beta", "-"]
LAMBDA_DEGENERATE = ["lambda", "--observed", "0.5", "--prior", "1.0", "--matrix", "0.5,0.5,0.5,0.5"]
EPR = ["epr", "--xi", "0.9", "--eta", "0.4", "--marginal", "0.3"]
VERIFY = ["verify", "--samples", "50", "--seed", "1"]
SIMULATE = ["simulate", "--xi", "1.0471975511965976", "--eta", "0.5235987755982988",
            "--n", "200", "--seed", "7"]
CHSH = ["chsh", "--optimal", "--n", "300", "--seed", "4"]

PINNED_CASES = {}
for _name, _argv in {
    "lambda-trigonometric": LAMBDA_TRIG,
    "lambda-hyperbolic": LAMBDA_HYPER,
    "lambda-degenerate": LAMBDA_DEGENERATE,
    "epr": EPR,
    "epr-flip-signs": [*EPR, "--flip-signs"],
    "epr-deg": ["epr", "--xi", "60", "--eta", "30", "--unit", "deg"],
    "verify": VERIFY,
    "verify-break-phase-flip": [*VERIFY, "--break-phase-flip"],
    "simulate-uniform-square": SIMULATE,
    "simulate-fixed-order": [*SIMULATE, "--time-dist", "fixed-order"],
    "simulate-degenerate-marginal": [*SIMULATE, "--marginal", "1.0"],
    "chsh": CHSH,
    "chsh-deterministic-sign": [*CHSH, "--baseline", "deterministic-sign"],
    "chsh-random-local": [*CHSH, "--baseline", "random-local"],
    "chsh-deg": ["chsh", "--settings", "0,45,22.5,67.5", "--unit", "deg",
                 "--n", "300", "--seed", "11"],
}.items():
    for _fmt in ("table", "json", "csv"):
        PINNED_CASES[f"{_name}-{_fmt}"] = [*_argv, "--format", _fmt]
PINNED_CASES.update({
    "simulate-uniform-square-trace": [*SIMULATE, "--format", "json", "--trace", "{tmp}/trace"],
    "simulate-fixed-order-trace": [*SIMULATE, "--time-dist", "fixed-order",
                                   "--trace", "{tmp}/trace"],
    "simulate-json-out": [*SIMULATE, "--format", "json", "--out", "{tmp}/out"],
    "verify-table-out": [*VERIFY, "--out", "{tmp}/out"],
    "chsh-csv-out": [*CHSH, "--format", "csv", "--out", "{tmp}/out"],
    "lambda-csv-out": [*LAMBDA_TRIG, "--format", "csv", "--out", "{tmp}/out"],
    "help": ["--help"],
    **{f"{command}-help": [command, "--help"]
       for command in ("lambda", "epr", "verify", "simulate", "chsh")},
    "no-command": [],
    "unknown-command": ["frobnicate"],
    "lambda-bad-number": ["lambda", "--observed", "abc", "--prior", "0.5",
                          "--matrix", "0.5,0.5,0.5,0.5"],
    "lambda-malformed-matrix": ["lambda", "--observed", "0.5", "--prior", "0.5",
                                "--matrix", "0.5,0.5"],
    "lambda-observed-out-of-range": ["lambda", "--observed", "1.5", "--prior", "0.5",
                                     "--matrix", "0.5,0.5,0.5,0.5"],
    "epr-boundary-angle": ["epr", "--xi", "0", "--eta", "0.5"],
    "verify-zero-samples": ["verify", "--samples", "0"],
    "verify-out-missing-directory": [*VERIFY, "--out", "{tmp}/missing/out"],
    "simulate-zero-trials": [*SIMULATE[:5], "--n", "0"],
    "simulate-seed-too-wide": [*SIMULATE[:7], "--seed", str(1 << 64)],
    "simulate-trace-missing-directory": [*SIMULATE, "--trace", "{tmp}/missing/trace"],
    "chsh-missing-settings": ["chsh", "--n", "100"],
    "chsh-non-finite-setting": ["chsh", "--settings", "inf,0,0,0", "--n", "100", "--seed", "1"],
})

CHSH_USAGE = (
    "usage: contextprob chsh [-h] (--settings SETTINGS | --optimal)\n"
    "                        [--unit {rad,deg}] [--marginal MARGINAL] --n N\n"
    "                        [--seed SEED]\n"
    "                        [--baseline {deterministic-sign,random-local}]\n"
    "                        [--format {table,json,csv}] [--out PATH]\n"
)

# The deliberate differences from the pinned bytes: the stderr each case now
# writes in place of the pinned one. CSV mode echoes every seed, verify's too,
# and argparse itself rejects a chsh call without --settings or --optimal.
CHANGED_STDERR = {
    "chsh-missing-settings": CHSH_USAGE + (
        "contextprob chsh: error: one of the arguments --settings --optimal is required\n"
    ),
    "verify-csv": "seed: 1\n",
    "verify-break-phase-flip-csv": "seed: 1\n",
}


def run_pinned(argv: list[str], tmp) -> dict:
    """Run ``main`` on ``argv`` in ``tmp`` and return everything it wrote."""
    root = str(tmp)
    stdout, stderr = io.StringIO(), io.StringIO()
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"  # argparse wraps usage text to the terminal width
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([arg.replace("{tmp}", root) for arg in argv])
    finally:
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    out, trace = tmp / "out", tmp / "trace"
    return {
        "code": code,
        "stdout": stdout.getvalue(),
        "stderr": stderr.getvalue().replace(root, "{tmp}"),
        "out": out.read_text(encoding="utf-8") if out.exists() else None,
        "trace_sha256": hashlib.sha256(trace.read_bytes()).hexdigest() if trace.exists() else None,
    }


PINNED_PATH = Path(__file__).with_name("cli_pinned.json")


def expected_output(pinned: dict, case: str) -> dict:
    """What ``run_pinned`` gives for ``case``: its pin, with today's stderr."""
    expected = dict(pinned[case])
    expected["stderr"] = CHANGED_STDERR.get(case, expected["stderr"])
    return expected


# One case for each command that prints floats, both time modes and both baselines. A
# child interpreter runs them after ``setup``, which comes before contextprob loads, and
# prints what each wrote, the dispatch targets numpy left on and the counting workers.
MACHINE_CASES = ["epr-json", "verify-json", "simulate-uniform-square-trace",
                 "simulate-fixed-order-trace", "chsh-deterministic-sign-json",
                 "chsh-random-local-json"]
MACHINE_CHILD = """
import json, os, sys
from pathlib import Path
{setup}
sys.path.insert(0, {tests!r})
import numpy._core._multiarray_umath as umath
import test_cli
from contextprob import simulation
outputs = {{}}
for case in test_cli.MACHINE_CASES:
    (tmp := Path(sys.argv[1], case)).mkdir()
    outputs[case] = test_cli.run_pinned(test_cli.PINNED_CASES[case], tmp)
dispatched = [name for name in umath.__cpu_dispatch__ if umath.__cpu_features__[name]]
print(json.dumps({{"outputs": outputs, "dispatched": dispatched,
                  "workers": simulation._WORKERS}}))
"""


class TestPinnedOutput:
    @pytest.fixture(scope="class")
    def pinned(self):
        return json.loads(PINNED_PATH.read_text(encoding="utf-8"))

    def test_every_case_is_pinned(self, pinned):
        assert set(pinned) == set(PINNED_CASES)

    @pytest.mark.parametrize("case", sorted(PINNED_CASES))
    def test_output_matches_pin(self, case, pinned, tmp_path):
        assert run_pinned(PINNED_CASES[case], tmp_path) == expected_output(pinned, case)

    @pytest.mark.parametrize("setting", ["no-cpu-dispatch", "one-cpu", "hash-seed"])
    def test_bytes_do_not_depend_on_the_machine(self, setting, pinned, tmp_path, run_python):
        # numpy's dispatched kernels off, one counting worker, or another hash seed
        dispatch = np._core._multiarray_umath.__cpu_dispatch__
        env, setup = {}, ""
        if setting == "no-cpu-dispatch":
            env["NPY_DISABLE_CPU_FEATURES"] = " ".join(dispatch)
        elif setting == "one-cpu":
            if not hasattr(os, "sched_setaffinity"):
                pytest.skip("os.sched_setaffinity is missing")
            setup = "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})"
        else:
            env["PYTHONHASHSEED"] = "12345"
        code = MACHINE_CHILD.format(setup=setup, tests=str(Path(__file__).parent))
        child = run_python("-c", code, str(tmp_path), env=env)
        assert child.returncode == 0, child.stderr
        shown = json.loads(child.stdout)
        assert shown["outputs"] == {case: expected_output(pinned, case) for case in MACHINE_CASES}
        if setting == "no-cpu-dispatch":
            assert shown["dispatched"] == []
        if setting == "one-cpu":
            assert shown["workers"] == 1


# ---------------------------------------------------------------- start-up


def as_main(run_python, shown: str, *argv) -> tuple[int, str]:
    """Run the CLI as ``-m`` does in a fresh interpreter; a ``finally`` prints ``shown``.

    Returns the exit code and the printed text.
    """
    code = ("import gc, runpy, sys\n"
            "try:\n"
            "    runpy.run_module('contextprob.cli', run_name='__main__', alter_sys=True)\n"
            "finally:\n"
            f"    print({shown})\n")
    child = run_python("-c", code, *argv)
    assert child.stdout, child.stderr
    return child.returncode, child.stdout.splitlines()[-1]


def modules_loaded(run_python, *argv) -> tuple[int, set[str]]:
    """The exit code, and the package modules and numpy the CLI loaded, run as by ``-m``."""
    shown = "*sorted(m for m in sys.modules if m.startswith('contextprob.') or m == 'numpy')"
    code, text = as_main(run_python, shown, *argv)
    return code, set(text.split())


# What parsing loads, --help and usage errors included: no layer and no numpy.
PARSING = {"contextprob._choices", "contextprob.errors"}
# The standard library a rendered report needs, which parsing does not load.
RENDERING = ("dataclasses", "inspect", "json")
# Every path that ends in parsing: argv and exit code.
PARSE_ONLY = [
    (["--help"], 0),
    (["simulate", "--help"], 0),
    (["chsh", "--help"], 0),
    ([], 2),
    ([*SIMULATE[:5], "--n", "0"], 2),
    ([*CHSH, "--baseline", "coin"], 2),
    (["verify", "--seed", "-1"], 2),
]
PARSE_ONLY_IDS = ["help", "simulate-help", "chsh-help", "no-command", "bad-count", "bad-choice",
                  "bad-seed"]
HANDLING = {*PARSING, "numpy", "contextprob.core"}
EPRBOHM = {*HANDLING, "contextprob.eprbohm"}


class TestStartUp:
    @pytest.mark.parametrize("argv, loaded", [
        (VERIFY, {*EPRBOHM, "contextprob.verification"}),
        (SIMULATE, {*EPRBOHM, "contextprob.simulation"}),
        (CHSH, {*EPRBOHM, "contextprob.simulation"}),
        (LAMBDA_TRIG, HANDLING),
        (EPR, EPRBOHM),
    ], ids=["verify", "simulate", "chsh", "lambda", "epr"])
    def test_a_subcommand_imports_only_the_layers_it_runs(self, run_python, argv, loaded):
        assert modules_loaded(run_python, *argv) == (0, loaded)

    @pytest.mark.parametrize("argv, status", PARSE_ONLY, ids=PARSE_ONLY_IDS)
    def test_parsing_loads_no_layer_and_no_numpy(self, run_python, argv, status):
        assert modules_loaded(run_python, *argv) == (status, PARSING)

    @pytest.mark.parametrize("argv, status", [(None, None), *PARSE_ONLY],
                             ids=["build-parser", *PARSE_ONLY_IDS])
    def test_parsing_loads_no_dataclasses_inspect_or_json(self, run_python, argv, status):
        shown = f"*sorted(m for m in {RENDERING!r} if m in sys.modules)"
        if argv is None:  # the parse stage alone, as perfbench's set-up runs it
            child = run_python("-c", "import sys; import contextprob.cli as cli; "
                                     f"cli.build_parser(); print({shown})")
            assert (child.returncode, child.stdout) == (0, "\n"), child.stderr
        else:
            assert as_main(run_python, shown, *argv) == (status, "")

    def test_building_the_parser_loads_no_layer_and_no_numpy(self, run_python):
        code = ("import sys; import contextprob.cli as cli; cli.build_parser()\n"
                "print(*sorted(m for m in sys.modules if m.startswith('contextprob.') "
                "or m == 'numpy'))")
        child = run_python("-c", code)
        assert set(child.stdout.split()) == {*PARSING, "contextprob.cli"}, child.stderr

    def test_an_exported_name_is_bound_in_the_cli_on_first_use(self, run_python):
        # where tests and perfbench/tracing.py patch it, and where main calls it
        code = ("import json, sys; import contextprob, contextprob.cli as cli\n"
                "before = sorted(set(contextprob.__all__) & set(vars(cli)))\n"
                "numpy_before = 'numpy' in sys.modules\n"
                "cli.main(sys.argv[1:])\n"
                "after = sorted(set(contextprob.__all__) & set(vars(cli)) - set(before))\n"
                "same = all(getattr(cli, name) is getattr(contextprob, name) for name in after)\n"
                "print(json.dumps([before, numpy_before, after, same]))")
        child = run_python("-c", code, *SIMULATE)
        assert child.returncode == 0, child.stderr
        before, numpy_before, after, same = json.loads(child.stdout.splitlines()[-1])
        # the names parsing needs are imported; the layers' are not yet
        assert (before, numpy_before, same) == (
            ["ContextualProbabilityError", "LhvStrategy", "TimeDistribution"], False, True)
        assert after == ["AnglePair", "BinaryDistribution", "SimConfig",
                         "conditional_probabilities", "run_simulation", "setting_correlation"]

    def test_a_handler_calls_the_binding_in_the_cli(self, capsys, monkeypatch):
        # a patch of contextprob.cli.<name>, as perfbench/tracing.py makes, sees every call
        calls, original = [], cli.conditional_probabilities
        monkeypatch.setattr(cli, "conditional_probabilities",
                            lambda delta: calls.append(delta) or original(delta))
        assert run(capsys, *SIMULATE)[0] == 0
        assert calls == [AnglePair(float(SIMULATE[2]), float(SIMULATE[4])).delta]

    @pytest.mark.parametrize("name", ["time_order_statistics", "PLUS", "__version__"])
    def test_any_name_the_package_exports_resolves(self, name):
        assert getattr(cli, name) is getattr(contextprob, name)

    @pytest.mark.parametrize("name", ["simulation", "_HOMES", "require_count", "np"])
    def test_no_other_name_resolves(self, name):
        with pytest.raises(AttributeError, match=f"module 'contextprob.cli' has no attribute "
                                                 f"'{name}'"):
            getattr(cli, name)

    def test_the_json_converter_needs_no_numpy(self, run_python):
        code = ("import dataclasses, json, sys; import contextprob.cli as cli\n"
                "from contextprob import TimeDistribution\n"
                "Row = dataclasses.make_dataclass('Row', ['x', 'mode'])\n"
                "row = Row(float('nan'), TimeDistribution.FIXED_ORDER)\n"
                "value = cli._jsonable({'rows': (row, [1.5, None]), 'n': 3})\n"
                "print(json.dumps([value, 'numpy' in sys.modules]))")
        child = run_python("-c", code)
        assert json.loads(child.stdout) == [
            {"rows": [{"x": None, "mode": "fixed-order"}, [1.5, None]], "n": 3}, False
        ], child.stderr


class TestProcessEntry:
    """``python -m contextprob.cli`` and the console script end through ``cli.entry``."""

    @pytest.mark.parametrize("argv, status", [
        (VERIFY, 0),
        ([*VERIFY, "--break-phase-flip"], 1),
        (["verify", "--samples", "0"], 2),
    ], ids=["passed", "failed-property", "input-error"])
    def test_the_process_freezes_its_heap_before_it_exits(self, run_python, argv, status):
        code, frozen = as_main(run_python, "gc.get_freeze_count()", *argv)
        assert (code, int(frozen) > 0) == (status, True)

    @pytest.mark.parametrize("argv, started", [
        # trace lines are written only while trials are counted
        ([*SIMULATE[:5], "--n", "3000000", "--seed", "1", "--trace"],
         lambda path: path.exists() and path.stat().st_size > 0),
        # --out is opened before numpy loads: the signal lands in the import or the scan
        (["chsh", "--optimal", "--n", "100000000", "--seed", "1", "--out"], Path.exists),
    ], ids=["simulate-trace", "chsh"])
    def test_an_interrupt_ends_the_process_with_one_line_and_status_130(
            self, tmp_path, argv, started):
        path = tmp_path / "file"
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent))
        # as -m runs it, with SIGINT's default handler even where this run was started with
        # SIGINT ignored (a background job), which a child would otherwise inherit
        code = ("import runpy, signal; signal.signal(signal.SIGINT, signal.default_int_handler)\n"
                "runpy.run_module('contextprob.cli', run_name='__main__', alter_sys=True)")
        child = subprocess.Popen([sys.executable, "-B", "-c", code, *argv, str(path)],
                                 env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                 text=True)
        try:
            deadline = time.monotonic() + 30.0
            while not started(path):
                assert child.poll() is None and time.monotonic() < deadline
                time.sleep(0.01)
            child.send_signal(signal.SIGINT)
            out, err = child.communicate(timeout=30)
        finally:
            child.kill()
            child.wait()
        assert (child.returncode, out, err) == (130, "", "interrupted\n")

    def test_main_in_process_freezes_nothing(self, capsys):
        before = gc.get_freeze_count()
        assert run(capsys, *VERIFY)[0] == 0
        assert gc.get_freeze_count() == before

    @pytest.mark.parametrize("given, kept", [({}, "1"), ({"OPENBLAS_NUM_THREADS": "3"}, "3")],
                             ids=["unset", "set"])
    def test_the_process_starts_one_blas_thread_unless_told(self, monkeypatch, given, kept):
        environ = dict(given)  # in place of os.environ, so no later child inherits the value
        monkeypatch.setattr(os, "environ", environ)
        monkeypatch.setattr(sys, "argv", ["contextprob", *VERIFY])
        monkeypatch.setattr(gc, "freeze", lambda: None)  # this test's heap stays collectable
        with pytest.raises(SystemExit) as exit_:
            cli.entry()
        assert (exit_.value.code, environ) == (0, {"OPENBLAS_NUM_THREADS": kept})

    @pytest.mark.parametrize("case", ["verify-table", "verify-break-phase-flip-csv",
                                      "verify-zero-samples", "help"])
    def test_the_module_run_writes_the_pinned_bytes(self, run_python, case):
        pinned = json.loads(PINNED_PATH.read_text(encoding="utf-8"))[case]
        child = run_python("-m", "contextprob.cli", *PINNED_CASES[case], env={"COLUMNS": "80"})
        assert (child.returncode, child.stdout, child.stderr) == (
            pinned["code"], pinned["stdout"], CHANGED_STDERR.get(case, pinned["stderr"]))


# ---------------------------------------------------------------- contract properties


@pytest.fixture(scope="module")
def argv_dir(tmp_path_factory):
    # The argv below name no output file, so one directory serves every example.
    return tmp_path_factory.mktemp("argv")


class TestJsonConverter:
    @pytest.mark.parametrize("mode, text", [
        (TimeDistribution.UNIFORM_SQUARE, "uniform-square"),
        (TimeDistribution.FIXED_ORDER, "fixed-order"),
    ])
    def test_report_converts_by_its_fields(self, mode, text):
        config = SimConfig(AnglePair(1.0, 0.5), BinaryDistribution.from_p_plus(1.0), 60, 7, mode)
        report = run_simulation(config)
        data = cli._jsonable(report)
        assert list(data) == [f.name for f in dataclasses.fields(SimReport)]
        assert data["counts"] == report.counts.tolist()
        for name in ("estimated_conditionals", "std_errors"):  # q = 1 leaves column 2 empty
            values = getattr(report, name)
            nulls = [[value is None for value in row] for row in data[name]]
            assert nulls == np.isnan(values).tolist() == [[False, True], [False, True]]
            assert [row[0] for row in data[name]] == values[:, 0].tolist()
        assert data["estimated_correlation"] == report.estimated_correlation
        assert data["n_redraws"] == report.n_redraws
        assert data["wall_config"] == {
            "angles": {"xi": 1.0, "eta": 0.5},
            "marginal_c": dataclasses.asdict(config.marginal_c),
            "n_pairs": 60,
            "seed": 7,
            "time_distribution": text,
        }

    @pytest.mark.parametrize("value, text", [
        (BinaryDistribution(1, 0), '{"p_plus": 1.0, "p_minus": 0.0}'),
        (AnglePair(1, 1), '{"xi": 1.0, "eta": 1.0}'),
        (SignConvention(-1, 1), '{"cos_theta_plus": -1.0, "cos_theta_minus": 1.0}'),
    ])
    def test_integer_arguments_are_stored_and_written_as_floats(self, value, text):
        assert json.dumps(cli._jsonable(value)) == text

    def test_plain_value_objects_convert_as_asdict(self):
        for signs in (DEFAULT_SIGNS, DEFAULT_SIGNS.flipped()):
            assert cli._jsonable(signs) == dataclasses.asdict(signs)
        for check in run_property_suite(20, 3):
            assert cli._jsonable(check) == dataclasses.asdict(check)


class TestSimulateJsonRoundTrip:
    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(1, 2_000),
        seed=st.integers(0, 2**64 - 1),
        xi=st.floats(0.0, math.pi / 2.0, exclude_min=True, exclude_max=True),
        eta=st.floats(0.0, math.pi / 2.0, exclude_min=True, exclude_max=True),
        q=st.floats(0.0, 1.0),
        mode=st.sampled_from(list(TimeDistribution)),
    )
    @example(n=40, seed=3, xi=1.0, eta=0.5, q=0.0, mode=TimeDistribution.UNIFORM_SQUARE)
    @example(n=40, seed=3, xi=1.0, eta=0.5, q=1.0, mode=TimeDistribution.FIXED_ORDER)
    def test_parsed_json_equals_the_converted_report(
        self, argv_dir, report_json, n, seed, xi, eta, q, mode
    ):
        config = SimConfig(AnglePair(xi, eta), BinaryDistribution.from_p_plus(q), n, seed, mode)
        report = run_simulation(config)
        expected = cli._jsonable(report)
        for name in ("estimated_conditionals", "std_errors"):  # NaN is written as null
            nulls = [[value is None for value in row] for row in expected[name]]
            assert nulls == np.isnan(getattr(report, name)).tolist()
        assert json.loads(report_json(report)) == expected

        ran = run_pinned(
            ["simulate", "--xi", repr(xi), "--eta", repr(eta), "--marginal", repr(q),
             "--n", str(n), "--seed", str(seed), "--time-dist", mode.value, "--format", "json"],
            argv_dir,
        )
        assert ran["code"] == 0
        assert json.loads(ran["stdout"])["results"] == {
            **expected,
            "analytic_conditionals": conditional_probabilities(xi - eta).tolist(),
            "analytic_correlation": setting_correlation(xi - eta, config.marginal_c),
        }


# Each value is drawn half the time from ordinary tokens and half from tokens
# chosen to break parsing or validation: non-finite and signed-zero floats,
# the smallest subnormal, near-overflow values, 2**64 written both ways,
# counts of 2**63 and up, empty fields and words. Valid counts stay small so
# every run is quick.
FLOATS = st.one_of(
    st.sampled_from(["0.3", "0.5", "1", "0.7853981633974483", "45"]),
    st.sampled_from(["nan", "inf", "-inf", "-0.0", "0", "5e-324", "1e308", "-1e308", "1.5",
                     "1.5707963267948966", "", "2**64", "x"]),
)
FOUR_FLOATS = st.one_of(  # column-stochastic matrices, and wrong comma counts too
    st.sampled_from(["0.2,0.9,0.8,0.1", "0.5,0.5,0.5,0.5", "1,0,0,1"]),
    st.lists(FLOATS, min_size=1, max_size=5).map(",".join),
)
COUNTS = st.one_of(
    st.sampled_from(["1", "3", "17"]),
    st.sampled_from(["0", "-1", "", "2**64", "1e308", "nan", str(2**63), str(2**64)]),
)
SEEDS = st.one_of(
    st.sampled_from(["0", "7", str((1 << 64) - 1)]),
    st.sampled_from([str(1 << 64), "-1", "", "2**64", "-0.0"]),
)


@st.composite
def cli_argv(draw):
    def maybe(flag, values):
        return [flag, draw(values)] if draw(st.booleans()) else []

    command = draw(st.sampled_from(["lambda", "epr", "verify", "simulate", "chsh"]))
    argv = [command]
    if command == "lambda":
        argv += ["--observed", draw(FLOATS), "--prior", draw(FLOATS)]
        argv += ["--matrix", draw(FOUR_FLOATS)]
        argv += maybe("--beta", st.sampled_from(["+", "-", "+1", "-1"]))
        return argv
    if command == "verify":
        argv += ["--samples", draw(COUNTS), "--seed", draw(SEEDS)]
        return argv + draw(st.sampled_from([[], ["--break-phase-flip"]]))
    if command == "chsh":
        argv += ["--optimal"] if draw(st.booleans()) else ["--settings", draw(FOUR_FLOATS)]
        argv += maybe("--baseline", st.sampled_from([s.value for s in LhvStrategy]))
    else:
        argv += ["--xi", draw(FLOATS), "--eta", draw(FLOATS)]
    if command == "epr":
        argv += draw(st.sampled_from([[], ["--flip-signs"]]))
    else:
        argv += ["--n", draw(COUNTS), "--seed", draw(SEEDS)]
    if command == "simulate":
        argv += maybe("--time-dist", st.sampled_from([t.value for t in TimeDistribution]))
    return argv + maybe("--marginal", FLOATS) + maybe("--unit", st.sampled_from(["rad", "deg"]))


def _numbers(value):
    # Every int, float and null in a parsed JSON value, booleans excluded.
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [number for item in value for number in _numbers(item)]
    if value is None or isinstance(value, (int, float)) and not isinstance(value, bool):
        return [value]
    return []


def _float_cells(text):
    # Every CSV cell below the header that parses as a float; a NaN cell
    # stands for the null JSON writes in its place.
    cells = []
    for row in list(csv.reader(io.StringIO(text)))[1:]:
        for cell in row:
            try:
                value = float(cell)
            except ValueError:
                continue
            cells.append(None if math.isnan(value) else value)
    return cells


class TestCliContract:
    @settings(max_examples=150, deadline=None)
    @given(argv=cli_argv())
    @example(argv=["lambda", "--observed", "0.3", "--prior", "5e-324", "--matrix", "1,0,0,1"])
    @example(argv=["epr", "--xi", "45", "--eta", "1", "--unit", "deg", "--marginal", "-0.0"])
    @example(argv=["verify", "--samples", "3", "--seed", "0", "--break-phase-flip"])
    @example(argv=["simulate", "--xi", "1", "--eta", "0.3", "--n", "17", "--seed", "7",
                   "--marginal", "1"])
    @example(argv=["chsh", "--settings", "5e-324,1e308,-0.0,45", "--n", "3",
                   "--seed", "18446744073709551615", "--baseline", "deterministic-sign"])
    @example(argv=["chsh", "--settings=-0.5,0,0.3,0.9", "--n", "3", "--seed", "0"])
    def test_every_argv_gets_a_result_or_exit_two(self, argv_dir, argv):
        runs = {fmt: run_pinned([*argv, "--format", fmt], argv_dir)
                for fmt in ("table", "json", "csv")}
        codes = {ran["code"] for ran in runs.values()}
        assert len(codes) == 1  # the format never changes the outcome
        code = codes.pop()
        assert code in (0, 1, 2)
        if code == 2:
            assert all(ran["stdout"] == "" for ran in runs.values())
            return
        results = json.loads(runs["json"]["stdout"])["results"]
        assert (code == 1) == (argv[0] == "verify" and results["all_passed"] is False)
        assert Counter(_float_cells(runs["csv"]["stdout"])) <= Counter(_numbers(results))


if __name__ == "__main__":
    import tempfile

    records = {}
    for case, argv in PINNED_CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            records[case] = run_pinned(argv, Path(tmp))
    PINNED_PATH.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n", encoding="utf-8")
