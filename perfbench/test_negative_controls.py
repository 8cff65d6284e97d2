"""The benchmark's output checks accept real output and reject corrupted output.

    python3 -m pytest perfbench -q

Outputs come from the real CLI at small sizes, so the file runs in seconds.
Each negative control corrupts one thing and must be counted as a failed
invocation by the same ``Checker`` the benchmark uses.
"""

from __future__ import annotations

import dataclasses
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from contextprob import cli  # noqa: E402

SEED = 7
SMALL = {"ensemble": 2_000, "scan": 2_000, "trace": 2_000, "verify": 20}


def _workload(name: str):
    return dataclasses.replace(WORKLOADS[name], n=SMALL[name])


def _invoke(w, trace_path):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli.main(w.argv(SEED, str(trace_path)))
    return code, buffer.getvalue().encode()


def _failed(w, exit_code, stdout, trace_path=None, pinned=None) -> list:
    check = run.Checker(w, pinned={str(SEED): pinned or {}})
    check(SEED, exit_code, stdout, trace_path)
    assert check.attempted == 1
    return check.problems if check.failed else []


@pytest.fixture(params=sorted(SMALL))
def output(request, tmp_path):
    w = _workload(request.param)
    trace_path = tmp_path / "trials.jsonl" if w.writes_trace else None
    code, stdout = _invoke(w, trace_path)
    return w, code, stdout, trace_path


def test_real_output_passes(output):
    w, code, stdout, trace_path = output
    assert _failed(w, code, stdout, trace_path) == []


def test_wrong_digest_fails(output):
    w, code, stdout, trace_path = output
    assert _failed(w, code, stdout, trace_path, pinned={"stdout": "0" * 64})


def test_wrong_exit_code_fails(output):
    w, code, stdout, trace_path = output
    assert _failed(w, 1, stdout, trace_path)


def test_digest_differing_from_first_invocation_fails(output):
    w, code, stdout, trace_path = output
    check = run.Checker(w, pinned={})
    check(SEED, code, stdout, trace_path)
    check(SEED, code, stdout.replace(b"\n", b"\n ", 1), trace_path)
    assert (check.attempted, check.failed) == (2, 1)


def test_every_seed_maps_to_a_pinned_seed():
    check = run.Checker(WORKLOADS["verify"])
    assert check.pinned_seed(0) == 0
    assert check.pinned_seed(307) in {int(k) for k in check.pinned}


def _edit_simulate(stdout: bytes, edit) -> bytes:
    doc = json.loads(stdout)
    edit(doc["results"])
    return json.dumps(doc, indent=2).encode()


@pytest.mark.parametrize("name", ["ensemble", "trace"])
def test_flipped_count_fails(name, tmp_path):
    w = _workload(name)
    trace_path = tmp_path / "trials.jsonl" if w.writes_trace else None
    code, stdout = _invoke(w, trace_path)

    def add_one(results):
        results["counts"][0][0] += 1

    def swap_rows(results):
        # Same total, but beta flipped for every gamma = +1 trial.
        c = results["counts"]
        c[0][0], c[1][0] = c[1][0], c[0][0]

    for edit in (add_one, swap_rows):
        assert _failed(w, code, _edit_simulate(stdout, edit), trace_path)


def test_estimate_far_from_analytic_fails():
    w = _workload("ensemble")
    code, stdout = _invoke(w, None)

    def skew(results):
        # Move 20% of the gamma = +1 column between rows: far beyond 6 SE.
        c = results["counts"]
        shift = (c[0][0] + c[1][0]) // 5
        c[0][0] += shift
        c[1][0] -= shift
        n_col = c[0][0] + c[1][0]
        results["estimated_conditionals"][0][0] = c[0][0] / n_col
        results["estimated_conditionals"][1][0] = c[1][0] / n_col
        results["estimated_correlation"] = (c[0][0] - c[1][0] - c[0][1] + c[1][1]) / w.n

    assert _failed(w, code, _edit_simulate(stdout, skew))


@pytest.mark.parametrize("corruption", ["truncated", "dropped", "disordered", "bad_sign", "recount"])
def test_corrupted_trace_file_fails(corruption, tmp_path):
    w = _workload("trace")
    trace_path = tmp_path / "trials.jsonl"
    code, stdout = _invoke(w, trace_path)
    lines = trace_path.read_bytes().split(b"\n")[:-1]
    if corruption == "truncated":
        data = b"\n".join(lines) + b"\n"
        data = data[: data.rindex(b",")] + b"\n"
    elif corruption == "dropped":
        data = b"\n".join(lines[:-1]) + b"\n"
    else:
        rec = json.loads(lines[0])
        if corruption == "disordered":
            rec["t_selection"], rec["t_measurement"] = rec["t_measurement"], rec["t_selection"]
        elif corruption == "bad_sign":
            rec["beta"] = 0
        else:
            rec["beta"] = -rec["beta"]
        data = b"\n".join([json.dumps(rec).encode(), *lines[1:]]) + b"\n"
    trace_path.write_bytes(data)
    assert _failed(w, code, stdout, trace_path)


def test_scan_far_from_analytic_fails():
    w = _workload("scan")
    code, stdout = _invoke(w, None)
    doc = json.loads(stdout)
    doc["results"]["s_estimate"] = -2.0
    assert _failed(w, code, json.dumps(doc).encode())
    doc = json.loads(stdout)
    doc["results"]["baseline"]["s_estimate"] = 2.5
    assert _failed(w, code, json.dumps(doc).encode())


def test_verify_not_all_passed_fails():
    w = _workload("verify")
    code, stdout = _invoke(w, None)
    doc = json.loads(stdout)
    doc["results"]["all_passed"] = False
    assert _failed(w, code, json.dumps(doc).encode())
    # The CLI's own negative control fails the same way, exit code and all.
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli.main([*w.argv(SEED), "--break-phase-flip"])
    assert code == 1 and _failed(w, code, buffer.getvalue().encode())


def test_pinned_digests_cover_every_workload():
    pinned = json.loads(run.PINNED.read_text())
    for name, w in WORKLOADS.items():
        for seed in pinned["seeds"]:
            entry = pinned["digests"][name][str(seed)]
            assert set(entry) == ({"stdout", "trace_file"} if w.writes_trace else {"stdout"})


def test_self_times_add_up_to_the_root_span():
    w = _workload("verify")
    tracer = tracing.Tracer()
    buffer = io.StringIO()
    with tracing.installed(tracer) as traced_main, redirect_stdout(buffer):
        assert traced_main(w.argv(SEED)) == 0
    totals = tracing.layer_totals(tracer.spans)["layers"]
    _, _, start, end, parent = tracer.spans[0]
    assert parent == -1
    assert sum(v["self_s"] for v in totals.values()) == pytest.approx(end - start)
    assert all(totals[layer]["calls"] for layer in ("cli", "verification", "eprbohm", "core"))
    # Tracing moves no output byte, and its patches are gone afterwards.
    assert _invoke(w, None)[1] == buffer.getvalue().encode()
    assert not hasattr(cli.run_property_suite, "__wrapped__")
