#!/usr/bin/env python3
"""Benchmark of the contextprob CLI, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload ensemble --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all        # every workload, both modes

``--trace 0`` measures end-to-end metrics. It runs the CLI from ``src/`` as
one fresh ``python -m contextprob.cli`` process per invocation, one at a time,
for ``--seconds``. Each invocation is timed and its peak RSS read from
``wait4``. Every output is checked, and a failed check counts as a failed
invocation. One more, untimed, invocation at a pinned seed comes first; its
output must match the digests in ``pinned.json``. ``wall_s`` is the median
invocation wall time, and ``wall_ref`` the median of each invocation's wall
time in units of a fixed reference task timed just before and after it.
``setup_s`` is the median wall time of fresh interpreters that import
``contextprob.cli`` and build its parser, and nothing else.

``--trace 1`` measures per-layer metrics in-process. After an untimed call at
the pinned seed, each round runs the same argv through ``contextprob.cli.main``
untraced and again with the spans of ``tracing.py`` installed, the two in
alternating order. It adds the direct measurements the layer metrics
need, such as the raw Philox floor, tracemalloc peaks and the trace-writing
cost. Each metric is the median over rounds. The spans of the last round go
to a JSON-lines file.

Metric names and units come from ``BENCHMARK.json``. The last line of stdout
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``. A full
result file with machine facts, sizes and every sample goes to
``.perfbench/``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
import tracemalloc
from contextlib import redirect_stdout
from importlib import metadata
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
from workloads import (  # noqa: E402
    ETA,
    WORKLOADS,
    XI,
    SCAN_SETTINGS,
    Workload,
    check_digest,
    check_stdout,
    check_trace_file,
    file_sha256,
    sha256,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
PINNED = Path(__file__).resolve().parent / "pinned.json"

# The contract allows 180 s per run; stop short of it with no result printed.
RUN_LIMIT_S = 170
MIN_SAMPLES = 5
IMPORT_SAMPLES = 3
SETUP_CODE = "import contextprob.cli as cli; cli.build_parser()"
# Fixed work that touches no contextprob code, one piece of each kind the
# workloads do: interpreter start, numpy import, a pass over a large array,
# many small numpy calls and many small json.dumps calls. Invocation times are
# reported in units of its time, taken around each invocation, because on a
# shared machine the speed available to a process drifts by a third or more
# within a minute; the ratio cancels most of that drift.
REFERENCE_CODE = (
    "import json\n"
    "import numpy as np\n"
    "a = np.random.default_rng(0).random(4_000_000)\n"
    "b = np.where(a < 0.3, 1, -1).sum()\n"
    "m = np.array([[0.25, 0.75], [0.75, 0.25]])\n"
    "for i in range(5_000): c = bool(np.all(np.abs(m.sum(axis=0) - 1.0) <= 1e-12))\n"
    "t = ''.join(json.dumps({'t': i * 0.5, 'g': 1, 'b': -1}) + '\\n' for i in range(25_000))"
)
IMPORT_CODE = (
    "import time; t = time.perf_counter(); import contextprob.cli; "
    "print(repr(time.perf_counter() - t))"
)


def _on_alarm(signum, frame):
    raise TimeoutError(f"run exceeded {RUN_LIMIT_S} s")


# ---------------------------------------------------------------- child processes


def spawn(args: list[str], stdout_path: Path) -> tuple[int, float, int, bytes]:
    """Run ``python <args>`` with ``src/`` on the path and wait for it.

    Returns exit code, wall seconds, the child's own peak RSS in KiB (from
    ``wait4``, the per-child form of ``getrusage(RUSAGE_CHILDREN)``) and its
    stdout. The child is killed and reaped if the wait is interrupted.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    stderr_path = stdout_path.with_suffix(".stderr")
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(stdout_path), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr_path), flags, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], env, file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    wall = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss, stdout_path.read_bytes()


def interpreter_time(code: str, problems: list) -> float | None:
    """Seconds a fresh interpreter takes to run ``code``, or None if it fails.

    That is the wall time of the process, unless ``code`` prints its own
    timing, which is then returned instead.
    """
    exit_code, wall, _, out = spawn(["-c", code], OUT / "interpreter.stdout")
    if exit_code != 0:
        problems.append(f"interpreter running {code!r} exited {exit_code}")
        return None
    return float(out) if out.strip() else wall


# ---------------------------------------------------------------- output checks


class Checker:
    """Checks each invocation's outputs against the workload's checks, the
    pinned digests of its seed, if it has any, and the first invocation of
    the run at the same seed.

    ``pinned`` maps seeds, as strings, to digests; by default it is the
    workload's entry in ``pinned.json``.
    """

    def __init__(self, w: Workload, pinned: dict | None = None):
        self.w = w
        if pinned is None:
            pinned = json.loads(PINNED.read_text())["digests"][w.name]
        self.pinned = pinned
        self.first: dict = {}
        self._trace_verdicts: dict = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.max_abs_z: float | None = None

    def pinned_seed(self, seed: int) -> int:
        """The pinned seed a run at ``seed`` checks its output against."""
        seeds = sorted(int(k) for k in self.pinned)
        return seeds[seed % len(seeds)]

    def __call__(self, seed: int, exit_code: int, stdout: bytes,
                 trace_path: Path | None) -> None:
        verdict = check_stdout(self.w, seed, exit_code, stdout)
        problems = list(verdict.problems)
        digests = {"stdout": sha256(stdout)}
        if trace_path is not None:
            digests["trace_file"] = file_sha256(trace_path)
            # Equal bytes give an equal verdict, so check each distinct file once.
            key = (digests["trace_file"], digests["stdout"])
            if key not in self._trace_verdicts:
                verdict_trace = []
                if verdict.counts:
                    with open(trace_path, "rb") as lines:
                        verdict_trace = check_trace_file(lines, self.w.n, verdict.counts)
                self._trace_verdicts[key] = verdict_trace
            problems += self._trace_verdicts[key]
        pinned = self.pinned.get(str(seed), {})
        first = self.first.setdefault(seed, {})
        for label, digest in digests.items():
            problems += check_digest(label, digest, pinned.get(label), "pinned")
            problems += check_digest(label, digest, first.setdefault(label, digest),
                                     "run's first")
        self.attempted += 1
        self.failed += bool(problems)
        for problem in problems:
            if problem not in self.problems and len(self.problems) < 10:
                self.problems.append(problem)
        if verdict.max_abs_z is not None:
            self.max_abs_z = max(self.max_abs_z or 0.0, verdict.max_abs_z)

    def summary(self) -> dict:
        return {
            "digests": {str(seed): d for seed, d in self.first.items()},
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems,
        }


# ---------------------------------------------------------------- end-to-end run


def _trial_log_path(w: Workload) -> Path | None:
    return OUT / f"{w.name}-trial-log.jsonl" if w.writes_trace else None


def _another_fits(start: float, seconds: float, done: int) -> bool:
    """Whether one more repetition, at the mean pace so far, ends within ``seconds``."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / done <= seconds


def _harness_maxrss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def measure_cli(w: Workload, seed: int, seconds: float, run_problems: list) -> dict:
    trace_path = _trial_log_path(w)
    check = Checker(w)
    pinned_seed = check.pinned_seed(seed)

    def invoke(at_seed: int) -> tuple[float, int]:
        args = ["-m", "contextprob.cli", *w.argv(at_seed, str(trace_path))]
        exit_code, wall, rss, stdout = spawn(args, OUT / f"{w.name}.stdout")
        check(at_seed, exit_code, stdout, trace_path)
        # A spawned child starts with the spawner's peak RSS, so a reading
        # that does not exceed the harness's own may be the harness's.
        harness = _harness_maxrss_kib()
        if rss <= harness:
            problem = f"child peak RSS {rss} KiB is not above the harness's {harness} KiB"
            if problem not in run_problems:
                run_problems.append(problem)
        return wall, rss

    # Untimed: checks the pinned digests whatever the seed, and writes the
    # bytecode caches, a cost users pay once.
    invoke(pinned_seed)
    walls, rss_kib, setup, refs = [], [], [], []
    start = time.perf_counter()
    # The reference task and the set-up interpreter alternate with the
    # invocations, so all three cover the same stretch of time.
    while len(walls) < MIN_SAMPLES or _another_fits(start, seconds, len(walls)):
        refs.append(interpreter_time(REFERENCE_CODE, run_problems))
        setup.append(interpreter_time(SETUP_CODE, run_problems))
        wall, rss = invoke(seed)
        walls.append(wall)
        rss_kib.append(rss)
    refs.append(interpreter_time(REFERENCE_CODE, run_problems))
    # Each invocation against the mean of the reference runs just before and after it.
    ratios = [wall / ((before + after) / 2.0)
              for wall, before, after in zip(walls, refs, refs[1:]) if before and after]
    wall_s = statistics.median(walls)
    metrics = {
        "wall_ref": statistics.median(ratios),
        "setup_s": statistics.median(s for s in setup if s is not None),
        "peak_rss_mb": statistics.median(rss_kib) / 1024.0,
        "wall_s": wall_s,
        "reference_s": statistics.median(r for r in refs if r is not None),
        f"{w.item_unit}_per_s": w.items / wall_s,
        "failed_frac": check.failed / check.attempted,
    }
    if check.max_abs_z is not None:
        metrics["max_abs_z"] = check.max_abs_z
    return {
        "argv": ["-m", "contextprob.cli", *w.argv(seed, str(trace_path))],
        "pinned_seed": pinned_seed,
        "harness_peak_rss_mb": _harness_maxrss_kib() / 1024.0,
        "metrics": metrics,
        "samples": {"wall_s": walls, "reference_s": refs, "wall_ref": ratios,
                    "setup_s": setup, "peak_rss_mb": [k / 1024.0 for k in rss_kib]},
        **check.summary(),
    }


# ---------------------------------------------------------------- traced run


def _call_cli(main, argv: list[str]) -> tuple[int, bytes, float]:
    buffer = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(buffer):
        exit_code = main(argv)
    return exit_code, buffer.getvalue().encode(), time.perf_counter() - start


def _timed(fn, *args, **kwargs) -> float:
    start = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - start


def _traced_peak_mb(fn):
    """``fn()`` and the tracemalloc peak, in MiB, while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def direct_measurements(w: Workload, seed: int, problems: list) -> dict:
    """Layer costs measured by calling the library directly, untraced.

    A metric for work the workload does not do reads 0.
    """
    import numpy as np

    from contextprob import simulation as sim
    from contextprob.core import BinaryDistribution
    from contextprob.eprbohm import AnglePair

    imports = [interpreter_time(IMPORT_CODE, problems) for _ in range(IMPORT_SAMPLES)]
    m = {
        "cli.import_s": statistics.median(t for t in imports if t is not None),
        "simulation.philox_floor_s": 0.0,
        "simulation.time_order_s": 0.0,
        "simulation.peak_traced_mb": 0.0,
        "simulation.redraws": 0,
        "simulation.scan_peak_traced_mb": 0.0,
        "simulation.trace_s": 0.0,
        "simulation.trace_us_per_line": 0.0,
        "simulation.trace_bytes": 0,
    }
    if w.words_drawn:
        philox = np.random.Philox(key=np.random.SeedSequence(seed).generate_state(2, np.uint64))
        m["simulation.philox_floor_s"] = _timed(philox.random_raw, w.words_drawn)
    if w.command == "simulate":
        config = sim.SimConfig(AnglePair(XI, ETA), BinaryDistribution.uniform(), w.n, seed)
        m["simulation.time_order_s"] = _timed(sim.time_order_statistics, config)
        report, m["simulation.peak_traced_mb"] = _traced_peak_mb(
            lambda: sim.run_simulation(config))
        m["simulation.redraws"] = report.n_redraws
        if w.writes_trace:
            log_path = OUT / f"{w.name}-direct-log.jsonl"
            with open(log_path, "w", encoding="utf-8") as log:
                with_log = _timed(sim.run_simulation, config, trial_log=log)
            trace_s = with_log - _timed(sim.run_simulation, config)
            m["simulation.trace_s"] = trace_s
            m["simulation.trace_us_per_line"] = trace_s / w.n * 1e6
            m["simulation.trace_bytes"] = log_path.stat().st_size
    elif w.command == "chsh":
        uniform = BinaryDistribution.uniform()

        def scan():
            sim.simulate_chsh(*SCAN_SETTINGS, uniform, w.n, seed)
            sim.lhv_baseline_chsh(*SCAN_SETTINGS, sim.LhvStrategy.DETERMINISTIC_SIGN, w.n, seed)

        _, m["simulation.scan_peak_traced_mb"] = _traced_peak_mb(scan)
    return m


def layer_round(w: Workload, seed: int, check: Checker, problems: list,
                cli_main, traced_first: bool) -> tuple[dict, list]:
    """One untraced and one traced in-process invocation, plus direct measurements."""
    trace_path = _trial_log_path(w)
    argv = w.argv(seed, str(trace_path))
    tracer = tracing.Tracer()
    walls = {}
    for traced in (traced_first, not traced_first):
        if traced:
            with tracing.installed(tracer) as traced_main:
                exit_code, stdout, walls[traced] = _call_cli(traced_main, argv)
        else:
            exit_code, stdout, walls[traced] = _call_cli(cli_main, argv)
        check(seed, exit_code, stdout, trace_path)
    untraced_wall, traced_wall = walls[False], walls[True]

    totals = tracing.layer_totals(tracer.spans)
    layers, by_name = totals["layers"], totals["by_name"]
    top = {f: by_name.get(f"contextprob.cli.{f}", 0.0)
           for f in ("run_simulation", "simulate_chsh", "lhv_baseline_chsh",
                     "run_property_suite")}
    simulated = top["run_simulation"] + top["simulate_chsh"] + top["lhv_baseline_chsh"]
    m = {
        "simulation.run_simulation_s": top["run_simulation"],
        "simulation.simulate_chsh_s": top["simulate_chsh"],
        "simulation.lhv_baseline_s": top["lhv_baseline_chsh"],
        "verification.run_property_suite_s": top["run_property_suite"],
        "simulation.ns_per_trial": simulated / w.items * 1e9 if w.words_drawn else 0.0,
        "simulation.words_drawn": w.words_drawn,
        "simulation.bytes_computed": 8 * w.words_drawn,
        "traced_wall_s": traced_wall,
        "trace_overhead_s": traced_wall - untraced_wall,
        "self_coverage": sum(v["self_s"] for v in layers.values()) / traced_wall,
    }
    for layer, v in layers.items():
        m[f"{layer}.calls"] = v["calls"]
        m[f"{layer}.self_s"] = v["self_s"]
        m[f"{layer}.us_per_call"] = v["self_s"] / v["calls"] * 1e6 if v["calls"] else 0.0
    m.update(direct_measurements(w, seed, problems))
    floor = m["simulation.philox_floor_s"]
    m["simulation.floor_ratio"] = simulated / floor if floor else 0.0
    return m, tracer.spans


def measure_layers(w: Workload, seed: int, seconds: float, run_problems: list) -> dict:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from contextprob import cli

    check = Checker(w)
    pinned_seed = check.pinned_seed(seed)
    # Untimed: checks the pinned digests, and finishes lazy imports and
    # first-touch costs before the first timed call.
    trace_path = _trial_log_path(w)
    exit_code, stdout, _ = _call_cli(cli.main, w.argv(pinned_seed, str(trace_path)))
    check(pinned_seed, exit_code, stdout, trace_path)
    rounds, spans = [], []
    start = time.perf_counter()
    while not rounds or _another_fits(start, seconds, len(rounds)):
        metrics, spans = layer_round(w, seed, check, run_problems, cli.main,
                                     traced_first=len(rounds) % 2 == 1)
        rounds.append(metrics)
    spans_path = OUT / f"{w.name}-seed{seed}-spans.jsonl"
    with open(spans_path, "w", encoding="utf-8") as out:
        out.write(json.dumps({"fields": ["name", "layer", "start", "end", "parent"]}) + "\n")
        out.writelines(json.dumps(span) + "\n" for span in spans)
    return {
        "metrics": {k: statistics.median(r[k] for r in rounds) for k in rounds[0]},
        "samples": {k: [r[k] for r in rounds] for k in rounds[0]},
        "pinned_seed": pinned_seed,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "span_count": len(spans),
        **check.summary(),
    }


# ---------------------------------------------------------------- reporting


def machine_facts() -> dict:
    """Processor, cache and toolchain facts, read-only from /proc and /sys."""
    facts = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "platform": platform.platform(),
        "cpu_model": None,
        "caches": [],
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            facts["caches"].append({
                key: (index / key).read_text().strip()
                for key in ("level", "type", "size", "shared_cpu_list")
            })
    except OSError:
        pass
    return facts


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    w = WORKLOADS[name]
    run_problems: list[str] = []
    start = time.perf_counter()
    signal.alarm(RUN_LIMIT_S)
    try:
        measure = measure_layers if trace else measure_cli
        result = measure(w, seed, seconds, run_problems)
    finally:
        signal.alarm(0)
    result["problems"] = run_problems + result["problems"]
    result.update({
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "elapsed_s": time.perf_counter() - start,
        "sizes": w.sizes(),
        "machine": machine_facts(),
        "correct": not result["problems"] and result["failed"] == 0,
    })
    path = OUT / f"{name}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    result["result_file"] = str(path.relative_to(ROOT))
    return result


def _report(result: dict) -> None:
    print(f"{result['workload']} (seed {result['seed']}, trace {result['trace']}): "
          f"{result['attempted']} invocations, {result['failed']} failed, "
          f"{result['elapsed_s']:.1f} s; {result['result_file']}")
    n_wall = len(result["samples"].get("wall_s", []))
    for key, value in result["metrics"].items():
        note = f"  (median of {n_wall} invocations)" if key in ("wall_s", "wall_ref") else ""
        print(f"  {key:<36s} {value!r}{note}")
    for problem in result["problems"]:
        print(f"  problem: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics "
                             "(default: both, for --workload all)")
    args = parser.parse_args(argv)
    if not (SRC / "contextprob" / "cli.py").is_file():
        print(f"error: no contextprob sources under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    OUT.mkdir(exist_ok=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: spec["end_to_end"], 1: spec["per_layer"]}
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = (0, 1) if args.trace is None else (args.trace,)

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for trace in modes:
        for name in names:
            result = run_workload(name, args.seed, seconds, trace)
            _report(result)
            summary["correct"] &= result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            prefix = f"{name}." if len(names) > 1 else ""
            for metric in declared[trace]:
                summary["metrics"][prefix + metric["name"]] = {
                    "value": result["metrics"][metric["name"]], "unit": metric["unit"],
                }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
