"""Paired benchmark of two revisions: alternating perfbench runs, one JSON file.

Both revisions are exported with ``git archive`` into fresh directories whose
paths have equal length (``<tmp>/parent`` and ``<tmp>/change``), because the
length of a checkout's path moves what its processes allocate. ``--change
worktree`` (the default) exports the working tree: the commit that ``git stash
create`` makes of the tracked files, staged or not, without touching the tree
or the stash list. Untracked files are left out, so ``git add`` new ones first.

For each workload, each pair runs

    python3 perfbench/run.py --workload W --seed S --trace 0

once in each tree, one after the other, for the ``run_seconds`` of that tree's
``BENCHMARK.json``, in ABBA order: the parent runs first in even pairs and the
change in odd ones. Every run has ``PYTHONDONTWRITEBYTECODE=1`` and no
``PYTHONPYCACHEPREFIX``: the fresh trees hold no bytecode and none is written,
so both sides compile ``src/`` in every process and no run reads bytecode that
another wrote, while the standard library and numpy load from their installed
caches. A cache prefix would hide those caches too, and every process would
compile numpy: ``import numpy`` takes about 0.55 s that way against 0.17 s,
and the benchmark would time the compiler rather than the program.

The output file has one schema: both commits and their tree ids, the machine
facts, the method, every run, and per workload and declared end-to-end metric
each side's median, quartiles (``statistics.quantiles``, inclusive) and IQR,
the per-pair change/parent ratios, the pairs each side won (ties count for
neither), and whether the change's gain in the median exceeds the parent's IQR.
A ``worktree`` commit has no ref, so git may collect it; its tree id still
matches any commit that holds the same files (``git rev-parse C^{tree}``).

Run from the repository root, for example:

    python tools/bench_pairs.py --parent HEAD --workload verify --pairs 10 \\
        --seed 31 --out BENCH_22.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
SCHEMA = "bench_pairs/1"


def _git(root: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(root), *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def resolve(root: Path, rev: str) -> str:
    """The commit ``rev`` names; ``worktree`` is the tracked files as they are now."""
    if rev == "worktree":  # a throwaway commit, so any committer name will do
        stash = _git(root, "-c", "user.name=bench_pairs", "-c", "user.email=bench@localhost",
                     "stash", "create")
        return stash or _git(root, "rev-parse", "HEAD")
    return _git(root, "rev-parse", "--verify", f"{rev}^{{commit}}")


def export(root: Path, commit: str, into: Path) -> None:
    into.mkdir()
    archive = subprocess.run(["git", "-C", str(root), "archive", commit], check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def run_perfbench(tree: Path, workload: str, seed: int, env: dict) -> dict:
    """One ``perfbench/run.py --trace 0`` run in ``tree``: its last stdout line, parsed."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--trace", "0"]
    child = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    lines = child.stdout.splitlines()
    if child.returncode or not lines:
        return {"correct": False, "error": child.stderr[-2000:], "metrics": {}}
    return json.loads(lines[-1])


def pair_runs(runner, trees: dict, workload: str, pairs: int, seed: int, env: dict) -> list[dict]:
    """Every run of ``pairs`` ABBA pairs of ``workload``, in the order they ran."""
    runs = []
    for pair in range(pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for position, side in enumerate(order):
            summary = runner(trees[side], workload, seed, env)
            run = {
                "pair": pair,
                "side": side,
                "position": position,
                "correct": summary.get("correct", False),
                "attempted": summary.get("attempted"),
                "failed": summary.get("failed"),
                "metrics": {name: entry["value"]
                            for name, entry in summary.get("metrics", {}).items()},
            }
            if "error" in summary:
                run["error"] = summary["error"]
            runs.append(run)
            shown = ", ".join(f"{k} {v:.4g}" for k, v in run["metrics"].items())
            print(f"{workload} pair {pair} {side}: {shown or 'no metrics'}"
                  f"{'' if run['correct'] else ' (not correct)'}", file=sys.stderr)
    return runs


def spread(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else (median, median, median))
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "values": values}


def summarize(runs: list[dict], declared: list[dict]) -> dict:
    """Per declared metric: both sides' spreads, per-pair ratios, wins and the gap rule.

    A pair missing the metric on either side is left out of every figure.
    """
    by_pair: dict[int, dict] = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run["metrics"]
    out = {}
    for metric in declared:
        name, lower = metric["name"], metric["better"] == "lower"
        pairs = [(sides["parent"][name], sides["change"][name])
                 for _, sides in sorted(by_pair.items())
                 if all(name in sides.get(side, {}) for side in SIDES)]
        if not pairs:
            continue
        parent, change = (spread(list(values)) for values in zip(*pairs))
        gain = (parent["median"] - change["median"]) * (1 if lower else -1)
        ratios = [c / p for p, c in pairs]
        out[name] = {
            "better": metric["better"],
            "parent": parent,
            "change": change,
            "ratios": ratios,
            "median_ratio": statistics.median(ratios),
            "change_wins": sum((c < p) if lower else (c > p) for p, c in pairs),
            "parent_wins": sum((p < c) if lower else (p > c) for p, c in pairs),
            "gain": gain,
            "gain_exceeds_parent_iqr": gain > parent["iqr"],
        }
    return out


def table(result: dict) -> list[str]:
    """One line per workload and end-to-end metric of a result: both medians, the
    parent's IQR and the pairs the change won."""
    return [f"{workload} {name}: {m['parent']['median']:.4g} -> {m['change']['median']:.4g} "
            f"[parent IQR {m['parent']['iqr']:.3g}], change won {m['change_wins']} "
            f"of {len(m['ratios'])}"
            for workload, entry in result["workloads"].items()
            for name, m in entry["metrics"].items()]


def machine_facts() -> dict:
    facts = {"nproc": os.cpu_count(), "python": platform.python_version(),
             "platform": platform.platform(), "cpu_model": None}
    for package in ("numpy", "orjson"):
        try:
            facts[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            facts[package] = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return facts


def main(argv: list[str] | None = None, runner=run_perfbench, root: Path = ROOT) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="revision of the parent side")
    parser.add_argument("--change", default="worktree",
                        help="revision of the change side (default: worktree)")
    parser.add_argument("--workload", action="append", required=True,
                        help="a perfbench workload; repeat for more, run in the order given")
    parser.add_argument("--pairs", type=int, default=10, help="pairs per workload (default: 10)")
    parser.add_argument("--seed", type=int, default=0, help="perfbench --seed (default: 0)")
    parser.add_argument("--what", default="", help="one line on what the change does")
    parser.add_argument("--out", required=True, type=Path, help="the JSON file to write")
    args = parser.parse_args(argv)

    commits = {"parent": resolve(root, args.parent), "change": resolve(root, args.change)}
    commit_trees = {side: _git(root, "rev-parse", f"{commits[side]}^{{tree}}") for side in SIDES}
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))  # runs the finally
    work = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        trees = {side: work / side for side in SIDES}  # equal names, equal path lengths
        for side in SIDES:
            export(root, commits[side], trees[side])
        specs = {side: json.loads((trees[side] / "BENCHMARK.json").read_text())
                 for side in SIDES}
        declared = specs["change"]["end_to_end"]
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        env.pop("PYTHONPYCACHEPREFIX", None)
        workloads = {}
        for workload in args.workload:
            runs = pair_runs(runner, trees, workload, args.pairs, args.seed, env)
            workloads[workload] = {"pairs": args.pairs, "runs": runs,
                                   "metrics": summarize(runs, declared)}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "schema": SCHEMA,
        "what": args.what,
        "commits": {**commits, "change_revision": args.change, "trees": commit_trees},
        "method": {
            "command": ["python3", "perfbench/run.py", "--workload", "W", "--seed",
                        str(args.seed), "--trace", "0"],
            "run_seconds": {side: specs[side]["run_seconds"] for side in SIDES},
            "order": "ABBA: parent first in even pairs, change first in odd pairs",
            "trees": "git archive exports at <tmp>/parent and <tmp>/change",
            "env": {"PYTHONDONTWRITEBYTECODE": "1", "PYTHONPYCACHEPREFIX": None},
            "statistics": "medians and inclusive quartiles over each side's runs; a pair is "
                          "won by the better value, ties count for neither",
        },
        "machine": machine_facts(),
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    for line in table(result):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
