"""The pair runner of the benchmark, ``tools/bench_pairs.py``, with a fake perfbench, and
its trajectory reader, ``tools/bench_table.py``."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
)
bench_pairs = sys.modules["bench_pairs"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)
_spec = importlib.util.spec_from_file_location(
    "bench_table", Path(__file__).resolve().parents[1] / "tools" / "bench_table.py"
)
bench_table = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_table)

DECLARED = [{"name": "wall_ref", "better": "lower"}, {"name": "items_per_s", "better": "higher"}]


def summary(**metrics):
    return {"correct": True, "attempted": 7, "failed": 0,
            "metrics": {name: {"value": value, "unit": "u"} for name, value in metrics.items()}}


def test_pairs_alternate_with_the_parent_first_in_even_pairs():
    calls = []

    def runner(tree, workload, seed, env):
        calls.append((tree, workload, seed, env["X"]))
        return summary(wall_ref=1.0)

    runs = bench_pairs.pair_runs(runner, {"parent": "P", "change": "C"}, "verify", 4, 31,
                                 {"X": "1"})
    assert [tree for tree, *_ in calls] == list("PCCPPCCP")
    assert {tuple(rest) for _, *rest in calls} == {("verify", 31, "1")}
    assert [(run["pair"], run["side"][0], run["position"]) for run in runs] == [
        (0, "p", 0), (0, "c", 1), (1, "c", 0), (1, "p", 1),
        (2, "p", 0), (2, "c", 1), (3, "c", 0), (3, "p", 1)]
    assert runs[0] == {"pair": 0, "side": "parent", "position": 0, "correct": True,
                       "attempted": 7, "failed": 0, "metrics": {"wall_ref": 1.0}}


def test_a_failed_run_is_kept_with_its_error_and_no_metrics():
    def runner(tree, *args):
        return {"correct": False, "error": "boom", "metrics": {}} if tree == "C" else summary(
            wall_ref=1.0)

    runs = bench_pairs.pair_runs(runner, {"parent": "P", "change": "C"}, "scan", 1, 0, {})
    assert runs[1] == {"pair": 0, "side": "change", "position": 1, "correct": False,
                       "attempted": None, "failed": None, "metrics": {}, "error": "boom"}
    assert bench_pairs.summarize(runs, DECLARED) == {}


def run(pair, side, **metrics):
    return {"pair": pair, "side": side, "metrics": metrics}


def test_summary_gives_spreads_ratios_wins_and_the_gap_rule():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.5, 2.0, 2.5, 3.0, 4.0]
    runs = [r for i, (p, c) in enumerate(zip(parent, change))
            for r in (run(i, "parent", wall_ref=p, items_per_s=p),
                      run(i, "change", wall_ref=c, items_per_s=c))]
    runs.append(run(5, "parent", wall_ref=0.1))  # no change side: left out
    figures = bench_pairs.summarize(runs, DECLARED)
    wall = figures["wall_ref"]
    assert wall["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0, "iqr": 2.0, "values": parent}
    assert wall["change"] == {"median": 2.5, "q1": 2.0, "q3": 3.0, "iqr": 1.0, "values": change}
    assert wall["ratios"] == [0.5, 1.0, 2.5 / 3.0, 0.75, 0.8]
    assert wall["median_ratio"] == 0.8
    assert (wall["change_wins"], wall["parent_wins"]) == (4, 0)  # pair 1 is a tie
    assert (wall["gain"], wall["gain_exceeds_parent_iqr"]) == (0.5, False)
    speed = figures["items_per_s"]
    assert (speed["better"], speed["change_wins"], speed["parent_wins"]) == ("higher", 0, 4)
    assert speed["gain"] == -0.5


def test_a_gain_beyond_the_parent_iqr_passes_the_gap_rule():
    runs = [r for i in range(3) for r in (run(i, "parent", wall_ref=1.0 + i / 100),
                                          run(i, "change", wall_ref=0.9))]
    wall = bench_pairs.summarize(runs, DECLARED[:1])["wall_ref"]
    assert wall["parent"]["iqr"] == pytest.approx(0.01)
    assert wall["gain"] == pytest.approx(0.11)
    assert (wall["gain_exceeds_parent_iqr"], wall["change_wins"]) == (True, 3)


def test_a_single_pair_has_zero_spread():
    wall = bench_pairs.summarize([run(0, "parent", wall_ref=2.0), run(0, "change", wall_ref=1.0)],
                                 DECLARED[:1])["wall_ref"]
    assert wall["parent"] == {"median": 2.0, "q1": 2.0, "q3": 2.0, "iqr": 0.0, "values": [2.0]}


@pytest.fixture
def repo(tmp_path):
    """A git repository with two commits and an uncommitted edit of a tracked file."""
    root = tmp_path / "repo"
    root.mkdir()

    def git(*args):
        subprocess.run(["git", "-C", str(root), "-c", "user.name=t", "-c", "user.email=t@t",
                        *args], check=True, capture_output=True)

    git("init", "-q")
    for text, seconds in (("first", 20), ("second", 25)):
        (root / "BENCHMARK.json").write_text(json.dumps({"run_seconds": seconds,
                                                         "end_to_end": DECLARED}))
        (root / "marker").write_text(text)
        git("add", "-A")
        git("commit", "-q", "-m", text)
    (root / "marker").write_text("edited")
    return root


def fake_perfbench(seen):
    def runner(tree, workload, seed, env):
        marker = (tree / "marker").read_text()
        seen.append((tree, marker, env["PYTHONDONTWRITEBYTECODE"], env.get("PYTHONPYCACHEPREFIX")))
        value = {"first": 2.0, "second": 1.0, "edited": 0.5}[marker]
        return summary(wall_ref=value, items_per_s=1 / value)

    return runner


def test_main_exports_both_sides_at_equal_path_lengths_and_writes_the_file(
        repo, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PYTHONPYCACHEPREFIX", str(tmp_path / "pycache"))
    seen, out = [], tmp_path / "BENCH_0.json"
    assert bench_pairs.main(["--parent", "HEAD~1", "--change", "HEAD", "--workload", "verify",
                             "--workload", "scan", "--pairs", "2", "--seed", "3",
                             "--what", "a test", "--out", str(out)],
                            runner=fake_perfbench(seen), root=repo) == 0
    trees = {tree: marker for tree, marker, *_ in seen}
    assert sorted(trees.values()) == ["first", "second"]
    assert len({len(str(tree)) for tree in trees}) == 1
    assert {tree.name: marker for tree, marker in trees.items()} == {"parent": "first",
                                                                     "change": "second"}
    # no bytecode is written, and the installed caches stay in use
    assert {(flag, prefix) for _, _, flag, prefix in seen} == {("1", None)}
    assert not any(tree.exists() for tree in trees)  # the exports are removed

    result = json.loads(out.read_text())
    assert set(result) == {"schema", "what", "commits", "method", "machine", "workloads"}
    assert result["schema"] == "bench_pairs/1"
    assert result["what"] == "a test"
    head = subprocess.run(["git", "-C", str(repo), "rev-parse", "HEAD", "HEAD~1", "HEAD^{tree}",
                           "HEAD~1^{tree}"], capture_output=True, text=True,
                          check=True).stdout.split()
    assert result["commits"] == {"parent": head[1], "change": head[0], "change_revision": "HEAD",
                                 "trees": {"parent": head[3], "change": head[2]}}
    # perfbench runs for each tree's own run_seconds: the runner passes no --seconds
    assert result["method"]["command"] == ["python3", "perfbench/run.py", "--workload", "W",
                                           "--seed", "3", "--trace", "0"]
    assert result["method"]["run_seconds"] == {"parent": 20, "change": 25}
    assert {"nproc", "python", "numpy", "platform"} <= set(result["machine"])
    assert list(result["workloads"]) == ["verify", "scan"]
    for entry in result["workloads"].values():
        assert entry["pairs"] == 2 and len(entry["runs"]) == 4
        wall = entry["metrics"]["wall_ref"]
        assert (wall["parent"]["median"], wall["change"]["median"]) == (2.0, 1.0)
        assert (wall["change_wins"], wall["ratios"]) == (2, [0.5, 0.5])
        assert entry["metrics"]["items_per_s"]["change_wins"] == 2
    # the closing summary is the trajectory reader's table of the file
    assert capsys.readouterr().out.splitlines() == bench_pairs.table(result) == [
        "verify wall_ref: 2 -> 1 [parent IQR 0], change won 2 of 2",
        "verify items_per_s: 0.5 -> 1 [parent IQR 0], change won 2 of 2",
        "scan wall_ref: 2 -> 1 [parent IQR 0], change won 2 of 2",
        "scan items_per_s: 0.5 -> 1 [parent IQR 0], change won 2 of 2",
    ]


def test_the_working_tree_side_sees_uncommitted_edits_and_leaves_the_repository_as_it_was(
        repo, tmp_path):
    seen, out = [], tmp_path / "BENCH_0.json"
    bench_pairs.main(["--parent", "HEAD", "--workload", "verify", "--pairs", "1",
                      "--out", str(out)], runner=fake_perfbench(seen), root=repo)
    assert sorted(marker for _, marker, *_ in seen) == ["edited", "second"]
    assert (repo / "marker").read_text() == "edited"
    stashes = subprocess.run(["git", "-C", str(repo), "stash", "list"], capture_output=True,
                             text=True, check=True).stdout
    assert stashes == ""
    # a tree id names the measured files even once git collects the dangling commit
    commits = json.loads(out.read_text())["commits"]
    subprocess.run(["git", "-C", str(repo), "add", "marker"], check=True)
    tree = subprocess.run(["git", "-C", str(repo), "write-tree"], capture_output=True, text=True,
                          check=True).stdout.strip()
    assert commits["change_revision"] == "worktree"
    assert commits["trees"]["change"] == tree != commits["trees"]["parent"]


def test_the_table_prints_each_schema_file_and_names_each_file_it_skips(tmp_path, capsys):
    runs = [r for i, (p, c) in enumerate([(1.0, 0.5), (2.0, 2.5), (3.0, 1.5)])
            for r in (run(i, "parent", wall_ref=p, items_per_s=p),
                      run(i, "change", wall_ref=c, items_per_s=c))]
    runs.append(run(3, "parent", wall_ref=0.1))  # no change side: not a pair
    result = {"schema": bench_pairs.SCHEMA, "what": "a change",
              "workloads": {"verify": {"pairs": 4, "runs": runs,
                                       "metrics": bench_pairs.summarize(runs, DECLARED)}}}
    paths = [tmp_path / name for name in ("BENCH_6.json", "BENCH_22.json", "BENCH_x.json")]
    paths[0].write_text(json.dumps({"verify": {"wall_ref": 0.5}}))  # assembled by hand
    paths[1].write_text(json.dumps(result))
    paths[2].write_text("{")
    assert bench_table.main([str(path) for path in [*paths, tmp_path / "BENCH_0.json"]]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:4] == [
        f"{paths[0]}: skipped, not bench_pairs/1",
        f"{paths[1]}: a change",
        "  verify wall_ref: 2 -> 1.5 [parent IQR 1], change won 2 of 3",
        "  verify items_per_s: 2 -> 1.5 [parent IQR 1], change won 1 of 3",
    ]
    assert lines[4].startswith(f"{paths[2]}: skipped, Expecting property name")
    assert lines[5].startswith(f"{tmp_path / 'BENCH_0.json'}: skipped, [Errno 2]")
    assert len(lines) == 6
    # one home for the schema and the line format: the writer of the files
    assert (bench_table.SCHEMA, bench_table.table) == (bench_pairs.SCHEMA, bench_pairs.table)
