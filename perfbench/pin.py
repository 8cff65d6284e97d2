#!/usr/bin/env python3
"""Record the sha256 of every workload's output for the pinned seeds.

    python3 perfbench/pin.py

writes ``perfbench/pinned.json``: for each workload and each seed in
``PINNED_SEEDS``, the digest of the CLI's stdout and, for ``trace``, of the
trace file. Every run of ``run.py``, whatever its seed, makes one invocation
at the pinned seed ``seed % 16`` and counts it as failed if a digest differs
from the pinned one. The CLI's output for a seed is meant to stay byte-identical,
so re-pin only in a change that moves output bytes on purpose and says so.
An output that fails its checks is never pinned.
"""

from __future__ import annotations

import json
import sys

from run import OUT, PINNED, spawn
from workloads import WORKLOADS, check_stdout, check_trace_file, file_sha256, sha256

PINNED_SEEDS = range(16)


def main() -> int:
    OUT.mkdir(exist_ok=True)
    digests: dict = {}
    for name, w in WORKLOADS.items():
        trace_path = OUT / f"{name}-trial-log.jsonl" if w.writes_trace else None
        for seed in PINNED_SEEDS:
            args = ["-m", "contextprob.cli", *w.argv(seed, str(trace_path))]
            exit_code, _, _, stdout = spawn(args, OUT / f"{name}.stdout")
            verdict = check_stdout(w, seed, exit_code, stdout)
            entry = {"stdout": sha256(stdout)}
            problems = verdict.problems
            if trace_path is not None and not problems:
                with open(trace_path, "rb") as lines:
                    problems = check_trace_file(lines, w.n, verdict.counts)
                entry["trace_file"] = file_sha256(trace_path)
            if problems:
                print(f"{name} seed {seed}: not pinned: {problems}", file=sys.stderr)
                return 1
            digests.setdefault(name, {})[str(seed)] = entry
            print(f"{name} seed {seed}: {entry}")
    doc = {"seeds": list(PINNED_SEEDS), "digests": digests}
    PINNED.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
