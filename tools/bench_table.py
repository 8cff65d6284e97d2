"""Trajectory of the paired benchmark: one line per workload and end-to-end metric.

Reads the ``BENCH_*.json`` files that ``tools/bench_pairs.py`` writes, whose
``schema`` is ``bench_pairs/1``, and prints each file's ``what`` and then, per
workload and declared end-to-end metric, the parent's median, the change's
median, the parent's IQR and the pairs the change won out of the pairs that
measured the metric. A file of any other shape is named as skipped: ``BENCH_6``
to ``BENCH_21`` were assembled by hand and carry no schema.

Run from the repository root, for example:

    python tools/bench_table.py BENCH_*.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from bench_pairs import SCHEMA, table  # the writer of the files, beside this one in tools/


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs="+", type=Path, help="BENCH_*.json files, in print order")
    for path in parser.parse_args(argv).paths:
        try:
            result = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            print(f"{path}: skipped, {exc}")
            continue
        if not isinstance(result, dict) or result.get("schema") != SCHEMA:
            print(f"{path}: skipped, not {SCHEMA}")
            continue
        print(f"{path}: {result['what']}")
        for line in table(result):
            print(f"  {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
