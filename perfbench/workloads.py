"""Workload definitions and the checks every invocation's output must pass.

A workload is one ``contextprob`` CLI invocation whose seed comes from the
benchmark. Every check here is a pure function of the bytes the CLI produced,
so the benchmark's own tests can feed it corrupted output. A check returns a
list of problems; an invocation with any problem counts as failed.

Analytic values are computed here from the workload's parameters, never read
back from the program's output, so a program that drifts in both its estimate
and its reported analytic value still fails.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

XI = 0.3
ETA = 1.1
SCAN_SETTINGS = (0.0, math.pi / 4.0, math.pi / 8.0, 3.0 * math.pi / 8.0)
_SCAN_PAIRS = ((0, 2), (0, 3), (1, 2), (1, 3))  # (a,b), (a,b'), (a',b), (a',b')
_SCAN_SIGNS = (1.0, -1.0, 1.0, 1.0)
N_PROPERTY_CHECKS = 7
Z_LIMIT = 6.0


@dataclass(frozen=True)
class Workload:
    """One CLI invocation shape; why each was chosen is in BENCHMARK.json.

    ``command`` is ``simulate``, ``chsh`` or ``verify``. ``n`` is trials per
    ensemble (``simulate``, ``chsh``) or samples per property check
    (``verify``). ``items`` is the work one invocation does, in ``item_unit``.
    """

    name: str
    command: str
    n: int
    writes_trace: bool = False

    def argv(self, seed: int, trace_path: str | None = None) -> list[str]:
        if self.command == "simulate":
            args = ["simulate", "--xi", repr(XI), "--eta", repr(ETA), "--n", str(self.n)]
            if self.writes_trace:
                args += ["--trace", trace_path]
        elif self.command == "chsh":
            args = ["chsh", "--optimal", "--baseline", "deterministic-sign", "--n", str(self.n)]
        else:
            args = ["verify", "--samples", str(self.n)]
        return args + ["--seed", str(seed), "--format", "json"]

    @property
    def items(self) -> int:
        if self.command == "chsh":
            return 8 * self.n  # four model ensembles plus four baseline ensembles
        if self.command == "verify":
            return N_PROPERTY_CHECKS * self.n
        return self.n

    @property
    def item_unit(self) -> str:
        return "samples" if self.command == "verify" else "trials"

    @property
    def words_drawn(self) -> int:
        """64-bit Philox words the simulation layer draws, from array shapes."""
        if self.command == "simulate":
            return 4 * self.n
        if self.command == "chsh":
            # model: four words per trial in each of four ensembles, even on the
            # fixed-order path; deterministic-sign baseline: one per trial.
            return 4 * 4 * self.n + 4 * self.n
        return 0

    def sizes(self) -> dict:
        """Array sizes of one invocation, computed from shapes, not measured."""
        sizes = {self.item_unit: self.items, "words_drawn": self.words_drawn,
                 "word_bytes": 8 * self.words_drawn}
        if self.words_drawn:
            # default --chunks 1: one ensemble's whole (n, 4) float64 word array is live
            sizes["largest_word_array_bytes"] = 8 * 4 * self.n
        return sizes


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ensemble", "simulate", 10_000_000),
        Workload("scan", "chsh", 2_000_000),
        Workload("trace", "simulate", 200_000, writes_trace=True),
        Workload("verify", "verify", 2_000),
    )
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_sha256(path) -> str:
    """sha256 of a file, read in blocks so the reader's memory stays small."""
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def check_digest(label: str, actual: str, expected: str | None, reference: str) -> list[str]:
    """A digest differing from ``reference``'s (pinned, or the run's first)."""
    if expected is None or actual == expected:
        return []
    return [f"{label} sha256 {actual} differs from the {reference} one, {expected}"]


def analytic_cells() -> list[list[float]]:
    """Closed-form p(beta | gamma), rows beta = +1, -1, columns gamma = +1, -1."""
    s2 = math.sin(XI - ETA) ** 2
    c2 = math.cos(XI - ETA) ** 2
    return [[s2, c2], [c2, s2]]


def _correlation(delta: float) -> float:
    return -math.cos(2.0 * delta)


@dataclass
class Verdict:
    """Outcome of checking one invocation."""

    problems: list
    max_abs_z: float | None = None
    counts: list | None = None


def _parse(stdout: bytes, command: str, seed: int, problems: list) -> dict | None:
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        problems.append(f"stdout is not JSON: {exc}")
        return None
    if not isinstance(doc, dict) or doc.get("command") != command or doc.get("seed") != seed:
        problems.append(f"envelope is not a {command} result for seed {seed}")
        return None
    return doc


def _valid_counts(counts) -> bool:
    return (
        isinstance(counts, list) and len(counts) == 2
        and all(isinstance(row, list) and len(row) == 2 for row in counts)
        and all(isinstance(c, int) and not isinstance(c, bool) and c >= 0
                for row in counts for c in row)
    )


def check_simulate(w: Workload, seed: int, exit_code: int, stdout: bytes) -> Verdict:
    """Counts sum to n; every cell and the correlation sit within 6 SE."""
    problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
    doc = _parse(stdout, "simulate", seed, problems)
    if doc is None:
        return Verdict(problems)
    results = doc.get("results", {})
    counts = results.get("counts")
    if not _valid_counts(counts) or sum(map(sum, counts)) != w.n:
        problems.append(f"counts {counts!r} are not four nonnegative integers summing to {w.n}")
        return Verdict(problems)
    z = []
    analytic = analytic_cells()
    reported = results.get("estimated_conditionals")
    for j in range(2):
        n_col = counts[0][j] + counts[1][j]
        if n_col == 0:
            problems.append(f"selection column {j} is empty")
            continue
        for i in range(2):
            p = analytic[i][j]
            est = counts[i][j] / n_col
            z.append((est - p) / math.sqrt(p * (1.0 - p) / n_col))
            try:
                if abs(reported[i][j] - est) > 1e-12:
                    problems.append(f"reported estimate [{i}][{j}] disagrees with its counts")
            except (TypeError, IndexError):
                problems.append("estimated_conditionals is not a 2x2 array of numbers")
    corr = (counts[0][0] - counts[1][0] - counts[0][1] + counts[1][1]) / w.n
    corr_analytic = _correlation(XI - ETA)
    z.append((corr - corr_analytic) / math.sqrt((1.0 - corr_analytic**2) / w.n))
    if results.get("estimated_correlation") != corr:
        problems.append("reported correlation disagrees with its counts")
    worst = max(abs(v) for v in z)
    if worst > Z_LIMIT:
        problems.append(f"estimate {worst:.2f} standard errors from the analytic value")
    return Verdict(problems, worst, counts)


def check_trace_file(lines, n: int, counts: list) -> list[str]:
    """n newline-ended lines, each time-ordered with +-1 outcomes, recounting to ``counts``.

    ``lines`` is any iterable of byte lines, such as a file opened in binary
    mode, so a large trace file is never held in memory whole.
    """
    recount = [[0, 0], [0, 0]]
    index = {1: 0, -1: 1}
    seen = 0
    for k, line in enumerate(lines):
        if not line.endswith(b"\n"):
            return ["trace file does not end with a newline"]
        try:
            rec = json.loads(line)
            ordered = rec["t_selection"] < rec["t_measurement"]
            i, j = index[rec["beta"]], index[rec["gamma"]]
        except (ValueError, KeyError, TypeError):
            return [f"trace line {k} is not a trial record: {line[:80]!r}"]
        if not ordered:
            return [f"trace line {k} has t_selection >= t_measurement"]
        recount[i][j] += 1
        seen = k + 1
    if seen != n:
        return [f"trace file has {seen} lines, expected {n}"]
    if recount != counts:
        return [f"trace recounts to {recount}, stdout reports {counts}"]
    return []


def check_scan(w: Workload, seed: int, exit_code: int, stdout: bytes) -> Verdict:
    """|S - S_analytic| <= 6 SE(S); the local baseline obeys |S| <= 2 + 6 SE."""
    problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
    doc = _parse(stdout, "chsh", seed, problems)
    if doc is None:
        return Verdict(problems)
    results = doc.get("results", {})
    baseline = results.get("baseline") or {}
    s = results.get("s_estimate")
    s_base = baseline.get("s_estimate")
    if not all(isinstance(v, float) and math.isfinite(v) for v in (s, s_base)):
        problems.append("s_estimate or baseline s_estimate missing or not finite")
        return Verdict(problems)
    corr = [_correlation(SCAN_SETTINGS[i] - SCAN_SETTINGS[j]) for i, j in _SCAN_PAIRS]
    s_analytic = sum(sign * e for sign, e in zip(_SCAN_SIGNS, corr))
    se = math.sqrt(sum(1.0 - e * e for e in corr) / w.n)
    z = abs(s - s_analytic) / se
    if z > Z_LIMIT:
        problems.append(f"S = {s!r} is {z:.2f} standard errors from {s_analytic!r}")
    # Each baseline correlation has variance at most 1/n, so 2/sqrt(n) bounds SE.
    se_base = 2.0 / math.sqrt(w.n)
    if baseline.get("strategy") != "deterministic-sign" or abs(s_base) > 2.0 + Z_LIMIT * se_base:
        problems.append(f"baseline {baseline!r} breaks the local bound |S| <= 2")
    return Verdict(problems, z)


def check_verify(w: Workload, seed: int, exit_code: int, stdout: bytes) -> Verdict:
    """Exit 0, all_passed, and seven passing checks at the requested size."""
    problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
    doc = _parse(stdout, "verify", seed, problems)
    if doc is None:
        return Verdict(problems)
    results = doc.get("results", {})
    checks = results.get("checks") or []
    if results.get("all_passed") is not True:
        problems.append("all_passed is not true")
    if len(checks) != N_PROPERTY_CHECKS or not all(
        isinstance(c, dict) and c.get("passed") is True and c.get("n_samples") == w.n
        for c in checks
    ):
        problems.append(f"expected {N_PROPERTY_CHECKS} passing checks of {w.n} samples")
    return Verdict(problems)


_CHECKS = {"simulate": check_simulate, "chsh": check_scan, "verify": check_verify}


def check_stdout(w: Workload, seed: int, exit_code: int, stdout: bytes) -> Verdict:
    return _CHECKS[w.command](w, seed, exit_code, stdout)
