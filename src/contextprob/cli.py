"""Command-line front end.

Five subcommands: ``lambda`` (incompatibility coefficient of one observed
probability), ``epr`` (closed form next to the interference reconstruction),
``verify`` (randomized self-checks), ``simulate`` (one seeded ensemble), and
``chsh`` (four-setting scan with an optional local baseline).

Output contract: ``table`` is for people, six significant digits; ``json``
and ``csv`` are machine formats carrying full-precision floats, so identical
invocations produce byte-identical output and re-parsing recovers the
in-memory values exactly. JSON always has the shape
``{"command", "inputs", "results", "seed"}`` with NaN rendered as null.
This module is the one writer of JSON and CSV reports: library value objects
only expose fields, and ``_jsonable`` turns a dataclass into a dict of its
fields, an enum into its value and an array into lists. There is one render
path: each command handler returns an ``_Output`` record holding its values in
every format, and :func:`main` picks the one asked for and writes it. In CSV
mode a seeded command echoes its seed on stderr, so stdout stays pure CSV.

Exit codes: 0 on success, 1 when a verified property fails, 2 on invalid
usage or input validation errors, including an ``--out`` or ``--trace`` path
that cannot be opened, the two naming one file, output (stdout or either
file) that cannot be written, a closed stdout included, and a ``--trace``
without an importable orjson, which writes its times. Output files are
opened before any computation, as a shell redirection would open them. An
interrupt (SIGINT, Ctrl-C) ends the process with one ``interrupted`` line on
stderr and exit code 130, as a shell reports a command killed by it.

Parsing loads no numpy and no layer: ``--help`` and a usage error exit before
any of them is imported. A handler imports what it runs on first use, and
``dataclasses`` and ``json`` load only when a report is rendered.
"""

from __future__ import annotations

import _signal  # signal's C core, loaded with the interpreter; signal itself costs ~1 ms
import argparse
import gc
import io
import math
import os
import sys
from collections import namedtuple
from contextlib import ExitStack
from enum import Enum

from ._choices import LhvStrategy, TimeDistribution
from .errors import ContextualProbabilityError

OPTIMAL_SETTINGS = (0.0, math.pi / 4.0, math.pi / 8.0, 3.0 * math.pi / 8.0)

_SIGN_VALUES = {"+": 1, "+1": 1, "-": -1, "-1": -1}
# the four cells (i, j, beta, gamma) of a result-by-condition matrix, row-major
_CELLS = tuple((i, j, b, g) for i, b in enumerate("+-") for j, g in enumerate("+-"))

# Parsing needs no layer, and every layer loads numpy. A handler looks up each name
# it takes from a layer on ``_late``, this module, whose ``__getattr__`` looks up any
# name the package exports, imports its layer and binds it here on first use. The
# binding made here is the one called, so a test or perfbench/tracing.py can patch
# it as ``contextprob.cli.run_simulation``.
def __getattr__(name: str):
    if name not in sys.modules[__package__].__all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # numpy's C start-up turns an interrupt into an ImportError that hides it, so
    # SIGINT is held while a layer loads; unblocking raises one that came meanwhile.
    held = _signal.pthread_sigmask(_signal.SIG_BLOCK, {_signal.SIGINT}) if _MASKS else None
    try:
        value = getattr(sys.modules[__package__], name)
    finally:
        if held is not None:
            _signal.pthread_sigmask(_signal.SIG_SETMASK, held)
    globals()[name] = value
    return value


_late = sys.modules[__name__]
_MASKS = hasattr(_signal, "pthread_sigmask")  # not on Windows


# ---------------------------------------------------------------- argument types


def _float_arg(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")


def _int_arg(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")


def _positive_int(text: str) -> int:
    if (value := _int_arg(text)) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _uint64(text: str) -> int:
    if not 0 <= (value := _int_arg(text)) < 1 << 64:
        raise argparse.ArgumentTypeError("seed must satisfy 0 <= seed < 2**64")
    return value


def _four_floats(text: str) -> list[float]:
    # --matrix row-major p(+|+),p(+|-),p(-|+),p(-|-), or --settings a,a',b,b'
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(f"expected 4 comma-separated numbers, got {len(parts)}")
    return [_float_arg(part) for part in parts]


# ---------------------------------------------------------------- small helpers


def _resolve_seed(seed: int | None) -> int:
    if seed is not None:
        return seed
    return int.from_bytes(os.urandom(8), "little")


def _to_radians(value: float, unit: str) -> float:
    return math.radians(value) if unit == "deg" else value


def _jsonable(obj):
    # a dataclass by its fields, in declaration order; NaN and inf become null. Only a
    # handler's values meet it, and their layer has already loaded dataclasses.
    from dataclasses import fields, is_dataclass

    if is_dataclass(obj):
        obj = {f.name: getattr(obj, f.name) for f in fields(obj)}
    elif isinstance(obj, Enum):
        obj = obj.value
    elif hasattr(obj, "tolist"):  # a numpy array or scalar
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {key: _jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(value) for value in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _json_text(command: str, inputs: dict, results: dict, seed: int | None) -> str:
    import json  # here, not at module top: only JSON output needs it

    envelope = {
        "command": command,
        "inputs": _jsonable(inputs),
        "results": _jsonable(results),
        "seed": seed,
    }
    return json.dumps(envelope, indent=2, allow_nan=False) + "\n"


def _csv_text(rows: list[list]) -> str:
    # csv.writer writes None as an empty cell and a float as its repr
    import csv  # here, not at module top: only CSV output needs it

    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def _fmt(value) -> str:
    # Human table cell, six significant digits.
    return "undefined" if value is None else format(value, ".6g")


def _matrix_lines(label: str, entries) -> list[str]:
    lines = [f"  {label}  (rows: result +,-; columns: condition +,-)"]
    for row in entries:
        lines.append("      " + "  ".join(f"{_fmt(float(v)):>12s}" for v in row))
    return lines


# One command's values, ready for each format; ``main`` renders one. ``rows`` are
# the CSV rows, header first. ``seed`` is None for commands that draw nothing at
# random. ``status`` is the exit code: 1 when a verified property failed, 0 otherwise.
_Output = namedtuple("_Output", "inputs results seed rows lines status", defaults=(0,))


# ---------------------------------------------------------------- lambda command


def _cmd_lambda(args: argparse.Namespace) -> _Output:
    prior = _late.BinaryDistribution.from_p_plus(args.prior)
    m = args.matrix
    transition = _late.TransitionMatrix([m[:2], m[2:]])
    beta = _SIGN_VALUES[args.beta]
    classical = _late.classical_total_probability(prior, transition, beta)
    coeff = _late.incompatibility_coefficient(args.observed, prior, transition, beta)

    inputs = {
        "observed": args.observed,
        "prior_p_plus": args.prior,
        "matrix": transition.entries.tolist(),
        "beta": beta,
    }
    results = {"classical": classical, "lambda": coeff.lam,
               "regime": coeff.regime.value, "theta": coeff.theta}
    rows = [["field", "value"], *results.items()]
    lines = [
        "incompatibility coefficient",
        f"  observed  : {_fmt(args.observed)}",
        f"  classical : {_fmt(classical)}",
        f"  lambda    : {_fmt(coeff.lam)}",
        f"  regime    : {coeff.regime.value}",
    ]
    if coeff.regime is _late.Regime.TRIGONOMETRIC:
        lines.append(f"  theta     : {_fmt(coeff.theta)} rad")
    return _Output(inputs, results, None, rows, lines)


# ---------------------------------------------------------------- epr command


def _cmd_epr(args: argparse.Namespace) -> _Output:
    angles = _late.AnglePair(_to_radians(args.xi, args.unit), _to_radians(args.eta, args.unit))
    signs = _late.DEFAULT_SIGNS.flipped() if args.flip_signs else _late.DEFAULT_SIGNS
    marginal = _late.BinaryDistribution.from_p_plus(args.marginal)
    closed = _late.epr_bohm_probabilities(angles)
    recon = _late.reconstruct_via_interference(angles, signs)
    max_diff = float(abs(closed.entries - recon.entries).max())
    corr = _late.setting_correlation(angles.delta, marginal)

    inputs = {
        "xi": angles.xi,
        "eta": angles.eta,
        "signs": signs,
        "marginal_p_plus": marginal.p_plus,
    }
    results = {
        "closed_form": closed.entries.tolist(),
        "reconstructed": recon.entries.tolist(),
        "max_abs_difference": max_diff,
        "correlation": corr,
    }
    rows = [["record", "beta", "gamma", "value"]]
    for label, matrix in (("closed_form", closed), ("reconstructed", recon)):
        rows += ([label, b, g, float(matrix.entries[i, j])] for i, j, b, g in _CELLS)
    rows.append(["max_abs_difference", "", "", max_diff])
    rows.append(["correlation", "", "", corr])
    lines = [
        "selection-conditioned probabilities",
        f"  xi = {_fmt(angles.xi)} rad, eta = {_fmt(angles.eta)} rad",
        f"  phase cosines: ({_fmt(signs.cos_theta_plus)}, {_fmt(signs.cos_theta_minus)})",
    ]
    lines += _matrix_lines("closed form", closed.entries)
    lines += _matrix_lines("interference reconstruction", recon.entries)
    lines += [
        f"  max |difference| : {max_diff:.3e}",
        f"  correlation      : {_fmt(corr)}  (marginal p(+) = {_fmt(marginal.p_plus)})",
    ]
    return _Output(inputs, results, None, rows, lines)


# ---------------------------------------------------------------- verify command


def _cmd_verify(args: argparse.Namespace) -> _Output:
    seed = _resolve_seed(args.seed)
    checks = _late.run_property_suite(args.samples, seed, break_phase_flip=args.break_phase_flip)
    all_passed = all(check.passed for check in checks)

    inputs = {"samples": args.samples, "break_phase_flip": args.break_phase_flip}
    results = {"checks": checks, "all_passed": all_passed}
    rows = [["property", "samples", "worst_residual", "status"]]
    width = max(len(check.name) for check in checks)
    lines = [f"property checks  (seed {seed}, {args.samples} samples each)"]
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        rows.append([check.name, check.n_samples, check.worst_residual, status])
        lines.append(
            f"  {check.name:<{width}s}  worst residual {check.worst_residual:9.3e}  {status}"
        )
    lines.append("all passed" if all_passed else "FAILURES PRESENT")
    return _Output(inputs, results, seed, rows, lines, 0 if all_passed else 1)


# ---------------------------------------------------------------- simulate command


def _cmd_simulate(args: argparse.Namespace) -> _Output:
    seed = _resolve_seed(args.seed)
    config = _late.SimConfig(
        angles=_late.AnglePair(_to_radians(args.xi, args.unit), _to_radians(args.eta, args.unit)),
        marginal_c=_late.BinaryDistribution.from_p_plus(args.marginal),
        n_pairs=args.n,
        seed=seed,
        time_distribution=TimeDistribution(args.time_dist),
    )
    report = _late.run_simulation(config, trial_log=args.trace)
    analytic = _late.conditional_probabilities(config.angles.delta)
    analytic_corr = _late.setting_correlation(config.angles.delta, config.marginal_c)

    results = {**_jsonable(report), "analytic_conditionals": analytic,
               "analytic_correlation": analytic_corr}
    rows = [["beta", "gamma", "count", "estimate", "std_error"]]
    lines = [
        "ensemble simulation",
        f"  xi = {_fmt(config.angles.xi)} rad, eta = {_fmt(config.angles.eta)} rad, "
        f"marginal p(+) = {_fmt(config.marginal_c.p_plus)}",
        f"  trials = {config.n_pairs}, seed = {seed}, "
        f"times = {config.time_distribution.value}, redraws = {report.n_redraws}",
        "  beta gamma      count     estimate    std_error     analytic",
    ]
    for i, j, b, g in _CELLS:
        count = int(report.counts[i, j])
        est = float(report.estimated_conditionals[i, j])
        se = float(report.std_errors[i, j])
        rows.append([b, g, count, est, se])
        lines.append(
            f"  {b:>4s} {g:>5s} {count:>10d} {_fmt(est):>12s} {_fmt(se):>12s} "
            f"{_fmt(float(analytic[i, j])):>12s}"
        )
    lines.append(
        f"  correlation: estimated {_fmt(report.estimated_correlation)}, "
        f"analytic {_fmt(analytic_corr)}"
    )
    return _Output(_jsonable(config), results, seed, rows, lines)


# ---------------------------------------------------------------- chsh command


def _cmd_chsh(args: argparse.Namespace) -> _Output:
    settings = OPTIMAL_SETTINGS if args.optimal else [_to_radians(v, args.unit)
                                                      for v in args.settings]
    seed = _resolve_seed(args.seed)
    marginal = _late.BinaryDistribution.from_p_plus(args.marginal)
    s_estimate = _late.simulate_chsh(*settings, marginal, args.n, seed)
    results = {"s_estimate": s_estimate, "s_abs": abs(s_estimate),
               "s_analytic": _late.chsh(*settings, marginal), "baseline": None}

    inputs = {"settings": settings, "marginal_p_plus": marginal.p_plus, "n_per_setting": args.n}
    rows = [["quantity", "value"], *list(results.items())[:3]]
    lines = [
        "four-setting correlation scan",
        "  settings (rad): a = {}, a' = {}, b = {}, b' = {}".format(*map(_fmt, settings)),
        f"  trials per setting = {args.n}, seed = {seed}",
        f"  S estimate : {_fmt(s_estimate)}   |S| = {_fmt(abs(s_estimate))}",
        f"  S analytic : {_fmt(results['s_analytic'])}",
    ]
    if strategy := args.baseline:  # an LhvStrategy value
        s = _late.lhv_baseline_chsh(*settings, LhvStrategy(strategy), args.n, seed)
        results["baseline"] = {"strategy": strategy, "s_estimate": s, "s_abs": abs(s)}
        rows.append([f"baseline_{strategy}", s])
        lines.append(f"  baseline ({strategy}): S = {_fmt(s)}   |S| = {_fmt(abs(s))}")
    return _Output(inputs, results, seed, rows, lines)


# ---------------------------------------------------------------- parser wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contextprob",
        description="Contextual probability calculus for dichotomous observables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_lambda = sub.add_parser(
        "lambda", help="incompatibility coefficient of an observed probability"
    )
    p_lambda.add_argument("--observed", type=_float_arg, required=True,
                          help="directly measured probability of the result")
    p_lambda.add_argument("--prior", type=_float_arg, required=True,
                          help="probability of the + conditioning outcome")
    p_lambda.add_argument("--matrix", type=_four_floats, required=True,
                          help="transition matrix, row-major: p(+|+),p(+|-),p(-|+),p(-|-)")
    p_lambda.add_argument("--beta", choices=sorted(_SIGN_VALUES), default="+",
                          help="result outcome (default: +)")

    p_epr = sub.add_parser(
        "epr", help="closed-form conditionals next to the interference reconstruction"
    )
    p_verify = sub.add_parser("verify", help="randomized self-checks")
    p_sim = sub.add_parser("simulate", help="one seeded ensemble of selection/measurement trials")
    for command in (p_epr, p_sim):
        command.add_argument("--xi", type=_float_arg, required=True,
                             help="first angle, in (0, pi/2)")
        command.add_argument("--eta", type=_float_arg, required=True,
                             help="second angle, in (0, pi/2)")
        command.add_argument("--unit", choices=("rad", "deg"), default="rad",
                             help="unit of the angle arguments (default: rad)")

    p_epr.add_argument("--flip-signs", action="store_true",
                       help="use phase cosines (+1, -1) instead of (-1, +1)")
    p_epr.add_argument("--marginal", type=_float_arg, default=0.5,
                       help="selection marginal p(+) for the correlation (default: 0.5)")

    p_verify.add_argument("--samples", type=_positive_int, default=1000,
                          help="samples per check (default: 1000)")
    p_verify.add_argument("--seed", type=_uint64, default=None,
                          help="seed of the sweep (default: fresh entropy)")
    p_verify.add_argument("--break-phase-flip", action="store_true",
                          help="negative control: suppress the cross-context phase flip")

    p_sim.add_argument("--marginal", type=_float_arg, default=0.5,
                       help="selection marginal p(+) (default: 0.5)")
    p_sim.add_argument("--n", type=_positive_int, required=True, help="number of trials")
    p_sim.add_argument("--seed", type=_uint64, default=None,
                       help="root seed (default: fresh entropy, echoed in the output)")
    p_sim.add_argument("--time-dist", choices=[t.value for t in TimeDistribution],
                       default=TimeDistribution.UNIFORM_SQUARE.value,
                       help="how event times are drawn (default: uniform-square)")
    p_sim.add_argument("--trace", metavar="PATH",
                       help="write one JSON line per trial to this file")

    p_chsh = sub.add_parser("chsh", help="four-setting correlation scan")
    p_settings = p_chsh.add_mutually_exclusive_group(required=True)
    p_settings.add_argument("--settings", type=_four_floats,
                            help="comma-separated a,a',b,b'; a list starting with a "
                                 "negative value needs the --settings=-0.5,0,0.3,0.9 form")
    p_settings.add_argument("--optimal", action="store_true",
                            help="use settings 0, pi/4, pi/8, 3 pi/8 (radians)")
    p_chsh.add_argument("--unit", choices=("rad", "deg"), default="rad",
                        help="unit of --settings values (default: rad)")
    p_chsh.add_argument("--marginal", type=_float_arg, default=0.5,
                        help="selection marginal p(+) (default: 0.5)")
    p_chsh.add_argument("--n", type=_positive_int, required=True,
                        help="trials per setting pair")
    p_chsh.add_argument("--seed", type=_uint64, default=None,
                        help="root seed (default: fresh entropy, echoed in the output)")
    p_chsh.add_argument("--baseline", choices=[s.value for s in LhvStrategy], default=None,
                        help="also run a local hidden-variable baseline from the same seed")

    for command, handler in ((p_lambda, _cmd_lambda), (p_epr, _cmd_epr), (p_verify, _cmd_verify),
                             (p_sim, _cmd_simulate), (p_chsh, _cmd_chsh)):
        command.add_argument("--format", choices=("table", "json", "csv"), default="table",
                             help="output format (default: table)")
        command.add_argument("--out", metavar="PATH",
                             help="write output to a file instead of stdout")
        command.set_defaults(handler=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has already written its message
        return int(exc.code or 0)
    stream = None
    try:  # a write, flush or close that fails, on stdout or a file, exits 2 too
        with ExitStack() as files:
            try:  # replace the --out and --trace paths on ``args`` with open files
                for name in ("out", "trace"):
                    if path := getattr(args, name, None):
                        setattr(args, name, files.enter_context(open(path, "w", encoding="utf-8")))
            except OSError as exc:
                print(f"error: cannot open output file: {exc}", file=sys.stderr)
                return 2
            trace = getattr(args, "trace", None)
            if args.out and trace:
                if os.path.samestat(os.fstat(args.out.fileno()), os.fstat(trace.fileno())):
                    print("error: --out and --trace name the same file", file=sys.stderr)
                    return 2
            try:
                output = args.handler(args)
            except ContextualProbabilityError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            if args.format == "json":
                text = _json_text(args.command, output.inputs, output.results, output.seed)
            elif args.format == "csv":
                text = _csv_text(output.rows)
                if output.seed is not None:
                    print(f"seed: {output.seed}", file=sys.stderr)
            else:
                text = "\n".join(output.lines) + "\n"
            if trace:  # a trace that cannot be written fails before the report is out
                trace.flush()
            if (stream := args.out or sys.stdout) is None:  # started with fd 1 closed
                raise OSError("stdout is closed")
            stream.write(text)
            stream.flush()
            return output.status
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        if stream is sys.stdout is not None:  # drop the kept bytes, or exit flushes them again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2


def entry() -> None:
    """Run ``main`` as the whole process: freeze the heap, so exit's collections skip
    what dies with the process, then exit with its status. ``main`` freezes nothing.
    An interrupt (SIGINT) ends the process with one line and status 130. Unless the
    caller set it, ``OPENBLAS_NUM_THREADS`` is 1, so numpy's import starts no BLAS
    threads: nothing here calls BLAS."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        status = main()
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        status = 130
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    entry()
