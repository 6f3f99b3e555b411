"""Command-line front end.

Subcommands:

* ``run``       simulate a scenario file; write CSV/SVG, print a metrics summary
* ``validate``  parse a scenario and check its structure of awareness only
* ``algebra``   evaluate/compare reflexive-process expressions
* ``metrics``   recompute the metrics summary from a trace CSV

Exit codes: 0 success, 1 parse or validation error, 2 runtime error,
3 awareness violation under ``--strict-awareness``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import algebra
from .agents import Band
from .awareness import validate_awareness
from .engine import compute_metrics, run as run_engine
from .output import metrics_summary, read_trace_csv, write_trace_csv, write_trace_svg
from .scenariofile import ScenarioFileError, load_scenario

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_RUNTIME = 2
EXIT_AWARENESS = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reflexgrid",
        description="Simulate reactive smart appliances on a DC grid analog.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file")
    p_run.add_argument("scenario", help="path to a scenario file")
    p_run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_run.add_argument("--csv", metavar="PATH", default=None, help="write the trace as CSV")
    p_run.add_argument("--svg", metavar="PATH", default=None, help="write a voltage chart as SVG")
    p_run.add_argument(
        "--strict-awareness",
        action="store_true",
        help="refuse to run scenarios whose rules exceed their structure of awareness",
    )
    p_run.add_argument(
        "--record-shifts",
        action="store_true",
        help="record per-agent shifts and include shift columns in the CSV",
    )

    p_val = sub.add_parser("validate", help="parse a scenario and validate awareness only")
    p_val.add_argument("scenario")
    p_val.add_argument("--strict-awareness", action="store_true")

    p_alg = sub.add_parser("algebra", help="evaluate expressions of the reflexive algebra")
    alg_sub = p_alg.add_subparsers(dest="mode", required=True)
    p_eval = alg_sub.add_parser("eval", help="print the canonical form")
    p_eval.add_argument("expression")
    p_eq = alg_sub.add_parser("equals", help="compare two expressions")
    p_eq.add_argument("left")
    p_eq.add_argument("right")
    p_aw = alg_sub.add_parser("awareness", help="apply an awareness step to a base expression")
    p_aw.add_argument("base")
    p_aw.add_argument("observers", nargs="+", help="observer atoms, e.g. x y a0")

    p_met = sub.add_parser("metrics", help="summarize a trace CSV")
    p_met.add_argument("csv", help="path to a trace CSV")
    p_met.add_argument("--v-low", type=float, required=True, help="lower band edge in volts")
    p_met.add_argument("--v-high", type=float, required=True, help="upper band edge in volts")
    p_met.add_argument(
        "--window",
        nargs=2,
        type=int,
        metavar=("START", "END"),
        default=None,
        help="evaluation window [START, END); defaults to the whole trace",
    )
    return parser


def _unreadable(kind: str, path: str, exc: OSError | UnicodeDecodeError) -> int:
    """Print the error line for a ``kind`` file that cannot be read as text."""
    if isinstance(exc, FileNotFoundError):
        message = f"{kind} file not found: {path}"
    elif isinstance(exc, UnicodeDecodeError):
        message = f"{kind} file {path} is not UTF-8: {exc.reason} at byte {exc.start}"
    else:  # a directory, or a file that may not be read
        message = f"cannot read {kind} file {path}: {exc.strerror}"
    print(f"error: {message}", file=sys.stderr)
    return EXIT_PARSE


def _load_checked(args):
    """Load ``args.scenario`` and report its awareness violations.

    Returns ``(bundle, EXIT_OK)``, or ``(None, code)`` once the error is printed.
    """
    try:
        bundle = load_scenario(args.scenario)
    except (OSError, UnicodeDecodeError) as exc:
        return None, _unreadable("scenario", args.scenario, exc)
    except ScenarioFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None, EXIT_PARSE
    violations = validate_awareness(bundle.awareness, bundle.rules)
    for v in violations:
        print(f"warning: {v}", file=sys.stderr)
    if violations and args.strict_awareness:
        print(
            f"error: {len(violations)} awareness violation(s) in strict mode",
            file=sys.stderr,
        )
        return None, EXIT_AWARENESS
    return bundle, EXIT_OK


def _metrics_window(scenario) -> tuple[int, int]:
    # post-disturbance window; the whole run when there is no disturbance
    t_end = scenario.disturbance.t_end
    if t_end >= scenario.horizon:
        return (0, scenario.horizon)
    return (t_end, scenario.horizon)


def _cmd_run(args) -> int:
    bundle, code = _load_checked(args)
    if bundle is None:
        return code

    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.record_shifts:
        overrides["record_shifts"] = True
    try:
        scenario = replace(bundle.scenario, **overrides)
    except ValueError as exc:  # seed outside [0, 2**64), or over SHIFT_RECORDING_MAX_ENTRIES
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE

    try:
        trace = run_engine(scenario)
        window = _metrics_window(scenario)
        metrics = compute_metrics(trace, scenario.band, window)
        if args.csv:
            write_trace_csv(trace, args.csv, include_shifts=scenario.record_shifts)
        if args.svg:
            d = scenario.disturbance
            shade = (d.t_start, d.t_end) if d.t_end > d.t_start else None
            write_trace_svg(trace, scenario.band, args.svg, shade)
    except Exception as exc:  # engine/serialization failures are runtime errors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    sys.stdout.write(metrics_summary(metrics, scenario.band, window))
    return EXIT_OK


def _cmd_validate(args) -> int:
    bundle, code = _load_checked(args)
    if bundle is None:
        return code
    s = bundle.scenario
    print(f"scenario ok: {s.n_agents} agents, horizon {s.horizon}, seed {s.seed}")
    return EXIT_OK


def _cmd_algebra(args) -> int:
    try:
        if args.mode == "eval":
            print(algebra.parse(args.expression))
        elif args.mode == "equals":
            left = algebra.parse(args.left)
            right = algebra.parse(args.right)
            print("true" if algebra.equals(left, right) else "false")
        else:  # awareness
            base = algebra.parse(args.base)
            observers = [algebra.atom(text) for text in args.observers]
            print(algebra.apply_awareness(base, observers))
    except ValueError as exc:  # an ExpressionError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    return EXIT_OK


def _cmd_metrics(args) -> int:
    try:
        trace = read_trace_csv(args.csv)
        band = Band(args.v_low, args.v_high)
        window = tuple(args.window) if args.window else (0, trace.horizon)
        metrics = compute_metrics(trace, band, window)
    except (OSError, UnicodeDecodeError) as exc:
        return _unreadable("trace", args.csv, exc)
    except ValueError as exc:  # a malformed trace
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    sys.stdout.write(metrics_summary(metrics, band, window))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; usage problems are parse errors here
        return EXIT_OK if exc.code in (0, None) else EXIT_PARSE
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "validate":
        return _cmd_validate(args)
    if args.command == "algebra":
        return _cmd_algebra(args)
    return _cmd_metrics(args)


if __name__ == "__main__":
    sys.exit(main())
