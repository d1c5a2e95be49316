"""Command line frontend: `heat sweep` and `heat eval`.

`heat sweep` runs a configured or preset parameter sweep and writes the CSV
(`demos/05_plot_sweep.py` draws it); `heat eval` evaluates a single
parameter point and prints the heat-current report as key=value lines.

Exit codes: 0 success, 1 validation/configuration error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import sys

from .closedform import Method, assemble_report
from .model import BathPair, CircuitParams
from .sweep import PRESETS, emit_csv, parse_config, run_preset, run_sweep


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heat",
        description="Steady-state heat currents between coupled, damped RLC circuits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run a parameter sweep and write CSV")
    source = sweep.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", help="path to a key = value sweep configuration")
    source.add_argument("--preset", choices=PRESETS, help="built-in figure sweep")
    sweep.add_argument("--out", required=True, help="destination CSV path")

    ev = sub.add_parser("eval", help="evaluate one parameter point")
    ev.add_argument("--R", type=float, required=True, help="loop resistance")
    ev.add_argument("--L", type=float, required=True, help="self inductance")
    ev.add_argument("--C", type=float, required=True, help="capacitance")
    ev.add_argument("--M", type=float, required=True, help="mutual inductance")
    ev.add_argument("--omega-c", type=float, required=True, help="bath cutoff")
    ev.add_argument("--T1", type=float, required=True, help="bath 1 temperature")
    ev.add_argument("--T2", type=float, required=True, help="bath 2 temperature")
    ev.add_argument(
        "--method",
        default=Method.CLOSED_FORM.value,
        choices=[m.value for m in Method],
        help="ExactQuadrature is the exact split of the full cubic model",
    )
    ev.add_argument("--hbar", type=float, default=1.0)
    ev.add_argument("--kb", type=float, default=1.0)
    return parser


def _run_sweep(args) -> int:
    if args.preset:
        rows = run_preset(args.preset)
    else:
        with open(args.config, "r", encoding="utf-8") as fh:
            rows = run_sweep(parse_config(fh.read()))
    emit_csv(rows, args.out)
    return 0


def _run_eval(args) -> int:
    p = CircuitParams(args.R, args.L, args.C, args.M, args.omega_c, args.hbar, args.kb)
    b = BathPair.from_temperatures(args.T1, args.T2, args.kb)
    report = assemble_report(p, b, Method(args.method))
    print(f"method={report.method.value}")
    print(f"q_classical={report.q_classical!r}")
    print(f"q_quantum={report.q_quantum!r}")
    print(f"q_total={report.q_total!r}")
    print(f"regime={report.regime.tag.value}")
    print(f"warnings={len(report.validity_warnings)}")
    for i, message in enumerate(report.validity_warnings, start=1):
        print(f"warning_{i}={message}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors; map to validation
        return 0 if exc.code == 0 else 1
    try:
        if args.command == "sweep":
            return _run_sweep(args)
        return _run_eval(args)
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
