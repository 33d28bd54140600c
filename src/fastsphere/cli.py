"""Command-line front end.

Four subcommands: ``critical`` (JSON table of critical strengths),
``sweep`` (CSV/JSON branch samples for bifurcation diagrams), ``profile``
(CSV/JSON density profiles) and ``verify`` (the self-check suite).
Output is plain data for external plotting tools; repeated runs with
identical flags produce byte-identical files.

A call parses its flags in one argparse pass, with the parser of the
command it names, and writes JSON through the standard library's C
encoder; both keep every output byte of the top-level parser and of
``json.dumps(..., indent=2)``.

Exit codes: 0 success, 1 verification failure, 2 usage or parameter error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import energy, equilibria, verification
from .errors import FastSphereError


def _fmt(value) -> str:
    """Shortest round-trip float formatting; None becomes the empty field."""
    if value is None:
        return ""
    return repr(float(value))


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as handle:
            handle.write(text)


def _json(obj, pad: str = "") -> str:
    """json.dumps(obj, indent=2), byte for byte, for a flat object or a list of them.

    With indent set, json.dumps runs the pure-Python encoder; the separators
    alone lay out a flat object's lines in the C encoder.  pad is the
    indent of the line that holds obj.
    """
    if not obj:
        return json.dumps(obj)
    if isinstance(obj, dict):
        inner = pad + "  "
        body = json.dumps(obj, separators=(",\n" + inner, ": "))[1:-1]
        return "{\n" + inner + body + "\n" + pad + "}"
    return "[\n  " + ",\n  ".join(_json(row, "  ") for row in obj) + "\n]"


def _write_table(header: tuple, rows, fmt: str, out: str | None) -> None:
    """rows under header, as a JSON list of objects or as CSV (strings raw, the rest _fmt).

    JSON has no NaN or Infinity (RFC 8259), so there a non-finite float is
    null; CSV keeps nan and inf.
    """
    if fmt == "json":
        finite = lambda v: None if isinstance(v, float) and not math.isfinite(v) else v
        text = _json([dict(zip(header, map(finite, row))) for row in rows])
    else:
        lines = [",".join(header)]
        lines.extend(",".join(v if isinstance(v, str) else _fmt(v) for v in row) for row in rows)
        text = "\n".join(lines)
    _write(text + "\n", out)


def cmd_critical(args) -> int:
    crit = energy.critical_set(args.d, args.m)
    # the keys after regime are CriticalSet's fields, in their declared order
    payload = {"d": args.d, "m": args.m, "regime": crit.regime.value, **vars(crit)}
    _write(_json(payload) + "\n", args.out)
    return 0


def cmd_sweep(args) -> int:
    import numpy as np

    if not (0.0 < args.kappa_min < args.kappa_max < math.inf) or args.steps < 2:
        raise FastSphereError(
            "sweep needs 0 < --kappa-min < --kappa-max < inf and --steps >= 2"
        )
    if args.log_grid:
        grid = np.geomspace(args.kappa_min, args.kappa_max, args.steps)
    else:
        grid = np.linspace(args.kappa_min, args.kappa_max, args.steps)
    kappas = [float(kappa) for kappa in grid]

    records = []
    failures = 0
    found = energy.equilibria_at(kappas, args.d, args.m)
    for kappa, rows in zip(kappas, found):
        if isinstance(rows, FastSphereError):
            failures += 1
            rows = [("uniform", math.nan, math.nan, math.nan, math.nan)]
        records.extend((kappa, *row) for row in rows)
    records.sort(key=lambda r: (r[0], r[1]))
    header = ("kappa", "branch", "alpha", "eta", "com_norm", "energy")
    _write_table(header, records, args.format, args.out)
    if failures:
        sys.stderr.write(f"warning: {failures} kappa samples failed to solve\n")
    return 0


def cmd_profile(args) -> int:
    import numpy as np

    if args.points < 2:
        raise FastSphereError("--points must be >= 2")
    thetas = np.linspace(0.0, math.pi, args.points)
    if args.branch == "fully_supported":
        if args.kappa is None:
            raise FastSphereError("--kappa is required for the fully_supported branch")
        state = equilibria.fully_supported_state(args.kappa, args.d, args.m)
        shape = state.kappa, state.s, state.eta_minus_1
        values = [equilibria._fully_supported_density(*shape, float(t), args.m) for t in thetas]
    else:  # rho_bar, the kappa-independent regular density
        c = equilibria._rho_bar_constants(args.d, args.m)
        values = [equilibria._rho_bar_density(float(t), c) for t in thetas]
    rows = [(float(t), v) for t, v in zip(thetas, values)]
    _write_table(("theta", "density"), rows, args.format, args.out)
    return 0


def cmd_verify(args) -> int:
    results = verification.run_verification()
    _write(verification.format_report(results) + "\n", args.out)
    return 0 if all(r.passed for r in results) else 1


def _add_common(parser: argparse.ArgumentParser, model_params: bool = True) -> None:
    if model_params:
        parser.add_argument("--d", type=int, required=True, help="sphere dimension, >= 1")
        parser.add_argument(
            "--m", type=float, required=True, help="diffusion exponent in (0, 1)"
        )
    parser.add_argument("--out", default=None, help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fastsphere",
        description="Equilibria and phase transitions of the fast-diffusion "
        "free energy on the unit sphere.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # main parses a command's flags with that command's parser alone
    parser._commands = sub.choices

    p_crit = sub.add_parser("critical", help="critical interaction strengths as JSON")
    _add_common(p_crit)
    p_crit.set_defaults(func=cmd_critical)

    p_sweep = sub.add_parser("sweep", help="branch samples over a kappa grid")
    _add_common(p_sweep)
    p_sweep.add_argument("--kappa-min", type=float, required=True)
    p_sweep.add_argument("--kappa-max", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, default=100, help="grid points, >= 2")
    p_sweep.add_argument(
        "--log-grid", action="store_true", help="geometric kappa grid instead of linear"
    )
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.set_defaults(func=cmd_sweep)

    p_prof = sub.add_parser("profile", help="density profile over theta in [0, pi]")
    _add_common(p_prof)
    p_prof.add_argument("--kappa", type=float, default=None)
    p_prof.add_argument("--points", type=int, default=200, help="theta samples, >= 2")
    p_prof.add_argument(
        "--branch", choices=("fully_supported", "rho_bar"), default="fully_supported"
    )
    p_prof.add_argument("--format", choices=("csv", "json"), default="csv")
    p_prof.set_defaults(func=cmd_profile)

    p_verify = sub.add_parser("verify", help="run the self-verification suite")
    _add_common(p_verify, model_params=False)
    p_verify.set_defaults(func=cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built once per process.

    Its ``_commands`` maps each command to that command's parser.
    """
    return build_parser()


def main(argv=None) -> int:
    """Run one ``fastsphere`` command; argv defaults to ``sys.argv[1:]``.

    When argv starts with a command, its flags are parsed by that command's
    parser alone: one argparse pass, where the top-level parser would run
    two, with the same namespace (``command`` included), messages and exit
    codes.  Any other argv goes to the top-level parser.
    """
    parser = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = parser._commands.get(argv[0]) if argv else None
    if command is None:
        args = parser.parse_args(argv)
    else:
        args, extra = command.parse_known_args(argv[1:])
        if extra:
            parser.error("unrecognized arguments: " + " ".join(extra))
        args.command = argv[0]
    try:
        return args.func(args)
    except FastSphereError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
