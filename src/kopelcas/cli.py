"""Command line front end.

Every parameter flag takes an exact rational: "3/4", "4", or a decimal
string like "3.25" which converts exactly (base-ten denominator), never
through a float.  Exit status: 0 success, 1 any failed identity or any
scan disagreement, 2 usage or domain errors, including a parameter too
large for the float diagnostics, trajectory or scan columns, 3 an internal
failure (a refinement or separation cap in the exact root layer was hit).
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from fractions import Fraction

from .certificates import KINDS, EquilibriumCountClass, _kind_speed, classify, verify_all
from .model import ModelParams, State, equilibria, equilibrium_report, iterate, jury_report
from .rational import format_rational, parse_rational
from .scanner import ScanSpec, emit_grid, scan


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kopel-cas",
        description="Exact equilibrium and stability analysis for an adaptive duopoly map.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(p, speeds=True):
        p.add_argument("--u", type=_rational, required=True, help="reaction intensity u > 0")
        p.add_argument("--v", type=_rational, required=True, help="reaction intensity v > 0")
        if speeds:
            p.add_argument("--a", type=_rational, default=Fraction(1),
                           help="adjustment speed in (0, 1], default 1")
            p.add_argument("--b", type=_rational, default=Fraction(1),
                           help="adjustment speed in (0, 1], default 1")

    p_eq = sub.add_parser("equilibria", help="enumerate all fixed points with certified flags")
    add_params(p_eq)

    p_st = sub.add_parser("stability", help="certified stability report per fixed point")
    add_params(p_st)

    p_vi = sub.add_parser("verify-identities",
                          help="re-derive every frozen certificate and compare exactly")
    p_vi.add_argument("--json", action="store_true")

    p_cl = sub.add_parser("classify", help="parameter-space class from sign certificates")
    p_cl.add_argument("--kind", choices=KINDS, default="count")
    add_params(p_cl, speeds=False)
    p_cl.add_argument("--a", type=_rational, default=None,
                      help="common adjustment speed, homogeneous kind only")
    p_cl.add_argument("--json", action="store_true")

    p_sc = sub.add_parser("scan", help="grid scan with certificate vs enumeration cross-check")
    p_sc.add_argument("--kind", choices=KINDS, default="count")
    p_sc.add_argument("--range", dest="range_", metavar="LO:HI", default=None,
                      help="u and v range, exact rationals, e.g. 1/20:10")
    p_sc.add_argument("--resolution", type=int, default=200)
    p_sc.add_argument("--a", type=_rational, default=None,
                      help="common adjustment speed, homogeneous kind only")
    p_sc.add_argument("--json", action="store_true", help="emit JSON instead of CSV")
    p_sc.add_argument("--out", default=None, help="output path, default scan_<kind>_<res>.<ext>")

    p_si = sub.add_parser("simulate", help="iterate the map and print t,x,y rows")
    add_params(p_si)
    p_si.add_argument("--steps", type=int, default=100)
    p_si.add_argument("--x0", type=float, default=None)
    p_si.add_argument("--y0", type=float, default=None)
    p_si.add_argument("--seed", type=int, default=0,
                      help="draw the start point in [0,1]^2 when x0/y0 are absent (default 0)")
    p_si.add_argument("--out", default=None)
    return parser


def _cmd_equilibria(args) -> int:
    params = ModelParams(args.u, args.v, a=args.a, b=args.b)
    print(json.dumps(equilibrium_report(params), indent=2))
    return 0


def _diagnostic(value) -> float | None:
    """A float diagnostic for JSON: null once it overflowed to inf or NaN."""
    value = float(value)
    return value if math.isfinite(value) else None


def _cmd_stability(args) -> int:
    params = ModelParams(args.u, args.v, a=args.a, b=args.b)
    entries = []
    for eq in equilibria(params):
        rep = jury_report(eq, params)
        entries.append({
            "x_approx": eq.x_approx,
            "y_approx": eq.y_approx,
            "multiplicity": eq.multiplicity,
            "positive": eq.is_positive,
            "cd_signs": list(rep.cd_signs),
            "cd_values": [_diagnostic(val) for val in rep.cd_values],
            "trace": _diagnostic(rep.trace),
            "det": _diagnostic(rep.det),
            "eig_moduli": [_diagnostic(m) for m in rep.eig_moduli],
            "verdict": rep.verdict,
        })
    print(json.dumps({
        "schema_version": 1,
        "params": params.describe(),
        "reports": entries,
    }, indent=2, allow_nan=False))
    return 0


def _cmd_verify(args) -> int:
    results = verify_all()
    if args.json:
        doc = {
            "schema_version": 1,
            "identities": [
                {"name": r.name, "passed": r.passed,
                 **({} if r.passed else {"difference": str(r.difference)})}
                for r in results
            ],
            "all_passed": all(r.passed for r in results),
        }
        print(json.dumps(doc, indent=2))
    else:
        for r in results:
            if r.passed:
                print(f"PASS {r.name}")
            else:
                print(f"FAIL {r.name} difference: {r.difference}")
    return 0 if all(r.passed for r in results) else 1


def _cmd_classify(args) -> int:
    _kind_speed(args.kind, args.a, "--a")
    label = classify(args.kind, args.u, args.v, args.a)
    suffix = ""
    if label is EquilibriumCountClass.ONE_POSITIVE_TRIPLE:
        # the merged triple sits at a known rational point
        suffix = " (2/3, 2/3)"
    if args.json:
        doc = {"schema_version": 1, "kind": args.kind,
               "u": format_rational(args.u), "v": format_rational(args.v),
               "class": label.value}
        if args.a is not None:
            doc["a"] = format_rational(args.a)
        print(json.dumps(doc, indent=2))
    else:
        print(label.value + suffix)
    return 0


_DEFAULT_RANGES = {
    "count": (Fraction(1, 20), Fraction(10)),
    "stable": (Fraction(5, 2), Fraction(5)),
    "homogeneous": (Fraction(5, 2), Fraction(5)),
}


def _cmd_scan(args) -> int:
    if args.range_ is not None:
        lo_text, _, hi_text = args.range_.partition(":")
        if not hi_text:
            raise ValueError("range must look like LO:HI, e.g. 1/20:10")
        lo, hi = parse_rational(lo_text), parse_rational(hi_text)
    else:
        lo, hi = _DEFAULT_RANGES[args.kind]
    _kind_speed(args.kind, args.a, "--a")
    spec = ScanSpec((lo, hi), (lo, hi), args.resolution, a_value=args.a)
    grid = scan(args.kind, spec)
    fmt = "json" if args.json else "csv"
    path = args.out or f"scan_{args.kind}_{args.resolution}.{fmt}"
    emit_grid(grid, fmt, path)
    bad = grid.disagreements()
    on_zero_set = sum(1 for c in grid.cells if c.near_boundary)
    print(f"wrote {path}: {len(grid.cells)} cells, "
          f"{len(bad)} disagreements, {on_zero_set} on a zero set")
    return 1 if bad else 0


def _cmd_simulate(args) -> int:
    params = ModelParams(args.u, args.v, a=args.a, b=args.b)
    if args.x0 is None or args.y0 is None:
        rng = random.Random(args.seed)
        x0 = rng.uniform(0, 1) if args.x0 is None else args.x0
        y0 = rng.uniform(0, 1) if args.y0 is None else args.y0
    else:
        x0, y0 = args.x0, args.y0
    traj = iterate(State(x0, y0), params, args.steps)
    lines = ["t,x,y"]
    lines += [f"{t},{s.x!r},{s.y!r}" for t, s in enumerate(traj.states)]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if traj.diverged_at is not None:
        print(f"trajectory diverged at step {traj.diverged_at}", file=sys.stderr)
    return 0


_HANDLERS = {
    "equilibria": _cmd_equilibria,
    "stability": _cmd_stability,
    "verify-identities": _cmd_verify,
    "classify": _cmd_classify,
    "scan": _cmd_scan,
    "simulate": _cmd_simulate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, TypeError, OSError, OverflowError) as exc:
        # OSError: an output path that cannot be written is a usage error;
        # OverflowError: a parameter beyond the float range
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
