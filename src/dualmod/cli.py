"""Command-line front end.

Six subcommands: verify, decompose, solve, contracts, complement,
divergence.  Output is JSON with a fixed key order and canonical "p/q"
rationals, so identical invocations are byte-identical.  Exit codes:
0 success, 1 I/O or schema problems, 2 structural failures, 3 domain
errors such as a zero cost coordinate.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from fractions import Fraction
from functools import cache

from .contracts import analyze_contracts, contract_at, contract_row
from .decomposition import density_decomposition
from .divergence import HockeyStick, divergence, hockey_stick_sup_form, kind_from_string
from .errors import DomainError, DualModError, GroundSetTooLarge, SchemaError, StructuralError
from .files import instance_to_json, load_instance
from .instance import normalize
from .structure import complement_instance, verify_dual_modularity
from .rational import format_rational, parse_rational
from .solver import SolverConfig, error_bounds, final_iterate, solve
from .permutation import Permutation

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_STRUCTURAL = 2
EXIT_DOMAIN = 3


def _emit(obj, file=None) -> None:
    """Write obj as indented JSON and a newline to file, or to stdout."""
    print(json.dumps(obj, indent=2), file=file)


def _cmd_verify(args) -> int:
    inst = load_instance(args.instance)
    report = verify_dual_modularity(inst, args.max_n)
    _emit(report.to_json(inst.ground))
    return EXIT_OK if report.dual_modular else EXIT_STRUCTURAL


def _cmd_decompose(args) -> int:
    inst = load_instance(args.instance)
    dec = density_decomposition(inst, args.max_n)
    _emit(dec.to_json(inst.ground))
    return EXIT_OK


def _cmd_solve(args) -> int:
    inst = load_instance(args.instance)
    kind = kind_from_string(args.kind)
    initial = None
    if args.initial is not None:
        parts = [x.strip() for x in args.initial.split(",")]
        try:
            order = tuple(inst.ground.index_of(x) for x in parts)
        except SchemaError:
            try:
                order = tuple(int(x) for x in parts)
            except ValueError:
                raise SchemaError("initial", f"cannot parse permutation {args.initial!r}") from None
        if sorted(order) != list(range(inst.n)):
            raise SchemaError("initial", f"{args.initial!r} is not a permutation of the {inst.n} elements")
        initial = Permutation(order)
    cfg = SolverConfig(
        iterations=args.T,
        variant=args.variant,
        initial_permutation=initial,
        arithmetic="binary64",
        stride=args.stride,
    )
    # only --trace keeps the per-iteration rows; the final iterate is the same either way
    if args.trace:
        trace = solve(inst, cfg)
        x, y, rho = trace.final_x, trace.final_y, trace.final_rho
    else:
        x, y, rho = final_iterate(inst, cfg)
    phi = float(divergence(kind, x, y))
    if not math.isfinite(phi):
        raise DomainError("objective exceeds the binary64 range")
    if args.trace:
        trace.to_csv(args.trace)

    out = {
        "variant": cfg.variant,
        "iterations": cfg.iterations,
        "kind": args.kind,
        "final_rho": {lab: float(v) for lab, v in zip(inst.ground.labels, rho)},
        "phi": phi,
    }
    # the convergence constants assume f(V) = g(V) = 1, so they are reported
    # for the normalized companion instance
    if isinstance(kind, HockeyStick):
        out["error_bounds"] = None
        out["error_bounds_note"] = "no curvature chain for the hockey-stick generator"
    else:
        bounds = error_bounds(normalize(inst), kind, args.T)
        if bounds.multiplicative_density_upper is None:
            print("note: f_min = 0: some element has zero worst-case reward share, "
                  "so the multiplicative density bound is unavailable", file=sys.stderr)
        out["error_bounds"] = bounds.to_json()
        out["error_bounds_note"] = "constants refer to the normalized instance"
    _emit(out)
    return EXIT_OK


def _cmd_contracts(args) -> int:
    inst = load_instance(args.instance)
    dec = density_decomposition(inst, args.max_n)
    if args.alpha is None:
        _emit(analyze_contracts(inst, dec).to_json(inst.ground))
    else:
        alpha = parse_rational(args.alpha, "alpha")
        _emit(contract_row(inst.ground, alpha, *contract_at(inst, dec, alpha)))
    return EXIT_OK


def _cmd_complement(args) -> int:
    inst = load_instance(args.instance)
    comp = complement_instance(inst, args.max_n)
    # no -o: a null context hands _emit no file, so it writes to stdout
    with open(args.output, "w", encoding="utf-8") if args.output else contextlib.nullcontext() as fh:
        _emit(instance_to_json(comp), fh)
    return EXIT_OK


def _parse_vector(text: str, field: str) -> list[Fraction]:
    return [parse_rational(part.strip(), field) for part in text.split(",")]


def _cmd_divergence(args) -> int:
    x = _parse_vector(args.x, "x")
    y = _parse_vector(args.y, "y")
    kind = kind_from_string(args.kind)
    value = divergence(kind, x, y)
    out = {"kind": args.kind}
    out["value"] = format_rational(value) if isinstance(value, Fraction) else float(value)
    if args.sup:
        if not isinstance(kind, HockeyStick):
            raise SchemaError("sup", "--sup is only meaningful for hockey-stick kinds")
        sup_value, mask = hockey_stick_sup_form(x, y, kind.gamma)
        out["sup_value"] = format_rational(sup_value)
        out["argmax"] = [i for i in range(len(x)) if mask >> i & 1]
    _emit(out)
    return EXIT_OK


@cache
def build_parser() -> argparse.ArgumentParser:
    """One parser per process, built on the first call; each subcommand's handler is bound then."""
    parser = argparse.ArgumentParser(
        prog="dualmod",
        description="Density decomposition, solvers and contract analysis "
        "for dual-modular instances",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_instance(p):
        p.add_argument("instance", help="path to a JSON instance file")
        p.add_argument("--max-n", type=int, default=None, help="brute-force size cap")

    p = sub.add_parser("verify", help="check dual-modularity by brute force")
    add_instance(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("decompose", help="exact density decomposition")
    add_instance(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("solve", help="iterative density approximation")
    p.add_argument("instance", help="path to a JSON instance file")
    p.add_argument("--kind", default="quadratic", help="quadratic | kl | eg | hs:<gamma>")
    p.add_argument("--T", type=int, default=1000, help="number of iterations")
    p.add_argument("--variant", choices=("fw", "greedypp"), default="fw")
    p.add_argument("--trace", default=None, help="write per-iteration CSV here")
    p.add_argument("--stride", type=int, default=10, help="density snapshot stride")
    p.add_argument("--initial", default=None, help="comma-separated initial permutation")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("contracts", help="critical values and optimal contract")
    add_instance(p)
    p.add_argument("--alpha", default=None, help="query a single contract parameter")
    p.set_defaults(func=_cmd_contracts)

    p = sub.add_parser("complement", help="write the complementary instance")
    add_instance(p)
    p.add_argument("-o", "--output", default=None, help="output file (stdout if omitted)")
    p.set_defaults(func=_cmd_complement)

    p = sub.add_parser("divergence", help="evaluate a divergence between two vectors")
    p.add_argument("--x", required=True, help="comma-separated rationals")
    p.add_argument("--y", required=True, help="comma-separated rationals")
    p.add_argument("--kind", default="quadratic", help="quadratic | kl | eg | hs:<gamma>")
    p.add_argument("--sup", action="store_true", help="also report the subset form (hockey-stick)")
    p.set_defaults(func=_cmd_divergence)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SchemaError, GroundSetTooLarge, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except StructuralError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STRUCTURAL
    except DualModError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
