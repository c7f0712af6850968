"""Command-line front end: eval | monodromy | verify | grid.

Numbers in JSON and CSV output are printed with 17 significant digits so a
binary64 value round-trips exactly; identical flags (and seed) produce
byte-identical output.  Every subcommand ends a LerchError (NonConvergence
included), an OSError or a usage error in exit code 2 and one JSON error
record on stderr, written by :func:`main`.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import math
import re
import sys

from .continuation import evaluate_on_cover
from .domain import Point3, checked_target
from .errors import InvalidPoint, LerchError
from .monodromy import monodromy_terms
from .suites import SUITE_NAMES, run_suite
from .words import BranchState, Word, abelianize, parse_branch

_CSV_HEADER = "coord_re,coord_im,z_re,z_im,abs_err,method"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _to_json(obj) -> str:
    if isinstance(obj, dict):
        items = ", ".join(f'"{k}": {_to_json(v)}' for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_to_json(v) for v in obj) + "]"
    if isinstance(obj, float):
        return _fmt(obj)
    if isinstance(obj, int):
        return str(obj)
    return '"' + str(obj).replace("\\", "\\\\").replace('"', '\\"') + '"'


def _complex_arg(text: str) -> complex:
    parts = text.split(",")
    if len(parts) == 1:
        z = complex(float(parts[0]), 0.0)
    elif len(parts) == 2:
        z = complex(float(parts[0]), float(parts[1]))
    else:
        raise argparse.ArgumentTypeError(f"expected 're' or 're,im', got {text!r}")
    if not cmath.isfinite(z):
        raise InvalidPoint(f"{text!r} is not finite")  # not a ValueError, which argparse would make a usage error
    return z


def _range_arg(text: str) -> tuple[float, float, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected 'lo,hi,steps', got {text!r}")
    lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InvalidPoint(f"{text!r} is not finite")
    if steps < 1:
        raise argparse.ArgumentTypeError("steps must be >= 1")
    return lo, hi, steps


def _tol_arg(text: str) -> float:
    return checked_target(float(text), f"tolerance {text!r}")


def _complex_json(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _branch_json(b: BranchState) -> dict:
    return {
        "kx": {str(n): k for n, k in b.kx},
        "ky": {str(n): k for n, k in b.ky},
    }


class UsageError(Exception):
    """A flag combination argparse cannot reject by itself."""


def cmd_eval(args: argparse.Namespace) -> int:
    branch = parse_branch(args.branch)
    point = Point3(args.s, args.a, args.c)
    lv = evaluate_on_cover(point, branch, args.tol)
    record = {
        "value": _complex_json(lv.value),
        "method": lv.method.value,
        "abs_err": lv.abs_err_estimate,
        "branch": _branch_json(branch),
    }
    print(_to_json(record))
    return 0


def cmd_monodromy(args: argparse.Namespace) -> int:
    word = Word.parse(args.word)
    branch = abelianize(word)
    terms = monodromy_terms(branch, args.s, args.a, args.c)
    total = 0j  # monodromy_of_branch's sum, in its order
    for _, _, value in terms:
        total += value
    record = {
        "value": _complex_json(total),
        "abelianization": _branch_json(branch),
        "contributions": [{"generator": str(g), "winding": k, "value": _complex_json(v)} for g, k, v in terms],
    }
    print(_to_json(record))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    results = run_suite(args.suite, args.samples, args.seed)
    for res in results:
        print(res.line())
    return 0 if all(r.passed for r in results) else 1


def _grid_points(rng: tuple[float, float, int]) -> list[float]:
    lo, hi, steps = rng
    if steps == 1:
        return [lo]
    h = (hi - lo) / (steps - 1)
    return [lo + i * h for i in range(steps)]


def cmd_grid(args: argparse.Namespace) -> int:
    axis = args.axis.lower()
    fixed = {"s": args.fixed_s, "a": args.fixed_a, "c": args.fixed_c}
    needed = [k for k in ("s", "a", "c") if k != axis]
    missing = [k for k in needed if fixed[k] is None]
    if missing:
        raise UsageError(f"missing --fixed-{'/'.join(missing)}")
    branch = parse_branch(args.branch)

    coords = [complex(re, im) for re in _grid_points(args.re) for im in _grid_points(args.im)]

    def record(coord: complex) -> dict:
        triple = dict(fixed)
        triple[axis] = coord
        try:
            lv = evaluate_on_cover(Point3(triple["s"], triple["a"], triple["c"]), branch, args.tol)
        except LerchError:
            return {"coord": _complex_json(coord), "method": "skipped"}
        return {"coord": _complex_json(coord), "z": _complex_json(lv.value), "abs_err": lv.abs_err_estimate,
                "method": lv.method.value}

    records = [record(coord) for coord in coords]

    with open(args.out, "w", encoding="utf-8") as fh:
        if args.format == "json":
            fh.write(_to_json(records) + "\n")
            return 0
        fh.write(_CSV_HEADER + "\n")
        for rec in records:  # a skipped row leaves z and abs_err empty
            z = rec.get("z", {})
            fields = (rec["coord"]["re"], rec["coord"]["im"], z.get("re"), z.get("im"), rec.get("abs_err"))
            fh.write(",".join("" if x is None else _fmt(x) for x in fields) + f",{rec['method']}\n")
    return 0


# lets bare negative values like "-1,0" or "-0.5" pass as arguments
_NEGATIVE_VALUE = re.compile(r"^-\d+(\.\d*)?(e[-+]?\d+)?(,-?\d+(\.\d*)?(e[-+]?\d+)?)*$", re.IGNORECASE)


def _lerchz_parser(**kw) -> argparse.ArgumentParser:
    # help and usage wrap as on an 80-column terminal, whatever COLUMNS says
    parser = argparse.ArgumentParser(formatter_class=functools.partial(argparse.HelpFormatter, width=78), **kw)
    parser._negative_number_matcher = _NEGATIVE_VALUE
    return parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The lerchz parser, built once per process: parsing leaves it unchanged."""
    parser = _lerchz_parser(prog="lerchz", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_lerchz_parser)

    p_eval = sub.add_parser("eval", help="evaluate on the cover at one point")
    p_eval.add_argument("--s", type=_complex_arg, required=True, help="s as re,im")
    p_eval.add_argument("--a", type=_complex_arg, required=True, help="a as re,im")
    p_eval.add_argument("--c", type=_complex_arg, required=True, help="c as re,im")
    p_eval.add_argument("--branch", default="", help="loop word or kx[n]=v / ky[n]=v assignments")
    p_eval.add_argument("--tol", type=_tol_arg, default=1e-10)
    p_eval.set_defaults(func=cmd_eval)

    p_mono = sub.add_parser("monodromy", help="monodromy of a loop word")
    p_mono.add_argument("--word", required=True, help="e.g. 'X0 Y-2^-1 X0^3'")
    p_mono.add_argument("--s", type=_complex_arg, required=True)
    p_mono.add_argument("--a", type=_complex_arg, required=True)
    p_mono.add_argument("--c", type=_complex_arg, required=True)
    p_mono.set_defaults(func=cmd_monodromy)

    p_verify = sub.add_parser("verify", help="run a property suite")
    p_verify.add_argument("--suite", choices=SUITE_NAMES + ("all",), required=True)
    p_verify.add_argument("--samples", type=int, default=10)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=cmd_verify)

    p_grid = sub.add_parser("grid", help="evaluate over a grid and export rows")
    p_grid.add_argument("--axis", choices=("s", "a", "c", "S", "A", "C"), required=True)
    p_grid.add_argument("--re", type=_range_arg, required=True, help="lo,hi,steps")
    p_grid.add_argument("--im", type=_range_arg, default=(0.0, 0.0, 1), help="lo,hi,steps")
    p_grid.add_argument("--fixed-s", type=_complex_arg, default=None)
    p_grid.add_argument("--fixed-a", type=_complex_arg, default=None)
    p_grid.add_argument("--fixed-c", type=_complex_arg, default=None)
    p_grid.add_argument("--branch", default="")
    p_grid.add_argument("--tol", type=_tol_arg, default=1e-10)
    p_grid.add_argument("--format", choices=("csv", "json"), default="csv")
    p_grid.add_argument("--out", required=True)
    p_grid.set_defaults(func=cmd_grid)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (LerchError, OSError, UsageError) as exc:
        sys.stderr.write(_to_json({"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 2


def entry() -> None:
    raise SystemExit(main())
