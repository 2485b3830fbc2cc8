"""Command-line surface.

Subcommands read JSON from a file argument or standard input and write to
standard output; diagnostics go to standard error.  Exit codes: 0 success,
1 verification failure, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import comb, prod
from typing import Callable, Sequence

from . import serialize
from .characters import oracle_degrees, oracle_multiplicity
from .filtration import associated_graded
from .gl2 import GROUP_FACTORS, H_STYLE_LIE_PLUS_ELEMENTS, H_STYLES, label_dim, label_factors, label_from_factors, rep_from_label
from .homspaces import grid_labels, hom_dim, multiplicity_table
from .rees import derees, rees_construct
from .varieties import (
    BINARY_QUADRATIC_FORMS,
    TWO_BY_TWO_MATRICES,
    builtin_variety,
    cocharacter_filtration,
)
from .verify import render_report, run_all

CONVENTION = "sym-dual"

CONVENTIONS_TEXT = """\
convention: sym-dual
  exact arithmetic: all values are rationals, serialized as "p/q" or "p"
  filtration sign: F(i) = span of the weight spaces with -<mu, weight> >= i
  coordinate ring: degree d of k[U] is the d-th symmetric power of the dual
    module of U (all weights negated)
  binary quadratic forms: ambient module weights (-2,0), (-1,-1), (0,-2)
    (dual module is the (2,0) irreducible); boundary cocharacter (1,0);
    stabilizer of the base form is its full orthogonal stabilizer: the torus
    t -> [[t, 1/t - t], [0, 1/t]] together with the determinant -1
    reflection [[1,0],[1,-1]]; the populated side of the table is m >= 0
  2x2 matrices: contragradient model with ambient module weights
    (-1,0,-1,0), (-1,0,0,-1), (0,-1,-1,0), (0,-1,0,-1) (dual module is the
    product of the two standard representations); boundary cocharacter
    (1,1,0,-1); stabilizer of the identity is the twisted diagonal
    {(g, transpose-inverse of g)}, a connected copy of GL2
  h-style lie_only: connected stabilizer torus generator only
  h-style lie_plus_elements (default): torus generator plus the finite
    reflection generating the stabilizer's component group\
"""

VARIETY_NAMES = (BINARY_QUADRATIC_FORMS, TWO_BY_TWO_MATRICES)

# Largest representation dimension that multiplicity and filtration accept,
# checked before any operator is built.  169 is the largest benchmarked cell,
# ((12,1),(12,1)).  Measured at this bound on one core of a 2-vCPU Intel Xeon
# under Python 3.11, in process (the command adds about 0.08 s of start-up):
# that cell's multiplicity takes about 1 ms; forms (168,0), whose
# reflection is a triangle of 14365 binomial coefficients, takes about
# 0.055 s, since the reflection is written and applied only at the 85
# coordinates where its torus kernel is nonzero, and (167,0), whose torus
# kernel is empty, about 6 ms; the filtration output of (168,0) is 12 MB,
# written one step at a time at 20 MB peak RSS (212 MB when the whole
# flag's JSON was rendered at once).  A flag stores one entry per basis
# vector of each step, so with the bound lifted the label 200,0;200,0
# (dimension 40401, a 201-step flag of 4.1 million rows) gets its
# multiplicity in 0.5 s at 60 MB peak RSS; but its filtration output would
# print every step's dense basis, about 10^14 entries.
MAX_REP_DIM = 169

# Largest coordinate-ring degree that oracle decomposes, checked before any
# character work.  The degree is the one a label's weight sum determines, or
# the --max-degree value when the weight sums do not determine it.  Measured
# on the same host: the slowest built-in, 2x2 matrices ((d,0),(d,0)), takes
# 0.06 s at degree 40, 0.5 s (37 MB peak RSS) at 80, 0.7 s (55 MB) at 100
# and 2.2 s (122 MB) at 140, memory growing about as d^3; binary forms (2d,0)
# take 0.1 s at degree 200 and 0.3 s at 400.  A grid computes each of its
# degrees once: the 6561 cells of n=0..80,m=0..0 take 7 s.
MAX_ORACLE_DEGREE = 80

# Largest work, w * C(d + w', w'), that oracle's layer recurrence may do,
# checked with MAX_ORACLE_DEGREE: w counts the module weights with
# multiplicity, w' the distinct ones, and d is the largest degree a label
# needs.  C(d + w', w') bounds the entries of layers 0..d, and each copy of
# each weight passes over them once; a repeated weight adds no monomials, so
# many copies of one weight stay cheap.  The bound is the built-in matrices'
# value at degree 80, 4 * C(84, 4); binary forms at degree 80 need 275643.
# Measured in process on the same host: matrices ((80,0),(80,0)) 0.35 s;
# forms (160,0) 0.03 s; a custom GL2 x GL2 variety with the 15 nonzero 0/-1
# weights of rank 4 takes 0.67 s at degree 8 (work 7354710), 1.4 s at 9
# (19612560) and 3.0 s at 10 (49031400), and is refused at degree 80 in
# 5 ms.
MAX_ORACLE_WORK = 7_718_004

# Largest number of cells a multiplicity or oracle grid may have, checked
# from the range lengths before any label is made.  Measured on the same
# host: the 10000-cell matrix grid n=0..9,m=-4..5 takes 7.5-9 s (24 MB peak
# RSS) in multiplicity and 0.3-0.4 s in oracle; the paper's grid has 900
# cells (0.55 s in multiplicity).
MAX_GRID_CELLS = 10_000

# Largest number of Hom variables, a.dim x b.dim, that hom-dim accepts,
# checked once the pair is read and checked, before any labeled
# representation or system is built.  It equals
# the largest built-in Hom system, a dimension-169 cell against the trivial
# object.  Measured with random dense integer constraints (entries -9..9) and
# a two-step flag on each side, on a 2-vCPU shared host: a 13x13 pair takes
# 1.0 s with one constraint and 0.6 s with three (a full-rank system stops
# once it has a pivot in every column); a 16x16 pair (256 variables) takes
# 4.4 s and 4.0 s, and 18x18 takes 11 s with one.  Peak RSS stays near
# 25 MB, so time is what the bound limits.
MAX_HOM_VARS = 169


class CliError(Exception):
    """Input-level failure, reported on stderr with exit code 2."""


def _read_json(path: str) -> object:
    if path == "-":
        text = sys.stdin.read()
        origin = "<stdin>"
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise CliError(f"cannot read {path}: {exc}") from None
        origin = path
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"{origin}: JSON parse error at line {exc.lineno} column {exc.colno}: {exc.msg}") from None


def _parse_label(text: str) -> object:
    try:
        factors = []
        for part in text.split(";"):
            n, m = part.split(",")
            factors.append((int(n), int(m)))
    except ValueError:
        factors = []
    if len(factors) not in GROUP_FACTORS.values():
        raise CliError(f"bad label {text!r}: expected {_label_shape(1)} or {_label_shape(2)}")
    return label_from_factors(factors)


def _label_shape(factors: int) -> str:
    """How a label with that many (n, m) factors is written on the command line."""
    return repr(";".join(("n,m", "n2,m2")[:factors]))


def _check_label_shape(group: str, label: object, what: str) -> None:
    """Reject a label whose shape does not fit the group's representations."""
    factors = GROUP_FACTORS.get(group)
    if factors is not None and len(label_factors(label)) != factors:
        raise CliError(f"{what} does not fit group {group}: expected {_label_shape(factors)}")


def _check_rep_dim(label: object, what: str) -> None:
    """Reject a label whose representation dimension exceeds MAX_REP_DIM."""
    dim = label_dim(label)
    if dim > MAX_REP_DIM:
        raise CliError(f"{what} needs representation dimension {dim}, above the bound {MAX_REP_DIM}")


def _check_oracle_degree(spec, labels: list[object], max_degree: int | None, what: str) -> None:
    """Reject labels whose coordinate-ring degree exceeds MAX_ORACLE_DEGREE,
    or whose layers would take more than MAX_ORACLE_WORK."""
    degree = max((oracle_degrees(spec, label, max_degree).stop - 1 for label in labels), default=-1)
    if degree > MAX_ORACLE_DEGREE:
        raise CliError(f"{what} needs coordinate-ring degree {degree}, above the bound {MAX_ORACLE_DEGREE}")
    weights = spec.x_module_weights
    distinct = len(set(weights))
    # a grid with no labels gives degree -1, where comb(-1, 0) raises for the zero module
    work = len(weights) * comb(degree + distinct, distinct) if degree >= 0 else 0
    if work > MAX_ORACLE_WORK:
        raise CliError(f"{what} needs oracle work {work} at degree {degree}, above the bound {MAX_ORACLE_WORK}")


def _parse_grid(text: str) -> dict[str, range]:
    pieces = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            key, span = piece.split("=")
            lo, hi = span.split("..")
            pieces.append((key.strip(), range(int(lo), int(hi) + 1)))
        except ValueError:
            raise CliError(f"bad grid component {piece!r}: expected 'name=lo..hi'") from None
    out = dict(pieces)
    for key in out:
        if key not in ("n", "m", "n2", "m2"):
            raise CliError(f"unknown grid variable {key!r}")
    if "n" not in out or "m" not in out:
        raise CliError("grid needs at least n=lo..hi and m=lo..hi")
    if len(out) < len(pieces):
        raise CliError(f"grid {text!r} names a variable twice")
    return out


def _load_variety(args: argparse.Namespace):
    if getattr(args, "variety_file", None):
        return serialize.custom_variety_from_json(_read_json(args.variety_file))
    name = getattr(args, "variety", None)
    if name is None:
        raise CliError("pick a variety with --variety or --variety-file")
    if name not in VARIETY_NAMES:
        raise CliError(f"unknown variety {name!r}; built-ins: {', '.join(VARIETY_NAMES)}")
    return builtin_variety(name)


def _read_labels(spec, args: argparse.Namespace, bounded: bool = False) -> tuple[list[object], str]:
    """The sorted labels of --label or --grid, each fitting spec's group, and
    how an error names them.  bounded applies MAX_REP_DIM, to a grid before
    any of its labels is made."""
    if args.label is not None:
        what = f"label {args.label!r}"
        label = _parse_label(args.label)
        _check_label_shape(spec.group, label, what)
        if bounded:
            _check_rep_dim(label, what)
        return [label], what
    if args.grid is None:
        raise CliError(f"{args.command} needs --label or --grid")
    ranges = _parse_grid(args.grid)
    what = f"grid {args.grid!r}"
    factors = GROUP_FACTORS.get(spec.group)
    if factors is None:
        raise CliError(f"no labeled grid for group {spec.group!r}")
    if factors == 1 and ("n2" in ranges or "m2" in ranges):
        raise CliError(f"{what} does not fit group {spec.group}: expected only n and m")
    n, m = ranges["n"], ranges["m"]
    spans = [(n, m), (ranges.get("n2", n), ranges.get("m2", m))][:factors]
    cells = prod(len(ns) * len(ms) for ns, ms in spans)
    if cells > MAX_GRID_CELLS:
        raise CliError(f"{what} has {cells} cells, above the bound {MAX_GRID_CELLS}")
    if bounded and all(ns for ns, _ in spans):
        # the largest n (and n2) gives the grid's largest representation
        _check_rep_dim(label_from_factors([(ns[-1], 0) for ns, _ in spans]), what)
    return sorted(grid_labels(spec.group, n, m, ranges.get("n2"), ranges.get("m2"))), what


def _print_rows(args: argparse.Namespace, group: str, rows: list[tuple[object, int]]) -> None:
    """A bare multiplicity for --label, the table for --grid."""
    if args.label is not None:
        print(rows[0][1])
    elif args.format == "json":
        print(serialize.dumps([{"label": label, "multiplicity": mult} for label, mult in rows]))
    else:
        print("\t".join(("n", "m", "n2", "m2")[: 2 * GROUP_FACTORS[group]]) + "\tmultiplicity")
        for label, mult in rows:
            print(*(c for factor in label_factors(label) for c in factor), mult, sep="\t")


def _json_command(decode: Callable, compute: Callable, encode: Callable) -> Callable[[argparse.Namespace], int]:
    """The command that reads its JSON input with decode, applies compute,
    and prints the JSON that encode makes of the result."""

    def run(args: argparse.Namespace) -> int:
        print(serialize.dumps(encode(compute(decode(_read_json(args.input))))))
        return 0

    return run


def _cmd_filtration(args: argparse.Namespace) -> int:
    label = _parse_label(args.label)
    _check_rep_dim(label, f"label {args.label!r}")
    if args.mu is not None:
        try:
            mu = tuple(int(c) for c in args.mu.split(","))
        except ValueError:
            raise CliError(f"bad cocharacter {args.mu!r}: expected comma-separated integers") from None
        group = next(g for g, k in GROUP_FACTORS.items() if k == len(label_factors(label)))
        filts = [cocharacter_filtration(rep_from_label(group, label), mu)]
    else:
        spec = _load_variety(args)
        _check_label_shape(spec.group, label, f"label {args.label!r}")
        rep = rep_from_label(spec.group, label)
        filts = [cocharacter_filtration(rep, mu) for mu in spec.boundary_cocharacters]
    # the bytes of dumps(payloads[0] if len(payloads) == 1 else payloads),
    # written one step at a time
    write = sys.stdout.write
    many = len(filts) != 1
    write("[" if many else "")
    for k, f in enumerate(filts):
        write(", " if k else "")
        for chunk in serialize.filtered_space_chunks(f):
            write(chunk)
    write("]\n" if many else "\n")
    return 0


def _cmd_hom_dim(args: argparse.Namespace) -> int:
    payload = _read_json(args.input)
    if not isinstance(payload, dict) or "a" not in payload or "b" not in payload:
        raise CliError("hom-dim expects a JSON object with fields 'a' and 'b'")
    # both objects are read and checked before either is built
    (da, build_a), (db, build_b) = (serialize.filt_object_reader(payload[k], f"$.{k}") for k in "ab")
    if da * db > MAX_HOM_VARS:
        raise CliError(f"pair needs {da} x {db} = {da * db} Hom variables, above the bound {MAX_HOM_VARS}")
    # against a 0-dimensional side the product is 0, so a labeled
    # representation, which would be built from a few bytes, is bounded alone
    for k, dim in zip("ab", (da, db)):
        if dim > MAX_HOM_VARS and "group" in payload[k]["rep"]:
            raise CliError(f"$.{k}.rep: label needs representation dimension {dim}, above the bound {MAX_HOM_VARS}")
    print(hom_dim(build_a(), build_b()))
    return 0


def _cmd_multiplicity(args: argparse.Namespace) -> int:
    spec = _load_variety(args)
    labels, _ = _read_labels(spec, args, bounded=True)
    _print_rows(args, spec.group, multiplicity_table(spec, labels, args.h_style))
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    spec = _load_variety(args)
    labels, what = _read_labels(spec, args)
    _check_oracle_degree(spec, labels, args.max_degree, what)
    _print_rows(args, spec.group, [(label, oracle_multiplicity(spec, label, args.max_degree)) for label in labels])
    return 0


def _cmd_verify_paper(args: argparse.Namespace) -> int:
    results = run_all(args.h_style)
    print(render_report(results))
    return 0 if all(r.passed for r in results) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multifilt",
        description="Exact computations with multi-filtered representations.",
    )
    parser.add_argument("--print-conventions", action="store_true", help="print the fixed conventions and exit")
    parser.add_argument("--convention", default=CONVENTION, help="convention name (only %(default)s is implemented)")
    parser.add_argument("--format", choices=("json", "tsv"), default="json", help="table output format")
    parser.add_argument("--h-style", choices=H_STYLES, default=H_STYLE_LIE_PLUS_ELEMENTS, help="stabilizer constraint style")
    sub = parser.add_subparsers(dest="command")

    for name, fn in (
        ("rees", _json_command(serialize.filtered_space_from_json, rees_construct, serialize.graded_module_to_json)),
        ("derees", _json_command(serialize.graded_module_from_json, derees, serialize.filtered_space_to_json)),
        ("gr", _json_command(serialize.filtered_space_from_json, associated_graded, serialize.graded_space_to_json)),
        ("hom-dim", _cmd_hom_dim),
    ):
        p = sub.add_parser(name)
        p.add_argument("input", nargs="?", default="-", help="JSON file or - for stdin")
        p.set_defaults(fn=fn)

    p = sub.add_parser("filtration")
    p.add_argument("--label", required=True, help="representation label 'n,m' or 'n,m;n2,m2'")
    p.add_argument("--variety", help="built-in variety name")
    p.add_argument("--variety-file", help="custom variety JSON file")
    p.add_argument("--mu", help="explicit cocharacter, comma-separated integers")
    p.set_defaults(fn=_cmd_filtration)

    for name, fn in (("multiplicity", _cmd_multiplicity), ("oracle", _cmd_oracle)):
        p = sub.add_parser(name)
        p.add_argument("--variety", help="built-in variety name")
        p.add_argument("--variety-file", help="custom variety JSON file")
        p.add_argument("--label", help="single representation label")
        p.add_argument("--grid", help="label ranges, e.g. 'n=0..8,m=-6..6'")
        if name == "oracle":
            p.add_argument(
                "--max-degree",
                type=int,
                default=None,
                help="coordinate-ring degree bound; derived from the label's weight sums when omitted",
            )
        p.set_defaults(fn=fn)

    p = sub.add_parser("verify-paper")
    p.set_defaults(fn=_cmd_verify_paper)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.convention != CONVENTION:
        print(f"input error: unknown convention {args.convention!r}; only {CONVENTION!r} is implemented", file=sys.stderr)
        return 2
    if args.print_conventions:
        print(CONVENTIONS_TEXT)
        return 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.fn(args)
    except (CliError, ValueError) as exc:
        # serialize.InputError is a ValueError
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
