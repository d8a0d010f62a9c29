"""Algebra file format and the command-line interface.

File format (line oriented, # starts a comment):

    algebra <name>
    size <n>
    add
    <n rows of n integers>
    op <name> <arity>
    <n^(arity-1) rows of n integers>   # one row for unary operations

Element 0 must be the additive identity; files violating this are rejected.
Exit codes: 0 property holds / computation succeeded, 1 property fails
(witness printed), 2 usage, parse, or guard error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Sequence

from .catalog import DEFAULT_ZARISKI_SIZE, run_classification
from .core import MAX_ARITY, FiniteOmegaGroup, as_ring, validate_algebra
from .domains import (
    WitnessedVerdict,
    group_zero_divisor_sets,
    is_anticommutative,
    is_c_anticommutative,
    is_domain,
    ring_satisfies_formula5,
)
from .errors import AlgebraError, LawViolationError, ParseError, TooLargeError
from .terms import parse_term
from .zariski import (
    DEFAULT_POINT_GUARD,
    EquationSystem,
    enumerate_algebraic_sets,
    equational_domain_check,
    solve_system,
    zariski_closure,
)

EXIT_OK = 0
EXIT_PROPERTY_FAILS = 1
EXIT_ERROR = 2


# --- algebra files -----------------------------------------------------------


def _content_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((lineno, line))
    return out


def _parse_int_row(lineno: int, line: str, size: int) -> list[int]:
    parts = line.split()
    values = []
    for part in parts:
        try:
            values.append(int(part))
        except ValueError:
            raise ParseError(f"line {lineno}: expected an integer, found {part!r}") from None
    if len(values) != size:
        raise ParseError(f"line {lineno}: expected {size} integers, found {len(values)}")
    return values


def parse_algebra_file(text: str) -> FiniteOmegaGroup:
    """Parse and validate an algebra file.

    The kind tag is inferred: empty signature gives a group; a single binary
    operation named mul satisfying the ring laws gives a ring; anything else
    stays raw.
    """
    lines = _content_lines(text)
    pos = 0

    def take() -> tuple[int, str]:
        nonlocal pos
        if pos >= len(lines):
            last = lines[-1][0] if lines else 0
            raise ParseError(f"line {last}: unexpected end of file")
        item = lines[pos]
        pos += 1
        return item

    lineno, line = take()
    if not line.startswith("algebra ") or len(line.split()) != 2:
        raise ParseError(f"line {lineno}: expected 'algebra <name>'")
    name = line.split()[1]

    lineno, line = take()
    parts = line.split()
    if parts[0] != "size" or len(parts) != 2 or not parts[1].isdecimal():
        raise ParseError(f"line {lineno}: expected 'size <n>'")
    size = int(parts[1])
    if size < 1:
        raise ParseError(f"line {lineno}: size must be positive")

    lineno, line = take()
    if line != "add":
        raise ParseError(f"line {lineno}: expected 'add' section")
    add: list[int] = []
    for _ in range(size):
        lineno, line = take()
        add.extend(_parse_int_row(lineno, line, size))

    omega = []
    while pos < len(lines):
        lineno, line = take()
        parts = line.split()
        if parts[0] != "op" or len(parts) != 3 or not parts[2].isdecimal():
            raise ParseError(f"line {lineno}: expected 'op <name> <arity>'")
        op_name, arity = parts[1], int(parts[2])
        if not 1 <= arity <= MAX_ARITY:
            raise ParseError(f"line {lineno}: arity {arity} outside 1..{MAX_ARITY}")
        rows = size ** (arity - 1)
        table: list[int] = []
        for _ in range(rows):
            lineno, line = take()
            table.extend(_parse_int_row(lineno, line, size))
        omega.append((op_name, arity, table))

    if not omega:
        return validate_algebra(name, size, add, (), kind="group")
    if len(omega) == 1 and omega[0][0] == "mul" and omega[0][1] == 2:
        try:
            return as_ring(name, add, omega[0][2])
        except LawViolationError:
            pass
    return validate_algebra(name, size, add, omega)


def serialize_algebra(algebra: FiniteOmegaGroup) -> str:
    n = algebra.size
    out = [f"algebra {algebra.name}", f"size {n}", "add"]
    for i in range(n):
        out.append(" ".join(str(v) for v in algebra.add[i * n : (i + 1) * n]))
    for table in algebra.omega:
        out.append(f"op {table.name} {table.arity}")
        rows = n ** (table.arity - 1)
        for i in range(rows):
            out.append(" ".join(str(v) for v in table.table[i * n : (i + 1) * n]))
    return "\n".join(out) + "\n"


def _load_algebra(path: str) -> FiniteOmegaGroup:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc
    return parse_algebra_file(text)


# --- output helpers ----------------------------------------------------------


def _emit(key: str, value) -> None:
    if isinstance(value, bool):
        value = "true" if value else "false"
    print(f"{key}: {value}")


def _format_points(points) -> str:
    return ";".join(",".join(str(x) for x in p) for p in sorted(points))


def _parse_points(text: str, n_vars: int) -> set[tuple[int, ...]]:
    points = set()
    if not text.strip():
        return points
    for chunk in text.split(";"):
        parts = [p.strip() for p in chunk.split(",")]
        try:
            point = tuple(int(p) for p in parts)
        except ValueError:
            raise ParseError(f"bad point {chunk!r}") from None
        if len(point) != n_vars:
            raise ParseError(f"point {chunk!r} does not have {n_vars} coordinates")
        points.add(point)
    return points


def _witness_pair(verdict: WitnessedVerdict) -> str:
    items = sorted(verdict.witness.items()) if verdict.witness else []
    return "(" + ",".join(str(v) for _, v in items) + ")"


# --- commands ----------------------------------------------------------------


def _cmd_validate(args) -> int:
    try:
        algebra = _load_algebra(args.file)
    except ParseError:
        raise
    except AlgebraError as exc:
        _emit("valid", False)
        _emit("error", f"{type(exc).__name__}: {exc}")
        return EXIT_PROPERTY_FAILS
    _emit("valid", True)
    _emit("name", algebra.name)
    _emit("size", algebra.size)
    _emit("kind", algebra.kind)
    _emit("signature", " ".join(f"{n}/{a}" for n, a in algebra.signature) or "-")
    return EXIT_OK


def _cmd_check(args) -> int:
    algebra = _load_algebra(args.file)
    prop = args.property
    if prop == "domain":
        verdict = is_domain(algebra)
        _emit("property", "domain")
        _emit("holds", verdict.verdict)
        if not verdict.verdict:
            _emit("zero-divisors", _witness_pair(verdict))
        return EXIT_OK if verdict.verdict else EXIT_PROPERTY_FAILS
    if prop == "anticommutative":
        verdict = is_anticommutative(algebra)
    elif prop == "c-anticommutative":
        verdict = is_c_anticommutative(algebra)
    elif prop == "equational-domain":
        verdict = equational_domain_check(algebra, guard=args.max_points)
    elif prop == "formula5":
        verdict = ring_satisfies_formula5(algebra)
    elif prop == "remark1":
        set_pair, set_single = group_zero_divisor_sets(algebra)
        equal = set_pair == set_single
        _emit("property", "remark1")
        _emit("holds", equal)
        _emit("conjugate-pair-set", ",".join(str(x) for x in sorted(set_pair)) or "-")
        _emit("single-conjugate-set", ",".join(str(x) for x in sorted(set_single)) or "-")
        return EXIT_OK if equal else EXIT_PROPERTY_FAILS
    else:  # pragma: no cover - argparse restricts choices
        raise ParseError(f"unknown property {prop!r}")
    _emit("property", prop)
    _emit("holds", verdict.verdict)
    _emit("method", verdict.method)
    if verdict.witness:
        _emit("witness", _witness_pair(verdict))
    return EXIT_OK if verdict.verdict else EXIT_PROPERTY_FAILS


def _cmd_solve(args) -> int:
    algebra = _load_algebra(args.file)
    terms = tuple(parse_term(text) for text in args.eq or ())
    system = EquationSystem(args.vars, terms)
    points = solve_system(algebra, system, guard=args.max_points)
    _emit("count", len(points))
    _emit("points", _format_points(points) or "-")
    return EXIT_OK


def _cmd_closure(args) -> int:
    algebra = _load_algebra(args.file)
    points = _parse_points(args.points, args.vars)
    closure = zariski_closure(algebra, args.vars, points, guard=args.max_points)
    _emit("input-count", len(points))
    _emit("closure-count", len(closure))
    _emit("closure", _format_points(closure) or "-")
    _emit("added", _format_points(closure - points) or "-")
    _emit("algebraic", closure == points)
    return EXIT_OK


def _cmd_lattice(args) -> int:
    algebra = _load_algebra(args.file)
    report = enumerate_algebraic_sets(algebra, n_vars=args.vars)
    _emit("algebraic-set-count", len(report.algebraic_sets))
    for i, subset in enumerate(report.algebraic_sets):
        _emit(f"set-{i}", _format_points(subset) or "empty")
    _emit("join-equals-union", report.join_equals_union)
    if report.union_counterexample is not None:
        a, b = report.union_counterexample
        _emit("union-counterexample", f"{_format_points(a)} | {_format_points(b)}")
    _emit("intersection-closed", report.intersection_closed)
    _emit("distributive", report.distributive)
    return EXIT_OK


def _cmd_catalog(args) -> int:
    report = run_classification(max_zariski_size=args.max_zariski_size)
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        for cls in report.algebras:
            _emit("algebra", cls.name)
            _emit("size", cls.size)
            _emit("kind", cls.kind)
            for name, outcome in cls.properties.items():
                if outcome.value is None:
                    _emit(name, f"skipped ({outcome.skipped})")
                    continue
                line = "true" if outcome.value else "false"
                if outcome.witness:
                    pair = ",".join(str(v) for _, v in sorted(outcome.witness.items()))
                    line += f" witness ({pair})"
                _emit(name, line)
            print()
        _emit("violations", len(report.violations))
        for violation in report.violations:
            _emit("violation", violation)
    return EXIT_OK if not report.violations else EXIT_PROPERTY_FAILS


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="omegagroups",
        description="Classify finite multioperator groups and explore their Zariski topology.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate an algebra file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("check", help="decide a property, exit 1 with witness when it fails")
    p.add_argument("file")
    p.add_argument(
        "--property",
        required=True,
        choices=[
            "domain",
            "anticommutative",
            "c-anticommutative",
            "equational-domain",
            "formula5",
            "remark1",
        ],
    )
    p.add_argument("--max-points", type=int, default=DEFAULT_POINT_GUARD)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("solve", help="solve a system of term equations")
    p.add_argument("file")
    p.add_argument("--vars", type=int, required=True)
    p.add_argument("--eq", action="append", help="term or equation; repeatable")
    p.add_argument("--max-points", type=int, default=DEFAULT_POINT_GUARD)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("closure", help="Zariski closure of a point set")
    p.add_argument("file")
    p.add_argument("--vars", type=int, required=True)
    p.add_argument("--points", required=True, help="e.g. \"0,0;1,0;0,1\"")
    p.add_argument("--max-points", type=int, default=DEFAULT_POINT_GUARD)
    p.set_defaults(func=_cmd_closure)

    p = sub.add_parser("lattice", help="enumerate algebraic sets and report lattice laws")
    p.add_argument("file")
    p.add_argument("--vars", type=int, default=1, choices=[1, 2])
    p.set_defaults(func=_cmd_lattice)

    p = sub.add_parser("catalog", help="classify the built-in catalog")
    p.add_argument("--max-zariski-size", type=int, default=DEFAULT_ZARISKI_SIZE)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_catalog)

    return parser


def dispatch(argv: Sequence[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (ParseError, TooLargeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except AlgebraError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
