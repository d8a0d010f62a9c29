"""The four benchmark workloads, each a list of ops generated from a seed.

An op is one closed-loop call into the library or its CLI, made by a single
caller in one thread.  Every workload keeps its shape on every seed (the same
kinds of op on the same algebras, the same op count); the seed draws the
inputs of the seeded ops.  Seeded inputs come from pools whose cost barely
depends on the draw, so run-to-run spread stays small while the outputs, and
their digests, differ from seed to seed.

Building a workload is its set-up: algebras, algebra files for the CLI ops,
and (for `grid`) the warm term-function tables.  NOTES.md says why each
workload exists and which layer it leaves idle.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import random
from dataclasses import dataclass
from typing import Any, Callable

import omegagroups as og
from omegagroups import catalog as cat_mod
from omegagroups import cli as cli_mod
from omegagroups import zariski as zar_mod


@dataclass
class Op:
    """One timed call.  `run` returns the output that is digested and checked."""

    kind: str
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None] | None = None
    heavy: bool = False  # left out of the smoke-sized run


@dataclass
class Workload:
    ops: list[Op]
    # Cleared before every pass, so that every pass does the same work.  The
    # grid workload keeps the tables its set-up warmed instead.
    cold_cache: bool = True


def grid_cache() -> dict:
    """The library's term-function table cache, keyed by (algebra, n_vars)."""
    return getattr(zar_mod, "_grid_cache", {})


# --- algebras ----------------------------------------------------------------

_NAMED = {
    "V4-group": "klein_four_group",
    "S3": "symmetric_group_3",
    "D4": "dihedral_4",
    "Q8": "quaternion_group",
    "F4-ring": "field_f4",
    "F2[t]/(t2)-ring": "dual_numbers_f2",
    "null-ring-4": "null_ring_klein",
    "M2(F2)-ring": "matrix_ring_m2_f2",
    "abelian-lie-4": "abelian_lie_f2",
    "heisenberg-lie-8": "heisenberg_lie_f2",
    "sl2-f2": "sl2_f2",
}


def make_algebra(name: str) -> og.FiniteOmegaGroup:
    """Build and validate an algebra by its library name; `AxB` is a product."""
    if "x" in name:
        left, right = name.split("x", 1)
        return og.direct_product(make_algebra(left), make_algebra(right))[0]
    if name.startswith("Z") and name.endswith("-ring"):
        return cat_mod.cyclic_ring(int(name[1:-5]))
    if name.startswith("Z") and name.endswith("-group"):
        return cat_mod.cyclic_group(int(name[1:-6]))
    return getattr(cat_mod, _NAMED[name])()


def _algebras(names) -> dict[str, og.FiniteOmegaGroup]:
    return {name: make_algebra(name) for name in dict.fromkeys(names)}


def _write_files(workdir: str, algebras) -> dict[str, str]:
    """One algebra file per algebra, for the CLI ops."""
    paths = {}
    for i, (name, algebra) in enumerate(algebras.items()):
        path = os.path.join(workdir, f"algebra-{i}.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(cli_mod.serialize_algebra(algebra))
        paths[name] = path
    return paths


# --- outputs and their invariants ----------------------------------------------


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """Run one CLI command in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_mod.dispatch(argv)
    return code, out.getvalue(), err.getvalue()


def fmt_points(points) -> str:
    return ";".join(",".join(str(x) for x in p) for p in sorted(points))


def parse_points(text: str) -> list[tuple[int, ...]]:
    if text in ("", "-"):
        return []
    return [tuple(int(x) for x in chunk.split(",")) for chunk in text.split(";")]


def cli_field(stdout: str, key: str) -> str | None:
    for line in stdout.splitlines():
        if line.startswith(key + ": "):
            return line[len(key) + 2 :]
    return None


def _permuted(points, perm) -> list[tuple[int, ...]]:
    return sorted(tuple(p[i] for i in perm) for p in points)


def _random_perm(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def _contains(points, closure) -> str | None:
    missing = set(points) - set(closure)
    return f"closure misses input points {sorted(missing)[:3]}" if missing else None


def _check_catalog(output) -> str | None:
    code, out, _ = output
    if code != 0 or cli_field(out, "violations") != "0":
        return f"catalog expectations or cross-checks violated (exit {code})"
    return None


def _check_cli_exit(output) -> str | None:
    code, _, err = output
    return f"exit code {code}: {err.strip()[:200]}" if code != 0 else None


def _check_cli_closure(points):
    def check(output) -> str | None:
        code, out, err = output
        if code != 0:
            return f"closure exit code {code}: {err.strip()[:200]}"
        return _contains(points, parse_points(cli_field(out, "closure") or ""))

    return check


def _check_equational_witness(algebra):
    """A failing verdict's witness lies off the axes and inside their closure."""

    def check(output) -> str | None:
        code, out, err = output
        if code == 0:
            return None
        if code != 1:
            return f"equational-domain exit code {code}: {err.strip()[:200]}"
        a, b = (int(x) for x in (cli_field(out, "witness") or "(0,0)").strip("()").split(","))
        if a == 0 or b == 0:
            return f"witness ({a},{b}) lies on an axis"
        axes = [(x, 0) for x in range(algebra.size)] + [(0, y) for y in range(algebra.size)]
        if not og.point_in_closure(algebra, 2, axes, (a, b)):
            return f"witness ({a},{b}) is not in the closure of the axes"
        return None

    return check


# --- classify ----------------------------------------------------------------
# Subset fixed points in closures.py (ideal_closure and the commutator scans)
# carry this workload; the Zariski row kernel is almost idle.

CLASSIFY_PRODUCTS = (
    "Z2-ringxZ4-ring", "Z2-ringxF4-ring", "Z4-ringxZ4-ring", "Z2-groupxS3",
    "Z2-groupxD4", "abelian-lie-4xheisenberg-lie-8", "Z3-ringxZ5-ring",
    "Z2-ringxZ5-ring", "F4-ringxF4-ring", "Z2-ringxZ6-ring", "Z4-groupxQ8",
    "V4-groupxD4",
)
CLASSIFY_RINGS = tuple(f"Z{n}-ring" for n in range(7, 17))
CLASSIFY_CLOSURE_POOL = CLASSIFY_PRODUCTS + CLASSIFY_RINGS + (
    "heisenberg-lie-8", "sl2-f2", "D4", "Q8", "F2[t]/(t2)-ring",
)
DECISIONS = ("is_abelian", "is_domain", "is_anticommutative", "is_c_anticommutative")


def _decision_op(fn_name: str, algebra) -> Op:
    def run():
        verdict = getattr(og, fn_name)(algebra)
        return (verdict.verdict, verdict.method, sorted((verdict.witness or {}).items()))

    return Op(fn_name, f"{fn_name} {algebra.name}", run)


def _ideal_op(algebra, ambient, seed_set, heavy=False) -> Op:
    def run():
        return sorted(og.ideal_closure(algebra, ambient, seed_set))

    return Op("ideal_closure", f"ideal_closure {algebra.name} {sorted(seed_set)}", run,
              lambda closure: _contains(seed_set, closure), heavy)


def _commutator_op(algebra, a_set, b_set) -> Op:
    def run():
        return sorted(og.commutator_group(algebra, a_set, b_set))

    return Op("commutator_group", f"commutator_group {algebra.name}", run)


def relabel(algebra, perm) -> og.FiniteOmegaGroup:
    """The isomorphic copy of the algebra in which element a is named perm[a]."""
    n = algebra.size
    inverse = [0] * n
    for a, image in enumerate(perm):
        inverse[image] = a

    def table(flat, arity):
        return [perm[flat[sum(inverse[x] * n**(arity - 1 - k) for k, x in enumerate(args))]]
                for args in itertools.product(range(n), repeat=arity)]

    omega = [(t.name, t.arity, table(t.table, t.arity)) for t in algebra.omega]
    return og.validate_algebra(algebra.name, n, table(algebra.add, 2), omega, algebra.kind)


def build_classify(seed: int, workdir: str) -> Workload:
    # The closure instances are fixed; the seed relabels the elements of each
    # algebra they run on.  A relabelled instance is isomorphic to the fixed
    # one, so its fixed point does the same work while its output changes.
    pool = random.Random("classify-pool")
    rng = random.Random(f"classify:{seed}")
    algs = _algebras(CLASSIFY_CLOSURE_POOL + ("M2(F2)-ring",))
    ops = [_decision_op(fn, algs[name])
           for name in CLASSIFY_PRODUCTS + CLASSIFY_RINGS for fn in DECISIONS]
    for name in CLASSIFY_CLOSURE_POOL + ("M2(F2)-ring",):
        base = algs[name]
        perm = [0] + _random_perm(rng, base.size - 1)
        perm[1:] = [x + 1 for x in perm[1:]]
        algebra = relabel(base, perm)

        def image(subset):
            return {perm[x] for x in subset}

        if name == "M2(F2)-ring":
            ops += [_ideal_op(algebra, None, image({pool.randrange(1, base.size)}), heavy=True)
                    for _ in range(2)]
            continue
        seed_set = {pool.randrange(1, base.size) for _ in range(pool.randint(1, 2))}
        ops.append(_ideal_op(algebra, None, image(seed_set)))
        ambient = og.omega_subgroup_closure(base, {pool.randrange(1, base.size)})
        inner = {pool.choice(sorted(ambient))}
        ops.append(_ideal_op(algebra, frozenset(image(ambient)), image(inner)))
        if name in CLASSIFY_CLOSURE_POOL[::2]:
            a_set = og.omega_subgroup_closure(base, {pool.randrange(1, base.size)})
            b_set = og.omega_subgroup_closure(base, {pool.randrange(1, base.size)})
            ops.append(_commutator_op(algebra, frozenset(image(a_set)), frozenset(image(b_set))))
    rng.shuffle(ops)
    catalog = Op("cli catalog", "catalog", lambda: run_cli(["catalog"]), _check_catalog, True)
    return Workload([catalog] + ops)


# --- separate ----------------------------------------------------------------
# Per-candidate worklists in zariski.py (_pairs, _unique_rows, _dedup_against)
# with early exit; closures.py does no work and the prefilter little.
#
# The seeded closure and membership instances are drawn from fixed pools and
# their variables permuted by the seed.  A permutation of the variables maps
# the closure problem onto an isomorphic one, so the work per instance stays
# put while the inputs and outputs change.  Pool entries were chosen to cost
# 0.01-0.4 s, away from the blow-ups listed in NOTES.md.

EQUATIONAL_DOMAIN_ALGEBRAS = (
    "M2(F2)-ring", "Z5-ring", "Z6-ring", "Z7-ring", "Z11-ring", "Z13-ring", "S3", "D4",
    "Q8", "heisenberg-lie-8", "sl2-f2", "Z2-ringxZ3-ring", "Z2-ringxZ4-ring",
    "Z2-ringxZ6-ring", "Z2-ringxF4-ring", "Z2-ringxF2[t]/(t2)-ring",
    "Z2-ringxnull-ring-4", "abelian-lie-4xabelian-lie-4", "Z2-groupxS3", "Z2-groupxD4",
)
CLOSURE_INSTANCES = (
    ("Z3-group", "1,0,0;2,1,1;2,2,0"),
    ("Z3-group", "1,1,1;1,2,2;2,1,0;2,2,1"),
    ("Z3-group", "0,1,2;1,1,1;1,2,2;2,0,2"),
    ("Z4-group", "0,2,0;1,2,0;2,0,2"),
    ("Z4-group", "0,0,1;2,0,0;2,0,1;2,0,2;3,1,2"),
    ("Z4-group", "0,1,1;1,2,2;1,3,0;2,1,0"),
    ("V4-group", "0,0,0;0,1,2;1,0,2;2,0,0;3,0,2"),
    ("V4-group", "0,1,1;0,3,3;1,3,0;2,3,1;3,2,3"),
    ("V4-group", "0,1,3;2,3,1;3,1,3;3,2,2"),
    ("Z3-ring", "0,2,1;0,2,2;1,0,0;1,1,2"),
    ("Z3-ring", "0,1,1;2,0,2;2,1,2"),
    ("Z3-ring", "0,1,2;1,0,1;2,1,2;2,2,2"),
    ("Z4-ring", "0,0,2;0,1,0;0,3,3;2,3,3"),
    ("Z4-ring", "0,1,1;1,3,0;1,3,1;2,3,1"),
    ("Z4-ring", "0,0,0;0,2,0;3,2,0"),
    ("F2[t]/(t2)-ring", "0,0,2;1,3,2;3,1,0;3,3,3"),
    ("F2[t]/(t2)-ring", "0,2,3;1,0,0;3,1,2;3,3,3"),
    ("F2[t]/(t2)-ring", "0,3,3;2,0,3;2,3,3;3,1,2"),
    ("null-ring-4", "2,0,1;2,2,3;3,0,1;3,3,3"),
    ("null-ring-4", "0,1,2;1,0,2;1,3,2;2,0,3;2,2,1"),
    ("null-ring-4", "0,0,0;0,1,1;1,1,1;1,2,0;3,3,0"),
    ("abelian-lie-4", "0,0,2;0,2,1;0,3,3;2,3,3"),
    ("abelian-lie-4", "2,2,0;2,2,1;2,2,2;2,2,3"),
    ("abelian-lie-4", "0,0,3;1,2,0;2,0,0;3,0,1"),
    ("Z5-ring", "0,4,1;3,4,0;4,0,4"),
    ("Z5-ring", "0,1,2;3,0,0;4,3,3"),
    ("Z5-ring", "0,3,2;1,1,0;3,3,0"),
    ("Z6-ring", "0,1,5;1,2,3;3,0,0"),
    ("F4-ring", "0,1,2;3,0,1;3,2,1"),
    ("F4-ring", "0,0,3;1,2,0;3,1,0"),
    ("F4-ring", "0,3,2;1,0,1;1,1,0;1,2,1"),
    ("S3", "0,0,0;0,0,2;5,2,4"),
    ("S3", "1,5,4;2,1,2;5,2,4"),
    ("S3", "1,2,3;1,4,0;1,5,0;2,2,3"),
    ("Z2-ringxZ3-ring", "1,2,0;3,5,5;5,2,0"),
)
MEMBERSHIP_INSTANCES = (
    ("Z4-ring", "0,3,3;1,3,3;2,2,1;2,3,0;3,2,2", "1,0,0"),
    ("Z4-ring", "0,2;1,0;1,3", "3,1"),
    ("Z4-ring", "1,3;2,0", "3,2"),
    ("Z4-ring", "0,0;0,1;1,0;2,1;3,2", "0,3"),
    ("Z4-ring", "0,0,2;0,2,1;1,3,0;3,3,2;3,3,3", "0,3,2"),
    ("F2[t]/(t2)-ring", "0,2;1,1;2,1;2,2;3,2", "2,0"),
    ("F2[t]/(t2)-ring", "1,0;3,0;3,3", "2,2"),
    ("F2[t]/(t2)-ring", "0,2;1,2;2,0;2,3;3,1", "3,0"),
    ("F2[t]/(t2)-ring", "0,1,0;1,0,0;1,1,0;2,1,3;3,0,0", "2,0,0"),
    ("F2[t]/(t2)-ring", "1,3;2,0;2,3", "3,2"),
    ("Z5-ring", "0,0;0,4;1,0;4,2;4,3", "2,1"),
    ("Z5-ring", "0,1;1,3;2,1;3,0;3,4", "2,4"),
    ("Z5-ring", "2,3,1;4,2,1;4,2,4", "0,3,4"),
    ("Z5-ring", "1,2;2,1;3,4;4,3", "0,2"),
    ("Z5-ring", "1,2;3,4", "1,1"),
    ("Z6-ring", "0,5;4,3;5,1", "2,0"),
    ("Z6-ring", "1,2,2;2,3,0;2,4,3;4,3,0", "4,0,0"),
    ("Z6-ring", "1,1,1;3,3,3;5,3,5", "1,3,0"),
    ("Z6-ring", "2,2,0;2,3,1;3,3,3", "5,2,5"),
    ("Z6-ring", "1,4,1;2,3,0;3,0,2;3,5,2", "3,2,3"),
    ("F4-ring", "2,1;3,3", "1,2"),
    ("F4-ring", "0,3;2,3;3,3", "2,2"),
    ("F4-ring", "0,1;0,2;3,0;3,1;3,3", "1,1"),
    ("F4-ring", "0,3;3,2", "2,1"),
    ("F4-ring", "0,1,2;0,2,1;2,2,2", "3,2,1"),
    ("S3", "0,2,1;0,3,4;4,1,0;5,1,4", "2,0,4"),
    ("S3", "0,0,3;0,1,1;1,3,5;2,2,2", "2,4,0"),
    ("S3", "0,1;2,2;4,4", "0,2"),
    ("S3", "2,4;3,4;5,1", "0,5"),
    ("S3", "0,3,5;0,5,2;1,3,4;3,3,0;4,1,1", "5,2,4"),
    ("Z2-ringxZ3-ring", "0,2,1;3,2,3;4,0,3", "1,3,1"),
    ("Z2-ringxZ3-ring", "0,1,5;0,3,0;1,0,2;2,5,3;5,1,3", "2,2,1"),
    ("Z2-ringxZ3-ring", "2,1,4;2,3,5;5,2,0", "2,3,0"),
    ("Z2-ringxZ3-ring", "0,4;2,3;3,0;5,4", "2,1"),
    ("Z2-ringxZ3-ring", "0,4;2,4;3,2;5,4;5,5", "1,4"),
    ("D4", "7,0;7,3", "7,1"),
    ("D4", "0,0;4,1;5,0;5,7", "0,4"),
    ("D4", "5,4;5,6", "0,7"),
    ("D4", "0,6;6,7", "6,6"),
    ("D4", "1,5;1,7;5,0;6,3;7,6", "4,0"),
    ("Q8", "0,2;4,1;7,6", "7,7"),
    ("Q8", "1,1;5,3;6,7;7,0", "2,1"),
    ("Q8", "0,6;1,4;2,4;4,4;5,3", "2,0"),
    ("Q8", "1,4;4,2;4,7;6,2;7,5", "0,4"),
    ("Q8", "0,2;0,3;3,0", "3,6"),
    ("Z7-ring", "4,6;5,1;6,0", "1,6"),
    ("Z7-ring", "3,6;5,5", "1,0"),
    ("Z7-ring", "3,4;5,3;6,2", "1,0"),
    ("Z7-ring", "0,2;2,6;3,2;5,3", "6,2"),
    ("Z7-ring", "0,3;3,5;4,2;4,3;5,6", "5,0"),
)


def build_separate(seed: int, workdir: str) -> Workload:
    rng = random.Random(f"separate:{seed}")
    names = (EQUATIONAL_DOMAIN_ALGEBRAS + tuple(n for n, _ in CLOSURE_INSTANCES)
             + tuple(n for n, _, _ in MEMBERSHIP_INSTANCES))
    algs = _algebras(names)
    files = _write_files(workdir, algs)
    ops = []
    for name in EQUATIONAL_DOMAIN_ALGEBRAS:
        argv = ["check", files[name], "--property", "equational-domain"]
        ops.append(Op("cli check equational-domain", f"equational-domain {name}",
                      lambda argv=argv: run_cli(argv), _check_equational_witness(algs[name]),
                      heavy=name == "M2(F2)-ring"))
    for name, text in CLOSURE_INSTANCES:
        points = _permuted(parse_points(text), _random_perm(rng, 3))
        argv = ["closure", files[name], "--vars", "3", "--points", fmt_points(points)]
        ops.append(Op("cli closure", f"closure {name} {fmt_points(points)}",
                      lambda argv=argv: run_cli(argv), _check_cli_closure(points)))
    for name, text, cand_text in MEMBERSHIP_INSTANCES:
        # A 2-variable instance is asked in both variable orders, a 3-variable
        # one in an order the seed draws.  The extra cheap ops move
        # op_p90_ms from the sparse tail of closure costs to where ops of
        # nearly equal cost lie close together.
        n_vars = len(parse_points(cand_text)[0])
        for perm in ([[0, 1], [1, 0]] if n_vars == 2 else [_random_perm(rng, n_vars)]):
            points = _permuted(parse_points(text), perm)
            candidate = _permuted(parse_points(cand_text), perm)[0]

            def run(algebra=algs[name], points=points, candidate=candidate):
                return og.point_in_closure(algebra, len(candidate), points, candidate)

            ops.append(Op("point_in_closure", f"point_in_closure {name} {candidate}", run))
    rng.shuffle(ops)
    return Workload(ops)


# --- grid --------------------------------------------------------------------
# Reads of warm term-function tables: every table lookup is a cache hit, the
# row kernel does nothing, and term_values makes a few calls over whole grids.

LATTICE_2 = ("Z3-ring", "Z2-ring", "Z3-group", "Z2-group")
LATTICE_1 = (
    "Z2-group", "Z3-group", "Z4-group", "V4-group", "Z5-group", "Z6-group", "S3", "Z7-group",
    "Z8-group", "D4", "Q8", "Z2-ring", "Z3-ring", "Z4-ring", "Z5-ring", "Z6-ring", "F4-ring",
    "F2[t]/(t2)-ring", "null-ring-4", "Z8-ring", "abelian-lie-4", "heisenberg-lie-8",
    "sl2-f2",
)
# Grids of at most GRID_CELL_LIMIT cells whose tables have at most 32,768 rows.
QUERY_GRIDS = (
    ("Z2-ring", 1), ("Z3-ring", 1), ("Z4-ring", 1), ("Z5-ring", 1), ("Z6-ring", 1),
    ("Z8-ring", 1), ("Z9-ring", 1), ("Z10-ring", 1), ("Z12-ring", 1), ("Z15-ring", 1),
    ("Z16-ring", 1), ("F4-ring", 1), ("M2(F2)-ring", 1), ("S3", 1), ("Q8", 1),
    ("heisenberg-lie-8", 1), ("Z2-ring", 2), ("Z3-ring", 2), ("Z4-ring", 2), ("F4-ring", 2),
    ("F2[t]/(t2)-ring", 2), ("null-ring-4", 2), ("abelian-lie-4", 2), ("V4-group", 2),
    ("Z2-ring", 3), ("Z2-group", 3), ("Z2-ring", 4), ("Z2-group", 4),
)
QUERIES_PER_GRID = 50
SOLVE_GRIDS = (
    ("M2(F2)-ring", 4), ("Z16-ring", 4), ("F4-ring", 4), ("Z5-ring", 3), ("Z6-ring", 4),
    ("D4", 4), ("S3", 4), ("Z3-ring", 3),
)


def _query_op(rng: random.Random, algebra, n_vars: int) -> Op:
    cells = algebra.size**n_vars
    density = rng.uniform(0.1, 0.5)
    points = [p for p in itertools.product(range(algebra.size), repeat=n_vars)
              if rng.random() < density]
    if rng.random() < 0.5:
        def run():
            return sorted(og.zariski_closure(algebra, n_vars, points))

        return Op("zariski_closure", f"closure {algebra.name}^{n_vars} {len(points)}/{cells}",
                  run, lambda closure: _contains(points, closure))

    def run():
        return og.is_algebraic(algebra, n_vars, points)

    def check(verdict):
        closed = set(og.zariski_closure(algebra, n_vars, points)) == set(points)
        return None if verdict == closed else "is_algebraic disagrees with the closure"

    return Op("is_algebraic", f"is_algebraic {algebra.name}^{n_vars}", run, check)


# Equation templates; the seed permutes their variables, which permutes the
# solution set without changing its size or the work of finding it.
SOLVE_TEMPLATES = {
    3: {"ring": "(mul(x1,x2) + (-mul(x2,x3)))", "group": "((x1 + x2) + (-(x3 + x1)))"},
    4: {"ring": "(mul(x1,x2) + (-mul(x3,x4)))", "group": "((x1 + x2) + (-(x3 + x4)))"},
}


def _solve_op(rng: random.Random, algebra, n_vars: int) -> Op:
    template = SOLVE_TEMPLATES[n_vars]["ring" if algebra.signature else "group"]
    perm = _random_perm(rng, n_vars)
    for i in range(n_vars):
        template = template.replace(f"x{i + 1}", f"v{perm[i] + 1}")
    equation = template.replace("v", "x")
    system = og.EquationSystem(n_vars, (og.parse_term(equation),))

    def run():
        return sorted(og.solve_system(algebra, system))

    return Op("solve_system", f"solve {algebra.name}^{n_vars} {equation}", run)


def build_grid(seed: int, workdir: str) -> Workload:
    rng = random.Random(f"grid:{seed}")
    algs = _algebras(LATTICE_2 + LATTICE_1 + tuple(n for n, _ in QUERY_GRIDS + SOLVE_GRIDS))
    files = _write_files(workdir, {name: algs[name] for name in LATTICE_2 + LATTICE_1})
    # Warm every table the timed part reads.  The CLI parses its algebras
    # from files, so its tables are keyed by the parsed algebras.
    parsed = {}
    for name, path in files.items():
        with open(path, encoding="utf-8") as handle:
            parsed[name] = cli_mod.parse_algebra_file(handle.read())
    warm = [(parsed[n], 2) for n in LATTICE_2] + [(parsed[n], 1) for n in LATTICE_1]
    warm += [(algs[n], v) for n, v in QUERY_GRIDS]
    for algebra, n_vars in warm:
        if zar_mod.term_function_table(algebra, n_vars) is None:
            raise RuntimeError(f"grid workload needs a table for {algebra.name}^{n_vars}")

    ops = [Op("cli lattice", f"lattice {name} --vars 2",
              lambda argv=["lattice", files[name], "--vars", "2"]: run_cli(argv),
              _check_cli_exit, heavy=name == "Z3-ring")
           for name in LATTICE_2]
    ops += [Op("cli lattice", f"lattice {name} --vars 1",
               lambda argv=["lattice", files[name], "--vars", "1"]: run_cli(argv),
               _check_cli_exit)
            for name in LATTICE_1]
    for name, n_vars in QUERY_GRIDS:
        ops += [_query_op(rng, algs[name], n_vars) for _ in range(QUERIES_PER_GRID)]
    ops += [_solve_op(rng, algs[name], n_vars) for name, n_vars in SOLVE_GRIDS]
    rng.shuffle(ops)
    return Workload(ops, cold_cache=False)


# --- build -------------------------------------------------------------------
# Cold builds: each op builds and validates an algebra, touches its table for
# the first time (a cache miss in every pass) and queries it once.  Same row
# kernel as `separate`, run in bulk without early exit; the write side of the
# cache whose reads `grid` measures.  Z11-ring and Z13-ring overflow
# GRID_ROW_CAP and return no table.

BUILD_PAIRS = (
    tuple((f"Z{n}-ring", 1) for n in range(2, 17))
    + (
        ("Z5-group", 1), ("Z12-group", 1), ("V4-group", 1), ("S3", 1), ("D4", 1), ("Q8", 1),
        ("F4-ring", 1), ("F2[t]/(t2)-ring", 1), ("null-ring-4", 1), ("M2(F2)-ring", 1),
        ("abelian-lie-4", 1), ("heisenberg-lie-8", 1), ("sl2-f2", 1),
        ("Z2-ringxZ3-ring", 1), ("Z2-ringxZ4-ring", 1), ("Z2-ringxF4-ring", 1),
        ("Z2-ringxZ5-ring", 1), ("Z3-ringxZ4-ring", 1), ("Z2-ringxZ6-ring", 1),
        ("abelian-lie-4xabelian-lie-4", 1), ("Z2-ringxZ7-ring", 1), ("Z7-ringxZ2-ring", 1),
        ("Z2-groupxS3", 1), ("Z2-groupxD4", 1),
        ("Z2-ring", 2), ("Z3-ring", 2), ("Z4-ring", 2), ("F4-ring", 2), ("F2[t]/(t2)-ring", 2),
        ("null-ring-4", 2), ("abelian-lie-4", 2), ("Z2-group", 2), ("Z3-group", 2),
        ("Z4-group", 2), ("V4-group", 2), ("Z2-ringxZ2-ring", 2),
        ("Z2-ring", 3), ("Z2-group", 3), ("Z2-ring", 4), ("Z2-group", 4),
    )
    + tuple((f"Z{n}-group", 1) for n in range(2, 17) if n not in (5, 12))
    + tuple((f"Z{n}-group", 2) for n in range(5, 9))
    + (
        ("Z2-groupxZ2-group", 1), ("Z2-groupxZ3-group", 1), ("Z2-groupxZ4-group", 1),
        ("Z3-groupxZ3-group", 1), ("Z2-groupxQ8", 1), ("Z2-groupxZ2-groupxZ2-group", 1),
        ("Z2-groupxZ2-group", 2), ("Z2-groupxZ3-group", 2), ("Z3-group", 3), ("Z2-group", 5),
        ("Z3-groupxS3", 1), ("Z2-ringxZ2-ring", 1), ("Z3-ringxZ3-ring", 1),
        ("Z3-ringxZ2-ring", 1), ("Z4-ringxZ2-ring", 1), ("F4-ringxZ2-ring", 1),
        ("Z2-ringxZ2-ringxZ2-ring", 1), ("Z2-ringxnull-ring-4", 1),
        ("Z2-ringxF2[t]/(t2)-ring", 1), ("Q8", 2), ("D4", 2), ("F4-ringxF4-ring", 1),
        ("Z4-ringxZ4-ring", 1), ("Z3-ringxZ5-ring", 1), ("V4-groupxD4", 1),
        ("Z4-groupxQ8", 1), ("Z2-ringxZ3-ring", 2),
    )
    # Cyclic groups whose tables cost 0.6 to 3 ms to build: they fill the
    # costs around op_p50_ms, so that it falls among ops of nearly equal cost.
    + tuple((f"Z{n}-group", 1) for n in range(17, 28))
    # Rings whose tables cost 50 to 80 ms to build: with F4-ring and Z2-ring at
    # 2 and 4 variables they put op_p90_ms among ops of nearly equal cost too.
    + (
        ("Z18-ring", 1), ("Z3-ringxZ8-ring", 1), ("Z4-ringxZ5-ring", 1), ("Z5-ringxZ4-ring", 1),
        ("Z2-ringxZ10-ring", 1), ("Z4-ringxZ6-ring", 1),
    )
)
HEAVY_BUILDS = frozenset({"Z7-ring", "Z11-ring", "Z13-ring", "Z14-ring", "Z2-ringxZ7-ring",
                          "Z7-ringxZ2-ring"})
ORACLES = (("Z4-ring", 4), ("Z3-ring", 4), ("Z3-ring", 4), ("F4-ring", 3),
           ("F2[t]/(t2)-ring", 3))


def _build_op(rng: random.Random, name: str, n_vars: int) -> Op:
    probe = make_algebra(name)  # only to draw inputs; the op builds its own copy
    points = sorted({tuple(rng.randrange(probe.size) for _ in range(n_vars))
                     for _ in range(rng.randint(1, 3))})
    candidate = tuple(rng.randrange(1, probe.size) for _ in range(n_vars))

    def run():
        algebra = make_algebra(name)
        cached = len(grid_cache())
        table = zar_mod.term_function_table(algebra, n_vars)
        if len(grid_cache()) == cached:  # a miss always stores its result
            raise RuntimeError(f"table cache hit for {name}^{n_vars}")
        if table is None:
            return None, og.point_in_closure(algebra, n_vars, points, candidate)
        # The query reads the table just built, on grids of any size: the
        # per-candidate worklists, whose cost depends on the seeded points,
        # belong to `separate`.
        return int(table.shape[0]), sorted(og.zariski_closure(algebra, n_vars, points,
                                                              method="grid"))

    def check(output):
        rows, answer = output
        return None if rows is None else _contains(points, answer)

    return Op("term_function_table", f"build {name}^{n_vars}", run, check,
              heavy=name in HEAVY_BUILDS)


def _oracle_op(rng: random.Random, name: str, depth: int) -> Op:
    size = make_algebra(name).size
    points = sorted({(rng.randrange(size), rng.randrange(size))
                     for _ in range(rng.randint(1, 3))})

    def run():
        return sorted(og.bounded_depth_ideal_oracle(make_algebra(name), 2, points, depth))

    def check(oracle):
        # The oracle over-approximates the closure.
        closure = og.zariski_closure(make_algebra(name), 2, points)
        return None if closure <= set(oracle) else "oracle misses closure points"

    return Op("bounded_depth_ideal_oracle", f"oracle {name} depth {depth} {points}", run,
              check, heavy=depth == 4)


def build_build(seed: int, workdir: str) -> Workload:
    rng = random.Random(f"build:{seed}")
    ops = [_build_op(rng, name, n_vars) for name, n_vars in BUILD_PAIRS]
    ops += [_oracle_op(rng, name, depth) for name, depth in ORACLES]
    rng.shuffle(ops)
    return Workload(ops)


BUILDERS = {
    "classify": build_classify,
    "separate": build_separate,
    "grid": build_grid,
    "build": build_build,
}
