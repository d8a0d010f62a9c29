"""Equation solving, Zariski closures, and the equational-domain decision.

The closure of a point set A is decided pointwise: a candidate point lies
outside the closure exactly when some term vanishes on all of A but not at
the candidate.  Because term functions into H are precisely the elements of
the subalgebra of H^(A plus candidate) generated by the coordinate
projections, that question is a reachability search in a finite product
algebra, with early exit once a separating element appears.

Two independent routes exist and are cross-checked in the test suite:

* per-candidate worklists over product tuples (always available), and
* a cached table of all term functions on the full grid H^n (built only for
  small grids), from which every closure query is a couple of row filters.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import FiniteOmegaGroup
from .domains import WitnessedVerdict
from .errors import InvalidArgumentError, TooLargeError
from .terms import Term, grid_points, random_term, term_values

DEFAULT_POINT_GUARD = 10**6
ROW_CARRIER_LIMIT = 256  # rows of product tuples are uint8
GRID_CELL_LIMIT = 16
GRID_ROW_CAP = 500_000
WORKLIST_ROW_CAP = 2_000_000
PREFILTER_TERMS = 160
PREFILTER_DEPTH = 4
_PREFILTER_SEED = 0x5EED

Point = tuple[int, ...]


@dataclass(frozen=True)
class EquationSystem:
    """A finite set of terms, each asserted equal to zero."""

    n_vars: int
    terms: tuple[Term, ...]


@dataclass(frozen=True)
class LatticeReport:
    """Outcome of enumerating all algebraic point sets at a fixed arity."""

    n_vars: int
    algebraic_sets: tuple[frozenset[Point], ...]
    join_equals_union: bool
    union_counterexample: tuple[frozenset[Point], frozenset[Point]] | None
    intersection_closed: bool
    distributive: bool
    distributivity_counterexample: tuple | None


def _check_carrier(algebra: FiniteOmegaGroup) -> None:
    if algebra.size > ROW_CARRIER_LIMIT:
        raise TooLargeError(
            f"carrier of size {algebra.size} exceeds the {ROW_CARRIER_LIMIT} elements "
            "a row of product tuples can hold"
        )


def _check_guard(algebra: FiniteOmegaGroup, n_vars: int, guard: int) -> int:
    if n_vars < 1:
        raise InvalidArgumentError("n_vars must be at least 1")
    total = algebra.size**n_vars
    if total > guard:
        raise TooLargeError(
            f"{algebra.size}^{n_vars} = {total} points exceeds the guard of {guard}"
        )
    return total


def _validate_points(algebra: FiniteOmegaGroup, n_vars: int, points: Iterable[Point]):
    out = set()
    for p in points:
        t = tuple(p)
        if len(t) != n_vars or any(not 0 <= x < algebra.size for x in t):
            raise InvalidArgumentError(f"point {t} is not a {n_vars}-tuple over the carrier")
        out.add(t)
    return out


def solve_system(
    algebra: FiniteOmegaGroup, system: EquationSystem, guard: int = DEFAULT_POINT_GUARD
) -> frozenset[Point]:
    """All points where every term of the system evaluates to zero."""
    total = _check_guard(algebra, system.n_vars, guard)
    keep = np.ones(total, dtype=bool)
    for term in system.terms:
        keep &= term_values(algebra, term, system.n_vars) == 0
    cells = list(grid_points(algebra.size, system.n_vars))
    return frozenset(cells[i] for i in np.nonzero(keep)[0])


# --- term-function tables (grid route) --------------------------------------

_grid_cache: dict[tuple[FiniteOmegaGroup, int], np.ndarray | None] = {}


class _GridOverflow(Exception):
    pass


def _is_multiadditive(algebra: FiniteOmegaGroup) -> bool:
    """Addition commutative and every extra operation additive in each slot."""
    n = algebra.size
    for a in range(n):
        for b in range(n):
            if algebra.add_of(a, b) != algebra.add_of(b, a):
                return False
    for table in algebra.omega:
        arity = table.arity
        for slot in range(arity):
            for fixed in grid_points(n, arity - 1):
                for a in range(n):
                    for b in range(n):
                        args_sum = fixed[:slot] + (algebra.add_of(a, b),) + fixed[slot:]
                        args_a = fixed[:slot] + (a,) + fixed[slot:]
                        args_b = fixed[:slot] + (b,) + fixed[slot:]
                        lhs = table.table[table.flat_index(args_sum, n)]
                        rhs = algebra.add_of(
                            table.table[table.flat_index(args_a, n)],
                            table.table[table.flat_index(args_b, n)],
                        )
                        if lhs != rhs:
                            return False
    return True


def _pairs(algebra, flat_table, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """table[l, r] componentwise for every row pair; chunked to bound memory."""
    n = algebra.size
    k = left.shape[1]
    table = np.asarray(flat_table, dtype=np.uint8)
    out = []
    budget = max(1, 8_000_000 // max(1, right.shape[0] * k))
    for start in range(0, left.shape[0], budget):
        chunk = left[start : start + budget].astype(np.int64)
        idx = chunk[:, None, :] * n + right[None, :, :].astype(np.int64)
        out.append(table[idx].reshape(-1, k))
    return np.concatenate(out) if out else np.empty((0, k), dtype=np.uint8)


def _unique_rows(rows: np.ndarray) -> np.ndarray:
    """Row dedup via a word view and lexsort; np.unique(axis=0) is too slow here."""
    if rows.shape[0] <= 1:
        return rows
    k = rows.shape[1]
    pad = (-k) % 8
    if pad:
        padded = np.zeros((rows.shape[0], k + pad), dtype=np.uint8)
        padded[:, :k] = rows
    else:
        padded = np.ascontiguousarray(rows)
    words = padded.view(np.uint64).reshape(rows.shape[0], -1)
    order = np.lexsort(words.T[::-1])
    sorted_words = words[order]
    keep = np.ones(len(order), dtype=bool)
    keep[1:] = (sorted_words[1:] != sorted_words[:-1]).any(axis=1)
    return rows[order][keep]


def _dedup_against(rows: np.ndarray, seen: set[bytes]) -> np.ndarray:
    fresh = []
    for row in rows:
        key = row.tobytes()
        if key not in seen:
            seen.add(key)
            fresh.append(row)
    return (
        np.array(fresh, dtype=np.uint8)
        if fresh
        else np.empty((0, rows.shape[1]), dtype=np.uint8)
    )


def _subalgebra_rows(
    algebra: FiniteOmegaGroup,
    generators: np.ndarray,
    row_cap: int,
    separator_cols: int | None = None,
):
    """Close generator rows under all operations, componentwise.

    Returns (rows, separator_row).  When separator_cols is given, the search
    stops as soon as a row is zero on the first separator_cols coordinates
    and nonzero on the last one; that row is returned as the separator.
    Raises _GridOverflow past row_cap.
    """
    k = generators.shape[1]
    zero = np.zeros((1, k), dtype=np.uint8)
    start = np.concatenate([zero, generators.astype(np.uint8)])
    seen: set[bytes] = set()
    frontier = _dedup_against(start, seen)
    rows = frontier

    def find_separator(block: np.ndarray):
        if separator_cols is None or block.size == 0:
            return None
        hits = (block[:, :separator_cols] == 0).all(axis=1) & (block[:, -1] != 0)
        where = np.nonzero(hits)[0]
        return block[where[0]] if where.size else None

    sep = find_separator(frontier)
    if sep is not None:
        return rows, sep

    unary_tables = [algebra.neg] + [t.table for t in algebra.omega if t.arity == 1]
    binary_tables = [algebra.add] + [t.table for t in algebra.omega if t.arity == 2]
    ternary = [t for t in algebra.omega if t.arity == 3]

    while frontier.size:
        blocks = []
        for table in unary_tables:
            blocks.append(np.asarray(table, dtype=np.uint8)[frontier.astype(np.int64)])
        for table in binary_tables:
            blocks.append(_pairs(algebra, table, frontier, rows))
            blocks.append(_pairs(algebra, table, rows, frontier))
        for op in ternary:
            blocks.extend(_ternary_blocks(algebra, op, frontier, rows))
        if blocks:
            merged = _unique_rows(np.concatenate(blocks))
        else:
            merged = np.empty((0, k), dtype=np.uint8)
        fresh = _dedup_against(merged, seen)
        sep = find_separator(fresh)
        if sep is not None:
            return np.concatenate([rows, fresh]), sep
        if fresh.size:
            rows = np.concatenate([rows, fresh])
            if rows.shape[0] > row_cap:
                raise _GridOverflow(rows.shape[0])
        frontier = fresh
    return rows, None


def _ternary_blocks(algebra, op, frontier, rows):
    # Triples touching the frontier; fine at the sizes ternary signatures get.
    flat = np.asarray(op.table, dtype=np.uint8)
    n = algebra.size
    combos = [(frontier, rows, rows), (rows, frontier, rows), (rows, rows, frontier)]
    out = []
    for xs, ys, zs in combos:
        for x in xs.astype(np.int64):
            idx = (x[None, None, :] * n + ys[:, None, :].astype(np.int64)) * n + zs[
                None, :, :
            ].astype(np.int64)
            out.append(flat[idx].reshape(-1, xs.shape[1]))
    return out


def _span_extend(algebra, rows: np.ndarray, vector: np.ndarray, seen, row_cap):
    """Extend an additive span by all multiples of one vector (abelian add)."""
    n = algebra.size
    add = np.asarray(algebra.add, dtype=np.uint8)
    shifted = rows
    out = [rows]
    total = rows.shape[0]
    while True:
        shifted = add[shifted.astype(np.int64) * n + vector[None, :].astype(np.int64)]
        fresh = _dedup_against(_unique_rows(shifted), seen)
        if not fresh.size:
            break
        out.append(fresh)
        total += fresh.shape[0]
        if total > row_cap:
            raise _GridOverflow(total)
    return np.concatenate(out)


def _grid_table_spanning(algebra, gens: np.ndarray, row_cap: int) -> np.ndarray:
    """Term-function table for multiadditive algebras.

    Closure under the extra operations is decided on a worklist of monomial
    vectors (multiadditivity folds everything else into sums), and the
    additive span is accumulated by repeated coset extension.
    """
    k = gens.shape[1]
    mono_seen: set[bytes] = set()
    monomials = _dedup_against(gens.astype(np.uint8), mono_seen)
    all_monos = monomials
    binary = [t.table for t in algebra.omega if t.arity == 2]
    unary = [t.table for t in algebra.omega if t.arity == 1]
    ternary = [t for t in algebra.omega if t.arity == 3]
    frontier = monomials
    while frontier.size:
        blocks = []
        for table in unary:
            blocks.append(np.asarray(table, dtype=np.uint8)[frontier.astype(np.int64)])
        for table in binary:
            blocks.append(_pairs(algebra, table, frontier, all_monos))
            blocks.append(_pairs(algebra, table, all_monos, frontier))
        for op in ternary:
            blocks.extend(_ternary_blocks(algebra, op, frontier, all_monos))
        if blocks:
            fresh = _dedup_against(_unique_rows(np.concatenate(blocks)), mono_seen)
        else:
            fresh = np.empty((0, k), dtype=np.uint8)
        if fresh.size:
            all_monos = np.concatenate([all_monos, fresh])
            if all_monos.shape[0] > row_cap:
                raise _GridOverflow(all_monos.shape[0])
        frontier = fresh

    span_seen: set[bytes] = set()
    span = _dedup_against(np.zeros((1, k), dtype=np.uint8), span_seen)
    neg = np.asarray(algebra.neg, dtype=np.uint8)
    for row in all_monos:
        for vec in (row, neg[row.astype(np.int64)]):
            if vec.tobytes() not in span_seen:
                span = _span_extend(algebra, span, vec, span_seen, row_cap)
    return span


def term_function_table(
    algebra: FiniteOmegaGroup, n_vars: int, row_cap: int = GRID_ROW_CAP
) -> np.ndarray | None:
    """All term functions H^n_vars -> H as rows over the row-major grid.

    Returns None when generation would exceed row_cap (the clone is too big
    to materialize, e.g. over functionally complete algebras).  Results are
    cached per (algebra, n_vars).
    """
    _check_carrier(algebra)
    key = (algebra, n_vars)
    if key in _grid_cache:
        return _grid_cache[key]
    total = algebra.size**n_vars
    idx = np.arange(total)
    gens = np.stack(
        [
            ((idx // algebra.size ** (n_vars - 1 - i)) % algebra.size).astype(np.uint8)
            for i in range(n_vars)
        ]
    )
    try:
        if _is_multiadditive(algebra):
            table = _grid_table_spanning(algebra, gens, row_cap)
        else:
            table, _ = _subalgebra_rows(algebra, gens, row_cap)
    except _GridOverflow:
        table = None
    _grid_cache[key] = table
    return table


# --- pointwise membership ----------------------------------------------------


def _cell_index(algebra: FiniteOmegaGroup, point: Point) -> int:
    idx = 0
    for x in point:
        idx = idx * algebra.size + x
    return idx


def point_in_closure(
    algebra: FiniteOmegaGroup,
    n_vars: int,
    points: Iterable[Point],
    candidate: Point,
    prefilter: bool = True,
) -> bool:
    """Decide whether candidate lies in the closure of the point set.

    Exact: the candidate is outside iff the subalgebra of the product over
    (points + candidate) generated by the coordinate projections reaches an
    element vanishing at every point but not at the candidate.
    """
    _check_carrier(algebra)
    pts = sorted(_validate_points(algebra, n_vars, points))
    cand = tuple(candidate)
    if cand in pts:
        return True
    if all(x == 0 for x in cand):
        return True  # every term function vanishes at the zero point
    if prefilter and _prefilter_separates(algebra, n_vars, pts, [cand])[0]:
        return False
    return _worklist_membership(algebra, n_vars, pts, cand)


def _worklist_membership(algebra, n_vars, pts: list[Point], cand: Point) -> bool:
    columns = list(pts) + [cand]
    gens = np.array(
        [[p[i] for p in columns] for i in range(n_vars)], dtype=np.uint8
    )
    try:
        _, sep = _subalgebra_rows(
            algebra, gens, WORKLIST_ROW_CAP, separator_cols=len(pts)
        )
    except _GridOverflow as exc:
        raise TooLargeError(
            f"closure membership search exceeded {WORKLIST_ROW_CAP} product tuples"
        ) from exc
    return sep is None


def _prefilter_separates(
    algebra, n_vars, pts: Sequence[Point], candidates: Sequence[Point]
) -> np.ndarray:
    """Sound one-sided filter: True marks candidates certainly outside.

    Seeded random terms are evaluated over points and candidates together; a
    term vanishing on every point and not at a candidate is a separating
    certificate.  Misses prove nothing and fall through to the exact search.
    """
    out = np.zeros(len(candidates), dtype=bool)
    if not candidates:
        return out
    rng = random.Random(_PREFILTER_SEED)
    rows = list(pts) + list(candidates)
    n_pts = len(pts)
    for _ in range(PREFILTER_TERMS):
        term = random_term(rng, algebra.signature, n_vars, PREFILTER_DEPTH)
        values = term_values(algebra, term, n_vars, points=rows)
        if n_pts == 0 or not values[:n_pts].any():
            out |= values[n_pts:] != 0
        if out.all():
            break
    return out


def zariski_closure(
    algebra: FiniteOmegaGroup,
    n_vars: int,
    points: Iterable[Point],
    method: str = "auto",
    guard: int = DEFAULT_POINT_GUARD,
    prefilter: bool = True,
) -> frozenset[Point]:
    """Least algebraic superset of the point set."""
    _check_carrier(algebra)
    total = _check_guard(algebra, n_vars, guard)
    pts = _validate_points(algebra, n_vars, points)
    if len(pts) == total:
        return frozenset(pts)

    if method not in ("auto", "grid", "percandidate"):
        raise ValueError(f"unknown closure method {method!r}")
    table = None
    if method == "grid" or (method == "auto" and total <= GRID_CELL_LIMIT):
        table = term_function_table(algebra, n_vars)
        if table is None and method == "grid":
            raise TooLargeError("term-function table exceeds the row cap")
    if table is not None:
        return _closure_from_table(algebra, n_vars, pts, table)

    sorted_pts = sorted(pts)
    inside = set(pts)
    zero_point = (0,) * n_vars
    candidates = [p for p in grid_points(algebra.size, n_vars) if p not in pts]
    decided_out = (
        _prefilter_separates(algebra, n_vars, sorted_pts, candidates)
        if prefilter
        else np.zeros(len(candidates), dtype=bool)
    )
    for i, cand in enumerate(candidates):
        if cand == zero_point:
            inside.add(cand)
            continue
        if decided_out[i]:
            continue
        if _worklist_membership(algebra, n_vars, sorted_pts, cand):
            inside.add(cand)
    return frozenset(inside)


def _closure_from_table(algebra, n_vars, pts, table: np.ndarray) -> frozenset[Point]:
    cols = [_cell_index(algebra, p) for p in sorted(pts)]
    if cols:
        vanishing = table[(table[:, cols] == 0).all(axis=1)]
    else:
        vanishing = table
    member_mask = (vanishing == 0).all(axis=0)
    cells = list(grid_points(algebra.size, n_vars))
    return frozenset(cells[i] for i in np.nonzero(member_mask)[0])


def is_algebraic(
    algebra: FiniteOmegaGroup,
    n_vars: int,
    points: Iterable[Point],
    guard: int = DEFAULT_POINT_GUARD,
) -> bool:
    """True iff the point set equals its own closure."""
    pts = _validate_points(algebra, n_vars, points)
    extra = closure_excess_point(algebra, n_vars, pts, guard=guard)
    return extra is None


def closure_excess_point(
    algebra: FiniteOmegaGroup,
    n_vars: int,
    points: Iterable[Point],
    guard: int = DEFAULT_POINT_GUARD,
) -> Point | None:
    """First grid point (lexicographically) in the closure but not the set."""
    _check_carrier(algebra)
    total = _check_guard(algebra, n_vars, guard)
    pts = _validate_points(algebra, n_vars, points)
    if len(pts) == total:
        return None
    table = None
    if total <= GRID_CELL_LIMIT:
        table = term_function_table(algebra, n_vars)
    if table is not None:
        closure = _closure_from_table(algebra, n_vars, pts, table)
        extra = sorted(closure - pts)
        return extra[0] if extra else None

    sorted_pts = sorted(pts)
    zero_point = (0,) * n_vars
    candidates = [p for p in grid_points(algebra.size, n_vars) if p not in pts]
    decided_out = _prefilter_separates(algebra, n_vars, sorted_pts, candidates)
    for i, cand in enumerate(candidates):
        if cand == zero_point:
            return cand
        if decided_out[i]:
            continue
        if _worklist_membership(algebra, n_vars, sorted_pts, cand):
            return cand
    return None


def equational_domain_check(
    algebra: FiniteOmegaGroup, guard: int = DEFAULT_POINT_GUARD
) -> WitnessedVerdict:
    """Is the union of the two coordinate hyperplanes in H^2 algebraic?

    This single union is decisive for whether unions of algebraic sets are
    always algebraic, and a point of its closure off the axes is exactly a
    pair witnessing the failure.
    """
    _check_guard(algebra, 2, guard)
    n = algebra.size
    axes = {(a, 0) for a in range(n)} | {(0, b) for b in range(n)}
    extra = closure_excess_point(algebra, 2, axes, guard=guard)
    if extra is None:
        return WitnessedVerdict(True, "axis-union-closure")
    return WitnessedVerdict(False, "axis-union-closure", {"a": extra[0], "b": extra[1]})


def enumerate_algebraic_sets(
    algebra: FiniteOmegaGroup, n_vars: int = 1
) -> LatticeReport:
    """All algebraic point sets at the given arity, with lattice diagnostics.

    Join is closure of union, meet is intersection.  The report records
    whether join always equals plain union and whether the lattice is
    distributive.
    """
    if n_vars == 1:
        if algebra.size > 8:
            raise TooLargeError("n_vars=1 enumeration is limited to carriers of size 8")
    elif n_vars == 2:
        if algebra.size > 3:
            raise TooLargeError("n_vars=2 enumeration is limited to carriers of size 3")
    else:
        raise TooLargeError("algebraic-set enumeration supports n_vars in {1, 2}")

    cells = list(grid_points(algebra.size, n_vars))
    algebraic: list[frozenset[Point]] = []
    for mask in range(1 << len(cells)):
        subset = frozenset(cells[i] for i in range(len(cells)) if mask >> i & 1)
        closure = zariski_closure(algebra, n_vars, subset)
        if closure == subset:
            algebraic.append(subset)

    closure_of: dict[frozenset[Point], frozenset[Point]] = {}

    def join(a: frozenset[Point], b: frozenset[Point]) -> frozenset[Point]:
        u = a | b
        if u not in closure_of:
            closure_of[u] = zariski_closure(algebra, n_vars, u)
        return closure_of[u]

    algebraic_set = set(algebraic)
    join_is_union = True
    union_counterexample = None
    intersection_closed = True
    for a in algebraic:
        for b in algebraic:
            if (a | b) not in algebraic_set and join(a, b) != (a | b):
                if join_is_union:
                    union_counterexample = (a, b)
                join_is_union = False
            if (a & b) not in algebraic_set:
                intersection_closed = False

    distributive = True
    distributivity_counterexample = None
    if not join_is_union:
        # A union-closed family is a ring of sets, hence distributive; only
        # lattices with a proper join need the cubic scan.
        for a in algebraic:
            for b in algebraic:
                for c in algebraic:
                    lhs = a & join(b, c)
                    rhs = join(a & b, a & c)
                    if lhs != rhs:
                        distributive = False
                        distributivity_counterexample = (a, b, c)
                        break
                if not distributive:
                    break
            if not distributive:
                break

    return LatticeReport(
        n_vars=n_vars,
        algebraic_sets=tuple(sorted(algebraic, key=lambda s: (len(s), sorted(s)))),
        join_equals_union=join_is_union,
        union_counterexample=union_counterexample,
        intersection_closed=intersection_closed,
        distributive=distributive,
        distributivity_counterexample=distributivity_counterexample,
    )


def bounded_depth_ideal_oracle(
    algebra: FiniteOmegaGroup,
    n_vars: int,
    points: Iterable[Point],
    max_depth: int,
) -> frozenset[Point]:
    """Common zero set of all depth-bounded terms vanishing on the points.

    Terms are enumerated level by level as functions on the full grid (leaves
    at depth 0, each operation adds one level), deduplicated pointwise.  The
    result is a superset of the closure that shrinks toward it as the depth
    grows; it is an oracle for the closure routines, independent of them.
    """
    if algebra.size > 4 or n_vars > 2 or max_depth > 4:
        raise TooLargeError("oracle guard: size <= 4, n_vars <= 2, max_depth <= 4")
    pts = sorted(_validate_points(algebra, n_vars, points))
    total = algebra.size**n_vars
    idx = np.arange(total)
    levels = [
        np.zeros(total, dtype=np.uint8),
    ] + [
        ((idx // algebra.size ** (n_vars - 1 - i)) % algebra.size).astype(np.uint8)
        for i in range(n_vars)
    ]
    rows = np.stack(levels)
    seen = {row.tobytes() for row in rows}
    frontier = rows

    unary_tables = [algebra.neg] + [t.table for t in algebra.omega if t.arity == 1]
    binary_tables = [algebra.add] + [t.table for t in algebra.omega if t.arity == 2]
    ternary = [t for t in algebra.omega if t.arity == 3]

    for _ in range(max_depth):
        blocks = []
        for table in unary_tables:
            blocks.append(np.asarray(table, dtype=np.uint8)[frontier.astype(np.int64)])
        for table in binary_tables:
            blocks.append(_pairs(algebra, table, frontier, rows))
            blocks.append(_pairs(algebra, table, rows, frontier))
        for op in ternary:
            blocks.extend(_ternary_blocks(algebra, op, frontier, rows))
        merged = _unique_rows(np.concatenate(blocks)) if blocks else rows[:0]
        fresh = _dedup_against(merged, seen)
        if not fresh.size:
            break
        rows = np.concatenate([rows, fresh])
        frontier = fresh

    cols = [_cell_index(algebra, p) for p in pts]
    if cols:
        vanishing = rows[(rows[:, cols] == 0).all(axis=1)]
    else:
        vanishing = rows
    member_mask = (vanishing == 0).all(axis=0)
    cells = list(grid_points(algebra.size, n_vars))
    return frozenset(cells[i] for i in np.nonzero(member_mask)[0])
