"""Equation solving, Zariski closures, and the equational-domain decision.

The closure of a point set A is decided pointwise: a candidate point lies
outside the closure exactly when some term vanishes on all of A but not at
the candidate.  Term functions into H are precisely the elements of the
subalgebra of H^(A plus candidate) generated by the coordinate projections,
so every question here is a closure of rows: each row is an element of a
product H^k, held as k uint8 coordinates, and the operations act on rows
componentwise.

One kernel, ``_close_rows``, computes every such closure.  It runs the
semi-naive fixed point of ``closures._step`` on rows: each round applies
every operation to the tuples of rows that touch the frontier (the rows the
previous round added), split by the position j of their first frontier row,
with older rows before j and any row after it, so each tuple is formed once.
Tuples are formed in blocks of a few million entries; each round's values are
sorted, deduplicated and appended.  The callers differ only in data: the
operations, the start rows, a row cap, a round limit (the bounded-depth
oracle) and an early-exit predicate (the per-candidate separator search).

One candidate loop, ``_closure_members``, serves ``zariski_closure``,
``closure_excess_point`` and ``point_in_closure``.  It yields the closure's
new points in lexicographic order by one of two routes, cross-checked in the
test suite:

* a cached table of all term functions on the full grid H^n (used on small
  grids), from which a closure query is a couple of row filters, or
* per-candidate worklists: the zero point lies in every closure, a seeded
  random-term prefilter drops the candidates it separates, and a closure of
  product rows that stops at the first separating row decides each of the
  rest.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product as iproduct
from math import prod
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .core import FiniteOmegaGroup
from .domains import WitnessedVerdict
from .errors import InvalidArgumentError, TooLargeError
from .terms import Term, _coordinate_vectors, grid_points, random_term, term_values

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


# --- the row-closure kernel ----------------------------------------------------

_BLOCK_ENTRIES = 8_000_000  # entries of one block of operation values


class _GridOverflow(Exception):
    pass


def _signature_ops(algebra: FiniteOmegaGroup) -> list[np.ndarray]:
    view = algebra.arrays
    return [view.neg, view.add, *view.ops]


def _op_values(op: np.ndarray, axes: list[np.ndarray]) -> Iterator[np.ndarray]:
    """op applied componentwise to every tuple of axes[0] x axes[1] x ...

    Each axis is an array of rows.  Yields uint8 blocks of about
    _BLOCK_ENTRIES entries, in row-major tuple order: the trailing axes that
    fit in a block are broadcast whole, the axis before them is cut into
    chunks, and the axes before that are walked one row at a time.
    """
    sizes = [len(axis) for axis in axes]
    if 0 in sizes:
        return
    n, k, m = op.shape[0], axes[0].shape[1], len(axes)
    flat = op.astype(np.uint8).ravel()
    s = 0
    while s < m - 1 and prod(sizes[s + 1 :]) * k > _BLOCK_ENTRIES:
        s += 1
    step = max(1, _BLOCK_ENTRIES // (prod(sizes[s + 1 :]) * k))
    tail = [
        axes[i].reshape((1,) * (i - s) + (sizes[i],) + (1,) * (m - 1 - i) + (k,))
        for i in range(s + 1, m)
    ]
    for prefix in iproduct(*(range(size) for size in sizes[:s])):
        base = 0
        for axis, i in zip(axes, prefix):
            base = base * n + axis[i].astype(np.intp)
        for lo in range(0, sizes[s], step):
            chunk = axes[s][lo : lo + step].astype(np.intp)
            idx = base * n + chunk.reshape((-1,) + (1,) * (m - 1 - s) + (k,))
            for axis in tail:
                idx = idx * n + axis
            yield flat[idx].reshape(-1, k)


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


def _close_rows(
    ops: Sequence[np.ndarray],
    start: np.ndarray,
    row_cap: int | None = None,
    steps: int | None = None,
    stop: Callable[[np.ndarray], bool] | None = None,
) -> tuple[np.ndarray, bool]:
    """Close the start rows under ops (arrays shaped (n,)*arity), componentwise.

    Returns (rows, stopped).  The start rows are deduplicated and form the
    first frontier; each round forms the values on the tuples touching it
    (module docstring) and keeps the new ones, sorted, as the next frontier.
    At most `steps` rounds run.  `stop` sees the start rows and then every
    block of values; when it returns True the search ends with the rows
    kept so far.  More than row_cap rows raise _GridOverflow.
    """
    seen: set[bytes] = set()
    rows = frontier = _dedup_against(start, seen)
    if stop is not None and stop(frontier):
        return rows, True
    rounds = 0
    while frontier.size and (steps is None or rounds < steps):
        rounds += 1
        older = rows[: len(rows) - len(frontier)]
        blocks = []
        for op in ops:
            arity = op.ndim
            for j in range(arity):
                axes = [older] * j + [frontier] + [rows] * (arity - 1 - j)
                for block in _op_values(op, axes):
                    if stop is not None and stop(block):
                        return rows, True
                    blocks.append(block)
        merged = _unique_rows(np.concatenate(blocks)) if blocks else rows[:0]
        frontier = _dedup_against(merged, seen)
        if frontier.size:
            rows = np.concatenate([rows, frontier])
            if row_cap is not None and rows.shape[0] > row_cap:
                raise _GridOverflow(rows.shape[0])
    return rows, False


# --- term-function tables (grid route) --------------------------------------

_grid_cache: dict[tuple[FiniteOmegaGroup, int], np.ndarray | None] = {}


def _is_multiadditive(algebra: FiniteOmegaGroup) -> bool:
    """Addition commutative and every extra operation additive in each slot."""
    view = algebra.arrays
    add = view.add
    if not (add == add.T).all():
        return False
    for op in view.ops:
        for slot in range(op.ndim):
            moved = np.moveaxis(op, slot, 0)
            for a in range(algebra.size):
                # w(.., a + b, ..) == w(.., a, ..) + w(.., b, ..) for every b
                if not (moved[add[a]] == add[moved[a], moved]).all():
                    return False
    return True


def _span_extend(add: np.ndarray, rows: np.ndarray, vector: np.ndarray, seen, row_cap):
    """Extend an additive span by all multiples of one vector (abelian add)."""
    shifted = rows
    out = [rows]
    total = rows.shape[0]
    while True:
        shifted = add[shifted, vector].astype(np.uint8)
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

    The monomial vectors are the closure of the projections under the extra
    operations alone (multiadditivity folds everything else into sums), and
    the additive span is accumulated by repeated coset extension.
    """
    view = algebra.arrays
    monomials, _ = _close_rows(view.ops, gens, row_cap)
    span_seen: set[bytes] = set()
    span = _dedup_against(np.zeros((1, gens.shape[1]), dtype=np.uint8), span_seen)
    for row in monomials:
        for vec in (row, view.neg[row].astype(np.uint8)):
            if vec.tobytes() not in span_seen:
                span = _span_extend(view.add, span, vec, span_seen, row_cap)
    return span


def _projection_rows(algebra: FiniteOmegaGroup, n_vars: int) -> np.ndarray:
    """The zero row and the coordinate projections over the row-major grid."""
    coords = _coordinate_vectors(algebra.size, n_vars)
    return np.stack([np.zeros(algebra.size**n_vars, dtype=np.intp), *coords]).astype(np.uint8)


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
    start = _projection_rows(algebra, n_vars)
    try:
        if _is_multiadditive(algebra):
            table = _grid_table_spanning(algebra, start[1:], row_cap)
        else:
            table, _ = _close_rows(_signature_ops(algebra), start, row_cap)
    except _GridOverflow:
        table = None
    _grid_cache[key] = table
    return table


def _closure_from_table(algebra, n_vars, pts, table: np.ndarray) -> frozenset[Point]:
    cols = [_cell_index(algebra, p) for p in sorted(pts)]
    if cols:
        vanishing = table[(table[:, cols] == 0).all(axis=1)]
    else:
        vanishing = table
    member_mask = (vanishing == 0).all(axis=0)
    cells = list(grid_points(algebra.size, n_vars))
    return frozenset(cells[i] for i in np.nonzero(member_mask)[0])


# --- pointwise membership ----------------------------------------------------


def _cell_index(algebra: FiniteOmegaGroup, point: Point) -> int:
    idx = 0
    for x in point:
        idx = idx * algebra.size + x
    return idx


def _worklist_membership(algebra, n_vars, pts: list[Point], cand: Point) -> bool:
    """Exact membership of one candidate.

    The candidate is outside iff the subalgebra of the product over
    (points + candidate) generated by the coordinate projections reaches an
    element vanishing at every point but not at the candidate.
    """
    columns = np.array(list(pts) + [cand], dtype=np.uint8)
    start = np.concatenate([np.zeros((1, columns.shape[0]), dtype=np.uint8), columns.T])

    def separates(block: np.ndarray) -> bool:
        return bool((~block[:, :-1].any(axis=1) & (block[:, -1] != 0)).any())

    try:
        _, separated = _close_rows(_signature_ops(algebra), start, WORKLIST_ROW_CAP, stop=separates)
    except _GridOverflow as exc:
        raise TooLargeError(
            f"closure membership search exceeded {WORKLIST_ROW_CAP} product tuples"
        ) from exc
    return not separated


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


def _point_set(algebra, n_vars, points, method="auto", guard=None) -> set[Point]:
    """The validated point set; every argument is checked before any search."""
    if method not in ("auto", "grid", "percandidate"):
        raise InvalidArgumentError(f"unknown closure method {method!r}")
    _check_carrier(algebra)
    if guard is not None:
        _check_guard(algebra, n_vars, guard)
    return _validate_points(algebra, n_vars, points)


def _closure_members(
    algebra, n_vars, pts: set[Point], method="auto", prefilter=True, candidates=None
) -> Iterator[Point]:
    """Yield, in lexicographic order, the points outside pts in their closure.

    Without `candidates` the whole grid is asked: the term-function table
    answers for method "grid", and for "auto" on grids of at most
    GRID_CELL_LIMIT cells whose table fits its cap.  Otherwise, and always
    for given candidates (outside pts), each candidate is decided alone.
    """
    total = algebra.size**n_vars
    if candidates is None:
        if len(pts) == total:
            return
        if method == "grid" or (method == "auto" and total <= GRID_CELL_LIMIT):
            table = term_function_table(algebra, n_vars)
            if table is None and method == "grid":
                raise TooLargeError("term-function table exceeds the row cap")
            if table is not None:
                yield from sorted(_closure_from_table(algebra, n_vars, pts, table) - pts)
                return
        candidates = [p for p in grid_points(algebra.size, n_vars) if p not in pts]
    if not any(candidates[0]):
        yield candidates.pop(0)  # every term function vanishes at the zero point
    sorted_pts = sorted(pts)
    separated = (
        _prefilter_separates(algebra, n_vars, sorted_pts, candidates)
        if prefilter
        else np.zeros(len(candidates), dtype=bool)
    )
    for cand, out in zip(candidates, separated):
        if not out and _worklist_membership(algebra, n_vars, sorted_pts, cand):
            yield cand


def point_in_closure(
    algebra: FiniteOmegaGroup,
    n_vars: int,
    points: Iterable[Point],
    candidate: Point,
    prefilter: bool = True,
) -> bool:
    """Decide whether candidate lies in the closure of the point set.

    Always by the per-candidate route: prefilter, then one worklist.
    """
    pts = _point_set(algebra, n_vars, points)
    (cand,) = _validate_points(algebra, n_vars, [candidate])
    found = _closure_members(algebra, n_vars, pts, prefilter=prefilter, candidates=[cand])
    return cand in pts or next(found, None) is not None


def zariski_closure(
    algebra: FiniteOmegaGroup,
    n_vars: int,
    points: Iterable[Point],
    method: str = "auto",
    guard: int = DEFAULT_POINT_GUARD,
    prefilter: bool = True,
) -> frozenset[Point]:
    """Least algebraic superset of the point set."""
    pts = _point_set(algebra, n_vars, points, method, guard)
    return frozenset(pts).union(_closure_members(algebra, n_vars, pts, method, prefilter))


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
    pts = _point_set(algebra, n_vars, points, guard=guard)
    return next(_closure_members(algebra, n_vars, pts), None)


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
    pts = _validate_points(algebra, n_vars, points)
    start = _projection_rows(algebra, n_vars)
    rows, _ = _close_rows(_signature_ops(algebra), start, steps=max_depth)
    return _closure_from_table(algebra, n_vars, pts, rows)
