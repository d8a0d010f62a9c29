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
with older rows before j and any row after it, so each tuple is formed once
(the generic rounds).  When the one operation is an associative product,
as for the linear route's monomials over a ring, a round forms only the
frontier times the generators (the start rows), as in Froidure and Pin's
semigroup enumeration: a product w of several generators is (w less its
last letter) times a generator, and w less its last letter was in some
frontier, so the closure is complete (the generator rounds).  While the
frontier times itself is small, the round forms that too, so a one-variable
closure still takes a number of rounds logarithmic in the degree.
Tuples are formed in blocks of a few million entries.  The rows seen so far
are one exact set, ``_RowSet``: each row's key is packed into one or a few
64-bit words and the set keeps the packed keys sorted, so a round's values
are packed, sorted, matched against the seen keys by binary search and
merged in, and the new keys unpacked to form the next frontier.  A row may
be keyed on its first cells only, the rest a payload kept with the key, and
a payload column that takes two values under one key is knocked out.  The
callers differ only in data: the operations, the start rows, the key width,
a row cap, a round limit and whether the rounds are generator rounds.  The
bounded-depth oracle runs its last round only on the columns it still
reads: projecting rows onto a set of columns commutes with every round,
because the operations act componentwise.  A round that would form more
than _ROUND_ENTRIES entries is refused before it forms any.
Multiadditive algebras grow their tables as an additive span instead, of
monomials closed by the generic rounds, through the same set, once the span
is known to fit the row cap: the product of the monomials' additive orders
bounds its size, and past the cap the linear route's elimination counts it
exactly.

One candidate loop, ``_closure_members``, serves ``zariski_closure``,
``closure_excess_point``, ``point_in_closure`` and the lattice.  It yields
the closure's new points in lexicographic order by one of three routes,
cross-checked in the test suite:

* a cached table of all term functions on the full grid H^n, kept with a
  bitset per cell of the rows that vanish there, so that a closure query
  ANDs the bitsets of the point cells and keeps the cells whose bitsets
  hold the result.  Only callers that ask many queries on one grid build
  it: ``term_function_table``, method "grid" and the lattice.  A query
  under method "auto" reads it on grids of at most GRID_CELL_LIMIT cells
  once it is cached, and otherwise takes one of the routes below;
* off the table, over multiadditive algebras (rings, Lie rings, abelian
  groups), the linear route: the zero point lies in every closure, and
  since every term function is a sum of monomials, one exact reduction of
  the monomial rows over the additive group (a Howell form at each prime of
  |H|) leaves rows spanning the term functions that vanish on the point
  set, and the candidates where they all vanish are the closure;
* off the table, over other algebras, the keyed route: one closure of the
  projections over the columns A plus the candidates, keyed on the A
  columns.  Its rows are the term functions restricted to A, the coordinate
  algebra of A, and a candidate c lies in the closure exactly when x_i ->
  c_i extends to a homomorphism from it to H, that is when c's column is a
  function of the key (Plotkin's Hom(Gamma(A), H) description of the
  closure).

Off the table the candidate loop decides all candidates by one joint
reduction or keyed closure while it fits its entry budget, and otherwise
the same route one candidate at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct
from math import prod
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import FiniteOmegaGroup, _derived, _is_associative_product, _is_multiadditive
from .domains import WitnessedVerdict
from .errors import InvalidArgumentError, TooLargeError
from .terms import Term, _coordinate_vectors, grid_points, term_values

DEFAULT_POINT_GUARD = 10**6
ROW_CARRIER_LIMIT = 256  # rows of product tuples are uint8
GRID_CELL_LIMIT = 16
GRID_ROW_CAP = 500_000
WORKLIST_ROW_CAP = 2_000_000

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
    size = algebra.size
    # size^n_vars >= 2^(n_vars * (bits - 1)), so past this the grid is refused
    # unformed; the count is never printed, as it may be too long to print
    if n_vars * (size.bit_length() - 1) <= guard.bit_length():
        total = size**n_vars
        if total <= guard:
            return total
    raise TooLargeError(f"{size}^{n_vars} points exceeds the guard of {guard}")


def _validate_points(algebra: FiniteOmegaGroup, n_vars: int, points: Iterable[Point]):
    if n_vars < 1:
        raise InvalidArgumentError("n_vars must be at least 1")
    out = set()
    for p in points:
        t = tuple(p)
        if len(t) != n_vars or not all(
            isinstance(x, (int, np.integer)) and 0 <= x < algebra.size for x in t
        ):
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
    cells = np.unravel_index(np.flatnonzero(keep), (algebra.size,) * system.n_vars)
    return frozenset(zip(*(axis.tolist() for axis in cells)))


# --- the row-closure kernel ----------------------------------------------------

_BLOCK_ENTRIES = 8_000_000  # entries of one block of operation values
_ROUND_ENTRIES = 1 << 32  # entries of operation values one round may form
_SQUARE_ENTRIES = 1 << 14  # a generator round also forms frontier x frontier up to this size


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


def _lanes(width: int, field: int) -> np.uint64:
    """The word with the low `field` bits of every `width`-bit lane set."""
    return np.uint64(sum(((1 << field) - 1) << i for i in range(0, 64, width)))


# For cells of 1, 2 or 4 bits, packing step i merges pairs of (8 << i)-bit
# lanes that hold (bits << i) bits each: (shift, mask) of each step, and of
# its inverse, the unpacking steps in reverse order.
_PACK_STEPS = {
    bits: [(8 << i, bits << i) for i in range(4 - bits.bit_length())] for bits in (1, 2, 4, 8)
}
_MERGES = {
    bits: [(np.uint64(lane - field), _lanes(2 * lane, 2 * field)) for lane, field in steps]
    for bits, steps in _PACK_STEPS.items()
}
_SPLITS = {
    bits: [(np.uint64(lane - field), _lanes(lane, field)) for lane, field in steps[::-1]]
    for bits, steps in _PACK_STEPS.items()
}


_FOLD = np.uint64(0x9E3779B97F4A7C15)  # odd, so multiplying by it is a bijection


def _fold(words: np.ndarray) -> np.ndarray:
    """One uint64 per row of a (N, W) uint64 array.

    With the other words fixed, each word maps to the fold one to one, so
    rows that differ in one word never collide.
    """
    folded = words[:, 0].copy()
    for i in range(1, words.shape[1]):
        folded *= _FOLD
        folded ^= words[:, i]
    return folded


class _Collision(Exception):
    """Two different keys of a set share a fold."""


class _RowSet:
    """An exact set of rows of `width` cells, each at most `top`, as sorted keys.

    A row's cells are packed into bytes and the bytes padded to whole 64-bit
    words.  A cell takes 1, 2, 4 or 8 bits: the widest that keeps the key at
    the fewest words, since wider cells take fewer packing steps.  Cells are
    packed eight at a time, one uint64 word of cells, by merging pairs of
    lanes with shifts and masks.  A row of one word is keyed by that word as
    a uint64, a wider row by its words as one opaque (void) key.

    `order` holds the sort keys the set is sorted and searched by: the keys
    themselves, or, for keys of several words, their folds (_fold), which
    sort and search as fast as one word.  Equal folds are checked to be
    equal keys; the first pair that is not turns the set, for good, to
    sorting its keys bytewise as they are.

    A keyed set also holds a payload of `payload` cells per key, taken from
    one of the rows added with that key.  `missing` and `add` then take the
    rows' payloads beside their keys and return, with the new keys and
    their payloads, the clash: a mask of the payload columns on which two
    rows of one key differ, among the rows given or against the set.
    """

    def __init__(self, width: int, top: int, payload: int = 0):
        fits = [bits for bits in (1, 2, 4, 8) if top >> bits == 0]
        words = max(1, -(-width * fits[0] // 64))
        self.bits = max(bits for bits in fits if width * bits <= 64 * words)
        self.width = width
        self.dtype = np.dtype(np.uint64) if words == 1 else np.dtype(f"V{8 * words}")
        self.lane = f"<u{8 // self.bits}"  # packed, each such lane holds one key byte
        self.keys = np.empty(0, dtype=self.dtype)
        self.folded = words > 1
        self.order = np.empty(0, dtype=np.uint64) if self.folded else self.keys
        # aligned with keys, in a keyed set
        self.payload = np.empty((0, payload), dtype=np.uint8) if payload else None

    def pack(self, rows: np.ndarray) -> np.ndarray:
        """One key per row of a uint8 array shaped (N, width) or wider (the key cells first)."""
        cells = np.zeros((rows.shape[0], 8 * self.dtype.itemsize // self.bits), dtype=np.uint8)
        cells[:, : self.width] = rows[:, : self.width]
        x = cells.view("<u8")
        for shift, mask in _MERGES[self.bits]:
            x |= x >> shift
            x &= mask
        return x.view(self.lane).astype(np.uint8, copy=False).view(self.dtype).ravel()

    def unpack(self, keys: np.ndarray) -> np.ndarray:
        """The rows of the keys, as a uint8 array shaped (N, width)."""
        packed = keys.view(np.uint8).reshape(len(keys), self.dtype.itemsize)
        x = packed.astype(self.lane, copy=False).view("<u8")
        for shift, mask in _SPLITS[self.bits]:
            x |= x << shift
            x &= mask
        return x.view(np.uint8)[:, : self.width]

    def contains(self, keys: np.ndarray) -> np.ndarray:
        """A boolean mask: which keys are in the set."""
        return self._exact(lambda: self._contains(keys, self._order(keys))[0])

    def missing(self, keys: np.ndarray, payload: np.ndarray | None = None):
        """The distinct keys not in the set, in the set's order.

        With a payload, returns (keys, payload, clash) (class docstring).
        """
        new, _, extra, clash = self._exact(lambda: self._missing(keys, payload))
        return new if payload is None else (new, extra, clash)

    def add(self, keys: np.ndarray, payload: np.ndarray | None = None):
        """Add the keys; returns those that were new, distinct and in order.

        With a payload, returns (keys, payload, clash) (class docstring).
        """
        if payload is not None:
            return self._exact(lambda: self._merge(keys, payload))
        new, order, _, _ = self._exact(lambda: self._missing(keys, None))
        # A stable sort of two sorted runs is a linear merge.
        if self.folded:
            order = np.concatenate([self.order, order])
            merged = np.argsort(order, kind="stable")
            self.keys, self.order = np.concatenate([self.keys, new])[merged], order[merged]
        else:
            self.keys = self.order = np.sort(np.concatenate([self.keys, new]), kind="stable")
        return new

    def _merge(self, keys: np.ndarray, payload: np.ndarray):
        """add() with a payload: the keys sorted, then merged with the set's in one stable sort.

        Each run of equal keys then starts with the set's own key, if it has
        one, and a clash is a payload that differs from the one before it in
        the run.  The state changes only at the end, so a _Collision retries
        from the same set.
        """
        by = np.argsort(self._order(keys))
        keys, payload = keys[by], payload[by]
        # A stable sort of two sorted runs is a linear merge.
        order = np.concatenate([self.order, self._order(keys)])
        by = np.argsort(order, kind="stable")
        order = order[by]
        every = np.concatenate([self.keys, keys])[by] if self.folded else order
        payload = np.concatenate([self.payload, payload])[by]
        repeats = order[1:] == order[:-1]
        if self.folded and (every[1:][repeats] != every[:-1][repeats]).any():
            raise _Collision
        clash = (payload[1:][repeats] != payload[:-1][repeats]).any(axis=0)
        first = np.ones(len(order), dtype=bool)
        first[1:] = ~repeats
        new = first & (by >= len(self.keys))
        self.order, self.payload = order[first], payload[first]
        self.keys = every[first] if self.folded else self.order
        return every[new], payload[new], clash

    def _exact(self, query):
        try:
            return query()
        except _Collision:
            self.folded = False
            by = np.argsort(self.keys)
            self.keys = self.order = self.keys[by]
            if self.payload is not None:
                self.payload = self.payload[by]
            return query()

    def _order(self, keys: np.ndarray) -> np.ndarray:
        if not self.folded:
            return keys
        return _fold(keys.view("<u8").reshape(len(keys), self.dtype.itemsize // 8))

    def _contains(self, keys: np.ndarray, order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Which keys are in the set, and the index in the set of each one found."""
        if not len(self.keys):
            return np.zeros(len(keys), dtype=bool), None
        # The last sort key <= each one; index -1 (the largest) when there is none.
        at = np.searchsorted(self.order, order, side="right") - 1
        found = self.order[at] == order
        if self.folded and (self.keys[at[found]] != keys[found]).any():
            raise _Collision
        return found, at

    def _missing(self, keys: np.ndarray, payload: np.ndarray | None):
        order = self._order(keys)
        if self.folded or payload is not None:
            by = np.argsort(order)
            order = order[by]
            keys = keys[by] if self.folded else order
            payload = None if payload is None else payload[by]
        else:
            keys = order = np.sort(keys)
        repeats = order[1:] == order[:-1]
        if self.folded and (keys[1:][repeats] != keys[:-1][repeats]).any():
            raise _Collision
        clash = None if payload is None else np.zeros(payload.shape[1], dtype=bool)
        if repeats.any():
            distinct = np.ones(len(keys), dtype=bool)
            distinct[1:] = ~repeats
            if payload is not None:
                # Each row against the one before it of the same key.
                clash |= (payload[1:][repeats] != payload[:-1][repeats]).any(axis=0)
                payload = payload[distinct]
            order = order[distinct]
            keys = keys[distinct] if self.folded else order
        found, at = self._contains(keys, order)
        new = ~found
        if payload is not None:
            if found.any():  # each key against the set
                clash |= (payload[found] != self.payload[at[found]]).any(axis=0)
            payload = payload[new]
        order = order[new]
        return keys[new] if self.folded else order, order, payload, clash


def _close_rows(
    ops: Sequence[np.ndarray],
    start: np.ndarray,
    row_cap: int | None = None,
    steps: int | None = None,
    key_width: int | None = None,
    generator_rounds: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Close the start rows under ops (arrays shaped (n,)*arity), componentwise.

    Returns (rows, alive).  Rows are keyed on their first key_width cells,
    all of them by default; the cells after the key are a payload, taken
    from one of the rows that reach each key.  The start rows of distinct
    keys form the first frontier; each round forms the values on the tuples
    touching it (module docstring) and keeps the rows of new keys, in the
    set's order, as the next frontier.  With `generator_rounds`, ops must be
    one associative binary operation, and a round forms only the frontier
    times the first frontier (the generators), and after the first round
    also the frontier times itself while that walk has at most
    _SQUARE_ENTRIES entries: every product of generators is a shorter one
    times a generator, and the shorter one was in an earlier frontier.  Once
    about _BLOCK_ENTRIES entries of values have gathered, they are packed
    and their unseen keys added to the round's own set, so a round holds
    distinct new keys, not every tuple it forms.  At most `steps` rounds run.

    A row whose key is held with another payload knocks out the payload
    columns where the two differ.  `alive` masks the start's payload columns
    never knocked out.  Knocked-out columns leave the rows at the end of
    each round, and a closure with a payload ends as soon as none of it is
    left: at once, mid-round, with the key cells of the rows kept so far.

    More than row_cap rows raise _GridOverflow at the end of the round that
    passes the cap; once the round's new keys alone pass it, the rest of the
    round only knocks payload columns out.  A round whose tuples would form
    more than _ROUND_ENTRIES entries raises _GridOverflow before it forms any.
    """
    top = max([int(start.max(initial=0))] + [int(op.max()) for op in ops])
    key_width = start.shape[1] if key_width is None else key_width
    keyed = start.shape[1] > key_width
    seen = _RowSet(key_width, top, start.shape[1] - key_width)
    alive = np.ones(start.shape[1] - key_width, dtype=bool)
    knocked = np.zeros_like(alive)  # over the payload columns the rows still hold

    def gather(found: _RowSet, values: np.ndarray, check_only: bool) -> None:
        """Knock out the clashes of values; add their keys not in seen to found.

        With check_only, the keys are checked against found but not added.
        """
        nonlocal knocked
        keys = seen.pack(values)
        if not keyed:
            found.add(seen.missing(keys))
            return
        keys, payload, clash = seen.missing(keys, values[:, key_width:])
        knocked |= clash | (found.missing if check_only else found.add)(keys, payload)[2]

    def grow(values: np.ndarray, found: _RowSet | None = None) -> np.ndarray:
        """Add to seen the keys of found and of values; returns the rows of the new ones."""
        nonlocal knocked
        keys = seen.pack(values) if len(values) else seen.keys[:0]
        payload = values[:, key_width:]
        if found is not None and len(found.keys):
            keys = np.concatenate([found.keys, keys])
            payload = np.concatenate([found.payload, payload]) if keyed else payload
        if not keyed:
            return seen.unpack(seen.add(keys))
        new, extra, clash = seen.add(keys, payload)
        knocked |= clash
        return np.concatenate([seen.unpack(new), extra], axis=1)

    def finished() -> bool:
        """Whether a keyed closure has no payload column left; then none is alive."""
        if keyed and knocked.all():
            alive[:] = False
            return True
        return False

    rows, frontier = start[:0], grow(start)
    rounds, generators = 0, len(frontier)  # the generators stay first in rows
    while True:
        if finished():
            return rows[:, :key_width], alive
        if keyed and knocked.any():  # the knocked-out columns leave
            keep = ~knocked
            alive[alive], knocked = keep, knocked[keep]
            seen.payload = seen.payload[:, keep]
            cells = np.concatenate([np.ones(key_width, dtype=bool), keep])
            rows, frontier = rows[:, cells], frontier[:, cells]
        if len(frontier):
            rows = np.concatenate([rows, frontier]) if len(rows) else frontier
            if row_cap is not None and len(rows) > row_cap:
                raise _GridOverflow(len(rows))
        if not len(frontier) or rounds == steps:
            return rows, alive
        rounds += 1
        if generator_rounds:
            (op,) = ops
            walks = [(op, [frontier, rows[:generators]])]
            if rounds > 1 and len(frontier) ** 2 * rows.shape[1] <= _SQUARE_ENTRIES:
                walks.append((op, [frontier, frontier]))
        else:
            older = rows[: len(rows) - len(frontier)]
            walks = [
                (op, [older] * j + [frontier] + [rows] * (op.ndim - 1 - j))
                for op in ops
                for j in range(op.ndim)
            ]
        entries = rows.shape[1] * sum(prod(len(axis) for axis in axes) for _, axes in walks)
        if entries > _ROUND_ENTRIES:
            raise _GridOverflow(entries)
        found = _RowSet(key_width, top, rows.shape[1] - key_width)
        batch, volume, overflow = [], 0, False
        for block in (block for op, axes in walks for block in _op_values(op, axes)):
            batch.append(block)
            volume += block.size
            if volume >= _BLOCK_ENTRIES:
                gather(found, np.concatenate(batch), overflow)
                batch, volume = [], 0
                if finished():
                    return rows[:, :key_width], alive
                overflow = row_cap is not None and len(rows) + len(found.keys) > row_cap
                if overflow and not keyed:
                    break
        last = np.concatenate(batch) if batch else rows[:0]
        if overflow:
            if keyed:
                gather(found, last, True)
                if finished():
                    return rows[:, :key_width], alive
            raise _GridOverflow(len(rows) + len(found.keys))
        frontier = grow(last, found)


# --- term-function tables (grid route) --------------------------------------

# (algebra, n_vars) -> (table, _zero_bits(table)), or None for a table past its cap
_grid_cache: dict[tuple[FiniteOmegaGroup, int], tuple[np.ndarray, np.ndarray] | None] = {}


def _multiples(algebra: FiniteOmegaGroup) -> np.ndarray:
    """multiples[m, x] = m*x for m = 0..|H|, built by doubling."""
    n, add = algebra.size, algebra.arrays.add
    multiples = np.arange(n)[None]  # rows m = 1..len(multiples)
    while len(multiples) < n:
        multiples = np.concatenate([multiples, add[multiples[-1], multiples]])
    return np.concatenate([np.zeros((1, n), dtype=multiples.dtype), multiples[:n]])


def _monomial_rows(
    algebra: FiniteOmegaGroup, gens: np.ndarray, row_cap: int, generator_rounds: bool = False
) -> np.ndarray:
    """The closure of the rows gens under the extra operations alone.

    generator_rounds (module docstring) needs one associative operation.
    """
    ops = algebra.arrays.ops
    return _close_rows(ops, gens, row_cap, generator_rounds=generator_rounds)[0] if ops else gens


def _grid_table_spanning(algebra, gens: np.ndarray, row_cap: int) -> np.ndarray:
    """Term-function table for multiadditive algebras.

    The monomial vectors are the closure of the projections under the extra
    operations alone (multiadditivity folds everything else into sums), and
    the table is their additive span S.  They are closed by the generic
    rounds, not the generator rounds: a span that fits the cap has few
    monomials, and past it the generic rounds' entry budget refuses a
    closure such as M2(F2)'s at 2 or 3 variables in under half a second,
    where the generator rounds would run on to the row cap (2.5 and 40 s).
    The size of S is known before any row is formed: the product of the
    monomials' additive orders bounds it, and when that bound passes
    row_cap, _span_size counts S exactly, by the elimination of the linear
    route.  A span past row_cap raises _GridOverflow(|S|).  S is then grown
    by one monomial v at a time: with m the least k >= 1 for which k*v lies
    in S, the cosets S + k*v for 0 < k < m are new and pairwise disjoint,
    and with S they make S + <v>.  While S = {0}, m is the additive order
    of v; after that a _RowSet of S answers, kept up to date only while a
    later monomial remains.
    """
    n, width = algebra.size, gens.shape[1]
    multiples = _multiples(algebra)
    monomials = _monomial_rows(algebra, gens, row_cap)
    order = (multiples[1:] == 0).argmax(axis=0) + 1  # the additive order of each element
    orders = np.lcm.reduce(order[monomials], axis=1)  # and of each monomial
    # Exact below 2^53 (row_cap is far below), and rounding keeps larger products large.
    if orders.prod(dtype=np.float64) > row_cap:
        size = _span_size(algebra, monomials)
        if size > row_cap:
            raise _GridOverflow(size)
    add, cells = algebra.arrays.add.astype(np.uint8), np.arange(width) * n
    rows, span = np.zeros((1, width), dtype=np.uint8), None  # span: S's rows once S != {0}
    for i, vec in enumerate(monomials, 1):
        steps = multiples[1:, vec].astype(np.uint8)  # k*vec for k = 1..n; n*vec = 0
        if span is None:  # S = {0}: k*v first lies in S at k = the order of v
            m = int(orders[i - 1])
        else:
            m = 1 + int(np.argmax(span.contains(span.pack(steps))))
        if m == 1:
            continue
        # shifts[k - 1, c*n + x] = k*vec[c] + x: each coset is one gather at rows + cells.
        shifts = add[steps[: m - 1]].reshape(m - 1, -1)
        cosets = np.take(shifts, rows + cells, axis=1).reshape(-1, width)
        rows = np.concatenate([rows, cosets])
        if i < len(monomials):  # only later monomials look S up
            if span is None:
                span, cosets = _RowSet(width, n - 1), rows
            span.add(span.pack(cosets))
    return np.asfortranarray(rows)  # column-major: _zero_bits packs the bits of each column


def _span_size(algebra: FiniteOmegaGroup, rows: np.ndarray) -> int:
    """The number of elements of the additive span of rows.

    At each prime p of |H| the rows in coordinates are eliminated over
    Z/q, q = p^E (_vanishing_span); the span's p-part has the product of
    the pivot orders q/p^v as its size, and |span| is the product over p.
    """
    size = 1
    for p, q, coords in _derived(algebra, "coordinates", _additive_coordinates):
        entries = coords[rows].reshape(len(rows), -1)
        size *= prod(_vanishing_span(entries, entries.shape[1], p, q)[1])
    return size


def _projection_rows(algebra: FiniteOmegaGroup, n_vars: int) -> np.ndarray:
    """The zero row and the coordinate projections over the row-major grid."""
    coords = _coordinate_vectors(algebra.size, n_vars)
    return np.stack([np.zeros(algebra.size**n_vars, dtype=np.intp), *coords]).astype(np.uint8)


def term_function_table(algebra: FiniteOmegaGroup, n_vars: int) -> np.ndarray | None:
    """All term functions H^n_vars -> H as rows over the row-major grid.

    Returns None when generation would exceed GRID_ROW_CAP (the clone is too
    big to materialize, e.g. over functionally complete algebras).  Results
    are cached per (algebra, n_vars), each table with its _zero_bits.
    """
    _check_carrier(algebra)
    key = (algebra, n_vars)
    entry = _grid_cache.get(key, False)  # one hash of the algebra on a hit
    if entry is False:
        entry = _grid_cache[key] = _table_entry(algebra, n_vars)
    return None if entry is None else entry[0]


def _table_entry(algebra: FiniteOmegaGroup, n_vars: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The table and its _zero_bits, or None past GRID_ROW_CAP."""
    start = _projection_rows(algebra, n_vars)
    try:
        if _is_multiadditive(algebra):
            table = _grid_table_spanning(algebra, start[1:], GRID_ROW_CAP)
        else:
            table, _ = _close_rows(_signature_ops(algebra), start, GRID_ROW_CAP)
    except _GridOverflow:
        return None
    return table, _zero_bits(table)


def _zero_bits(table: np.ndarray) -> np.ndarray:
    """zeros[c]: a bitset of the rows of table that vanish at cell c.

    A uint64 array of shape (cells, ceil(rows / 64)): bit b of word w of
    cell c is set iff table[64*w + b, c] == 0, and the bits past the last
    row are set, so that they never tell one cell from another.
    """
    rows, cells = table.shape
    packed = np.packbits(table == 0, axis=0, bitorder="little")  # byte i: rows 8i .. 8i + 7
    zeros = np.full((cells, -(-rows // 64) * 8), 0xFF, dtype=np.uint8)
    zeros[:, : len(packed)] = packed.T
    if rows % 8:
        zeros[:, len(packed) - 1] |= np.uint8(0xFF << rows % 8 & 0xFF)
    return zeros.view("<u8")


def _table_members(algebra, n_vars, pts: set[Point], zeros: np.ndarray) -> Iterator[Point]:
    """The cells outside pts in the closure of pts, in lexicographic order.

    The rows vanishing on pts are the AND of their cells' bitsets (every
    row when pts is empty), and a cell is in the closure iff each of those
    rows vanishes there too.
    """
    cols = [_cell_index(algebra, p) for p in pts]
    vanishing = np.bitwise_and.reduce(zeros[cols], axis=0)  # all ones for no cols
    members = ((zeros & vanishing) == vanishing).all(axis=1)
    members[cols] = False
    found = np.unravel_index(np.flatnonzero(members), (algebra.size,) * n_vars)
    return zip(*(axis.tolist() for axis in found))


# --- pointwise membership ----------------------------------------------------

_JOINT_ENTRIES = 1 << 18  # coordinates of the monomial rows of one joint reduction
_ALONE_ENTRIES = 1 << 22  # and of a one-candidate reduction


def _cell_index(algebra: FiniteOmegaGroup, point: Point) -> int:
    idx = 0
    for x in point:
        idx = idx * algebra.size + x
    return idx


def _keyed_membership(algebra, pts: list[Point], candidates: list[Point], row_cap: int):
    """A boolean mask: which candidates lie in the closure of pts.

    The closure of the coordinate projections over the columns pts +
    candidates, keyed on the pts columns: its rows are then exactly the
    term functions restricted to pts, at most one per key.  A candidate
    lies in the closure iff x_i -> candidate_i extends to a homomorphism
    from those restrictions to H, that is iff its column never takes two
    values under one key (_close_rows knocks it out when it does).  More
    than row_cap rows raise _GridOverflow.
    """
    columns = np.array(pts + candidates, dtype=np.uint8)
    start = np.concatenate([np.zeros((1, columns.shape[0]), dtype=np.uint8), columns.T])
    return _close_rows(_signature_ops(algebra), start, row_cap, key_width=len(pts))[1]


# --- the linear route (multiadditive algebras) --------------------------------

def _additive_coordinates(algebra: FiniteOmegaGroup) -> tuple[tuple[int, int, np.ndarray], ...]:
    """Coordinates of an abelian (H, +): one (p, q, coords) per prime p of |H|.

    (H, +) is split into cyclic factors of prime-power order.  For each p the
    next generator is an element h whose order p^k modulo the factors found
    so far is greatest, less an element b of those factors with p^k*b =
    p^k*h, so that the factors stay a direct sum.  The split is checked to be
    a bijection from the product of the factors onto H.  coords[x] holds the
    digits of x in the factors of p, a digit of a factor of order p^k scaled
    by q/p^k into Z/q, q the largest of those orders.  So x -> coords[x] is
    additive, and x is 0 iff its coordinates are 0 at every prime.
    """
    view = algebra.arrays
    n, add = algebra.size, view.add
    multiples = _multiples(algebra)
    factors = []  # (p, order, generator)
    rest = n
    for p in range(2, n + 1):
        powers = [1]
        while rest % p == 0:
            rest //= p
            powers.append(powers[-1] * p)
        if len(powers) == 1:
            continue
        part = np.nonzero(multiples[powers[-1]] == 0)[0]  # the elements of p-power order
        span = np.zeros(n, dtype=bool)
        span[0] = True
        while span.sum() < len(part):
            # The least p^k with p^k*x in the span, for each x of the part.
            level = span[multiples[powers][:, part]].argmax(axis=0)
            h, order = part[level.argmax()], powers[level.max()]
            inside = np.nonzero(span)[0]
            below = inside[np.argmax(multiples[order, inside] == multiples[order, h])]
            generator = add[h, view.neg[below]]
            factors.append((p, order, generator))
            span[add[inside[:, None], multiples[:order, generator]].ravel()] = True
    elements = np.zeros(1, dtype=np.intp)  # sums of digit multiples, row-major over the digits
    for _, order, generator in factors:
        elements = add[elements[:, None], multiples[:order, generator]].ravel()
    if not np.array_equal(np.sort(elements), np.arange(n)):
        raise AssertionError(f"{algebra.name}: the cyclic factors do not split (H, +)")
    if not factors:
        return ()
    position = np.empty(n, dtype=np.intp)
    position[elements] = np.arange(n)
    digits = np.unravel_index(position, [order for _, order, _ in factors])
    out = []
    for prime in sorted({p for p, _, _ in factors}):
        mine = [i for i, (p, _, _) in enumerate(factors) if p == prime]
        q = max(factors[i][1] for i in mine)
        coords = np.stack([digits[i] * (q // factors[i][1]) for i in mine], axis=1)
        out.append((prime, q, coords))
    return tuple(out)


def _vanishing_span(rows: np.ndarray, lead: int, p: int, q: int) -> tuple[np.ndarray, list[int]]:
    """Rows spanning the part of the Z/q-span of rows that is 0 on its first lead columns.

    q is a power p^E of the prime p.  The lead columns are eliminated one at
    a time, as in a Howell form, skipping the columns that are 0 in every
    row (they stay 0): a row whose entry there has the least p-valuation v
    is the pivot, every other row is cleared by a multiple of it, and the
    pivot is replaced by p^(E-v) times itself, which is 0 there.  The
    vectors of the span that are 0 on the column are then exactly the span
    of the rows.  Zero rows are dropped.

    Also returns the pivot orders q/p^v.  Their product is the size of the
    span divided by the size of the part returned: a vector's entry in the
    pivot's column is c*p^v for a c fixed mod p^(E-v), and c times the
    pivot row leaves a remainder 0 on the column, in the span of the rows
    after the step, so each pivot multiplies the size by exactly q/p^v.
    """
    valuation = np.zeros(q, dtype=np.intp)
    power = p
    while power < q:
        valuation[power::power] += 1
        power *= p
    valuation[0] = q  # above every valuation, so a zero entry is never a pivot
    rows = rows[rows.any(axis=1)]
    orders = []
    for j in np.flatnonzero(rows[:, :lead].any(axis=0)):
        if not len(rows):
            break
        column = rows[:, j]
        i = int(np.argmin(valuation[column]))
        if column[i] == 0:
            continue
        step = p ** int(valuation[column[i]])
        pivot = rows[i].copy()
        hit = column != 0
        scale = column[hit] // step * pow(int(column[i]) // step, -1, q) % q
        rows[hit] = (rows[hit] - scale[:, None] * pivot) % q
        rows = np.concatenate([rows, (pivot * (q // step) % q)[None]])
        rows = rows[rows.any(axis=1)]
        orders.append(q // step)
    return rows, orders


def _linear_membership(algebra, pts: list[Point], candidates: list[Point], row_cap: int):
    """A boolean mask: which candidates lie in the closure of pts.

    The algebra is multiadditive, so the term functions on the columns pts
    + candidates are the additive span of the monomial rows, the closure of
    the projections under the extra operations alone.  At each prime of |H|
    the monomial rows in coordinates (_additive_coordinates) are reduced to
    rows spanning the part of the span that vanishes on pts; a candidate is
    in the closure iff those rows vanish at it at every prime.  More than
    row_cap monomial rows raise _GridOverflow.
    """
    gens = np.array(pts + candidates, dtype=np.uint8).T
    monomials = _monomial_rows(algebra, gens, row_cap, _is_associative_product(algebra))
    inside = np.ones(len(candidates), dtype=bool)
    for p, q, coords in _derived(algebra, "coordinates", _additive_coordinates):
        k = coords.shape[1]
        rows = coords[monomials].reshape(len(monomials), -1)
        rows = _vanishing_span(rows, len(pts) * k, p, q)[0][:, len(pts) * k :]
        inside &= ~rows.reshape(len(rows), len(candidates), k).any(axis=(0, 2))
    return inside


def _point_set(algebra, n_vars, points, method="auto", guard=None) -> set[Point]:
    """The validated point set; every argument is checked before any search."""
    if method not in ("auto", "grid", "percandidate"):
        raise InvalidArgumentError(f"unknown closure method {method!r}")
    _check_carrier(algebra)
    if guard is not None:
        _check_guard(algebra, n_vars, guard)
    return _validate_points(algebra, n_vars, points)


def _closure_members(
    algebra, n_vars, pts: set[Point], method="auto", candidates=None
) -> Iterator[Point]:
    """Yield, in lexicographic order, the points outside pts in their closure.

    Without `candidates` the whole grid is asked: the term-function table
    answers for method "grid", and for "auto" on grids of at most
    GRID_CELL_LIMIT cells whose table is already cached and fits its cap
    (a one-off query builds no table: a table pays only for many queries on
    one grid, and over an algebra that is not multiadditive the clone can
    hold every zero-preserving function).  Otherwise, and always
    for given candidates (outside pts), the zero point is taken first (every
    term function vanishes there) and the rest are decided by the route of
    the algebra (module docstring): the linear reduction over a
    multiadditive algebra, the keyed closure over any other.  One joint
    decision takes them all while its rows have at most _JOINT_ENTRIES
    coordinates (16 times that many cells for a keyed closure); past that
    budget the same route decides them one at a time under
    WORKLIST_ROW_CAP rows, and for the linear route _ALONE_ENTRIES
    coordinates, and a candidate past that cap raises TooLargeError.
    """
    if candidates is None:
        total = algebra.size**n_vars
        if len(pts) == total:
            return
        warm = method == "auto" and total <= GRID_CELL_LIMIT and (algebra, n_vars) in _grid_cache
        if method == "grid" or warm:
            table = term_function_table(algebra, n_vars)  # the name a tracer wraps
            if table is None and method == "grid":
                raise TooLargeError("term-function table exceeds the row cap")
            if table is not None:
                yield from _table_members(algebra, n_vars, pts, _grid_cache[algebra, n_vars][1])
                return
        candidates = [p for p in grid_points(algebra.size, n_vars) if p not in pts]
    if candidates and not any(candidates[0]):
        yield candidates.pop(0)  # every term function vanishes at the zero point
    if not candidates:
        return
    sorted_pts = sorted(pts)
    if _is_multiadditive(algebra):
        decide, kept, entries = _linear_membership, "monomial rows", _JOINT_ENTRIES
        coordinates = _derived(algebra, "coordinates", _additive_coordinates)
        cells = sum(coords.shape[1] for _, _, coords in coordinates)
        # The reduction rewrites its int64 coordinates at every pivot.
        cap = min(WORKLIST_ROW_CAP, _ALONE_ENTRIES // max(1, (len(pts) + 1) * cells))
    else:
        # A keyed closure keeps no more rows than a one-candidate one of a
        # member, so its budget bounds only memory: 16 times the entries of
        # a reduction, as bytes, not int64 coordinates.
        decide, kept, entries, cells = _keyed_membership, "product tuples", _JOINT_ENTRIES << 4, 1
        cap = WORKLIST_ROW_CAP
    width = (len(pts) + len(candidates)) * cells
    try:
        inside = decide(algebra, sorted_pts, candidates, entries // max(1, width))
    except _GridOverflow:
        pass
    else:
        yield from (cand for cand, member in zip(candidates, inside) if member)
        return
    for cand in candidates:
        try:
            (member,) = decide(algebra, sorted_pts, [cand], cap)
        except _GridOverflow as exc:
            raise TooLargeError(f"closure membership search exceeded {cap} {kept}") from exc
        if member:
            yield cand


def point_in_closure(
    algebra: FiniteOmegaGroup,
    n_vars: int,
    points: Iterable[Point],
    candidate: Point,
) -> bool:
    """Decide whether candidate lies in the closure of the point set.

    Never by the table: the zero point is in every closure, and any other
    candidate outside the set is decided by one reduction of the monomial
    rows over a multiadditive algebra, by one keyed closure otherwise.
    """
    pts = _point_set(algebra, n_vars, points)
    (cand,) = _validate_points(algebra, n_vars, [candidate])
    found = _closure_members(algebra, n_vars, pts, candidates=[cand])
    return cand in pts or next(found, None) is not None


def zariski_closure(
    algebra: FiniteOmegaGroup,
    n_vars: int,
    points: Iterable[Point],
    method: str = "auto",
    guard: int = DEFAULT_POINT_GUARD,
) -> frozenset[Point]:
    """Least algebraic superset of the point set."""
    pts = _point_set(algebra, n_vars, points, method, guard)
    return frozenset(pts).union(_closure_members(algebra, n_vars, pts, method))


def is_algebraic(
    algebra: FiniteOmegaGroup,
    n_vars: int,
    points: Iterable[Point],
    guard: int = DEFAULT_POINT_GUARD,
) -> bool:
    """True iff the point set equals its own closure."""
    return closure_excess_point(algebra, n_vars, points, guard) is None


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
    n = algebra.size
    axes = {(a, 0) for a in range(n)} | {(0, b) for b in range(n)}
    extra = closure_excess_point(algebra, 2, axes, guard)
    if extra is None:
        return WitnessedVerdict(True, "axis-union-closure")
    return WitnessedVerdict(False, "axis-union-closure", {"a": extra[0], "b": extra[1]})


def enumerate_algebraic_sets(
    algebra: FiniteOmegaGroup, n_vars: int = 1
) -> LatticeReport:
    """All algebraic point sets at the given arity, with lattice diagnostics.

    Join is closure of union, meet is intersection.  The report records
    whether join always equals plain union and whether the lattice is
    distributive, each with its first counterexample in row-major order of
    the pairs (triples) of algebraic sets, taken in ascending mask order.

    A point set is a bitmask over the row-major grid, cell i being bit i.
    Every mask's closure is found once, in ascending order: a mask inside
    the closure of itself less its lowest cell has that same closure (a
    closure is monotone and idempotent), and any other mask is closed by one
    pass of the candidate loop.  That is one query per such mask, so on a
    grid of at most GRID_CELL_LIMIT cells the term-function table is built
    first and every pass reads it.  The algebraic sets are the masks equal
    to their closures; the lattice laws are array operations on their
    pairwise unions and intersections.
    """
    if n_vars < 1:
        raise InvalidArgumentError("n_vars must be at least 1")
    if n_vars == 1:
        if algebra.size > 8:
            raise TooLargeError("n_vars=1 enumeration is limited to carriers of size 8")
    elif n_vars == 2:
        if algebra.size > 3:
            raise TooLargeError("n_vars=2 enumeration is limited to carriers of size 3")
    else:
        raise TooLargeError("algebraic-set enumeration supports n_vars in {1, 2}")

    cells = list(grid_points(algebra.size, n_vars))
    if len(cells) <= GRID_CELL_LIMIT:
        term_function_table(algebra, n_vars)  # cached for the queries below
    closure: list[int] = []
    for m in range(1 << len(cells)):
        if m and m & closure[m & (m - 1)] == m:  # inside the closure of m less its lowest cell
            closure.append(closure[m & (m - 1)])
        else:
            pts = {cell for i, cell in enumerate(cells) if m >> i & 1}
            added = _closure_members(algebra, n_vars, pts)
            closure.append(m | sum(1 << _cell_index(algebra, p) for p in added))

    closure = np.array(closure)
    closed = closure == np.arange(len(closure))
    algebraic = np.nonzero(closed)[0]
    unions = algebraic[:, None] | algebraic
    not_union = ~closed[unions]
    union_pair = distributivity_triple = None
    if not_union.any():
        union_pair = np.unravel_index(np.argmax(not_union), not_union.shape)
        # A union-closed family is a ring of sets, hence distributive; only
        # lattices with a proper join need the scan.
        joins = closure[unions]
        for a, mask in enumerate(algebraic):
            # a & join(b, c) against join(a & b, a & c), the closure of a & (b | c)
            differ = (mask & joins) != closure[mask & unions]
            if differ.any():
                distributivity_triple = (a, *np.unravel_index(np.argmax(differ), differ.shape))
                break

    sets = [frozenset(cells[i] for i in range(len(cells)) if m >> i & 1) for m in algebraic]

    def pick(indices):
        return None if indices is None else tuple(sets[i] for i in indices)

    return LatticeReport(
        n_vars=n_vars,
        algebraic_sets=tuple(sorted(sets, key=lambda s: (len(s), sorted(s)))),
        join_equals_union=union_pair is None,
        union_counterexample=pick(union_pair),
        intersection_closed=bool(closed[algebraic[:, None] & algebraic].all()),
        distributive=distributivity_triple is None,
        distributivity_counterexample=pick(distributivity_triple),
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

    The operations act on rows componentwise, so restricting the rows to a
    set of cells commutes with every round.  The last round therefore runs
    only on the point cells and the cells that no vanishing term of depth
    max_depth - 1 has already excluded; the rounds before it run on the
    whole grid.  A round past the row kernel's entry budget raises
    TooLargeError; the narrowed last round can fit where the same round over
    the whole grid would not.
    """
    if not isinstance(max_depth, (int, np.integer)) or max_depth < 0:
        raise InvalidArgumentError(f"max_depth must be an integer at least 0, got {max_depth!r}")
    if algebra.size > 4 or n_vars > 2 or max_depth > 4:
        raise TooLargeError("oracle guard: size <= 4, n_vars <= 2, max_depth <= 4")
    pts = _validate_points(algebra, n_vars, points)
    ops = _signature_ops(algebra)
    cols = np.array([_cell_index(algebra, p) for p in pts], dtype=np.intp)

    def common_zeros(rows: np.ndarray, at: np.ndarray) -> np.ndarray:
        """The columns where every row vanishing on the columns `at` vanishes."""
        return (rows[(rows[:, at] == 0).all(axis=1)] == 0).all(axis=0)

    try:
        rows, _ = _close_rows(ops, _projection_rows(algebra, n_vars), steps=max(max_depth - 1, 0))
        members = common_zeros(rows, cols)
        narrow = np.flatnonzero(members)  # holds cols: no vanishing row excludes a point
        if max_depth and len(narrow) > len(cols):
            last, _ = _close_rows(ops, rows[:, narrow], steps=1)
            members[narrow] = common_zeros(last, np.searchsorted(narrow, cols))
    except _GridOverflow as exc:
        raise TooLargeError("oracle round exceeds the row kernel's entry budget") from exc
    cells = list(grid_points(algebra.size, n_vars))
    return frozenset(cells[i] for i in np.flatnonzero(members))
