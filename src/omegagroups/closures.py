"""Fixed-point closure operators: generated subgroups, ideals, commutator groups.

A subset of the carrier is held as a boolean membership mask while it grows,
and every rule reads the algebra's array view (``FiniteOmegaGroup.arrays``).
One step function, ``_step``, yields everything the closure rules form from
a frontier F of a member set S: -F, F + S and S + F, conjugates of F by the
ambient, each extra operation on the S-tuples that use an element of F, and
the omega-commutators -w(a) - w(b) + w(a + b) of those tuples against
ambient tuples.  Over a multiadditive algebra an ideal step forms the
one-slot values instead: w with an element of F in one slot and ambient
elements in the others (the equivalence is argued at ``_step``).  The
closures iterate it semi-naively (each tuple is formed once, in the step
after its last element joined); the membership tests are "one step from S
adds nothing".

Many closures at once take the batched route, ``_close_all``: the seeds are
the rows of a boolean membership matrix, and every row grows by array rules
until no row changes.  The rules are S + S, conjugates by the ambient (only
when addition is not commutative), and either the one-slot absorption as a
matrix product (ideals) or the operation values on tuples of the row
(generated subgroups).  It covers groups and multiadditive algebras of arity
at most 2 whose arrays fit BATCH_CELLS; anything else closes one seed at a
time with ``_step``.  The enumerations collect the closures reached from
{0} by adding one element at a time, a layer of sets per batch.

Tuples are formed on demand, never as full tables: a Cartesian product of
index arrays is walked in row-major order in blocks of at most BLOCK
entries, so ternary operations and large carriers take the same path.  The
commutator triviality scan walks the same blocks starting from a few dozen
entries, group commutators first, then each operation in signature order,
lexicographic in (a-tuple, b-tuple), and reports the first nonzero one.
On the batched route the same question for all pairs of rows is one matrix
product with the clash matrix of ``_clash``.
"""

from __future__ import annotations

from math import prod
from typing import Iterable, Iterator

import numpy as np

from .core import FiniteOmegaGroup, TableArrays, _is_multiadditive
from .errors import InvalidArgumentError, NotASubgroupError, NotContainedError, TooLargeError

ENUMERATION_LIMIT = 16  # enumerations over more elements are refused
BLOCK = 1 << 16  # entries per on-demand block of tuples
FIRST_SCAN_BLOCK = 64  # the triviality scan starts small so it can exit early
BATCH_CELLS = 1 << 22  # cells of the batched route's largest array, else one seed at a time


def _product(axes: list[np.ndarray], first: int | None = None) -> Iterator[list[np.ndarray]]:
    """Row-major tuples of axes[0] x axes[1] x ..., one index array per axis.

    Blocks start at `first` tuples (default BLOCK) and grow fourfold to BLOCK.
    """
    sizes = tuple(len(axis) for axis in axes)
    total = prod(sizes)
    start, step = 0, min(first or BLOCK, BLOCK)
    while start < total:
        digits = np.unravel_index(np.arange(start, min(start + step, total)), sizes)
        yield [axis[digit] for axis, digit in zip(axes, digits)]
        start += step
        step = min(4 * step, BLOCK)


def _omega_commutators(view: TableArrays, op: np.ndarray, a_axes, b_axes, first=None):
    """(tuple columns, -w(a) - w(b) + w(a + b)) blocks over a_axes x b_axes."""
    add, neg = view.add, view.neg
    for columns in _product(a_axes + b_axes, first):
        a, b = columns[: op.ndim], columns[op.ndim :]
        summed = tuple(add[x, y] for x, y in zip(a, b))
        yield columns, add[add[neg[op[tuple(a)]], neg[op[tuple(b)]]], op[summed]]


def _step(
    algebra: FiniteOmegaGroup,
    mask: np.ndarray,
    fresh: np.ndarray,
    ambient: np.ndarray | None = None,
) -> Iterator[np.ndarray]:
    """Blocks of the values one closure step forms from the frontier.

    `mask` marks the members S and `fresh` the frontier F within them.
    Without an ambient these are the subgroup rules; with one, conjugation by
    the ambient and omega-commutators against ambient tuples join them.  An
    arity-k tuple touching the frontier is split by the position j of its
    first frontier element: older members before j, any member after it.

    Over a multiadditive algebra an ideal step forms, in place of the
    operation and commutator rules, the one-slot values: w with an element
    of F in slot j and ambient elements in every other slot.  For a subgroup
    S of the ambient the two rules add nothing at the same time.  Expanding
    w(a + b) slot by slot, -w(a) - w(b) + w(a + b) is a sum of values of w
    on tuples with some slots from a in S and the rest from b in the
    ambient, so one-slot absorption gives commutator absorption.  Conversely
    a = (0, .., x, .., 0) and b = (q1, .., 0, .., qk) have the commutator
    w(q1, .., x, .., qk), and operation values on S-tuples are one-slot
    values.  Addition is commutative there, so conjugation adds nothing.
    """
    view = algebra.arrays
    add, neg = view.add, view.neg
    members, frontier = np.flatnonzero(mask), np.flatnonzero(fresh)
    older = np.flatnonzero(mask & ~fresh)
    one_slot = ambient is not None and _is_multiadditive(algebra)
    yield neg[frontier]
    for axes in ([frontier, members], [members, frontier]):
        for x, y in _product(axes):
            yield add[x, y]
    if ambient is not None and not one_slot:
        for u, p in _product([frontier, ambient]):
            yield add[add[neg[p], u], p]
    for op in view.ops:
        k = op.ndim
        for j in range(k):
            if one_slot:
                for columns in _product([ambient] * j + [frontier] + [ambient] * (k - 1 - j)):
                    yield op[tuple(columns)]
                continue
            a_axes = [older] * j + [frontier] + [members] * (k - 1 - j)
            for columns in _product(a_axes):
                yield op[tuple(columns)]
            if ambient is not None:
                for _, values in _omega_commutators(view, op, a_axes, [ambient] * k):
                    yield values


def _elements(algebra: FiniteOmegaGroup, subset: Iterable[int]) -> frozenset[int]:
    """The subset as a frozenset; anything but carrier elements is refused."""
    members = frozenset(subset)
    for x in members:
        if not isinstance(x, (int, np.integer)) or not 0 <= x < algebra.size:
            raise InvalidArgumentError(f"{x!r} is not an element of the carrier of {algebra.name}")
    return members


def _indices(subset: Iterable[int]) -> np.ndarray:
    return np.array(sorted(subset), dtype=np.intp)


def _mask(view: TableArrays, subset: Iterable[int]) -> np.ndarray:
    mask = np.zeros(len(view.neg), dtype=bool)
    mask[_indices(subset)] = True
    return mask


def _adds_nothing(algebra: FiniteOmegaGroup, subset, ambient: np.ndarray | None = None) -> bool:
    mask = _mask(algebra.arrays, subset)
    return all(mask[values].all() for values in _step(algebra, mask, mask, ambient))


def _close(algebra: FiniteOmegaGroup, seed, ambient: np.ndarray | None, limit: int) -> frozenset[int]:
    """Least superset of seed + {0} closed under the step; stops at `limit` members."""
    mask = _mask(algebra.arrays, seed)
    mask[0] = True
    fresh = mask.copy()
    while fresh.any() and np.count_nonzero(mask) < limit:
        before = mask.copy()
        for values in _step(algebra, before, fresh, ambient):
            mask[values] = True
            if np.count_nonzero(mask) == limit:  # the whole ambient: nothing can join
                break
        fresh = mask & ~before
    return frozenset(np.flatnonzero(mask).tolist())


def _batched(algebra: FiniteOmegaGroup, rows: int) -> bool:
    """Whether `rows` closures at once take the batched route.

    It covers groups and multiadditive algebras of arity at most 2, while
    its largest array, max(rows, n) x n^2 cells, fits BATCH_CELLS.
    """
    n, ops = algebra.size, algebra.arrays.ops
    return max(rows, n) * n * n <= BATCH_CELLS and (
        not ops or max(op.ndim for op in ops) <= 2 and _is_multiadditive(algebra)
    )


def _close_all(
    algebra: FiniteOmegaGroup, seeds: np.ndarray, ambient: np.ndarray | None
) -> np.ndarray:
    """Every row of the boolean matrix `seeds` closed: the least ideal of the
    ambient containing it, or without an ambient the least closed subgroup.

    On the batched route all rows grow together by array rules; a row is
    closed once a round leaves it unchanged, since its next round reads it
    alone.  Otherwise each row is closed by ``_close``.
    """
    view, n = algebra.arrays, algebra.size
    members = seeds.copy()
    members[:, 0] = True
    if not _batched(algebra, len(seeds)):
        limit = n if ambient is None else len(ambient)
        for row in members:
            row[list(_close(algebra, np.flatnonzero(row), ambient, limit))] = True
        return members
    carrier = np.arange(n)
    # S + S: z is a sum of two members iff -x + z is a member for some member x
    lefts = view.add[view.neg]
    rules = [lambda rows: (rows[:, :, None] & rows[:, lefts]).any(1)]
    commutative = _is_multiadditive(algebra)
    if ambient is not None and not commutative:
        # z is a conjugate -p + u + p of a member u iff p + z - p is a member
        shifts = view.add[view.add[ambient[:, None], carrier], view.neg[ambient][:, None]]
        rules.append(lambda rows: rows[:, shifts].any(1))
    if view.ops:
        if ambient is not None:
            # One-slot absorption (see _step): absorb[x, z] when some operation
            # gives z with x in one slot and ambient elements in the others.
            absorb = np.zeros((n, n), dtype=np.float32)
            for op in view.ops:
                if op.ndim == 1:
                    absorb[carrier, op] = 1
                else:
                    absorb[carrier[:, None], op[:, ambient]] = 1
                    absorb[carrier[:, None], op[ambient].T] = 1
            rules.append(lambda rows: rows.astype(np.float32) @ absorb > 0)
        else:
            # values[t, z]: the operation sends the argument tuple t to z
            for op in view.ops:
                values = np.zeros((op.size, n), dtype=np.float32)
                values[np.arange(op.size), op.ravel()] = 1
                rules.append(lambda rows, values=values, k=op.ndim: _tuples(rows, k) @ values > 0)
    active = np.arange(len(members))
    while active.size:
        rows = members[active]
        grown = rows.copy()
        for rule in rules:
            grown |= rule(rows)
        changed = (grown != rows).any(1)
        members[active] = grown
        active = active[changed]
    return members


def _tuples(rows: np.ndarray, k: int) -> np.ndarray:
    """Float32 indicators of the k-tuples of each row's members, row-major."""
    if k == 1:
        return rows.astype(np.float32)
    return (rows[:, :, None] & rows[:, None, :]).reshape(len(rows), -1).astype(np.float32)


def _clash(algebra: FiniteOmegaGroup) -> np.ndarray:
    """clash[x, y] = 1 where some commutator generator of x and y is nonzero.

    Those are the group commutator -x - y + x + y, -u(x) - u(y) + u(x + y)
    for each unary u, and w(x, y) and w(y, x) for each binary w.  On the
    batched route (binary operations bilinear, addition then commutative)
    -w(a) - w(b) + w(a + b) = w(a1, b2) + w(b1, a2), and a = (x, 0),
    b = (0, y) single out w(x, y).  So the commutator of two closed
    subgroups A and B is trivial iff (1_A clash 1_B^T) = 0.
    """
    view = algebra.arrays
    add, neg = view.add, view.neg
    carrier = np.arange(algebra.size)
    clash = add[add[add[neg[:, None], neg], carrier[:, None]], carrier] != 0
    for op in view.ops:
        if op.ndim == 1:
            clash |= add[add[neg[op][:, None], neg[op]], op[add]] != 0
        else:
            clash |= (op != 0) | (op.T != 0)
    return clash.astype(np.float32)


def is_omega_subgroup(algebra: FiniteOmegaGroup, subset: frozenset[int]) -> bool:
    """Contains 0 and closed under add, neg, and every extra operation."""
    subset = _elements(algebra, subset)
    return 0 in subset and _adds_nothing(algebra, subset)


def is_ideal(
    algebra: FiniteOmegaGroup,
    subset: frozenset[int],
    ambient: frozenset[int] | None = None,
) -> bool:
    """Ideal test relative to an ambient subgroup (whole carrier by default).

    Checks: closure under every extra operation, normality in the additive
    group of the ambient, and absorption of omega-commutators whose second
    tuple ranges over the ambient.
    """
    subset = _elements(algebra, subset)
    amb = _indices(_elements(algebra, ambient)) if ambient is not None else np.arange(algebra.size)
    if not subset <= set(amb.tolist()) or 0 not in subset:
        return False
    return _adds_nothing(algebra, subset, amb)


def omega_subgroup_closure(
    algebra: FiniteOmegaGroup, seed: Iterable[int]
) -> frozenset[int]:
    """Least subgroup containing the seed and closed under all operations."""
    return _close(algebra, _elements(algebra, seed), None, algebra.size)


def ideal_closure(
    algebra: FiniteOmegaGroup,
    ambient: frozenset[int] | None,
    seed: Iterable[int],
) -> frozenset[int]:
    """Least ideal of the ambient subgroup containing the seed.

    The fixed point runs over: additive subgroup generation, conjugation by
    ambient elements, the extra operations on tuples from the set, and
    omega-commutators pairing tuples from the set with tuples from the
    ambient.
    """
    if ambient is None:
        amb_set = frozenset(algebra.elements)
    else:
        amb_set = frozenset(ambient)
        if not is_omega_subgroup(algebra, amb_set):
            raise NotASubgroupError("ambient is not a closed subgroup")
    seed_set = _elements(algebra, seed)
    if not seed_set <= amb_set:
        raise NotContainedError("seed must lie inside the ambient subgroup")
    return _close(algebra, seed_set, _indices(amb_set), len(amb_set))


def _commutator_generators(algebra: FiniteOmegaGroup, a_set, b_set, first=None):
    """Blocks of (operation name or None, tuple columns, generator values).

    Group commutators -a - b + a + b over a x b come first (name None), then
    each operation's omega-commutators over a-tuples x b-tuples; all in
    row-major order.
    """
    view = algebra.arrays
    add, neg = view.add, view.neg
    a, b = _indices(a_set), _indices(b_set)
    for x, y in _product([a, b], first):
        yield None, (x, y), add[add[add[neg[x], neg[y]], x], y]
    for table, op in zip(algebra.omega, view.ops):
        for columns, values in _omega_commutators(view, op, [a] * op.ndim, [b] * op.ndim, first):
            yield table.name, columns, values


def commutator_group(
    algebra: FiniteOmegaGroup, a_set: frozenset[int], b_set: frozenset[int]
) -> frozenset[int]:
    """The ideal, inside the subgroup the two sets generate, spanned by their
    group commutators and omega-commutators."""
    if not is_omega_subgroup(algebra, a_set) or not is_omega_subgroup(algebra, b_set):
        raise NotASubgroupError("commutator_group expects closed subgroups")
    ambient = _close(algebra, a_set | b_set, None, algebra.size)
    gens = np.zeros(algebra.size, dtype=bool)
    for _, _, values in _commutator_generators(algebra, a_set, b_set):
        gens[values] = True  # inside the ambient, a closed subgroup holding both sets
    return _close(algebra, np.flatnonzero(gens), _indices(ambient), len(ambient))


def commutator_group_is_trivial(
    algebra: FiniteOmegaGroup, a_set: frozenset[int], b_set: frozenset[int]
) -> tuple[bool, tuple | None]:
    """Fast equivalent of commutator_group(...) == {0}.

    The generated ideal is trivial exactly when every generator is already 0,
    so no closure needs to be built.  Returns (verdict, first nonzero
    generator descriptor or None): ("commutator", a, b) or
    ("omega-commutator", name, a_tuple, b_tuple), in the scan order of the
    module docstring.
    """
    if not is_omega_subgroup(algebra, a_set) or not is_omega_subgroup(algebra, b_set):
        raise NotASubgroupError("commutator test expects closed subgroups")
    return _commutator_scan(algebra, a_set, b_set)


def _commutator_scan(algebra: FiniteOmegaGroup, a_set, b_set) -> tuple[bool, tuple | None]:
    """commutator_group_is_trivial for sets already known to be closed subgroups."""
    scan = _commutator_generators(algebra, a_set, b_set, FIRST_SCAN_BLOCK)
    for name, columns, values in scan:
        hits = np.flatnonzero(values)
        if hits.size:
            picked = [int(column[hits[0]]) for column in columns]
            if name is None:
                return False, ("commutator", *picked)
            k = len(picked) // 2
            return False, ("omega-commutator", name, tuple(picked[:k]), tuple(picked[k:]))
    return True, None


def _closed_sets(
    algebra: FiniteOmegaGroup, elements: list[int], ambient: np.ndarray | None
) -> list[frozenset[int]]:
    """Every closure of a subset of elements, in ascending bitmask order over them.

    Each is reached from {0} by adding one of its elements at a time, so this
    takes (closed sets) x (elements) closures, not 2^n subset tests; the sets
    found in one layer are all grown by one element in one ``_close_all``.
    """
    k = len(elements)
    if k > ENUMERATION_LIMIT:
        raise TooLargeError(f"enumeration over {k} elements exceeds {ENUMERATION_LIMIT}")
    found = {frozenset({0})}
    todo = list(found)
    while todo:
        grown = [(current, x) for current in todo for x in elements if x not in current]
        seeds = np.zeros((len(grown), algebra.size), dtype=bool)
        for row, (current, x) in zip(seeds, grown):
            row[[*current, x]] = True
        todo = []
        for row in _close_all(algebra, seeds, ambient):
            bigger = frozenset(np.flatnonzero(row).tolist())
            if bigger not in found:
                found.add(bigger)
                todo.append(bigger)
    bit = {x: 1 << i for i, x in enumerate(elements)}
    return sorted(found, key=lambda closed: sum(bit[x] for x in closed))


def enumerate_ideals(
    algebra: FiniteOmegaGroup, ambient: frozenset[int] | None = None
) -> list[frozenset[int]]:
    """All ideals of the ambient subgroup, in ascending bitmask order over the
    ambient's sorted elements.  Guarded to ambients of at most
    ENUMERATION_LIMIT elements.
    """
    if ambient is not None and not is_omega_subgroup(algebra, frozenset(ambient)):
        raise NotASubgroupError("ambient is not a closed subgroup")
    amb = sorted(ambient) if ambient is not None else list(algebra.elements)
    return _closed_sets(algebra, amb, _indices(amb))


def enumerate_omega_subgroups(algebra: FiniteOmegaGroup) -> list[frozenset[int]]:
    """All closed subgroups, in ascending bitmask order (same guard as ideals)."""
    return _closed_sets(algebra, list(algebra.elements), None)


def generated_subgroup(algebra: FiniteOmegaGroup, element: int) -> frozenset[int]:
    return omega_subgroup_closure(algebra, (element,))


def principal_ideal(
    algebra: FiniteOmegaGroup, element: int, ambient: frozenset[int] | None = None
) -> frozenset[int]:
    return ideal_closure(algebra, ambient, (element,))
