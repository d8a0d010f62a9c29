"""The grid route's zero bitsets: queries, cache lifetime and the traced call.

Every table query reads the per-cell bitsets kept beside the table in
zariski._grid_cache.  Here they are checked against the two row filters of
reference.closure_from_table, on tables of both builders and with row
counts on and off 64-bit word boundaries.  A query under method "auto"
reads a table only once it is cached: cold queries build none, and must
answer as the table does.
"""

import gc
import random
import weakref

import numpy as np
import pytest

from omegagroups import zariski
from omegagroups.catalog import build_catalog, cyclic_ring
from omegagroups.terms import grid_points
from omegagroups.zariski import (
    closure_excess_point,
    enumerate_algebraic_sets,
    is_algebraic,
    term_function_table,
    zariski_closure,
)

from reference import closure_from_table

# (name, n_vars, rows): the span builder for the multiadditive algebras,
# _close_rows for S3, D4 and Q8.  Z3-ring^2 has 6,561 = 102*64 + 33 rows.
TABLES = [
    ("Z2-ring", 2, 8),
    ("null-ring-4", 2, 4),
    ("Z3-ring", 2, 3**8),
    ("Z4-ring", 2, 16_384),
    ("Z2-ring", 4, None),
    ("S3", 1, None),
    ("D4", 1, None),
    ("Q8", 1, None),
    ("Z3-group", 2, None),
    ("V4-group", 2, None),
]


def point_sets(cells, seed):
    """The empty set, every single point, the grid less each cell, and seeded sets."""
    yield set()
    for cell in cells:
        yield {cell}
        yield set(cells) - {cell}
    rng = random.Random(seed)
    for _ in range(24):
        density = rng.uniform(0.1, 0.6)
        yield {cell for cell in cells if rng.random() < density}


@pytest.mark.parametrize("name, n_vars, rows", TABLES)
def test_bitset_queries_match_the_row_filters(algebras, name, n_vars, rows):
    algebra = algebras[name]
    table = term_function_table(algebra, n_vars)
    assert table is not None and (rows is None or len(table) == rows)
    assert zariski._is_multiadditive(algebra) == (name not in ("S3", "D4", "Q8"))
    cells = list(grid_points(algebra.size, n_vars))
    for pts in point_sets(cells, f"{name}^{n_vars}"):
        expected = closure_from_table(algebra, n_vars, pts, table)
        members = list(zariski._closure_members(algebra, n_vars, set(pts)))
        assert members == sorted(expected - pts), (name, sorted(pts))
        assert zariski_closure(algebra, n_vars, pts, method="grid") == expected
        assert zariski_closure(algebra, n_vars, pts) == expected
        assert closure_excess_point(algebra, n_vars, pts) == min(expected - pts, default=None)
        assert is_algebraic(algebra, n_vars, pts) == (expected == pts)


@pytest.mark.parametrize("name, n_vars, rows", TABLES)
def test_bits_are_the_zeros_of_the_table_with_the_padding_set(algebras, name, n_vars, rows):
    algebra = algebras[name]
    table = term_function_table(algebra, n_vars)
    entry_table, zeros = zariski._grid_cache[algebra, n_vars]
    assert entry_table is table
    words = -(-len(table) // 64)
    assert zeros.dtype == np.dtype("<u8") and zeros.shape == (table.shape[1], words)
    bits = np.unpackbits(zeros.view(np.uint8), axis=1, bitorder="little").astype(bool)
    assert np.array_equal(bits[:, : len(table)], (table == 0).T)
    assert bits[:, len(table) :].all()


def test_a_miss_stores_one_entry_and_no_table_outlives_it(monkeypatch):
    cache = {}
    monkeypatch.setattr(zariski, "_grid_cache", cache)
    ring = cyclic_ring(3)
    table = term_function_table(ring, 2)
    assert len(cache) == 1  # a miss stores exactly one entry
    assert term_function_table(ring, 2) is table and len(cache) == 1  # a hit stores none
    zeros = cache[ring, 2][1]
    assert cache[ring, 2][0] is table
    overflow = cyclic_ring(11)
    assert term_function_table(overflow, 1) is None
    assert len(cache) == 2 and cache[overflow, 1] is None
    assert term_function_table(overflow, 1) is None and len(cache) == 2
    refs = [weakref.ref(table), weakref.ref(zeros), weakref.ref(zeros.base)]
    del table, zeros
    cache.clear()
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_every_table_query_calls_the_module_level_table(monkeypatch, algebras):
    """A tracer wraps zariski.term_function_table to tell the table route.

    A cold auto query builds no table and calls it zero times; a warm one
    calls it once.  The lattice calls it once up front and once per mask
    its candidate loop closes.
    """
    calls, members = [], []
    table_fn, members_fn = zariski.term_function_table, zariski._closure_members

    def counted_table(algebra, n_vars):
        calls.append((algebra.name, n_vars))
        return table_fn(algebra, n_vars)

    def counted_members(*args, **kwargs):
        members.append(args[:2])
        return members_fn(*args, **kwargs)

    monkeypatch.setattr(zariski, "term_function_table", counted_table)
    monkeypatch.setattr(zariski, "_closure_members", counted_members)
    for name, n_vars in [("Z3-ring", 2), ("S3", 1), ("V4-group", 2)]:
        algebra = algebras[name]
        cells = list(grid_points(algebra.size, n_vars))
        for pts in [set(), {cells[-1]}, set(cells[::2])]:
            monkeypatch.setattr(zariski, "_grid_cache", {})
            calls.clear()
            cold = zariski_closure(algebra, n_vars, pts), is_algebraic(algebra, n_vars, pts)
            assert calls == [] and zariski._grid_cache == {}
            grid = zariski_closure(algebra, n_vars, pts, method="grid")
            warm = zariski_closure(algebra, n_vars, pts), is_algebraic(algebra, n_vars, pts)
            assert calls == [(name, n_vars)] * 3
            assert cold == warm and grid == cold[0]
    for name, n_vars in [("Z3-ring", 2), ("Z2-group", 2), ("S3", 1)]:
        monkeypatch.setattr(zariski, "_grid_cache", {})
        calls.clear()
        members.clear()
        enumerate_algebraic_sets(algebras[name], n_vars)
        assert members and len(calls) == len(members) + 1  # up front, then one per mask
        assert list(zariski._grid_cache) == [(algebras[name], n_vars)]


CATALOG_GRIDS = [
    (entry.name, n_vars)
    for entry in build_catalog()
    for n_vars in (1, 2, 3, 4)
    if entry.algebra.size**n_vars <= zariski.GRID_CELL_LIMIT
]


@pytest.mark.parametrize("name, n_vars", CATALOG_GRIDS)
def test_a_cold_query_builds_no_table_and_matches_the_table(monkeypatch, algebras, name, n_vars):
    """Every catalog grid of at most GRID_CELL_LIMIT cells, cold and then warm."""
    algebra = algebras[name]
    cells = list(grid_points(algebra.size, n_vars))
    sets = list(point_sets(cells, f"cold {name}^{n_vars}"))

    def answers():
        return [
            (zariski_closure(algebra, n_vars, pts), closure_excess_point(algebra, n_vars, pts),
             is_algebraic(algebra, n_vars, pts))
            for pts in sets
        ]

    monkeypatch.setattr(zariski, "_grid_cache", {})
    cold = answers()
    assert zariski._grid_cache == {}
    if term_function_table(algebra, n_vars) is not None:  # past its cap the cold route stays
        assert answers() == cold  # the table route


def test_an_overflowed_table_stays_none_and_the_query_falls_through(monkeypatch, algebras):
    """A table past its cap is cached as None; auto queries then take the candidate loop."""
    algebra = algebras["Z3-ring"]
    cells = list(grid_points(algebra.size, 2))
    expected = [zariski_closure(algebra, 2, pts) for pts in point_sets(cells, "overflow")]
    cache = {}
    monkeypatch.setattr(zariski, "_grid_cache", cache)
    monkeypatch.setattr(zariski, "GRID_ROW_CAP", 3)
    assert term_function_table(algebra, 2) is None and cache == {(algebra, 2): None}
    assert [zariski_closure(algebra, 2, pts) for pts in point_sets(cells, "overflow")] == expected
    assert cache == {(algebra, 2): None}
