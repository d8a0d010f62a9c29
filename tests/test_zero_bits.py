"""The grid route's zero bitsets: queries, cache lifetime and the traced call.

Every table query reads the per-cell bitsets kept beside the table in
zariski._grid_cache.  Here they are checked against the two row filters of
reference.closure_from_table, on tables of both builders and with row
counts on and off 64-bit word boundaries.
"""

import gc
import random
import weakref

import numpy as np
import pytest

from omegagroups import zariski
from omegagroups.catalog import cyclic_ring
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
    """A tracer wraps zariski.term_function_table to tell the table route."""
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
            calls.clear()
            zariski_closure(algebra, n_vars, pts)
            is_algebraic(algebra, n_vars, pts)
            zariski_closure(algebra, n_vars, pts, method="grid")
            assert calls == [(name, n_vars)] * 3
    for name, n_vars in [("Z3-ring", 2), ("Z2-group", 2), ("S3", 1)]:
        calls.clear()
        members.clear()
        enumerate_algebraic_sets(algebras[name], n_vars)
        assert members and len(calls) == len(members)  # one per mask the loop closes
