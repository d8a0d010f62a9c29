import random
import tracemalloc
from itertools import product as iproduct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegagroups.catalog import (
    build_catalog,
    cyclic_group,
    cyclic_ring,
    dihedral_4,
    dual_numbers_f2,
    field_f4,
    klein_four_group,
    null_ring_klein,
    abelian_lie_f2,
    quaternion_group,
    symmetric_group_3,
)
from omegagroups import core, zariski
from omegagroups.core import FiniteOmegaGroup, direct_product, validate_algebra
from omegagroups.domains import is_domain, zero_divisor_witness
from omegagroups.errors import InvalidArgumentError, TooLargeError
from omegagroups.terms import grid_points, parse_term, random_term
from omegagroups.zariski import (
    EquationSystem,
    bounded_depth_ideal_oracle,
    closure_excess_point,
    enumerate_algebraic_sets,
    equational_domain_check,
    is_algebraic,
    point_in_closure,
    solve_system,
    term_function_table,
    zariski_closure,
)

from reference import full_width_oracle, worklist_membership


def axes(size):
    return {(a, 0) for a in range(size)} | {(0, b) for b in range(size)}


SMALL_FOUR = [
    cyclic_group(2),
    cyclic_group(3),
    cyclic_group(4),
    klein_four_group(),
    cyclic_ring(2),
    cyclic_ring(3),
    cyclic_ring(4),
    field_f4(),
    dual_numbers_f2(),
    null_ring_klein(),
    abelian_lie_f2(),
]


def test_solve_system_examples():
    z3r = cyclic_ring(3)
    pts = solve_system(z3r, EquationSystem(2, (parse_term("mul(x1,x2)"),)))
    assert pts == axes(3)
    any_h = cyclic_ring(4)
    pts = solve_system(any_h, EquationSystem(2, (parse_term("x1"),)))
    assert pts == {(0, b) for b in range(4)}
    assert solve_system(any_h, EquationSystem(2, ())) == set(grid_points(4, 2))


def test_solve_guard():
    with pytest.raises(TooLargeError):
        solve_system(cyclic_ring(4), EquationSystem(2, ()), guard=10)


def test_closure_trivial_cases():
    z4r = cyclic_ring(4)
    full = set(grid_points(4, 2))
    assert zariski_closure(z4r, 2, full) == full
    assert zariski_closure(z4r, 2, set()) == {(0, 0)}


def test_z4_axes_closure_adds_the_annihilating_pair():
    z4r = cyclic_ring(4)
    closure = zariski_closure(z4r, 2, axes(4))
    assert closure == axes(4) | {(2, 2)}
    assert not is_algebraic(z4r, 2, axes(4))
    assert is_algebraic(z4r, 2, closure)


def test_axes_algebraic_over_z3():
    z3r = cyclic_ring(3)
    assert is_algebraic(z3r, 2, axes(3))
    assert is_algebraic(z3r, 2, {(0, 0)})
    assert is_algebraic(z3r, 2, solve_system(z3r, EquationSystem(2, (parse_term("mul(x1,x2)"),))))


def test_closure_methods_agree_on_seeded_sets(monkeypatch):
    rng = random.Random(501)
    for algebra in SMALL_FOUR:
        cells = list(grid_points(algebra.size, 2))
        for _ in range(12):
            pts = set(rng.sample(cells, rng.randint(0, min(5, len(cells)))))
            grid = zariski_closure(algebra, 2, pts, method="grid")
            per = zariski_closure(algebra, 2, pts, method="percandidate")
            assert grid == per, (algebra.name, sorted(pts))
            excess = min(grid - pts, default=None)
            assert closure_excess_point(algebra, 2, pts) == excess  # grid route
            with monkeypatch.context() as patched:
                patched.setattr(zariski, "GRID_CELL_LIMIT", 0)  # per-candidate route
                assert closure_excess_point(algebra, 2, pts) == excess
            for cand in {excess or (0, 0), max(cells), *sorted(pts)[:1]}:
                assert point_in_closure(algebra, 2, pts, cand) == (cand in grid)


CATALOG = {entry.name: entry.algebra for entry in build_catalog()}
PRODUCT_GRIDS = sorted(
    (left, right, n_vars)
    for left, h1 in CATALOG.items()
    for right, h2 in CATALOG.items()
    for n_vars in (1, 2)
    if left <= right
    and h1.signature == h2.signature
    and max(h1.size, h2.size) <= 4
    and (h1.size * h2.size) ** n_vars <= zariski.GRID_CELL_LIMIT
)


@st.composite
def small_grid_subsets(draw):
    """A grid of at most 16 cells, a subset of it and a superset of that."""
    if draw(st.booleans()):
        algebra, n_vars = draw(st.sampled_from(SMALL_FOUR)), draw(st.sampled_from([1, 2]))
    else:
        left, right, n_vars = draw(st.sampled_from(PRODUCT_GRIDS))
        algebra = direct_product(CATALOG[left], CATALOG[right])[0]
    cells = st.sampled_from(list(grid_points(algebra.size, n_vars)))
    pts = draw(st.sets(cells, max_size=6))
    return algebra, n_vars, pts, pts | draw(st.sets(cells, max_size=3))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(small_grid_subsets())
def test_per_candidate_closure_is_the_grid_closure_and_a_closure_operator(case):
    algebra, n_vars, pts, more = case
    closure = zariski_closure(algebra, n_vars, pts, method="grid")
    assert zariski_closure(algebra, n_vars, pts, method="percandidate") == closure
    assert pts <= closure
    assert zariski_closure(algebra, n_vars, closure, method="percandidate") == closure
    assert closure <= zariski_closure(algebra, n_vars, more, method="percandidate")


def test_point_membership_matches_closure():
    z4r = cyclic_ring(4)
    closure = zariski_closure(z4r, 2, axes(4))
    for cand in grid_points(4, 2):
        assert point_in_closure(z4r, 2, axes(4), cand) == (cand in closure)


def test_galois_laws_on_seeded_point_sets():
    rng = random.Random(777)
    for algebra in SMALL_FOUR:
        cells = list(grid_points(algebra.size, 2))
        for _ in range(100):
            pts = set(rng.sample(cells, rng.randint(0, len(cells))))
            closed = zariski_closure(algebra, 2, pts)
            assert pts <= closed
            assert zariski_closure(algebra, 2, closed) == closed
            more = pts | set(rng.sample(cells, rng.randint(0, 2)))
            assert closed <= zariski_closure(algebra, 2, more)
            if closed:
                assert (0, 0) in closed


def test_solution_sets_are_closed():
    rng = random.Random(31337)
    for algebra in SMALL_FOUR:
        for _ in range(15):
            terms = tuple(
                random_term(rng, algebra.signature, 2, 3)
                for _ in range(rng.randint(1, 2))
            )
            pts = solve_system(algebra, EquationSystem(2, terms))
            assert is_algebraic(algebra, 2, pts), algebra.name


def test_theorem_equivalence_on_small_catalog(small_algebras):
    for algebra in small_algebras.values():
        assert is_domain(algebra).verdict == equational_domain_check(algebra).verdict, (
            algebra.name
        )


def test_union_of_solution_sets_algebraic_over_domains():
    """Over algebras without zero divisors, unions of solution sets stay
    algebraic; checked with 50 seeded random system pairs."""
    rng = random.Random(2718)
    instances = [
        (cyclic_ring(2), 2, 14),
        (cyclic_ring(2), 3, 12),
        (cyclic_ring(3), 2, 14),
        (field_f4(), 2, 10),
    ]
    assert sum(count for _, _, count in instances) == 50
    for algebra, n_vars, count in instances:
        assert is_domain(algebra).verdict
        for _ in range(count):
            t1 = tuple(random_term(rng, algebra.signature, n_vars, 3) for _ in range(2))
            t2 = tuple(random_term(rng, algebra.signature, n_vars, 3) for _ in range(2))
            a = solve_system(algebra, EquationSystem(n_vars, t1))
            b = solve_system(algebra, EquationSystem(n_vars, t2))
            assert is_algebraic(algebra, n_vars, a | b), (algebra.name, n_vars)


def test_zero_divisor_pair_lies_in_axes_closure(small_algebras):
    for algebra in small_algebras.values():
        witness = zero_divisor_witness(algebra)
        if not witness.verdict:
            continue
        pair = (witness.witness["a"], witness.witness["b"])
        closure = zariski_closure(algebra, 2, axes(algebra.size))
        assert pair in closure and pair not in axes(algebra.size), algebra.name


def unary_ternary_algebras():
    """(algebra, n_vars): non-additive ternary and unary operations on small grids."""
    z2, z3, z4 = cyclic_group(2), cyclic_group(3), cyclic_group(4)
    xy_plus_z = [(x * y + z) % 2 for x, y, z in grid_points(2, 3)]
    square = [x * x % 3 for x in range(3)]
    cubic3 = [(x * y + z * z * x + y * z) % 3 for x, y, z in grid_points(3, 3)]
    cubic4 = [(x * y + z * z * x + y * z) % 4 for x, y, z in grid_points(4, 3)]
    return [
        (validate_algebra("Z2-ternary", 2, z2.add, [("t", 3, xy_plus_z)]), 2),
        (validate_algebra("Z3-unary-ternary", 3, z3.add, [("u", 1, square), ("t", 3, cubic3)]), 1),
        (validate_algebra("Z4-ternary", 4, z4.add, [("t", 3, cubic4)]), 1),
    ]


def test_closure_routes_agree_on_unary_and_ternary_signatures():
    for algebra, n_vars in unary_ternary_algebras():
        assert not zariski._is_multiadditive(algebra)  # the table is a subalgebra closure
        table = term_function_table(algebra, n_vars)
        rows = {row.tobytes() for row in table}
        for op in (algebra.arrays.neg, algebra.arrays.add, *algebra.arrays.ops):
            for args in iproduct(table, repeat=op.ndim):
                assert op[args].astype(np.uint8).tobytes() in rows, algebra.name
        cells = list(grid_points(algebra.size, n_vars))
        for mask in range(1 << len(cells)):
            pts = {cell for i, cell in enumerate(cells) if mask >> i & 1}
            grid = zariski_closure(algebra, n_vars, pts, method="grid")
            per = zariski_closure(algebra, n_vars, pts, method="percandidate")
            oracle = bounded_depth_ideal_oracle(algebra, n_vars, pts, 4)
            assert grid == per == oracle, (algebra.name, sorted(pts))


def naive_row_closure(ops, start):
    """Close rows under ops applied componentwise, forming every tuple each round."""
    rows = {tuple(int(x) for x in row) for row in start}
    while True:
        values = {
            tuple(int(op[column]) for column in zip(*args))
            for op in ops
            for args in iproduct(sorted(rows), repeat=op.ndim)
        }
        if values <= rows:
            return rows
        rows |= values


def test_row_kernel_matches_naive_closure(monkeypatch):
    """Sparse random operations on Z5 rows, so that skipped tuples change the closure."""
    for block_entries in (zariski._BLOCK_ENTRIES, 7):  # 7 walks the prefix rows one by one
        monkeypatch.setattr(zariski, "_BLOCK_ENTRIES", block_entries)
        rng = np.random.default_rng(11)
        for arities in [(3,), (2,), (1, 3), (1, 2, 3)] * 4:
            ops = [rng.integers(0, 5, size=(5,) * arity) for arity in arities]
            ops = [np.where(rng.random(op.shape) < 0.9, 0, op) for op in ops]
            start = rng.integers(0, 5, size=(2, 2), dtype=np.uint8)
            rows, alive = zariski._close_rows(ops, start)
            assert not alive.size and len({row.tobytes() for row in rows}) == len(rows)
            assert {tuple(int(x) for x in row) for row in rows} == naive_row_closure(ops, start)
    # Wider rows over carriers whose cells pack into 1, 2, 4 and 8 bits, and
    # rows of two words.  The start columns repeat a few column patterns, so
    # the closure stays within n**patterns rows.
    for n, width, patterns, op_arities in [
        (2, 40, 4, [(2,), (1, 3)]),
        (3, 20, 3, [(2,), (1, 3)]),
        (5, 12, 2, [(2,), (1, 3)]),
        (17, 3, 2, [(2,), (1, 2)]),
        (5, 20, 2, [(2,), (1, 3)]),
    ]:
        rng = np.random.default_rng(n * width)
        row_set = zariski._RowSet(width, n - 1)
        assert row_set.bits == {2: 1, 3: 2, 5: 4, 17: 8}[n]
        assert row_set.dtype.itemsize == (16 if (n, width) == (5, 20) else 8)
        for block_entries in (zariski._BLOCK_ENTRIES, 7 * width):
            monkeypatch.setattr(zariski, "_BLOCK_ENTRIES", block_entries)
            for arities in op_arities:
                ops = [rng.integers(0, n, size=(n,) * arity) for arity in arities]
                ops = [np.where(rng.random(op.shape) < 0.5, 0, op) for op in ops]
                columns = rng.integers(0, n, size=(2, patterns), dtype=np.uint8)
                start = columns[:, rng.integers(0, patterns, size=width)]
                rows, alive = zariski._close_rows(ops, start)
                assert not alive.size and len({row.tobytes() for row in rows}) == len(rows)
                assert {tuple(int(x) for x in row) for row in rows} == naive_row_closure(
                    ops, start
                ), (n, width, arities)


ROW_SET_CARRIERS = [2, 3, 4, 5, 16, 17, 255, 256]


def row_set_widths(n):
    """Widths whose packed rows take 64 - b, 64, 64 + b, 128 and 128 + b bits."""
    bits = next(b for b in (1, 2, 4, 8) if (n - 1) >> b == 0)
    return bits, [64 // bits - 1, 64 // bits, 64 // bits + 1, 128 // bits, 128 // bits + 1]


def check_row_set_against_a_python_set(n):
    bits, widths = row_set_widths(n)
    rng = np.random.default_rng(n)
    for width in widths:
        row_set = zariski._RowSet(width, n - 1)
        assert row_set.bits >= bits and row_set.dtype.itemsize == 8 * -(-width * bits // 64)
        seen = set()
        for size in (0, 1, 1, 40, 300):
            # Few distinct cell values, so that batches repeat rows and old ones.
            rows = rng.choice([0, 1, n - 1], size=(size, width)).astype(np.uint8)
            rows[: size // 2] = rows[size // 2 : 2 * (size // 2)]
            keys = row_set.pack(rows)
            assert np.array_equal(row_set.unpack(keys), rows)
            assert row_set.contains(keys).tolist() == [row.tobytes() in seen for row in rows]
            fresh = {row.tobytes() for row in rows} - seen
            new_keys = row_set.add(keys)
            new_rows = row_set.unpack(new_keys)
            assert new_rows.shape == (len(fresh), width) and new_rows.dtype == np.uint8
            assert {row.tobytes() for row in new_rows} == fresh
            seen |= fresh
            assert len(row_set.keys) == len(seen)
            assert {row.tobytes() for row in row_set.unpack(row_set.keys)} == seen
            # The set is sorted by its sort keys, which belong to its keys.
            assert np.array_equal(np.sort(row_set.order), row_set.order)
            assert np.array_equal(row_set._order(row_set.keys), row_set.order)
            assert row_set.contains(keys).all()


@pytest.mark.parametrize("n", ROW_SET_CARRIERS)
def test_row_set_matches_a_python_set(n):
    check_row_set_against_a_python_set(n)


WIDE_TABLES = [(cyclic_group(17), 1), (quaternion_group(), 2), (dihedral_4(), 2),
               (cyclic_group(7), 2)]


@pytest.mark.parametrize(
    "fold", [lambda words: np.zeros(len(words), dtype=np.uint64), lambda words: words[:, 0].copy()]
)
def test_row_set_stays_exact_when_folds_collide(monkeypatch, fold):
    """Every fold equal, or the first word alone: colliding keys unfold the set."""
    ring = direct_product(cyclic_ring(2), cyclic_ring(6))[0]  # worklist rows of two words
    axes_points = axes(ring.size)

    def answers():
        monkeypatch.setattr(zariski, "_grid_cache", {})
        tables = [
            {row.tobytes() for row in term_function_table(algebra, n_vars)}
            for algebra, n_vars in WIDE_TABLES
        ]
        verdict = equational_domain_check(ring)
        witness = (verdict.witness["a"], verdict.witness["b"])
        inside = point_in_closure(ring, 2, axes_points, witness)
        return tables, verdict, inside

    expected = answers()
    assert expected[2]
    monkeypatch.setattr(zariski, "_fold", fold)
    assert answers() == expected
    for n in (2, 5, 17):
        check_row_set_against_a_python_set(n)
    row_set = zariski._RowSet(20, 4)
    row_set.add(row_set.pack(np.eye(20, dtype=np.uint8)))
    assert not row_set.folded


def test_keyed_row_kernel_matches_the_naive_closure(monkeypatch):
    """A payload column stays alive iff it is a function of the key on the whole closure."""
    rng = np.random.default_rng(23)
    cases = []
    for arities in [(2,), (1, 2), (1, 3)] * 4:
        ops = [rng.integers(0, 3, size=(3,) * arity) for arity in arities]
        ops = [np.where(rng.random(op.shape) < 0.5, 0, op) for op in ops]
        key_width, width = int(rng.integers(0, 3)), int(rng.integers(3, 5))
        # Columns repeat three patterns, so that some payload columns are
        # functions of the key and others are not.
        start = rng.integers(0, 3, size=(3, 3), dtype=np.uint8)[:, rng.integers(0, 3, size=width)]
        values = {}
        for row in naive_row_closure(ops, start):
            values.setdefault(row[:key_width], set()).add(row[key_width:])
        expected = [all(len({v[c] for v in vs}) == 1 for vs in values.values())
                    for c in range(width - key_width)]
        cases.append((ops, start, key_width, values, expected))
    assert any(any(e) and not all(e) for *_, e in cases)  # columns both kept and knocked out
    for block_entries in (zariski._BLOCK_ENTRIES, 7):  # 7: every block gathered on its own
        monkeypatch.setattr(zariski, "_BLOCK_ENTRIES", block_entries)
        for ops, start, key_width, values, expected in cases:
            rows, alive = zariski._close_rows(ops, start, key_width=key_width)
            assert alive.tolist() == expected
            keys = {tuple(int(x) for x in row[:key_width]) for row in rows}
            assert len(keys) == len(rows)
            if any(expected):
                assert keys == set(values)
                kept = [c for c, live in enumerate(expected) if live]
                for row in rows.tolist():
                    (value,) = {tuple(v[c] for c in kept) for v in values[tuple(row[:key_width])]}
                    assert tuple(row[key_width:]) == value


def test_close_rows_without_operations_keeps_the_distinct_start_rows():
    start = np.array([[3, 0, 1], [0, 0, 0], [3, 0, 1]], dtype=np.uint8)
    rows, alive = zariski._close_rows([], start)
    assert not alive.size
    assert sorted(map(tuple, rows.tolist())) == [(0, 0, 0), (3, 0, 1)]
    rows, alive = zariski._close_rows([], start[:0])
    assert not alive.size and rows.shape == (0, 3)
    # Keyed on two cells, the third a payload: equal payloads under one key
    # keep the column, and a second value under a key knocks it out.
    rows, alive = zariski._close_rows([], start, key_width=2)
    assert alive.tolist() == [True] and rows.tolist() == [[0, 0, 0], [3, 0, 1]]
    clash = np.array([[3, 0, 1, 2], [3, 0, 2, 2]], dtype=np.uint8)
    rows, alive = zariski._close_rows([], clash, key_width=2)
    assert alive.tolist() == [False, True] and rows.tolist() == [[3, 0, 2]]


def test_worklist_separator_past_the_row_cap_keeps_its_verdict(monkeypatch):
    """The reference worklist keeps its verdict past the kernel's row cap, which it does not read.

    The kernel's own knock-out past the cap is checked in test_keyed_route.py.
    """
    s3, pts, cand = symmetric_group_3(), [(0, 2), (4, 1)], (5, 0)
    assert not worklist_membership(s3, pts, cand)
    monkeypatch.setattr(zariski, "_BLOCK_ENTRIES", 8)
    monkeypatch.setattr(zariski, "WORKLIST_ROW_CAP", 7)  # passed before the separator forms
    assert not worklist_membership(s3, pts, cand)
    start = np.concatenate([np.zeros((1, 3)), np.array([*pts, cand]).T]).astype(np.uint8)
    with pytest.raises(zariski._GridOverflow):  # the 12 rows of the full closure pass the cap
        zariski._close_rows(zariski._signature_ops(s3), start, 7)


def test_round_without_stop_ends_at_the_block_that_passes_the_row_cap(monkeypatch):
    s3 = symmetric_group_3()
    ops, start = zariski._signature_ops(s3), zariski._projection_rows(s3, 2)
    monkeypatch.setattr(zariski, "_BLOCK_ENTRIES", start.shape[1])  # one row a block
    formed = []
    op_values = zariski._op_values

    def counted(op, axes):
        for block in op_values(op, axes):
            formed.append(block)
            yield block

    monkeypatch.setattr(zariski, "_op_values", counted)
    zariski._close_rows(ops, start, steps=1)
    first_round = len(formed)
    formed.clear()
    with pytest.raises(zariski._GridOverflow):
        zariski._close_rows(ops, start, row_cap=len(start) + 1)
    assert 0 < len(formed) < first_round


MULTIADDITIVE = [
    (cyclic_group(6), 1),
    (cyclic_group(3), 2),
    (klein_four_group(), 2),
    (cyclic_ring(4), 1),
    (cyclic_ring(5), 1),
    (cyclic_ring(2), 3),
    (field_f4(), 1),
    (dual_numbers_f2(), 1),
    (null_ring_klein(), 2),
    (abelian_lie_f2(), 2),
]


def reference_is_multiadditive(algebra):
    """The per-element loop: one check of every slot for each first argument a."""
    add = algebra.arrays.add
    if not (add == add.T).all():
        return False
    for op in algebra.arrays.ops:
        for slot in range(op.ndim):
            moved = np.moveaxis(op, slot, 0)
            for a in range(algebra.size):
                if not (moved[add[a]] == add[moved[a], moved]).all():
                    return False
    return True


def test_multiadditive_scan_matches_the_loop(monkeypatch):
    z4 = cyclic_ring(4)
    one_off = list(z4.omega[0].table)
    one_off[-1] = 0  # 3*3 = 0 breaks additivity at a few checks only
    algebras = [algebra for algebra, _ in MULTIADDITIVE + unary_ternary_algebras()]
    algebras += [*CATALOG.values(), validate_algebra("Z4-off", 4, z4.add, [("mul", 2, one_off)])]
    expected = [reference_is_multiadditive(algebra) for algebra in algebras]
    assert True in expected and False in expected
    assert [zariski._is_multiadditive(algebra) for algebra in algebras] == expected
    # The flag above may come from the algebra's cache; the scan itself runs here.
    monkeypatch.setattr(core, "_LAW_BLOCK_ENTRIES", 7)  # blocks of one or a few first arguments
    assert [core._scan_multiadditive(algebra) for algebra in algebras] == expected


def test_spanning_tables_match_the_subalgebra_closure():
    for algebra, n_vars in MULTIADDITIVE:
        assert zariski._is_multiadditive(algebra)
        start = zariski._projection_rows(algebra, n_vars)
        spanned = zariski._grid_table_spanning(algebra, start[1:], zariski.GRID_ROW_CAP)
        closed, _ = zariski._close_rows(zariski._signature_ops(algebra), start)
        assert len({row.tobytes() for row in spanned}) == len(spanned)
        assert {row.tobytes() for row in spanned} == {row.tobytes() for row in closed}
        # The span overflows exactly when it has more rows than the cap.
        cap = len(spanned)
        assert len(zariski._grid_table_spanning(algebra, start[1:], cap)) == cap
        with pytest.raises(zariski._GridOverflow):
            zariski._grid_table_spanning(algebra, start[1:], cap - 1)


def additive_order(algebra, row):
    """The least k >= 1 with k*row = 0, by repeated addition."""
    add, total, k = algebra.arrays.add, row.astype(np.intp), 1
    while total.any():
        total, k = add[total, row], k + 1
    return k


def test_span_size_counts_the_spanning_tables():
    """The elimination's pivot product is the table's size, and the order product bounds it."""
    pairs = MULTIADDITIVE + [
        (algebra, 1) for algebra in CATALOG.values() if zariski._is_multiadditive(algebra)
    ]
    pairs += [(CATALOG[name], 2) for name in ("Z2-ring", "Z3-ring", "Z4-ring", "F4-ring",
                                              "null-ring-4", "abelian-lie-4", "V4-group")]
    pairs.append((direct_product(cyclic_ring(2), cyclic_ring(3))[0], 2))
    for algebra, n_vars in pairs:
        monomials = zariski._monomial_rows(
            algebra, zariski._projection_rows(algebra, n_vars)[1:], zariski.GRID_ROW_CAP
        )
        size = zariski._span_size(algebra, monomials)
        table = term_function_table(algebra, n_vars)
        assert size == len(table), (algebra.name, n_vars)
        assert table.flags.f_contiguous  # column-major: the zero bitsets are packed from columns
        bound = np.prod([additive_order(algebra, row) for row in monomials], dtype=object)
        assert bound >= size, (algebra.name, n_vars)
    assert size == 52_488  # Z2-ring x Z3-ring at 2 variables


@pytest.mark.parametrize("n, n_vars, size", [(11, 1, 11**10), (13, 1, 13**12), (5, 2, 5**24)])
def test_spans_past_the_cap_are_refused_with_their_exact_size(n, n_vars, size):
    ring = cyclic_ring(n)
    start = zariski._projection_rows(ring, n_vars)
    with pytest.raises(zariski._GridOverflow) as refused:
        zariski._grid_table_spanning(ring, start[1:], zariski.GRID_ROW_CAP)
    assert refused.value.args == (size,)


@pytest.mark.parametrize("n", [13, 11])
def test_spans_past_the_cap_are_refused_before_any_row_is_formed(monkeypatch, n):
    monkeypatch.setattr(zariski, "_grid_cache", {})  # a miss, whatever ran before
    ring = cyclic_ring(n)
    tracemalloc.start()
    try:
        assert term_function_table(ring, 1) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # forming the rows up to the cap takes 14 to 39 MB


def test_oracle_agreement_on_guarded_instances():
    targets = [
        cyclic_ring(2),
        cyclic_ring(3),
        cyclic_ring(4),
        cyclic_group(2),
        cyclic_group(4),
        klein_four_group(),
    ]
    for algebra in targets:
        n = algebra.size
        instances = [axes(n), {(1, 1)}, set(), {(0, 1), (1, 0), (1, 1)}]
        for pts in instances:
            oracle = bounded_depth_ideal_oracle(algebra, 2, pts, 4)
            closure = zariski_closure(algebra, 2, pts)
            assert oracle == closure, (algebra.name, sorted(pts))


def test_oracle_is_a_superset_at_low_depth():
    z4r = cyclic_ring(4)
    for pts in (axes(4), {(1, 2)}, set()):
        shallow = bounded_depth_ideal_oracle(z4r, 2, pts, 1)
        closure = zariski_closure(z4r, 2, pts)
        assert closure <= shallow


def test_oracle_matches_the_full_width_oracle():
    """The narrowed last round against every round over the whole grid.

    Where only the full-width last round passes the entry budget (ternary
    operations at two variables and depth 3), the narrowed round fits and
    answers; its answer still lies between the closure and depth - 1.
    """
    rng = random.Random(15)
    narrowed_only = 0
    cases = [(algebra, n_vars) for algebra in SMALL_FOUR for n_vars in (1, 2)]
    cases += [(algebra, n_vars) for algebra, _ in unary_ternary_algebras() for n_vars in (1, 2)]
    for algebra, n_vars in cases:
        cells = list(grid_points(algebra.size, n_vars))
        for depth in range(5):
            point_sets = [set(rng.sample(cells, min(k, len(cells)))) for k in range(6)]
            expected = full_width_oracle(algebra, n_vars, point_sets, depth)
            for i, pts in enumerate(point_sets):
                case = (algebra.name, n_vars, depth, sorted(pts))
                if expected is not None:
                    assert bounded_depth_ideal_oracle(algebra, n_vars, pts, depth) == expected[i], case
                elif full_width_oracle(algebra, n_vars, [pts], depth - 1) is None:
                    with pytest.raises(TooLargeError):
                        bounded_depth_ideal_oracle(algebra, n_vars, pts, depth)
                else:
                    narrowed_only += 1
                    got = bounded_depth_ideal_oracle(algebra, n_vars, pts, depth)
                    shallower = bounded_depth_ideal_oracle(algebra, n_vars, pts, depth - 1)
                    assert zariski_closure(algebra, n_vars, pts) <= got <= shallower, case
    assert narrowed_only == 12


def test_restricting_rows_commutes_with_closing_them():
    """Operations act componentwise, so the closure of the start restricted
    to the columns S is the closure restricted to S, round by round."""
    rng = random.Random(3)
    for algebra in (cyclic_ring(4), symmetric_group_3()):
        assert zariski._is_multiadditive(algebra) == (algebra.name == "Z4-ring")
        ops = zariski._signature_ops(algebra)
        start = zariski._projection_rows(algebra, 2)
        width = start.shape[1]
        for depth in range(4):
            rows, _ = zariski._close_rows(ops, start, steps=depth)
            for _ in range(6):
                cols = sorted(rng.sample(range(width), rng.randint(1, width)))
                narrowed, _ = zariski._close_rows(ops, start[:, cols], steps=depth)
                assert len({row.tobytes() for row in narrowed}) == len(narrowed)
                assert {row.tobytes() for row in narrowed} == {
                    row.tobytes() for row in rows[:, cols]
                }, (algebra.name, depth, cols)


def test_oracle_guard():
    with pytest.raises(TooLargeError):
        bounded_depth_ideal_oracle(cyclic_ring(5), 2, set(), 4)
    with pytest.raises(TooLargeError):
        bounded_depth_ideal_oracle(cyclic_ring(4), 2, set(), 5)


@pytest.fixture
def no_row_kernel(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the row kernel ran")

    monkeypatch.setattr(zariski, "_close_rows", no_work)
    monkeypatch.setattr(zariski, "_projection_rows", no_work)


def test_oracle_refuses_a_negative_depth_before_any_work(no_row_kernel):
    """A negative depth never meets the round count, so it would close without bound."""
    for algebra in (cyclic_ring(3), cyclic_ring(4), cyclic_ring(5)):
        for depth in (-1, -5):
            with pytest.raises(InvalidArgumentError, match="max_depth"):
                bounded_depth_ideal_oracle(algebra, 2, axes(algebra.size), depth)


def test_oracle_refuses_a_non_integer_depth_before_any_work(no_row_kernel):
    """2.5 passes both range guards but never meets the round count either."""
    for algebra in (cyclic_ring(3), cyclic_ring(4), cyclic_ring(5)):
        for depth in (2.5, 3.0, np.float64(2), "3", None):
            with pytest.raises(InvalidArgumentError, match="max_depth"):
                bounded_depth_ideal_oracle(algebra, 2, axes(algebra.size), depth)


def test_oracle_takes_a_numpy_integer_depth():
    z4r = cyclic_ring(4)
    for depth in range(5):
        assert bounded_depth_ideal_oracle(z4r, 2, axes(4), np.int64(depth)) == (
            bounded_depth_ideal_oracle(z4r, 2, axes(4), depth)
        )


def test_equational_domain_examples():
    assert equational_domain_check(cyclic_ring(3)).verdict
    z4 = equational_domain_check(cyclic_ring(4))
    assert not z4.verdict and z4.witness == {"a": 2, "b": 2}
    z2g = equational_domain_check(cyclic_group(2))
    assert not z2g.verdict


def test_algebraic_set_lattice_z3():
    report = enumerate_algebraic_sets(cyclic_ring(3), 1)
    sets = {frozenset(x for (x,) in s) for s in report.algebraic_sets}
    assert sets == {frozenset({0}), frozenset({0, 1}), frozenset({0, 2}), frozenset({0, 1, 2})}
    assert report.join_equals_union
    assert report.distributive
    assert report.intersection_closed


def test_algebraic_set_lattice_z4_contains_documented_sets():
    report = enumerate_algebraic_sets(cyclic_ring(4), 1)
    sets = {frozenset(x for (x,) in s) for s in report.algebraic_sets}
    for expected in ({0}, {0, 2}, {0, 1, 3}, {0, 1, 2, 3}):
        assert frozenset(expected) in sets
    assert report.intersection_closed


def test_lattice_trivial_members(small_algebras):
    for algebra in small_algebras.values():
        report = enumerate_algebraic_sets(algebra, 1)
        sets = set(report.algebraic_sets)
        assert frozenset({(0,)}) in sets
        assert frozenset((x,) for x in algebra.elements) in sets
        if equational_domain_check(algebra).verdict:
            assert report.join_equals_union and report.distributive, algebra.name


def test_lattice_n2_guard_and_small_case():
    from omegagroups.catalog import matrix_ring_m2_f2

    report = enumerate_algebraic_sets(cyclic_ring(3), 2)
    assert report.join_equals_union and report.distributive
    with pytest.raises(TooLargeError):
        enumerate_algebraic_sets(cyclic_ring(4), 2)
    with pytest.raises(TooLargeError):
        enumerate_algebraic_sets(matrix_ring_m2_f2(), 1)
    with pytest.raises(TooLargeError):
        enumerate_algebraic_sets(cyclic_ring(2), 3)
    for n_vars in (0, -1):  # fewer than one variable is a bad argument, not a large one
        with pytest.raises(InvalidArgumentError):
            enumerate_algebraic_sets(cyclic_ring(3), n_vars)


def reference_enumerate_algebraic_sets(algebra, n_vars):
    """The lattice by one public closure call per subset and a memoized join."""
    cells = list(grid_points(algebra.size, n_vars))
    algebraic = []
    for mask in range(1 << len(cells)):
        subset = frozenset(cells[i] for i in range(len(cells)) if mask >> i & 1)
        if zariski_closure(algebra, n_vars, subset) == subset:
            algebraic.append(subset)

    closure_of = {}

    def join(a, b):
        u = a | b
        if u not in closure_of:
            closure_of[u] = zariski_closure(algebra, n_vars, u)
        return closure_of[u]

    algebraic_set = set(algebraic)
    join_is_union, union_counterexample, intersection_closed = True, None, True
    for a in algebraic:
        for b in algebraic:
            if (a | b) not in algebraic_set and join(a, b) != (a | b):
                if join_is_union:
                    union_counterexample = (a, b)
                join_is_union = False
            if (a & b) not in algebraic_set:
                intersection_closed = False

    distributivity_counterexample = None
    if not join_is_union:
        distributivity_counterexample = next(
            ((a, b, c) for a in algebraic for b in algebraic for c in algebraic
             if a & join(b, c) != join(a & b, a & c)),
            None,
        )
    return zariski.LatticeReport(
        n_vars=n_vars,
        algebraic_sets=tuple(sorted(algebraic, key=lambda s: (len(s), sorted(s)))),
        join_equals_union=join_is_union,
        union_counterexample=union_counterexample,
        intersection_closed=intersection_closed,
        distributive=distributivity_counterexample is None,
        distributivity_counterexample=distributivity_counterexample,
    )


LATTICE_CASES = (
    [(algebra, 1) for algebra in CATALOG.values() if algebra.size <= 8]
    + [(make(n), 2) for make in (cyclic_group, cyclic_ring) for n in (2, 3)]
    + unary_ternary_algebras()
    + [(cyclic_ring(n), 1) for n in (6, 7, 8)]
    + [
        (direct_product(CATALOG[left], CATALOG[right])[0], 1)
        for left in CATALOG
        for right in CATALOG
        if left <= right
        and CATALOG[left].signature == CATALOG[right].signature
        and CATALOG[left].size * CATALOG[right].size <= 8
    ]
)
# Off-table cases: distributivity counterexamples (Z3-group^2, Z8-ring), a
# union counterexample in a distributive lattice (Z6-ring) and a ternary op.
OFF_TABLE_CASES = [(cyclic_group(3), 2), (cyclic_ring(8), 1), (cyclic_ring(6), 1),
                   unary_ternary_algebras()[0]]


def test_lattice_matches_the_reference(monkeypatch):
    for name in ("zariski_closure", "closure_excess_point", "point_in_closure", "is_algebraic"):
        monkeypatch.setattr(zariski, name, None)  # the lattice calls no public closure
    reports = {}
    for algebra, n_vars in LATTICE_CASES:
        expected = reference_enumerate_algebraic_sets(algebra, n_vars)  # imported closure
        assert enumerate_algebraic_sets(algebra, n_vars) == expected, (algebra.name, n_vars)
        reports[algebra.name, n_vars] = expected
    assert not reports["Z3-group", 2].distributive
    assert not reports["Z8-ring", 1].distributive
    assert not reports["Z6-ring", 1].join_equals_union and reports["Z6-ring", 1].distributive


@pytest.mark.parametrize("route", ["percandidate", "overflow"])
def test_lattice_off_the_table_matches_the_reference(monkeypatch, route):
    expected = [reference_enumerate_algebraic_sets(*case) for case in OFF_TABLE_CASES]
    monkeypatch.setattr(zariski, "_grid_cache", {})
    if route == "percandidate":
        monkeypatch.setattr(zariski, "GRID_CELL_LIMIT", 0)
    else:
        monkeypatch.setattr(zariski, "GRID_ROW_CAP", 3)
    for (algebra, n_vars), report in zip(OFF_TABLE_CASES, expected):
        assert enumerate_algebraic_sets(algebra, n_vars) == report, algebra.name
    assert all(table is None for table in zariski._grid_cache.values())


def test_grid_table_known_sizes():
    assert term_function_table(cyclic_ring(2), 2).shape[0] == 8
    assert term_function_table(cyclic_ring(3), 2).shape[0] == 3**8
    assert term_function_table(cyclic_ring(4), 2).shape[0] == 16384
    assert term_function_table(null_ring_klein(), 2).shape[0] == 4


def test_table_takes_no_row_cap_argument():
    with pytest.raises(TypeError):
        term_function_table(cyclic_ring(4), 1, row_cap=5)


def unvalidated_cyclic_group(n):
    """Z_n built without validate_algebra, whose cubic scan is slow at n > 256."""
    add = tuple((a + b) % n for a in range(n) for b in range(n))
    return FiniteOmegaGroup(f"Z{n}-group", n, add, tuple(-a % n for a in range(n)), ())


def test_carriers_above_256_are_refused():
    z257 = unvalidated_cyclic_group(257)
    calls = [
        lambda: zariski_closure(z257, 1, [(1,)]),
        lambda: closure_excess_point(z257, 1, [(1,)]),
        lambda: point_in_closure(z257, 1, [(1,)], (2,)),
        lambda: is_algebraic(z257, 1, [(1,)]),
        lambda: equational_domain_check(z257),
        lambda: term_function_table(z257, 1),
        lambda: enumerate_algebraic_sets(z257, 1),
        lambda: bounded_depth_ideal_oracle(z257, 1, [(1,)], 1),
    ]
    for call in calls:
        with pytest.raises(TooLargeError):
            call()
    assert point_in_closure(unvalidated_cyclic_group(256), 1, [(1,)], (255,))


def test_bad_arguments_are_value_errors_of_the_package():
    z3 = cyclic_ring(3)
    with pytest.raises(InvalidArgumentError):
        zariski_closure(z3, 2, [(9, 9)])
    for points in ([(0,), (1,), (2,)], [(1,)]):  # the whole grid, and a proper subset
        with pytest.raises(InvalidArgumentError):
            zariski_closure(z3, 1, points, method="bogus")
    for candidate in ((9, 9), (-1, 0), (1,)):
        with pytest.raises(InvalidArgumentError):
            point_in_closure(z3, 2, [(1, 0)], candidate)
    with pytest.raises(ValueError):
        solve_system(z3, EquationSystem(0, ()))
    z4 = cyclic_ring(4)
    malformed = [
        lambda: point_in_closure(z4, 2, [(0, 1)], (1.5, 0)),  # not answered as (1, 0)
        lambda: zariski_closure(z4, 2, [(0.5, 1)]),
        lambda: zariski_closure(z4, 2, [("1", 1)]),
        lambda: is_algebraic(z4, 2, [(0, 9)]),
        lambda: point_in_closure(z4, 0, [], ()),
        lambda: bounded_depth_ideal_oracle(z4, 0, [], 2),
    ]
    for call in malformed:
        with pytest.raises(InvalidArgumentError):
            call()
    too_many = [  # 4^8000 and 3^9500 have more digits than Python will print
        lambda: zariski_closure(z4, 8000, []),
        lambda: zariski_closure(cyclic_ring(3), 9500, [], guard=10**3000),
        lambda: is_algebraic(z4, 8000, []),
        lambda: solve_system(z4, EquationSystem(8000, ())),
        lambda: equational_domain_check(z4, guard=15),
    ]
    for call in too_many:
        with pytest.raises(TooLargeError):
            call()


def test_public_queries_check_each_argument_once(monkeypatch):
    calls = []
    for name in ("_validate_points", "_check_guard", "_check_carrier"):
        check = getattr(zariski, name)
        monkeypatch.setattr(
            zariski, name, lambda *args, name=name, check=check: calls.append(name) or check(*args)
        )
    z5 = cyclic_ring(5)  # 25 cells: off the table, which checks the carrier itself
    for query in (lambda: is_algebraic(z5, 2, axes(5)), lambda: equational_domain_check(z5)):
        calls.clear()
        query()
        assert sorted(calls) == ["_check_carrier", "_check_guard", "_validate_points"]


def test_closures_take_no_prefilter_argument():
    z3 = cyclic_ring(3)
    with pytest.raises(TypeError):
        zariski_closure(z3, 2, [(1, 0)], prefilter=False)
    with pytest.raises(TypeError):
        point_in_closure(z3, 2, [(1, 0)], (1, 1), prefilter=False)
