"""The vectorized law scans of core.py against the element-at-a-time loops.

The reference below is the plain triple loop over (a, b, c) in row-major
order, checking the laws in a fixed order at each triple, as the library
once did.  Every broken table must fail with the same error type and the
same message: the same first failing tuple and, there, the same first law.
"""

import random
from itertools import product as iproduct

import numpy as np
import pytest

from omegagroups import core
from omegagroups.catalog import build_catalog, cyclic_group, klein_four_group, symmetric_group_3
from omegagroups.core import as_lie_ring, as_ring, validate_algebra
from omegagroups.errors import AlgebraError, LawViolationError, NotAGroupError


def ref_validate_algebra(name, size, add, omega=()):
    """The identity and associativity loops, then the library for the rest."""
    add_t = tuple(add)
    for a in range(size):
        if add_t[a] != a or add_t[a * size] != a:
            raise NotAGroupError(f"{name}: index 0 is not a two-sided identity at element {a}")
    for a in range(size):
        for b in range(size):
            ab = add_t[a * size + b]
            for c in range(size):
                if add_t[ab * size + c] != add_t[a * size + add_t[b * size + c]]:
                    raise NotAGroupError(f"{name}: addition not associative at ({a},{b},{c})")
    return validate_algebra(name, size, add, omega)


def ref_as_ring(name, add, mul):
    size = round(len(add) ** 0.5)
    algebra = ref_validate_algebra(name, size, add, [("mul", 2, mul)])
    for a in range(size):
        for b in range(size):
            if algebra.add_of(a, b) != algebra.add_of(b, a):
                raise LawViolationError(f"{name}: ring addition not commutative at ({a},{b})")
    mul_of = lambda a, b: algebra.op("mul", a, b)
    for a, b, c in iproduct(range(size), repeat=3):
        if mul_of(mul_of(a, b), c) != mul_of(a, mul_of(b, c)):
            raise LawViolationError(f"{name}: multiplication not associative at ({a},{b},{c})")
        if mul_of(a, algebra.add_of(b, c)) != algebra.add_of(mul_of(a, b), mul_of(a, c)):
            raise LawViolationError(f"{name}: left distributivity fails at ({a},{b},{c})")
        if mul_of(algebra.add_of(a, b), c) != algebra.add_of(mul_of(a, c), mul_of(b, c)):
            raise LawViolationError(f"{name}: right distributivity fails at ({a},{b},{c})")
    return algebra


def ref_as_lie_ring(name, p, add, bracket):
    size = round(len(add) ** 0.5)
    base = ref_validate_algebra(name, size, add)
    scalars = []
    for k in range(p):
        table = []
        for a in range(size):
            acc = 0
            for _ in range(k):
                acc = base.add_of(acc, a)
            table.append(acc)
        scalars.append((f"s{k}", 1, table))
    algebra = validate_algebra(name, size, add, [("bracket", 2, bracket)] + scalars)
    br = lambda a, b: algebra.op("bracket", a, b)
    for a in range(size):
        for b in range(size):
            if algebra.add_of(a, b) != algebra.add_of(b, a):
                raise LawViolationError(f"{name}: addition not commutative at ({a},{b})")
        acc = 0
        for _ in range(p):
            acc = algebra.add_of(acc, a)
        if acc != 0:
            raise LawViolationError(f"{name}: additive exponent is not {p} at {a}")
        if br(a, a) != 0:
            raise LawViolationError(f"{name}: bracket not alternating at {a}")
    for a, b, c in iproduct(range(size), repeat=3):
        if br(algebra.add_of(a, b), c) != algebra.add_of(br(a, c), br(b, c)):
            raise LawViolationError(f"{name}: bracket not additive on the left at ({a},{b},{c})")
        if br(a, algebra.add_of(b, c)) != algebra.add_of(br(a, b), br(a, c)):
            raise LawViolationError(f"{name}: bracket not additive on the right at ({a},{b},{c})")
        jac = algebra.add_of(algebra.add_of(br(a, br(b, c)), br(b, br(c, a))), br(c, br(a, b)))
        if jac != 0:
            raise LawViolationError(f"{name}: Jacobi identity fails at ({a},{b},{c})")
    return algebra


def outcome(build, *args):
    """(error type, message) of a failed build, or None."""
    try:
        build(*args)
    except AlgebraError as exc:
        return type(exc).__name__, str(exc)
    return None


def law_of(result):
    """The law a failure message names: its text between the name and ' at '."""
    return None if result is None else result[1].split(": ", 1)[1].rsplit(" at ", 1)[0]


def random_binary(rng, size, zero_rate):
    """A random table sending (0, 0) to 0, mostly zero when zero_rate is high."""
    table = [0 if rng.random() < zero_rate else rng.randrange(size) for _ in range(size * size)]
    table[0] = 0
    return table


ADDITIONS = {
    "Z2": cyclic_group(2).add,
    "Z3": cyclic_group(3).add,
    "Z4": cyclic_group(4).add,
    "V4": klein_four_group().add,
    "Z6": cyclic_group(6).add,
    "S3": symmetric_group_3().add,
}


def broken_loops(rng, size, count):
    """Tables with a two-sided identity 0, most of them not associative."""
    for _ in range(count):
        table = [(a + b) % size for a in range(size) for b in range(size)]
        a, b = rng.randrange(1, size), rng.randrange(1, size)
        table[a * size + b] = rng.randrange(size)
        yield table


def test_addition_associativity_matches_reference():
    rng = random.Random(41)
    laws = set()
    for size in (3, 4, 5, 6):
        for add in broken_loops(rng, size, 25):
            expected = outcome(ref_validate_algebra, "loop", size, add)
            assert outcome(validate_algebra, "loop", size, add) == expected, add
            laws.add(law_of(expected))
    assert "addition not associative" in laws


def test_ring_laws_match_reference():
    rng = random.Random(42)
    laws = set()
    for group, add in ADDITIONS.items():
        size = round(len(add) ** 0.5)
        for zero_rate in (0.5, 0.8, 0.95):
            for _ in range(20):
                mul = random_binary(rng, size, zero_rate)
                expected = outcome(ref_as_ring, group, add, mul)
                assert outcome(as_ring, group, add, mul) == expected, (group, mul)
                laws.add(law_of(expected))
    assert {
        "ring addition not commutative",
        "multiplication not associative",
        "left distributivity fails",
        "right distributivity fails",
    } <= laws


def test_lie_ring_laws_match_reference():
    rng = random.Random(43)
    laws = set()
    for group, add in ADDITIONS.items():
        size = round(len(add) ** 0.5)
        for p in (2, 3):
            for zero_rate in (0.6, 0.9, 1.0):
                for _ in range(15):
                    bracket = random_binary(rng, size, zero_rate)
                    expected = outcome(ref_as_lie_ring, group, p, add, bracket)
                    assert outcome(as_lie_ring, group, p, add, bracket) == expected
                    laws.add(law_of(expected))
    jacobi_only = bracket_failing_only_jacobi()
    expected = outcome(ref_as_lie_ring, "F2^3", 2, jacobi_only[0], jacobi_only[1])
    assert outcome(as_lie_ring, "F2^3", 2, *jacobi_only) == expected
    laws.add(law_of(expected))
    assert {
        "addition not commutative",
        "additive exponent is not 2",
        "additive exponent is not 3",
        "bracket not alternating",
        "bracket not additive on the left",
        "bracket not additive on the right",
        "Jacobi identity fails",
    } <= laws


def bracket_failing_only_jacobi():
    """F2^3 with an alternating bilinear bracket that breaks the Jacobi identity.

    Elements are bit vectors; [e0, e1] = e1, [e0, e2] = e0, [e1, e2] = e2.
    """
    basis_bracket = {(0, 1): 0b010, (0, 2): 0b001, (1, 2): 0b100}

    def bracket(x, y):
        out = 0
        for (i, j), value in basis_bracket.items():
            coefficient = (x >> i & 1) * (y >> j & 1) ^ (x >> j & 1) * (y >> i & 1)
            out ^= value * coefficient
        return out

    add = [x ^ y for x in range(8) for y in range(8)]
    return add, [bracket(x, y) for x in range(8) for y in range(8)]


def test_first_failure_finds_the_last_check_across_blocks(monkeypatch):
    size, laws = 7, 3

    def only_last(a):
        failed = np.zeros((len(a), size, size, laws), dtype=bool)
        failed[a == size - 1, -1, -1, -1] = True
        return failed

    for block in (core._LAW_BLOCK_ENTRIES, 1, 2 * size * size * laws):
        monkeypatch.setattr(core, "_LAW_BLOCK_ENTRIES", block)
        assert core._first_failure(size, laws * size * size, only_last) == (6, 6, 6, 2)
        assert core._first_failure(size, laws * size * size, lambda a: only_last(a) & False) is None


def ref_associativity_failure(table):
    """The first (a, b, c) in row-major order with (a.b).c != a.(b.c), or None."""
    size = len(table)
    for a, b, c in iproduct(range(size), repeat=3):
        if table[table[a, b], c] != table[a, table[b, c]]:
            return (a, b, c)
    return None


def test_associativity_scan_matches_the_loop(monkeypatch):
    """One scan serves the addition check and the associative-product fact."""
    add, bracket = bracket_failing_only_jacobi()  # bilinear, and not associative
    algebras = [entry.algebra for entry in build_catalog()]
    algebras.append(validate_algebra("F2^3-bracket", 8, add, [("bracket", 2, bracket)]))
    tables = [a.arrays.add for a in algebras]
    tables += [op for a in algebras for op in a.arrays.ops if op.ndim == 2]
    expected = [ref_associativity_failure(table) for table in tables]
    assert expected[-1] is not None and None in expected
    facts = [len(a.arrays.ops) == 1 and a.arrays.ops[0].ndim == 2
             and ref_associativity_failure(a.arrays.ops[0]) is None for a in algebras]
    assert sum(facts) == 9 and not facts[-1]  # the catalog rings
    monkeypatch.setattr(core, "_LAW_BLOCK_ENTRIES", 7)  # blocks of one or a few first arguments
    assert [core._associativity_failure(table) for table in tables] == expected
    assert [core._scan_associative_product(a) for a in algebras] == facts


def test_law_scans_in_small_blocks_match_reference(monkeypatch):
    monkeypatch.setattr(core, "_LAW_BLOCK_ENTRIES", 5)  # one first argument per block
    rng = random.Random(44)
    for _ in range(30):
        mul = random_binary(rng, 4, 0.8)
        add = ADDITIONS["Z4"]
        assert outcome(as_ring, "Z4", add, mul) == outcome(ref_as_ring, "Z4", add, mul)
    add, bracket = bracket_failing_only_jacobi()
    assert outcome(as_lie_ring, "F2^3", 2, add, bracket) == outcome(
        ref_as_lie_ring, "F2^3", 2, add, bracket
    )


@pytest.mark.parametrize("size", [1, 2, 9])
def test_valid_tables_pass_both(size):
    add = [(a + b) % size for a in range(size) for b in range(size)]
    mul = [(a * b) % size for a in range(size) for b in range(size)]
    assert outcome(as_ring, "Zn", add, mul) is None
    assert outcome(ref_as_ring, "Zn", add, mul) is None
