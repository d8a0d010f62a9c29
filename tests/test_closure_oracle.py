"""The vectorized closure engine against per-element reference definitions.

The reference below is the element-at-a-time form of the definitions: plain
loops over members, ambient elements and operation tuples, with the
omega-commutator taken from terms.omega_commutator.  Least ideals are
intersections of the ideals the reference predicate finds by subset scan,
so nothing here shares code with closures.py.
"""

import random
import sys
import threading
from itertools import product as iproduct

from hypothesis import given, settings
from hypothesis import strategies as st

from omegagroups import closures
from omegagroups.catalog import build_catalog, cyclic_group, symmetric_group_3
from omegagroups.closures import (
    commutator_group_is_trivial,
    enumerate_ideals,
    enumerate_omega_subgroups,
    generated_subgroup,
    ideal_closure,
    is_ideal,
    is_omega_subgroup,
    omega_subgroup_closure,
    principal_ideal,
)
from omegagroups.core import direct_product, validate_algebra
from omegagroups.terms import omega_commutator

CATALOG = {entry.name: entry.algebra for entry in build_catalog()}
PRODUCT_PAIRS = sorted(
    (left, right)
    for left, h1 in CATALOG.items()
    for right, h2 in CATALOG.items()
    if h1.signature == h2.signature and h1.size * h2.size <= 16
)


def ref_is_omega_subgroup(algebra, subset):
    if 0 not in subset:
        return False
    members = sorted(subset)
    for a in members:
        if algebra.neg_of(a) not in subset:
            return False
        for b in members:
            if algebra.add_of(a, b) not in subset:
                return False
    for table in algebra.omega:
        for args in iproduct(members, repeat=table.arity):
            if algebra.op(table.name, *args) not in subset:
                return False
    return True


def ref_is_ideal(algebra, subset, ambient=None):
    amb = sorted(ambient) if ambient is not None else list(algebra.elements)
    if not subset <= set(amb) or 0 not in subset:
        return False
    members = sorted(subset)
    for a in members:
        if algebra.neg_of(a) not in subset:
            return False
        for b in members:
            if algebra.add_of(a, b) not in subset:
                return False
    for u in members:
        for p in amb:
            if algebra.conjugate(u, p) not in subset:
                return False
    for table in algebra.omega:
        for args in iproduct(members, repeat=table.arity):
            if algebra.op(table.name, *args) not in subset:
                return False
        for a_tuple in iproduct(members, repeat=table.arity):
            for b_tuple in iproduct(amb, repeat=table.arity):
                if omega_commutator(algebra, table.name, a_tuple, b_tuple) not in subset:
                    return False
    return True


def ref_commutator_group_is_trivial(algebra, a_set, b_set):
    """Generators in scan order: group commutators lexicographic in (a, b),
    then per operation lexicographic in (a-tuple, b-tuple)."""
    a_sorted, b_sorted = sorted(a_set), sorted(b_set)
    for a in a_sorted:
        for b in b_sorted:
            if algebra.group_commutator(a, b) != 0:
                return False, ("commutator", a, b)
    for table in algebra.omega:
        for a_tuple in iproduct(a_sorted, repeat=table.arity):
            for b_tuple in iproduct(b_sorted, repeat=table.arity):
                if omega_commutator(algebra, table.name, a_tuple, b_tuple) != 0:
                    return False, ("omega-commutator", table.name, a_tuple, b_tuple)
    return True, None


def ref_ideals(algebra, ambient):
    amb = sorted(ambient)
    subsets = (
        frozenset(x for i, x in enumerate(amb) if mask >> i & 1)
        for mask in range(1, 1 << len(amb), 2)  # amb[0] is 0
    )
    return [s for s in subsets if ref_is_ideal(algebra, s, ambient)]


def check_against_reference(algebra):
    whole = frozenset(algebra.elements)
    subgroups = sorted({generated_subgroup(algebra, a) for a in algebra.elements}, key=sorted)
    for subgroup in subgroups:
        assert ref_is_omega_subgroup(algebra, subgroup)

    inner = max(subgroups, key=lambda s: (len(s) < algebra.size, len(s), sorted(s)))
    for ambient in (None, inner):
        amb = whole if ambient is None else ambient
        ideals = ref_ideals(algebra, amb)
        assert enumerate_ideals(algebra, ambient) == ideals
        for a in sorted(amb):
            least = frozenset.intersection(*(i for i in ideals if a in i))
            assert ideal_closure(algebra, ambient, {a}) == least, (algebra.name, ambient, a)

    for a_set in subgroups:
        for b_set in subgroups:
            expected = ref_commutator_group_is_trivial(algebra, a_set, b_set)
            assert commutator_group_is_trivial(algebra, a_set, b_set) == expected

    if algebra.size <= 8:
        subgroups_in_order = []
        for mask in range(1 << algebra.size):
            subset = frozenset(i for i in algebra.elements if mask >> i & 1)
            closed = ref_is_omega_subgroup(algebra, subset)
            if closed:
                subgroups_in_order.append(subset)
            assert is_omega_subgroup(algebra, subset) == closed
            assert is_ideal(algebra, subset) == ref_is_ideal(algebra, subset)
            if subset <= inner:
                assert is_ideal(algebra, subset, inner) == ref_is_ideal(algebra, subset, inner)
        assert enumerate_omega_subgroups(algebra) == subgroups_in_order


def test_engine_matches_reference_on_catalog():
    for algebra in CATALOG.values():
        check_against_reference(algebra)


@settings(derandomize=True, max_examples=8, deadline=None)
@given(st.sampled_from(PRODUCT_PAIRS))
def test_engine_matches_reference_on_products(pair):
    algebra, _, _ = direct_product(CATALOG[pair[0]], CATALOG[pair[1]])
    check_against_reference(algebra)


LARGER_PRODUCT_PAIRS = sorted(
    (left, right)
    for left, h1 in CATALOG.items()
    for right, h2 in CATALOG.items()
    if h1.signature == h2.signature and 16 < h1.size * h2.size <= 32
)


@settings(derandomize=True, max_examples=15, deadline=None)
@given(st.sampled_from(LARGER_PRODUCT_PAIRS), st.randoms(use_true_random=False))
def test_ideal_closure_is_a_closure_operator_on_products(pair, rng):
    """Extensive, monotone, idempotent, and its fixed points are the ideals,
    in the whole product and inside a generated subgroup of it."""
    algebra, _, _ = direct_product(CATALOG[pair[0]], CATALOG[pair[1]])
    for _ in range(3):
        ambient = omega_subgroup_closure(algebra, rng.sample(range(algebra.size), rng.randint(0, 2)))
        for amb in (None, ambient):
            pool = sorted(ambient if amb is not None else algebra.elements)
            small = set(rng.sample(pool, rng.randint(0, min(3, len(pool)))))
            large = small | set(rng.sample(pool, rng.randint(0, min(3, len(pool)))))
            closed = ideal_closure(algebra, amb, small)
            assert small <= closed <= ideal_closure(algebra, amb, large), pair
            assert ideal_closure(algebra, amb, closed) == closed, pair
            for subset in (small, large, closed, closed - {0}):
                fixed = ideal_closure(algebra, amb, subset) == subset
                assert is_ideal(algebra, subset, amb) == fixed, (pair, sorted(subset))


def sparse_algebras(count, seed):
    """Sparse random binary operations on Z_2^3: its many subgroups and a
    mostly-zero table make the closures depend on every tuple they form."""
    rng = random.Random(seed)
    xor = [a ^ b for a in range(8) for b in range(8)]
    for _ in range(count):
        table = [0] + [0 if rng.random() < 0.7 else rng.randrange(8) for _ in range(63)]
        yield validate_algebra("sparse", 8, xor, [("w", 2, table)])


def test_engine_matches_reference_on_sparse_random_operations():
    for algebra in sparse_algebras(20, seed=2024):
        check_against_reference(algebra)


def ternary_algebra():
    """Z4 with one ternary operation that is neither additive nor symmetric."""
    z4 = cyclic_group(4)
    table = [(x * y + z * z * x + y * z) % 4 for x in range(4) for y in range(4) for z in range(4)]
    return validate_algebra("Z4-ternary", 4, z4.add, [("t", 3, table)])


def test_engine_matches_reference_on_a_ternary_operation():
    check_against_reference(ternary_algebra())


def test_engine_matches_reference_across_block_boundaries(monkeypatch):
    monkeypatch.setattr(closures, "BLOCK", 5)
    for algebra in (ternary_algebra(), CATALOG["S3"], *sparse_algebras(8, seed=7)):
        check_against_reference(algebra)


def test_array_view_keeps_equality_and_hash():
    fresh_copies = {entry.name: entry.algebra for entry in build_catalog()}
    for name, algebra in CATALOG.items():
        fresh = fresh_copies[name]
        assert fresh._arrays is None
        algebra.arrays  # built and cached on first use
        assert algebra._arrays is not None
        assert algebra == fresh and hash(algebra) == hash(fresh)
        assert repr(algebra) == repr(fresh)


def test_threads_racing_on_the_first_array_view_agree():
    expected = [principal_ideal(CATALOG["S3"], a) for a in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            algebra = symmetric_group_3()  # a fresh copy: its view is not built yet
            results = [None] * 8

            def work(i):
                results[i] = [principal_ideal(algebra, a) for a in range(6)]

            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            assert results == [expected] * 8
    finally:
        sys.setswitchinterval(interval)
