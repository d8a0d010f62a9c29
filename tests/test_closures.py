import random

import pytest

from omegagroups.catalog import cyclic_group, cyclic_ring, symmetric_group_3
from omegagroups.closures import (
    commutator_group,
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
from omegagroups.domains import is_abelian, is_anticommutative, is_anticommutative_exhaustive
from omegagroups.errors import (
    InvalidArgumentError,
    NotASubgroupError,
    NotContainedError,
    TooLargeError,
)

# S3 element indices (permutations of (0,1,2) in lexicographic order):
# 0=id, 1=(12), 2=(01), 3=(012), 4=(021), 5=(02)
A3 = frozenset({0, 3, 4})
S3_ALL = frozenset(range(6))


def test_subgroup_closure_examples():
    z4r = cyclic_ring(4)
    assert omega_subgroup_closure(z4r, {2}) == {0, 2}
    s3 = symmetric_group_3()
    assert generated_subgroup(s3, 3) == A3
    assert omega_subgroup_closure(s3, {0}) == {0}


def test_ideal_closure_examples():
    s3 = symmetric_group_3()
    assert principal_ideal(s3, 1) == S3_ALL  # normal closure of a transposition
    assert principal_ideal(s3, 3) == A3
    z4r = cyclic_ring(4)
    assert principal_ideal(z4r, 2) == {0, 2}


def test_ideal_closure_preconditions():
    s3 = symmetric_group_3()
    with pytest.raises(NotASubgroupError):
        ideal_closure(s3, frozenset({0, 1, 3}), {1})
    with pytest.raises(NotContainedError):
        ideal_closure(s3, A3, {1})


def test_bad_elements_are_value_errors_of_the_package():
    z4 = cyclic_ring(4)
    malformed = [
        lambda: omega_subgroup_closure(z4, [7]),
        lambda: is_omega_subgroup(z4, {0, 9}),
        lambda: is_omega_subgroup(z4, {0, -2}),  # not wrapped round to {0, 2}
        lambda: generated_subgroup(z4, -2),
        lambda: ideal_closure(z4, None, [1.0]),
        lambda: ideal_closure(z4, {0, 9}, [0]),
        lambda: principal_ideal(z4, "1"),
        lambda: is_ideal(z4, {0, 9}),
        lambda: is_ideal(z4, {0}, {0, 2, 9}),
        lambda: commutator_group(z4, frozenset({0, 9}), frozenset({0})),
        lambda: commutator_group_is_trivial(z4, frozenset({0}), frozenset({0, -1})),
        lambda: enumerate_ideals(z4, {0, 4}),
        lambda: is_abelian(z4, {0, 5}),
        lambda: is_anticommutative(z4, {0, 2.0}),
        lambda: is_anticommutative_exhaustive(z4, {0, 9}),
    ]
    for call in malformed:
        with pytest.raises(InvalidArgumentError):
            call()
    assert is_omega_subgroup(z4, {0, 2}) and generated_subgroup(z4, 2) == {0, 2}


def test_commutator_group_examples():
    s3 = symmetric_group_3()
    assert commutator_group(s3, A3, A3) == {0}
    assert commutator_group(s3, S3_ALL, S3_ALL) == A3
    assert commutator_group(s3, frozenset({0}), S3_ALL) == {0}
    with pytest.raises(NotASubgroupError):
        commutator_group(s3, frozenset({1}), S3_ALL)


def test_commutator_triviality_shortcut_agrees(small_algebras):
    rng = random.Random(7)
    for algebra in small_algebras.values():
        nonzero = range(1, algebra.size)
        for _ in range(12):
            a = generated_subgroup(algebra, rng.choice(list(nonzero)))
            b = generated_subgroup(algebra, rng.choice(list(nonzero)))
            trivial, _ = commutator_group_is_trivial(algebra, a, b)
            assert trivial == (commutator_group(algebra, a, b) == {0})


def test_commutator_triviality_rejects_sets_that_are_not_subgroups():
    s3 = symmetric_group_3()
    for a_set, b_set in ((frozenset({1}), S3_ALL), (S3_ALL, frozenset({0, 1, 3}))):
        with pytest.raises(NotASubgroupError):
            commutator_group_is_trivial(s3, a_set, b_set)


def test_enumerate_ideals_examples():
    z4r = cyclic_ring(4)
    assert [sorted(i) for i in enumerate_ideals(z4r)] == [[0], [0, 2], [0, 1, 2, 3]]
    s3 = symmetric_group_3()
    assert [sorted(i) for i in enumerate_ideals(s3)] == [[0], [0, 3, 4], list(range(6))]
    trivial = validate_algebra("one", 1, [0])
    assert enumerate_ideals(trivial) == [frozenset({0})]


def test_enumerate_ideals_guard():
    big, _, _ = direct_product(cyclic_group(6), cyclic_group(3))
    assert big.size == 18
    with pytest.raises(TooLargeError):
        enumerate_ideals(big)


def test_closure_laws(catalog):
    rng = random.Random(99)
    for entry in catalog:
        algebra = entry.algebra
        seeds = [{a} for a in algebra.elements]
        seeds += [
            set(rng.sample(range(algebra.size), rng.randint(0, algebra.size)))
            for _ in range(100)
        ]
        for seed in seeds:
            for close in (
                lambda s: omega_subgroup_closure(algebra, s),
                lambda s: ideal_closure(algebra, None, s),
            ):
                closed = close(seed)
                assert seed <= closed  # extensive
                assert close(closed) == closed  # idempotent
        for _ in range(20):  # monotone
            small = set(rng.sample(range(algebra.size), rng.randint(0, 2)))
            large = small | set(rng.sample(range(algebra.size), rng.randint(0, 2)))
            assert omega_subgroup_closure(algebra, small) <= omega_subgroup_closure(
                algebra, large
            )
            assert ideal_closure(algebra, None, small) <= ideal_closure(
                algebra, None, large
            )


def test_ideal_closure_minimality(small_algebras):
    rng = random.Random(17)
    for algebra in small_algebras.values():
        ideals = enumerate_ideals(algebra)
        seeds = [{a} for a in algebra.elements]
        seeds += [
            set(rng.sample(range(algebra.size), rng.randint(0, min(3, algebra.size))))
            for _ in range(20)
        ]
        for seed in seeds:
            computed = ideal_closure(algebra, None, seed)
            containing = [i for i in ideals if seed <= i]
            least = frozenset.intersection(*containing)
            assert computed == least


def test_every_enumerated_ideal_is_a_fixed_point(small_algebras):
    for algebra in small_algebras.values():
        for ideal in enumerate_ideals(algebra):
            assert is_ideal(algebra, ideal)
            assert ideal_closure(algebra, None, ideal) == ideal


def test_homomorphic_image_of_principal_ideals():
    pairs = [
        (cyclic_ring(2), cyclic_ring(3)),
        (cyclic_group(2), cyclic_group(2)),
        (symmetric_group_3(), cyclic_group(2)),
    ]
    for h1, h2 in pairs:
        prod, p1, p2 = direct_product(h1, h2)
        for proj, target in ((p1, h1), (p2, h2)):
            for a in prod.elements:
                image = proj.image(principal_ideal(prod, a))
                assert image == principal_ideal(target, proj(a))


def test_commutator_symmetry(small_algebras):
    rng = random.Random(31)
    for algebra in small_algebras.values():
        subgroups = {generated_subgroup(algebra, a) for a in algebra.elements}
        for _ in range(10):
            gens = rng.sample(range(algebra.size), 2)
            subgroups.add(omega_subgroup_closure(algebra, gens))
        pool = sorted(subgroups, key=sorted)
        for a_set in pool:
            for b_set in pool:
                assert commutator_group(algebra, a_set, b_set) == commutator_group(
                    algebra, b_set, a_set
                )


def test_commutator_containment_for_ideal_pairs(small_algebras):
    for algebra in small_algebras.values():
        ideals = enumerate_ideals(algebra)
        for i1 in ideals:
            for i2 in ideals:
                assert commutator_group(algebra, i1, i2) <= (i1 & i2)


def test_ring_commutator_matches_product_span(small_algebras):
    """For subrings, the commutator group is generated by the two-sided
    products together with the additive commutators."""
    rings = [a for a in small_algebras.values() if a.kind == "ring"]
    for algebra in rings:
        subrings = enumerate_omega_subgroups(algebra)
        for u1 in subrings:
            for u2 in subrings:
                ambient = omega_subgroup_closure(algebra, u1 | u2)
                gens = set()
                for x in u1:
                    for y in u2:
                        gens.add(algebra.op("mul", x, y))
                        gens.add(algebra.op("mul", y, x))
                        gens.add(algebra.group_commutator(x, y))
                expected = ideal_closure(algebra, ambient, gens)
                assert commutator_group(algebra, u1, u2) == expected


def test_subgroup_mask_predicates():
    s3 = symmetric_group_3()
    assert is_omega_subgroup(s3, A3)
    assert not is_omega_subgroup(s3, frozenset({0, 1, 3}))
    assert is_ideal(s3, A3)
    assert not is_ideal(s3, frozenset({0, 1}))  # not normal
