import pytest

from omegagroups.catalog import (
    cyclic_group,
    cyclic_ring,
    heisenberg_lie_f2,
    symmetric_group_3,
)
from omegagroups.core import (
    apply_operation,
    as_group,
    as_lie_ring,
    as_ring,
    direct_product,
    embed_classical,
    homomorphism,
    validate_algebra,
)
from omegagroups.closures import commutator_group, omega_subgroup_closure
from omegagroups.errors import (
    ArityMismatchError,
    LawViolationError,
    MalformedTableError,
    NotAGroupError,
    OmegaZeroViolationError,
    SignatureMismatchError,
    UnknownOperationError,
)

Z4_ADD = [(i + j) % 4 for i in range(4) for j in range(4)]
Z4_MUL = [(i * j) % 4 for i in range(4) for j in range(4)]


def test_validate_z4_ring_tables():
    algebra = validate_algebra("z4", 4, Z4_ADD, [("mul", 2, Z4_MUL)])
    assert algebra.size == 4
    assert algebra.neg == (0, 3, 2, 1)
    assert algebra.signature == (("mul", 2),)


def test_validate_rejects_bad_identity_row():
    table = [(i + j + 1) % 3 for i in range(3) for j in range(3)]
    with pytest.raises(NotAGroupError):
        validate_algebra("shifted", 3, table)


def test_validate_rejects_omega_zero_violation():
    with pytest.raises(OmegaZeroViolationError) as err:
        validate_algebra("bad", 2, [0, 1, 1, 0], [("flip", 1, [1, 0])])
    assert "flip" in str(err.value)


def test_validate_rejects_malformed_tables():
    with pytest.raises(MalformedTableError):
        validate_algebra("short", 3, [0, 1, 2, 1, 2, 0])
    with pytest.raises(MalformedTableError):
        validate_algebra("range", 2, [0, 1, 1, 5])


def test_apply_operation_z4():
    z4 = validate_algebra("z4", 4, Z4_ADD, [("mul", 2, Z4_MUL)])
    assert apply_operation(z4, "add", (2, 3)) == 1
    assert apply_operation(z4, "neg", (3,)) == 1
    assert apply_operation(z4, "mul", (2, 2)) == 0
    with pytest.raises(ArityMismatchError):
        apply_operation(z4, "add", (1,))
    with pytest.raises(UnknownOperationError):
        apply_operation(z4, "pow", (1, 2))


def test_direct_product_of_groups():
    z2 = cyclic_group(2)
    prod, p1, p2 = direct_product(z2, z2)
    assert prod.size == 4
    # projections are genuine homomorphisms
    homomorphism(prod, z2, p1.mapping)
    homomorphism(prod, z2, p2.mapping)


def test_direct_product_of_rings_is_z6():
    prod, _, _ = direct_product(cyclic_ring(2), cyclic_ring(3))
    z6 = cyclic_ring(6)
    # CRT map (a, b) -> 3a + 4b mod 6, on the packed index a*3 + b
    mapping = tuple((3 * (x // 3) + 4 * (x % 3)) % 6 for x in range(6))
    iso = homomorphism(prod, z6, mapping)
    assert len(set(iso.mapping)) == 6


def test_direct_product_requires_matching_signatures():
    with pytest.raises(SignatureMismatchError):
        direct_product(cyclic_group(2), cyclic_ring(2))


def test_direct_product_equals_its_validated_tables(algebras):
    """Products skip validation; validating their tables gives the same algebra."""
    for h1 in algebras.values():
        for h2 in algebras.values():
            if h1.size * h2.size > 64:
                continue
            if h1.signature != h2.signature:
                with pytest.raises(SignatureMismatchError):
                    direct_product(h1, h2)
                continue
            prod, _, _ = direct_product(h1, h2)
            omega = [(op.name, op.arity, op.table) for op in prod.omega]
            checked = validate_algebra(prod.name, prod.size, prod.add, omega, prod.kind)
            assert prod == checked and hash(prod) == hash(checked), prod.name
            assert prod.neg == checked.neg and prod.kind == checked.kind, prod.name


def test_factor_copies_commute_in_any_product():
    prod, _, _ = direct_product(cyclic_group(2), cyclic_group(2))
    left = frozenset({0, 2})   # Z2 x 0
    right = frozenset({0, 1})  # 0 x Z2
    assert commutator_group(prod, left, right) == {0}
    ring_prod, _, _ = direct_product(cyclic_ring(2), cyclic_ring(3))
    left = omega_subgroup_closure(ring_prod, {3})
    right = omega_subgroup_closure(ring_prod, {1})
    assert commutator_group(ring_prod, left, right) == {0}


def test_embed_classical_group_and_ring():
    s3 = symmetric_group_3()
    assert s3.kind == "group" and s3.size == 6 and not s3.omega
    again = embed_classical("group", "s3", {"add": list(s3.add)})
    assert again.add == s3.add
    ring = embed_classical("ring", "z4", {"add": Z4_ADD, "mul": Z4_MUL})
    assert ring.kind == "ring"


def test_embed_classical_lie_checks_laws():
    heis = heisenberg_lie_f2()
    assert heis.kind == "lie-ring"
    assert heis.op("bracket", 1, 2) == 4  # [x, y] = z
    assert heis.op("bracket", 1, 4) == 0
    bad_bracket = [0] * 64
    bad_bracket[1 * 8 + 2] = 4  # not bilinear: only one nonzero entry
    with pytest.raises(LawViolationError):
        as_lie_ring("bad", 2, [i ^ j for i in range(8) for j in range(8)], bad_bracket)


def test_as_ring_rejects_noncommutative_addition():
    s3 = symmetric_group_3()
    with pytest.raises(LawViolationError):
        as_ring("s3+", list(s3.add), [0] * 36)


def test_zero_preservation_across_catalog(algebras):
    for algebra in algebras.values():
        for table in algebra.omega:
            assert algebra.op(table.name, *([0] * table.arity)) == 0


def test_group_laws_exhaustive(algebras):
    for algebra in algebras.values():
        for a in algebra.elements:
            assert algebra.neg_of(algebra.neg_of(a)) == a
            assert algebra.add_of(a, algebra.neg_of(a)) == 0


def test_projections_preserve_operations_up_to_36():
    pairs = [
        (cyclic_group(4), symmetric_group_3()),
        (cyclic_ring(6), cyclic_ring(6)),
        (symmetric_group_3(), cyclic_group(6)),
    ]
    for h1, h2 in pairs:
        prod, p1, p2 = direct_product(h1, h2)
        assert prod.size <= 36
        homomorphism(prod, h1, p1.mapping)
        homomorphism(prod, h2, p2.mapping)


def test_group_table_from_nonidentity_start_rejected():
    # a group table whose element 0 is not the identity
    perm = [1, 0, 2]
    table = []
    for i in range(3):
        for j in range(3):
            table.append(perm.index((perm[i] + perm[j]) % 3))
    with pytest.raises(NotAGroupError):
        as_group("relabeled", table)
