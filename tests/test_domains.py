import pytest

from omegagroups.catalog import (
    cyclic_group,
    cyclic_ring,
    dual_numbers_f2,
    matrix_ring_m2_f2,
    quaternion_group,
    symmetric_group_3,
)
from omegagroups import closures
from omegagroups.closures import commutator_group, enumerate_ideals, enumerate_omega_subgroups
from omegagroups.domains import (
    group_zero_divisor_sets,
    is_abelian,
    is_anticommutative,
    is_anticommutative_exhaustive,
    is_c_anticommutative,
    is_domain,
    ring_satisfies_formula5,
    zero_divisor_witness,
)
from omegagroups.errors import NotAGroupError, NotARingError, NotASubgroupError


def test_is_abelian_examples():
    assert is_abelian(cyclic_group(4)).verdict
    z3r = cyclic_ring(3)
    verdict = is_abelian(z3r)
    assert not verdict.verdict and verdict.method.startswith("nonzero-omega-commutator")
    s3 = symmetric_group_3()
    assert not is_abelian(s3).verdict
    assert is_abelian(s3, frozenset({0, 3, 4})).verdict  # A3 inside S3
    with pytest.raises(NotASubgroupError):
        is_abelian(s3, frozenset({0, 1, 3}))


def test_zero_divisor_examples():
    assert not zero_divisor_witness(cyclic_ring(3)).verdict
    z4 = zero_divisor_witness(cyclic_ring(4))
    assert z4.verdict and z4.witness == {"a": 2, "b": 2}
    s3 = zero_divisor_witness(symmetric_group_3())
    assert s3.verdict and s3.witness == {"a": 3, "b": 3}  # a 3-cycle against itself


def test_is_domain_mirrors_witness():
    verdict = is_domain(cyclic_ring(4))
    assert not verdict.verdict and verdict.witness == {"a": 2, "b": 2}
    assert is_domain(cyclic_ring(5)).verdict


def test_anticommutative_examples():
    assert is_anticommutative(cyclic_ring(3)).verdict
    s3 = is_anticommutative(symmetric_group_3())
    assert not s3.verdict
    assert s3.method == "abelian-principal-ideal" and s3.witness == {"a": 3}
    q8 = is_anticommutative(quaternion_group())
    assert not q8.verdict and q8.witness == {"a": 1}  # -1 spans the center


def test_c_anticommutative_examples():
    assert is_c_anticommutative(cyclic_ring(3)).verdict
    for n in (2, 3, 4):
        assert not is_c_anticommutative(cyclic_group(n)).verdict
    dual = is_c_anticommutative(dual_numbers_f2())
    assert not dual.verdict and dual.witness == {"a": 2, "b": 2}  # t annihilates itself


def test_c_anticommutative_takes_no_oracle_limit():
    with pytest.raises(TypeError):
        is_c_anticommutative(cyclic_ring(3), oracle_limit=0)


def test_formula5_examples():
    assert ring_satisfies_formula5(cyclic_ring(5)).verdict
    z4 = ring_satisfies_formula5(cyclic_ring(4))
    assert not z4.verdict and z4.witness == {"x": 2, "y": 2}
    m2 = ring_satisfies_formula5(matrix_ring_m2_f2())
    assert not m2.verdict and m2.witness == {"x": 1, "y": 8}  # E11, E22
    with pytest.raises(NotARingError):
        ring_satisfies_formula5(cyclic_group(4))


def test_group_zero_divisor_sets_examples():
    for n in (2, 3, 4):
        pair_set, single_set = group_zero_divisor_sets(cyclic_group(n))
        assert pair_set == single_set == frozenset(range(1, n))
    for group in (symmetric_group_3(), quaternion_group()):
        pair_set, single_set = group_zero_divisor_sets(group)
        assert pair_set == single_set
    with pytest.raises(NotAGroupError):
        group_zero_divisor_sets(cyclic_ring(4))


def test_s3_zero_divisors_are_the_three_cycles():
    pair_set, _ = group_zero_divisor_sets(symmetric_group_3())
    assert pair_set == frozenset({3, 4})


def test_domain_iff_anticommutative(algebras):
    for algebra in algebras.values():
        assert is_domain(algebra).verdict == is_anticommutative(algebra).verdict, algebra.name


def test_matrix_ring_divergence():
    """M2(F2) separates the global-ideal notions from the subalgebra ones:
    it is simple, hence a domain with no abelian ideals, while its diagonal
    subring has two-sided annihilating pairs."""
    m2 = matrix_ring_m2_f2()
    assert is_domain(m2).verdict
    assert is_anticommutative(m2).verdict
    c = is_c_anticommutative(m2)
    assert not c.verdict and c.witness == {"a": 1, "b": 8}
    assert not ring_satisfies_formula5(m2).verdict


def test_principal_ideal_reduction_matches_exhaustive(small_algebras):
    for algebra in small_algebras.values():
        fast = is_anticommutative(algebra)
        slow = is_anticommutative_exhaustive(algebra)
        assert fast.verdict == slow.verdict, algebra.name


def test_reduction_matches_exhaustive_on_proper_subgroups(small_algebras):
    for algebra in small_algebras.values():
        subgroups = [s for s in enumerate_omega_subgroups(algebra) if len(s) > 1]
        for subgroup in subgroups[:12]:
            fast = is_anticommutative(algebra, subgroup)
            slow = is_anticommutative_exhaustive(algebra, subgroup)
            assert fast.verdict == slow.verdict, (algebra.name, sorted(subgroup))


def test_nontrivial_abelian_subgroup_blocks_c_anticommutativity(small_algebras):
    for algebra in small_algebras.values():
        has_abelian = any(
            len(s) > 1 and is_abelian(algebra, s).verdict
            for s in enumerate_omega_subgroups(algebra)
        )
        if has_abelian:
            assert not is_c_anticommutative(algebra).verdict, algebra.name


def test_implication_chain(algebras):
    for algebra in algebras.values():
        c_anti = is_c_anticommutative(algebra).verdict
        anti = is_anticommutative(algebra).verdict
        domain = is_domain(algebra).verdict
        if c_anti:
            assert anti, algebra.name
        if anti:
            assert domain, algebra.name


def test_abelian_ideals_detected_against_enumeration(small_algebras):
    from omegagroups.closures import commutator_group

    for algebra in small_algebras.values():
        for ideal in enumerate_ideals(algebra):
            expected = commutator_group(algebra, ideal, ideal) == {0}
            assert is_abelian(algebra, ideal).verdict == expected


def test_subgroup_arguments_are_scanned_once(monkeypatch):
    scans = []
    adds_nothing = closures._adds_nothing
    monkeypatch.setattr(
        closures, "_adds_nothing", lambda *args: scans.append(args) or adds_nothing(*args)
    )
    m2 = matrix_ring_m2_f2()
    assert is_anticommutative(m2)  # every principal ideal is closed, none of them checked
    assert len(scans) == 1  # the subgroup itself, not once more per principal ideal
    scans.clear()
    whole = frozenset(m2.elements)
    assert commutator_group(m2, whole, whole) == whole
    assert len(scans) == 2
