"""Structural predicates: abelian, zero divisors, domain, anticommutativity.

Each decision returns a WitnessedVerdict.  Falsifying-existential verdicts
carry a witness mapping role names to carrier elements, so every reported
failure can be replayed by hand.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .closures import (
    _close,
    _commutator_scan,
    _indices,
    enumerate_ideals,
    enumerate_omega_subgroups,
    generated_subgroup,
    is_omega_subgroup,
    principal_ideal,
)
from .core import FiniteOmegaGroup
from .errors import (
    NotAGroupError,
    NotARingError,
    NotASubgroupError,
    OracleDisagreementError,
)

C_ANTICOMMUTATIVE_ORACLE_LIMIT = 8


@dataclass(frozen=True)
class WitnessedVerdict:
    verdict: bool
    method: str
    witness: dict[str, int] | None = field(default=None)

    def __bool__(self) -> bool:
        return self.verdict


def is_abelian(
    algebra: FiniteOmegaGroup, subset: frozenset[int] | None = None
) -> WitnessedVerdict:
    """True iff the subgroup's commutator group with itself is trivial."""
    p = frozenset(algebra.elements) if subset is None else frozenset(subset)
    if not is_omega_subgroup(algebra, p):
        raise NotASubgroupError("is_abelian expects a closed subgroup")
    trivial, desc = _commutator_scan(algebra, p, p)
    if trivial:
        return WitnessedVerdict(True, "self-commutator-trivial")
    if desc[0] == "commutator":
        witness = {"a": desc[1], "b": desc[2]}
        method = "nonzero-group-commutator"
    else:
        witness = {f"a{i+1}": v for i, v in enumerate(desc[2])}
        witness.update({f"b{i+1}": v for i, v in enumerate(desc[3])})
        method = f"nonzero-omega-commutator:{desc[1]}"
    return WitnessedVerdict(False, method, witness)


def zero_divisor_witness(algebra: FiniteOmegaGroup) -> WitnessedVerdict:
    """Search for a nonzero pair whose principal ideals have trivial commutator.

    Verdict True means a zero-divisor pair exists; the scan is lexicographic
    in (a, b) so the reported witness is deterministic.
    """
    ideals = {a: principal_ideal(algebra, a) for a in range(1, algebra.size)}
    pair = _first_trivial_pair(algebra, ideals)
    if pair is None:
        return WitnessedVerdict(False, "principal-ideal-commutator")
    return WitnessedVerdict(True, "principal-ideal-commutator", {"a": pair[0], "b": pair[1]})


def _first_trivial_pair(algebra: FiniteOmegaGroup, sets: dict[int, frozenset[int]]):
    """The first (a, b), in the order of the keys, whose sets have a trivial commutator."""
    for a in sets:
        for b in sets:
            if _commutator_scan(algebra, sets[a], sets[b])[0]:
                return a, b
    return None


def is_domain(algebra: FiniteOmegaGroup) -> WitnessedVerdict:
    """No zero divisors; witness (when False) is the first zero-divisor pair."""
    found = zero_divisor_witness(algebra)
    return WitnessedVerdict(not found.verdict, found.method, found.witness)


def is_anticommutative(
    algebra: FiniteOmegaGroup, subset: frozenset[int] | None = None
) -> WitnessedVerdict:
    """No nontrivial abelian ideal, and no two disjoint nontrivial ideals.

    Both conditions are decided on principal ideals only: a nontrivial
    (abelian) ideal always contains a nontrivial principal (abelian) ideal,
    so nothing is lost.  The enumerate_ideals-based oracle that guards this
    reduction lives in is_anticommutative_exhaustive.
    """
    p = frozenset(algebra.elements) if subset is None else frozenset(subset)
    if not is_omega_subgroup(algebra, p):
        raise NotASubgroupError("is_anticommutative expects a closed subgroup")
    nonzero = [a for a in sorted(p) if a != 0]
    ambient = _indices(p)
    ideals = {a: _close(algebra.arrays, (a,), ambient, len(p)) for a in nonzero}
    for a in nonzero:
        trivial, _ = _commutator_scan(algebra, ideals[a], ideals[a])
        if trivial:
            return WitnessedVerdict(False, "abelian-principal-ideal", {"a": a})
    for a in nonzero:
        for b in nonzero:
            if ideals[a] & ideals[b] == {0}:
                return WitnessedVerdict(False, "disjoint-principal-ideals", {"a": a, "b": b})
    return WitnessedVerdict(True, "principal-ideal-reduction")


def is_anticommutative_exhaustive(
    algebra: FiniteOmegaGroup, subset: frozenset[int] | None = None
) -> WitnessedVerdict:
    """Oracle variant quantifying over all ideals from enumerate_ideals."""
    p = frozenset(algebra.elements) if subset is None else frozenset(subset)
    ideals = [i for i in enumerate_ideals(algebra, p if subset is not None else None)
              if i != {0}]
    for ideal in ideals:
        trivial, _ = _commutator_scan(algebra, ideal, ideal)
        if trivial:
            a = min(x for x in ideal if x != 0)
            return WitnessedVerdict(False, "abelian-ideal-exhaustive", {"a": a})
    for i1 in ideals:
        for i2 in ideals:
            if i1 & i2 == {0}:
                a = min(x for x in i1 if x != 0)
                b = min(x for x in i2 if x != 0)
                return WitnessedVerdict(False, "disjoint-ideals-exhaustive", {"a": a, "b": b})
    return WitnessedVerdict(True, "ideal-scan")


def is_c_anticommutative(algebra: FiniteOmegaGroup) -> WitnessedVerdict:
    """Every nonzero closed subgroup is anticommutative.

    Primary criterion: for all nonzero a, b the commutator group of the
    generated subgroups is nontrivial.  For carriers of at most
    C_ANTICOMMUTATIVE_ORACLE_LIMIT elements an exhaustive subgroup scan
    re-decides the property; disagreement raises, since it can only mean an
    implementation bug.
    """
    verdict = _c_anticommutative_criterion(algebra)
    if algebra.size <= C_ANTICOMMUTATIVE_ORACLE_LIMIT:
        oracle = _c_anticommutative_oracle(algebra)
        if oracle.verdict != verdict.verdict:
            raise OracleDisagreementError(
                f"{algebra.name}: criterion={verdict.verdict} oracle={oracle.verdict}"
            )
    return verdict


def _c_anticommutative_criterion(algebra: FiniteOmegaGroup) -> WitnessedVerdict:
    subgroups = {a: generated_subgroup(algebra, a) for a in range(1, algebra.size)}
    pair = _first_trivial_pair(algebra, subgroups)
    if pair is None:
        return WitnessedVerdict(True, "generated-subgroup-commutator")
    return WitnessedVerdict(False, "generated-subgroup-commutator", {"a": pair[0], "b": pair[1]})


def _c_anticommutative_oracle(algebra: FiniteOmegaGroup) -> WitnessedVerdict:
    for subgroup in enumerate_omega_subgroups(algebra):
        if subgroup == {0}:
            continue
        inner = is_anticommutative(algebra, subgroup)
        if not inner.verdict:
            a = min(x for x in subgroup if x != 0)
            return WitnessedVerdict(False, "subgroup-scan", {"subgroup_generator": a})
    return WitnessedVerdict(True, "subgroup-scan")


def ring_satisfies_formula5(algebra: FiniteOmegaGroup) -> WitnessedVerdict:
    """For rings: no nonzero pair with xy = yx = 0."""
    if algebra.kind != "ring":
        raise NotARingError(f"{algebra.name} was not built as a ring")
    mul = algebra.arrays.ops[algebra.omega.index(algebra.operation("mul"))]
    annihilating = (mul == 0) & (mul.T == 0)
    annihilating[0] = annihilating[:, 0] = False
    if annihilating.any():
        x, y = np.unravel_index(np.argmax(annihilating), annihilating.shape)
        return WitnessedVerdict(False, "two-sided-annihilating-pair", {"x": int(x), "y": int(y)})
    return WitnessedVerdict(True, "two-sided-annihilating-pair")


def group_zero_divisor_sets(
    algebra: FiniteOmegaGroup,
) -> tuple[frozenset[int], frozenset[int]]:
    """Two renderings of the zero-divisor set of a group, for equality testing.

    First set: a such that some nonzero b has all conjugates of a commuting
    with all conjugates of b.  Second set: a such that some nonzero b commutes
    with every conjugate of a.
    """
    if algebra.omega:
        raise NotAGroupError(f"{algebra.name} has extra operations; expected a pure group")
    view = algebra.arrays
    elements = np.arange(algebra.size)
    # classes[a, x]: x is a conjugate -g + a + g of a
    conjugates = view.add[view.add[view.neg, elements[:, None]], elements]
    classes = np.zeros((algebra.size,) * 2, dtype=bool)
    classes[elements[:, None], conjugates] = True
    # clash[x, y]: the group commutator -x - y + x + y is nonzero
    minus = view.add[view.neg[:, None], view.neg]  # -x - y
    clash = view.add[view.add[minus, elements[:, None]], elements] != 0
    # [a, b]: some conjugate of a fails to commute with some conjugate of b
    # (pair), or with b itself (single); a and b run over the nonzero elements.
    pair_clash = (classes @ clash @ classes.T)[1:, 1:]
    single_clash = (classes @ clash)[1:, 1:]
    set_pair = frozenset((1 + np.nonzero((~pair_clash).any(axis=1))[0]).tolist())
    set_single = frozenset((1 + np.nonzero((~single_clash).any(axis=1))[0]).tolist())
    return set_pair, set_single
