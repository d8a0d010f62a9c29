"""Built-in example algebras with expected classifications, plus the driver
that recomputes every property and cross-checks the expected equivalences.

Expected values are a regression corpus, not ground truth: every run derives
each property from scratch and any mismatch is reported as a violation.
Provenance is "known" for classifications that follow from general facts and
"computed" for values frozen from earlier brute-force runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from .core import FiniteOmegaGroup, as_group, as_lie_ring, as_ring
from .domains import (
    WitnessedVerdict,
    group_zero_divisor_sets,
    is_abelian,
    is_anticommutative,
    is_c_anticommutative,
    is_domain,
    ring_satisfies_formula5,
)
from .zariski import equational_domain_check

DEFAULT_ZARISKI_SIZE = 8


# --- table builders ----------------------------------------------------------


def cyclic_group(n: int) -> FiniteOmegaGroup:
    table = [(i + j) % n for i in range(n) for j in range(n)]
    return as_group(f"Z{n}-group", table)


def cyclic_ring(n: int) -> FiniteOmegaGroup:
    add = [(i + j) % n for i in range(n) for j in range(n)]
    mul = [(i * j) % n for i in range(n) for j in range(n)]
    return as_ring(f"Z{n}-ring", add, mul)


def klein_four_group() -> FiniteOmegaGroup:
    table = [i ^ j for i in range(4) for j in range(4)]
    return as_group("V4-group", table)


def symmetric_group_3() -> FiniteOmegaGroup:
    from itertools import permutations

    perms = list(permutations(range(3)))  # identity first
    index = {p: i for i, p in enumerate(perms)}
    table = []
    for p in perms:
        for q in perms:
            table.append(index[tuple(p[q[x]] for x in range(3))])
    return as_group("S3", table)


def dihedral_4() -> FiniteOmegaGroup:
    # Symmetries of the square: r^k s^f encoded as k + 4f.
    def mul(x: int, y: int) -> int:
        k1, f1 = x % 4, x // 4
        k2, f2 = y % 4, y // 4
        k = (k1 + (k2 if f1 == 0 else -k2)) % 4
        return k + 4 * ((f1 + f2) % 2)

    table = [mul(i, j) for i in range(8) for j in range(8)]
    return as_group("D4", table)


def quaternion_group() -> FiniteOmegaGroup:
    # idx = 2*axis + sign with axes (1, i, j, k); 0 is the identity.
    axis_mul = {
        (0, 0): (0, 0), (0, 1): (0, 1), (0, 2): (0, 2), (0, 3): (0, 3),
        (1, 0): (0, 1), (2, 0): (0, 2), (3, 0): (0, 3),
        (1, 1): (1, 0), (2, 2): (1, 0), (3, 3): (1, 0),
        (1, 2): (0, 3), (2, 3): (0, 1), (3, 1): (0, 2),
        (2, 1): (1, 3), (3, 2): (1, 1), (1, 3): (1, 2),
    }

    def mul(x: int, y: int) -> int:
        sx, ax = x % 2, x // 2
        sy, ay = y % 2, y // 2
        extra, axis = axis_mul[(ax, ay)]
        return 2 * axis + (sx ^ sy ^ extra)

    table = [mul(i, j) for i in range(8) for j in range(8)]
    return as_group("Q8", table)


def field_f4() -> FiniteOmegaGroup:
    # GF(4) as bit pairs c0 + c1*t with t^2 = t + 1.
    def mul(x: int, y: int) -> int:
        a0, a1 = x & 1, x >> 1
        b0, b1 = y & 1, y >> 1
        c0 = (a0 & b0) ^ (a1 & b1)
        c1 = (a0 & b1) ^ (a1 & b0) ^ (a1 & b1)
        return c0 | c1 << 1

    add = [i ^ j for i in range(4) for j in range(4)]
    return as_ring("F4-ring", add, [mul(i, j) for i in range(4) for j in range(4)])


def dual_numbers_f2() -> FiniteOmegaGroup:
    # F2[t]/(t^2) as bit pairs c0 + c1*t.
    def mul(x: int, y: int) -> int:
        a0, a1 = x & 1, x >> 1
        b0, b1 = y & 1, y >> 1
        return (a0 & b0) | ((a0 & b1) ^ (a1 & b0)) << 1

    add = [i ^ j for i in range(4) for j in range(4)]
    return as_ring("F2[t]/(t2)-ring", add, [mul(i, j) for i in range(4) for j in range(4)])


def null_ring_klein() -> FiniteOmegaGroup:
    add = [i ^ j for i in range(4) for j in range(4)]
    return as_ring("null-ring-4", add, [0] * 16)


def matrix_ring_m2_f2() -> FiniteOmegaGroup:
    # [[a, b], [c, d]] over F2 encoded as a + 2b + 4c + 8d.
    def mul(x: int, y: int) -> int:
        a, b, c, d = x & 1, x >> 1 & 1, x >> 2 & 1, x >> 3 & 1
        e, f, g, h = y & 1, y >> 1 & 1, y >> 2 & 1, y >> 3 & 1
        return (
            ((a & e) ^ (b & g))
            | ((a & f) ^ (b & h)) << 1
            | ((c & e) ^ (d & g)) << 2
            | ((c & f) ^ (d & h)) << 3
        )

    add = [i ^ j for i in range(16) for j in range(16)]
    return as_ring("M2(F2)-ring", add, [mul(i, j) for i in range(16) for j in range(16)])


def abelian_lie_f2() -> FiniteOmegaGroup:
    add = [i ^ j for i in range(4) for j in range(4)]
    return as_lie_ring("abelian-lie-4", 2, add, [0] * 16)


def heisenberg_lie_f2() -> FiniteOmegaGroup:
    # Strictly upper triangular 3x3 over F2: (a, b, c) with [x, y] landing in c.
    def bracket(x: int, y: int) -> int:
        a1, b1 = x & 1, x >> 1 & 1
        a2, b2 = y & 1, y >> 1 & 1
        return ((a1 & b2) ^ (a2 & b1)) << 2

    add = [i ^ j for i in range(8) for j in range(8)]
    return as_lie_ring(
        "heisenberg-lie-8", 2, add, [bracket(i, j) for i in range(8) for j in range(8)]
    )


def sl2_f2() -> FiniteOmegaGroup:
    # Trace-zero 2x2 over F2: [[a, b], [c, a]] encoded as a + 2b + 4c.
    def matmul(x, y):
        a1, b1, c1 = x
        a2, b2, c2 = y
        return (
            (a1 & a2) ^ (b1 & c2),
            (a1 & b2) ^ (b1 & a2),
            (c1 & a2) ^ (a1 & c2),
            (c1 & b2) ^ (a1 & a2),
        )

    def bracket(x: int, y: int) -> int:
        m1 = (x & 1, x >> 1 & 1, x >> 2 & 1)
        m2 = (y & 1, y >> 1 & 1, y >> 2 & 1)
        p = matmul(m1, m2)
        q = matmul(m2, m1)
        a, b, c = p[0] ^ q[0], p[1] ^ q[1], p[2] ^ q[2]
        return a | b << 1 | c << 2

    add = [i ^ j for i in range(8) for j in range(8)]
    return as_lie_ring("sl2-f2", 2, add, [bracket(i, j) for i in range(8) for j in range(8)])


# --- catalog -----------------------------------------------------------------

@dataclass(frozen=True)
class CatalogEntry:
    algebra: FiniteOmegaGroup
    expected: dict[str, tuple[bool, str]] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.algebra.name


def _group_expected(abelian: bool) -> dict[str, tuple[bool, str]]:
    return {
        "abelian": (abelian, "computed"),
        "domain": (False, "computed"),
        "anticommutative": (False, "computed"),
        "c-anticommutative": (False, "known"),
        "equational-domain": (False, "known"),
        "remark1": (True, "known"),
    }


def _ring_expected(is_field: bool) -> dict[str, tuple[bool, str]]:
    flag = is_field
    return {
        "abelian": (False, "computed"),
        "domain": (flag, "computed"),
        "anticommutative": (flag, "computed"),
        "c-anticommutative": (flag, "computed"),
        "equational-domain": (flag, "computed"),
        "formula5": (flag, "computed"),
    }


def build_catalog() -> list[CatalogEntry]:
    """All built-in algebras; every entry is validated on construction."""
    entries = [
        CatalogEntry(cyclic_group(2), _group_expected(abelian=True)),
        CatalogEntry(cyclic_group(3), _group_expected(abelian=True)),
        CatalogEntry(cyclic_group(4), _group_expected(abelian=True)),
        CatalogEntry(klein_four_group(), _group_expected(abelian=True)),
        CatalogEntry(symmetric_group_3(), _group_expected(abelian=False)),
        CatalogEntry(dihedral_4(), _group_expected(abelian=False)),
        CatalogEntry(quaternion_group(), _group_expected(abelian=False)),
        CatalogEntry(cyclic_ring(2), _ring_expected(is_field=True)),
        CatalogEntry(cyclic_ring(3), _ring_expected(is_field=True)),
        CatalogEntry(cyclic_ring(4), _ring_expected(is_field=False)),
        CatalogEntry(cyclic_ring(5), _ring_expected(is_field=True)),
        CatalogEntry(cyclic_ring(6), _ring_expected(is_field=False)),
        CatalogEntry(field_f4(), _ring_expected(is_field=True)),
        CatalogEntry(dual_numbers_f2(), _ring_expected(is_field=False)),
        CatalogEntry(null_ring_klein(), {
            "abelian": (True, "computed"),
            "domain": (False, "known"),
            "anticommutative": (False, "computed"),
            "c-anticommutative": (False, "known"),
            "equational-domain": (False, "known"),
            "formula5": (False, "computed"),
        }),
        # A domain in the global-ideal sense (the ring is simple, so every
        # nonzero principal ideal is everything) that still fails the
        # pointwise annihilator formula and C-anticommutativity: the diagonal
        # subring has zero divisors.  See README for the full story.
        CatalogEntry(matrix_ring_m2_f2(), {
            "abelian": (False, "computed"),
            "domain": (True, "computed"),
            "anticommutative": (True, "computed"),
            "c-anticommutative": (False, "computed"),
            "equational-domain": (False, "computed"),
            "formula5": (False, "computed"),
        }),
        CatalogEntry(abelian_lie_f2(), {
            "abelian": (True, "computed"),
            "domain": (False, "known"),
            "anticommutative": (False, "computed"),
            "c-anticommutative": (False, "known"),
            "equational-domain": (False, "known"),
        }),
        CatalogEntry(heisenberg_lie_f2(), {
            "abelian": (False, "computed"),
            "domain": (False, "computed"),
            "anticommutative": (False, "computed"),
            "c-anticommutative": (False, "known"),
            "equational-domain": (False, "known"),
        }),
        CatalogEntry(sl2_f2(), {
            "abelian": (False, "computed"),
            "domain": (False, "computed"),
            "anticommutative": (False, "computed"),
            "c-anticommutative": (False, "known"),
            "equational-domain": (False, "known"),
        }),
    ]
    return entries


def catalog_algebra(name: str) -> FiniteOmegaGroup:
    for entry in build_catalog():
        if entry.name == name:
            return entry.algebra
    raise KeyError(f"no catalog algebra named {name!r}")


# --- classification driver ---------------------------------------------------


@dataclass
class PropertyOutcome:
    value: bool | None
    method: str | None = None
    witness: dict[str, int] | None = None
    skipped: str | None = None
    expected: bool | None = None
    provenance: str | None = None

    def to_dict(self) -> dict:
        out: dict = {"value": self.value}
        if self.method is not None:
            out["method"] = self.method
        if self.witness is not None:
            out["witness"] = dict(sorted(self.witness.items()))
        if self.skipped is not None:
            out["skipped"] = self.skipped
        if self.expected is not None:
            out["expected"] = self.expected
            out["provenance"] = self.provenance
        return out


@dataclass
class AlgebraClassification:
    name: str
    size: int
    kind: str
    properties: dict[str, PropertyOutcome]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "size": self.size,
            "kind": self.kind,
            "properties": {k: v.to_dict() for k, v in self.properties.items()},
        }


@dataclass
class ClassificationReport:
    algebras: list[AlgebraClassification]
    violations: list[str]
    max_zariski_size: int

    def to_dict(self) -> dict:
        return {
            "max_zariski_size": self.max_zariski_size,
            "algebras": [a.to_dict() for a in self.algebras],
            "violations": list(self.violations),
        }


def _outcome(verdict: WitnessedVerdict, expected) -> PropertyOutcome:
    exp_value, prov = expected if expected is not None else (None, None)
    return PropertyOutcome(
        value=verdict.verdict,
        method=verdict.method,
        witness=verdict.witness,
        expected=exp_value,
        provenance=prov,
    )


def classify_algebra(
    entry: CatalogEntry, max_zariski_size: int = DEFAULT_ZARISKI_SIZE
) -> AlgebraClassification:
    algebra = entry.algebra
    exp = entry.expected
    props: dict[str, PropertyOutcome] = {}
    props["abelian"] = _outcome(is_abelian(algebra), exp.get("abelian"))
    props["domain"] = _outcome(is_domain(algebra), exp.get("domain"))
    props["anticommutative"] = _outcome(is_anticommutative(algebra), exp.get("anticommutative"))
    props["c-anticommutative"] = _outcome(
        is_c_anticommutative(algebra), exp.get("c-anticommutative")
    )
    if algebra.size <= max_zariski_size:
        props["equational-domain"] = _outcome(
            equational_domain_check(algebra), exp.get("equational-domain")
        )
    else:
        exp_value, prov = exp.get("equational-domain", (None, None))
        props["equational-domain"] = PropertyOutcome(
            value=None,
            skipped=f"guard exceeded: size {algebra.size} > {max_zariski_size}",
            expected=exp_value,
            provenance=prov,
        )
    if algebra.kind == "ring":
        props["formula5"] = _outcome(ring_satisfies_formula5(algebra), exp.get("formula5"))
    if algebra.kind == "group":
        set_pair, set_single = group_zero_divisor_sets(algebra)
        equal = set_pair == set_single
        exp_value, prov = exp.get("remark1", (None, None))
        props["remark1"] = PropertyOutcome(
            value=equal,
            method="conjugate-commutation-sets",
            witness=None,
            expected=exp_value,
            provenance=prov,
        )
    return AlgebraClassification(algebra.name, algebra.size, algebra.kind, props)


def _cross_check(cls: AlgebraClassification) -> list[str]:
    """Equivalences that must hold whenever both sides were computed."""
    v = {
        name: out.value
        for name, out in cls.properties.items()
        if out.value is not None
    }
    checks = [
        ("domain", "anticommutative"),
        ("c-anticommutative", "equational-domain"),
        ("c-anticommutative", "formula5"),
    ]
    out = []
    for left, right in checks:
        if left in v and right in v and v[left] != v[right]:
            out.append(f"{cls.name}: {left}={v[left]} but {right}={v[right]}")
    if "remark1" in v and v["remark1"] is not True:
        out.append(f"{cls.name}: conjugate-commutation set renderings differ")
    return out


def run_classification(max_zariski_size: int = DEFAULT_ZARISKI_SIZE) -> ClassificationReport:
    """Classify every catalog entry, compare against expectations, cross-check theorems."""
    algebras = []
    violations: list[str] = []
    for entry in build_catalog():
        cls = classify_algebra(entry, max_zariski_size)
        algebras.append(cls)
        for name, outcome in cls.properties.items():
            if outcome.expected is not None and outcome.value is not None:
                if outcome.value != outcome.expected:
                    violations.append(
                        f"{cls.name}: {name} computed {outcome.value}, "
                        f"expected {outcome.expected} ({outcome.provenance})"
                    )
        violations.extend(_cross_check(cls))
    return ClassificationReport(algebras, violations, max_zariski_size)
